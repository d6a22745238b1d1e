"""Moment map, Haar sampling, moment polytopes, stabilizers, singular values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import moment, polytopes, weyl
from orbitkit.forms import (
    OrbitClass,
    STABILIZER_DIM,
    TwoForm,
    classify,
    torus_rotation,
    conjugate,
)


def test_mu_examples():
    assert moment.mu_t(TwoForm.from_cartan((1, 1, 1))) == (1.0, 1.0, 1.0)
    f = TwoForm.basis(1, 2) + 5 * TwoForm.basis(1, 3)
    assert moment.mu_t(f) == (1.0, 0.0, 0.0)


def test_mu_of_sign_flip_family():
    # -w0 + 2 e ^ (J0 e) projects to (-1 + 2(x1^2+x2^2), ...), summing to -1.
    w0 = TwoForm.from_cartan((1, 1, 1))
    J0 = w0.endomorphism()
    rng = np.random.default_rng(12)
    for _ in range(20):
        e = rng.standard_normal(6)
        e = e / np.linalg.norm(e)
        f = -1 * w0 + 2 * TwoForm.from_wedge(e, J0 @ e)
        x, y, z = moment.mu_t(f)
        assert abs(x - (-1 + 2 * (e[0] ** 2 + e[1] ** 2))) <= 1e-14
        assert abs(y - (-1 + 2 * (e[2] ** 2 + e[3] ** 2))) <= 1e-14
        assert abs(z - (-1 + 2 * (e[4] ** 2 + e[5] ** 2))) <= 1e-14
        assert abs(x + y + z + 1) <= 1e-13


def test_mu_torus_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = TwoForm(tuple(rng.standard_normal(15)))
        R = torus_rotation(*rng.uniform(0, 2 * np.pi, 3))
        g = conjugate(f, R)
        assert max(
            abs(a - b) for a, b in zip(moment.mu_t(f), moment.mu_t(g))
        ) <= 1e-13


def test_haar_rotation_properties():
    R = moment.haar_rotations(1, 0)[0]
    assert np.max(np.abs(R.T @ R - np.eye(6))) <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def test_haar_rotation_deterministic():
    assert np.array_equal(moment.haar_rotations(1, 42)[0], moment.haar_rotations(1, 42)[0])
    batch = moment.haar_rotations(5, 42)
    assert np.array_equal(batch[3], moment.haar_rotations(1, 42, start=3)[0])


MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed,index", [
    (0, 0), (3, 17), (2 ** 64 - 1, 2 ** 63 + 5), (-1, 4), (-(2 ** 40) - 3, 9),
])
def test_stream_words_match_numpy_philox(seed, index):
    # Sample k's words are numpy's Philox(key=[seed mod 2^64, k]) raw output;
    # a negative seed is masked to 64 bits.
    key = np.array([seed & MASK64, index], dtype=np.uint64)
    want = np.random.Philox(key=key).random_raw(13)
    got = moment.stream(seed, 3, 13, start=index)
    assert got.dtype == np.uint64
    assert np.array_equal(got[0], want)
    assert np.array_equal(moment.stream(seed, 1, 5, start=index)[0], want[:5])
    key[1] += 2
    assert np.array_equal(got[2], np.random.Philox(key=key).random_raw(13))


def test_stream_start_wraps_modulo_two_to_the_64():
    words = moment.stream(5, 4, 8, start=MASK64 - 1)
    assert np.array_equal(words[2], moment.stream(5, 1, 8, start=0)[0])
    assert np.array_equal(words[3], moment.stream(5, 1, 8, start=1)[0])


def test_haar_rotations_independent_of_chunking():
    n, seed = 45, 77
    whole = moment.haar_rotations(n, seed)
    by7 = np.concatenate([moment.haar_rotations(min(7, n - j), seed, start=j)
                          for j in range(0, n, 7)])
    by1 = np.concatenate([moment.haar_rotations(1, seed, start=j) for j in range(n)])
    assert np.array_equal(whole, by7)
    assert np.array_equal(whole, by1)
    big = moment.haar_rotations(20000, seed)
    split = np.concatenate([moment.haar_rotations(12345, seed),
                            moment.haar_rotations(20000 - 12345, seed, start=12345)])
    assert np.array_equal(big, split)
    assert np.array_equal(big[:n], whole)


def test_normals_moments():
    z = moment.normals(2024, 10000, 10).ravel()
    assert z.size == 10 ** 5
    assert np.all(np.isfinite(z))
    # Standard errors over 1e5 draws: mean 0.003, variance 0.0045,
    # third moment 0.012, fourth moment 0.03; every bound is about 5 of them.
    assert abs(z.mean()) < 0.015
    assert abs(z.var() - 1.0) < 0.025
    assert abs(np.mean(z ** 3)) < 0.06
    assert abs(np.mean(z ** 4) - 3.0) < 0.15
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6826894921) < 0.01


def test_normals_take_their_words_in_pairs():
    # An odd count drops the second normal of the last pair, nothing else.
    assert np.array_equal(moment.normals(9, 50, 3), moment.normals(9, 50, 4)[:, :3])
    words = moment.stream(9, 50, 4)
    assert np.array_equal(moment.normals(9, 50, 4), moment.gaussians(words))
    u = moment.uniforms(words)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_haar_column_means_small():
    R = moment.haar_rotations(10000, 2024)
    means = R.mean(axis=0)
    assert np.max(np.abs(means)) < 0.05


def test_orbit_samples_contained():
    cloud = moment.orbit_samples((1, 1, 1), 1000, 5)
    assert len(cloud.points) == 1000 + 4
    P = moment.moment_polytope((1, 1, 1))
    assert float(np.max(polytopes.violations_many(P, cloud.points))) <= 1e-9


def test_orbit_samples_zero_point():
    cloud = moment.orbit_samples((0, 0, 0), 50, 5)
    assert np.max(np.abs(cloud.points)) <= 1e-15


def test_orbit_samples_csv_deterministic():
    a = moment.orbit_samples((1, 0.5, 2), 100, 9).to_csv()
    b = moment.orbit_samples((1, 0.5, 2), 100, 9).to_csv()
    assert a == b
    header, cols = a.splitlines()[:2]
    assert header.startswith("#") and "seed=9" in header and "n=100" in header
    assert cols == "x,y,z"


def test_cloud_hull_reaches_polytope():
    cloud = moment.orbit_samples((0, 0, 1), 20000, 3)
    H = polytopes.hull(cloud.points, exact=False)
    O = moment.moment_polytope((0, 0, 1))
    assert polytopes.polytopes_close(H, O, tol=1e-9)


def test_moment_polytope_facets():
    P = moment.moment_polytope((1, 1, 1))
    assert {(f.normal, f.offset) for f in P.facets} == {
        ((-1, -1, -1), 1),
        ((-1, 1, 1), 1),
        ((1, -1, 1), 1),
        ((1, 1, -1), 1),
    }
    O = moment.moment_polytope((0, 0, 1))
    assert len(O.facets) == 8
    T = moment.moment_polytope((1, 1, 2))
    assert len(T.vertices) == 12
    # Reduction happens internally: any orbit point gives the same polytope.
    assert moment.moment_polytope((-1, -1, -1)) == moment.moment_polytope((1, -1, 1))


STAB_CASES = [
    ((1, 1, 1), 9),
    ((1, -1, 1), 9),
    ((0, 0, 1), 7),
    ((1, 1, 2), 5),
    ((1, -1, 2), 5),
    ((2, 1, 2), 5),
    ((2, 0, 2), 5),
    ((1, 0.5, 2), 3),
]


@pytest.mark.parametrize("lam,dim", STAB_CASES)
def test_stabilizer_dimensions(lam, dim):
    form = TwoForm.from_cartan(lam)
    basis = moment.stabilizer_algebra(form)
    assert len(basis) == dim
    assert dim == STABILIZER_DIM[classify(form)]
    assert dim == 15 - (15 - dim)  # orbit dim + stabilizer dim = 15
    F = form.endomorphism()
    for X in basis:
        assert np.max(np.abs(X @ F - F @ X)) <= 1e-12
        assert np.max(np.abs(X + X.T)) <= 1e-14


def test_stabilizer_rejects_zero_form():
    with pytest.raises(ValueError):
        moment.stabilizer_algebra(TwoForm.zero())


def test_singular_value_polytopes_tetrahedron():
    polys = moment.singular_value_polytopes((1, 1, 1))
    dims = sorted(p.dim for p in polys)
    assert dims == [0] * 4 + [1] * 6 + [2] * 4
    # The 2-dimensional members are exactly the facets of the tetrahedron.
    P = moment.moment_polytope((1, 1, 1))
    facet_vertex_sets = {
        tuple(sorted(P.vertices[k] for k in t))
        for t in P.facet_tight_vertices()
    }
    family_faces = {
        tuple(sorted(p.vertices)) for p in polys if p.dim == 2
    }
    assert family_faces == facet_vertex_sets


def test_singular_value_polytopes_generic_cover_facets():
    lam = (1, 0.5, 2)
    polys = moment.singular_value_polytopes(lam)
    P = moment.moment_polytope(lam)
    sizes = sorted(len(p.vertices) for p in polys)
    assert sizes == [4] * 6 + [6] * 8
    facet_vertex_sets = {
        tuple(sorted(P.vertices[k] for k in t))
        for t in P.facet_tight_vertices()
    }
    family = {tuple(sorted(p.vertices)) for p in polys}
    assert facet_vertex_sets <= family


def test_verify_singular_fixed_point():
    rep = moment.verify_singular((1, 1, 1), 1, weyl.IDENTITY, 300, 11)
    assert rep["pass"]
    assert rep["polytope_vertices"] == 1


def test_verify_singular_hexagon_and_edge():
    rep = moment.verify_singular((1, 0.5, 2), 1, weyl.IDENTITY, 500, 11)
    assert rep["pass"] and rep["max_violation"] <= 1e-9
    rep = moment.verify_singular((1, 1, 1), 2, weyl.IDENTITY, 500, 11)
    assert rep["pass"]
    assert rep["polytope_vertices"] == 2


def test_verify_singular_moved_class():
    w = weyl.weyl_group()[5]
    rep = moment.verify_singular((1, 0.5, 2), 2, w, 300, 4)
    assert rep["pass"]


def test_verify_singular_strict_raises():
    from orbitkit.errors import ToleranceExceeded

    with pytest.raises(ToleranceExceeded):
        # An impossible tolerance forces the strict path.
        moment.verify_singular((1, 0.5, 2), 1, weyl.IDENTITY, 50, 11,
                               tol=1e-18, strict=True)


def test_fixed_points_project_to_weyl_orbit():
    lam = (1, 0.5, 2)
    for p in weyl.weyl_orbit(lam):
        f = TwoForm.from_cartan(p)
        assert max(abs(a - b) for a, b in zip(moment.mu_t(f), p)) <= 1e-12


def test_monte_carlo_volume_ratio_self():
    P = moment.moment_polytope((1, 0.5, 2))
    assert moment.monte_carlo_volume_ratio(P, P, 20000, 1) == 1.0


def test_exp_skew_rotation():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    X = A - A.T
    R = moment.exp_skew(X)
    assert np.max(np.abs(R.T @ R - np.eye(6))) <= 1e-12
    assert abs(np.linalg.det(R) - 1) <= 1e-12
    stack = moment.exp_skew(np.stack([X, 2 * X, -X]))
    for k, c in enumerate((1, 2, -1)):
        assert np.array_equal(stack[k], moment.exp_skew(c * X))


def test_verify_singular_matches_the_per_sample_loop():
    lam, i, w, n, seed = (1.0, 0.5, 2.0), 3, weyl.weyl_group()[7], 60, 5
    rep = moment.verify_singular(lam, i, w, n, seed)
    # Reference: one exponential and one conjugation per sample.
    basis = moment.stabilizer_algebra(
        TwoForm.from_cartan(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])))
    Fb = TwoForm.from_cartan(weyl.act(w, lam)).endomorphism()
    coords = moment.normals(seed, n, len(basis)) * (np.pi / 2)
    pts = []
    for k in range(n):
        R = moment.exp_skew(np.einsum("n,nab->ab", coords[k], basis))
        F = R @ Fb @ R.T
        pts.append((F[1, 0], F[3, 2], F[5, 4]))
    poly = polytopes.hull(weyl.singular_vertex_set(lam, w, i), exact=True)
    worst = max(0.0, float(np.max(polytopes.violations_many(poly, np.array(pts)))))
    assert rep["max_violation"] == worst


TOL = 1e-9


def _chamber_point(kind, a, b, u):
    """A chamber point z >= x >= |y| of the given orbit pattern."""
    return {
        "zero": (0.0, 0.0, 0.0),
        "p_plus": (a, a, a),
        "p_minus": (a, -a, a),
        "plane": (0.0, 0.0, a),
        "f1_plus": (a, a, a + b),
        "f1_minus": (a, -a, a + b),
        "f2": (a, a * u, a),
        "wall": (a, 0.0, a + b),
        "generic": (a, a * u, a + b),
    }[kind]


coordinate = st.floats(-6.0, 6.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("zero", "p_plus", "p_minus", "plane", "f1_plus",
                          "f1_minus", "f2", "wall", "generic")),
    a=st.floats(0.1, 3.0),
    b=st.floats(0.1, 3.0),
    u=st.floats(-0.95, 0.95),
    points=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1,
                    max_size=40),
    vertex_noise=st.floats(-1e-6, 1e-6),
)
def test_moment_violations_agree_with_the_exact_hull(kind, a, b, u, points,
                                                     vertex_noise):
    lam = _chamber_point(kind, a, b, u)
    P = moment.moment_polytope(lam)
    vertices = np.array([[float(c) for c in v] for v in P.vertices])
    pts = np.vstack([np.array(points), vertices, vertices + vertex_noise])
    facet = polytopes.violations_many(P, pts)
    closed = moment.moment_violations(lam, pts)
    # Every facet is among the 14 planes, and every other plane supports the
    # polytope at a vertex or an edge, whose normal cone the facets span.
    assert np.all(closed >= facet - 1e-12)
    assert np.all(closed <= 3.0 * np.maximum(facet, 0.0) + 1e-12)
    clear = (facet <= TOL / 3.0) | (facet > TOL)
    assert np.array_equal((closed <= TOL)[clear], (facet <= TOL)[clear])


def test_moment_violations_take_one_triple_per_row():
    lams = np.array([(1.0, 0.5, 2.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    pts = np.array([(2.0, 1.0, 0.5), (0.0, 0.0, 1.5), (1.0, -1.0, -1.0)])
    rows = moment.moment_violations(lams, pts)
    for k in range(3):
        assert rows[k] == moment.moment_violations(lams[k], pts[k])[0]
    assert rows[0] <= 0.0 and rows[1] == pytest.approx(0.5) and rows[2] <= 0.0
    # The offsets are Weyl-invariant in lam: no chamber reduction is needed.
    assert np.array_equal(moment.moment_violations((-1.0, -1.0, -1.0), pts),
                          moment.moment_violations((1.0, -1.0, 1.0), pts))
