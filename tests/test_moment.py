"""Moment map, Haar sampling, moment polytopes, stabilizers, singular values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import moment, polytopes, weyl
from orbitkit.cli import AGS_LAMBDAS
from orbitkit.errors import BadIndex
from orbitkit.forms import (
    CARTAN_QUADRUPLES,
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
    # Sample k of m words is numpy's Philox keyed (seed mod 2^64, 0) from
    # counter k b, b = ceil(m / 4); a negative seed is masked to 64 bits.
    want = np.random.Philox(key=seed & MASK64, counter=index * 4).random_raw(48)
    got = moment.stream(seed, 3, 13, start=index)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want.reshape(3, 16)[:, :13])
    short = np.random.Philox(key=seed & MASK64, counter=index * 2).random_raw(8)
    assert np.array_equal(moment.stream(seed, 1, 5, start=index)[0], short[:5])


def test_stream_batches_split_by_start():
    whole = moment.stream(11, 100, 13)
    assert np.array_equal(whole, np.vstack([moment.stream(11, 37, 13),
                                            moment.stream(11, 63, 13, start=37)]))


def test_stream_start_is_unbounded_and_nonnegative():
    with pytest.raises(ValueError):
        moment.stream(5, 1, 8, start=-1)
    start = 2 ** 64 + 3
    want = np.random.Philox(key=5, counter=start * 2).random_raw(16).reshape(2, 8)
    assert np.array_equal(moment.stream(5, 2, 8, start=start), want)
    assert not np.array_equal(want[0], moment.stream(5, 1, 8, start=3)[0])


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


def test_haar_rotations_are_the_sign_fixed_lapack_q():
    # The QR with positive R diagonal is unique: Gram-Schmidt gives the same
    # Q as LAPACK's with the Mezzadri sign fix, then the same det flip.
    n = 100_000
    R = moment.haar_rotations(n, 31)
    q, r = np.linalg.qr(moment.normals(31, n, 36).reshape(n, 6, 6))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    assert np.max(np.abs(R - q)) <= 1e-12
    assert np.max(np.abs(np.einsum("nki,nkj->nij", R, R) - np.eye(6))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14


def test_haar_unitary_columns_are_the_phase_fixed_lapack_q():
    # The complex QR with positive real R diagonal is unique: Gram-Schmidt
    # gives LAPACK's Q with each column times the phase of its R diagonal.
    n = 20000
    U = moment.haar_unitary_columns(n, 31)
    g = moment.normals(31, n, 24)
    q, r = np.linalg.qr((g[:, 0::2] + 1j * g[:, 1::2]).reshape(n, 4, 3))
    d = np.einsum("nii->ni", r)
    q = q * (d / np.abs(d))[:, None, :]
    assert U.shape == (n, 4, 3) and U.dtype == np.complex128
    assert np.max(np.abs(U - q)) <= 1e-13
    assert np.max(np.abs(np.einsum("nki,nkj->nij", U.conj(), U) - np.eye(3))) <= 1e-14
    assert np.array_equal(U[17], moment.haar_unitary_columns(1, 31, start=17)[0])


def test_twistor_structures_are_read_off_one_unit_vector_of_c4():
    # J = Phi(I - 4 u u*) is an orthogonal complex structure whose image is
    # -B |u|^2, B the rows of CARTAN_QUADRUPLES, u the normalised 4 complex
    # normals of the sample.
    n = 20000
    J = moment.twistor_structures(n, 8)
    g = moment.normals(8, n, 8)
    u = g[:, 0::2] + 1j * g[:, 1::2]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    assert J.shape == (n, 6, 6) and J.dtype == np.float64
    assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-14
    assert np.max(np.abs(np.swapaxes(J, 1, 2) + J)) <= 1e-14
    images = J[:, (1, 3, 5), (0, 2, 4)]
    want = -(np.abs(u) ** 2) @ np.array(CARTAN_QUADRUPLES).T
    assert np.max(np.abs(images - want)) <= 1e-14


def test_twistor_structures_split_by_start_at_the_batch_bound():
    N, seed = moment.HAAR_BATCH, 4
    whole = moment.twistor_structures(N + 7, seed)
    halves = [moment.twistor_structures(N, seed), moment.twistor_structures(7, seed, start=N)]
    assert np.array_equal(whole, np.concatenate(halves))
    alone = [moment.twistor_structures(1, seed, start=N + k)[0] for k in range(7)]
    assert np.array_equal(whole[N:], np.array(alone))


def test_orbit_samples_split_by_start_at_the_batch_bound(monkeypatch):
    # The HAAR_BATCH + 7 draws are two batches; each equals the cloud of its
    # own size, the second one with its draws started at HAAR_BATCH, and
    # each of its rows equals the cloud of that draw alone.
    lam, seed, N = (1.0, 0.5, 2.0), 4, moment.HAAR_BATCH
    whole = moment.orbit_samples(lam, N + 7, seed).points
    head = moment.orbit_samples(lam, N, seed).points
    columns = moment.haar_unitary_columns
    shift = [N]
    monkeypatch.setattr(moment, "haar_unitary_columns",
                        lambda n, seed, start=0: columns(n, seed, start + shift[0]))
    tail = moment.orbit_samples(lam, 7, seed).points
    alone = []
    for k in range(7):
        shift[0] = N + k
        alone.append(moment.orbit_samples(lam, 1, seed).points[0])
    assert np.array_equal(whole[:N], head[:N])
    assert np.array_equal(whole[N:], tail)
    assert np.array_equal(whole[N:N + 7], np.array(alone))


def test_haar_column_means_small():
    R = moment.haar_rotations(10000, 2024)
    means = R.mean(axis=0)
    assert np.max(np.abs(means)) < 0.05


#: The 12 roots +-e_i +- e_j of so(6).
ROOTS = tuple(tuple(s if k == i else t if k == j else 0 for k in range(3))
              for i in range(3) for j in range(i + 1, 3) for s in (1, -1) for t in (1, -1))
#: Generic directions: distinct nonzero |xi_i|, so no root is orthogonal to xi.
DH_DIRECTIONS = (
    (Fraction(1, 5), Fraction(-1, 2), Fraction(1)),
    (Fraction(2, 3), Fraction(1, 4), Fraction(-1)),
)
#: Kolmogorov-Smirnov bound c(alpha) / sqrt(n) at alpha = 1e-6, n = 20000.
KS_N = 20000
KS_BOUND = np.sqrt(-np.log(1e-6 / 2) / 2) / np.sqrt(KS_N)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dh_marginal_cdf(lam, xi):
    """Exact CDF of <mu, xi> under the Duistermaat-Heckman measure of the
    orbit of lam (the Haar push-forward): (M, F) with

        F(s) = sum_p (s - <p, xi>)_+^M / (M! prod_{beta: <beta, p> > 0} <beta, xi>)

    over the distinct points p of W.lam, normalised to F = 1 above the top
    breakpoint; M is the number of roots positive on p (half the orbit's
    dimension).  F takes a Fraction (exact) or a float array."""
    lam = tuple(Fraction(c) for c in lam)
    terms = []
    for p in weyl.weyl_orbit(lam):
        up = [b for b in ROOTS if _dot(b, p) > 0]
        weight = Fraction(1)
        for b in up:
            weight *= _dot(b, xi)
        terms.append((_dot(p, xi), 1 / (math.factorial(len(up)) * weight), len(up)))
    M = terms[0][2]
    assert all(m == M for _, _, m in terms)
    top = max(a for a, _, _ in terms)
    total = sum(c * (top - a) ** M for a, c, _ in terms)

    def F(s):
        if isinstance(s, Fraction):
            return sum(c / total * max(s - a, 0) ** M for a, c, _ in terms)
        return sum(float(c / total) * np.maximum(s - float(a), 0.0) ** M
                   for a, c, _ in terms)

    return M, F


def ks_distance(F, x):
    """Kolmogorov-Smirnov distance between the sample x and the CDF F."""
    x = np.sort(x)
    f = F(x)
    k = np.arange(1, len(x) + 1)
    return max(float(np.max(k / len(x) - f)), float(np.max(f - (k - 1) / len(x))))


def test_dh_cdf_of_the_tetrahedron_orbit_is_uniform():
    # The orbit of (1, 1, 1) is CP^3; its moment image is uniform on the
    # tetrahedron W.(1, 1, 1), whose linear marginals have the divided
    # difference CDF sum_i (s - a_i)_+^3 / prod_{j != i} (a_j - a_i).
    for lam in ((1, 1, 1), (1, -1, 1)):
        for xi in DH_DIRECTIONS:
            M, F = dh_marginal_cdf(lam, xi)
            assert M == 3
            a = [_dot(p, xi) for p in weyl.weyl_orbit(tuple(map(Fraction, lam)))]
            assert len(set(a)) == 4
            for s in (min(a) - 1, *a, Fraction(-1, 3), Fraction(2, 7), max(a) + 1):
                want = Fraction(0)
                for i, ai in enumerate(a):
                    den = Fraction(1)
                    for j, aj in enumerate(a):
                        if j != i:
                            den *= aj - ai
                    want += max(s - ai, 0) ** 3 / den
                assert F(s) == want
            assert F(min(a)) == 0 and F(max(a)) == 1


def test_dh_cdf_degrees_and_monotonicity():
    # M = 6 generic, 5 on the (1, 1, 2) walls, 4 for (0, 0, 1), 3 for (1, +-1, 1).
    degrees = dict(zip(AGS_LAMBDAS, (3, 3, 4, 5, 5, 5, 6)))
    for lam, M in degrees.items():
        got, F = dh_marginal_cdf(lam, DH_DIRECTIONS[0])
        assert got == M
        # In floats the power sum cancels to about 1e-11 above the top point.
        s = np.linspace(-6.0, 6.0, 2001)
        f = F(s)
        assert np.all(np.diff(f) >= -1e-9)
        assert f[0] == 0.0 and abs(f[-1] - 1.0) <= 1e-9


@pytest.mark.parametrize("lam", AGS_LAMBDAS, ids=str)
def test_orbit_samples_follow_the_duistermaat_heckman_law(lam):
    for seed in (0, 1):
        pts = moment.orbit_samples(lam, KS_N, seed).points[:KS_N]
        for xi in DH_DIRECTIONS:
            _, F = dh_marginal_cdf(lam, xi)
            d = ks_distance(F, pts @ np.array(xi, dtype=float))
            assert d <= KS_BOUND, (seed, xi, d)


def test_twistor_images_follow_the_duistermaat_heckman_law():
    for seed in (0, 1):
        pts = moment.twistor_structures(KS_N, seed)[:, (1, 3, 5), (0, 2, 4)]
        for xi in DH_DIRECTIONS:
            _, F = dh_marginal_cdf((1, 1, 1), xi)
            d = ks_distance(F, pts @ np.array(xi, dtype=float))
            assert d <= KS_BOUND, (seed, xi, d)


def test_duistermaat_heckman_gate_rejects_unsigned_qr():
    # LAPACK Q without the R-diagonal sign fix is not Haar distributed.
    g = moment.normals(0, KS_N, 36).reshape(KS_N, 6, 6)
    q = np.linalg.qr(g)[0]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    minors = moment.cartan_minors(q)
    for lam in AGS_LAMBDAS:
        pts = minors @ np.array(lam, dtype=float)
        d = max(ks_distance(dh_marginal_cdf(lam, xi)[1], pts @ np.array(xi, dtype=float))
                for xi in DH_DIRECTIONS)
        assert d > KS_BOUND, (lam, d)


def test_duistermaat_heckman_gate_rejects_orthogonal_columns(monkeypatch):
    # The same construction on a real Gaussian, O(4) columns instead of U(4),
    # is not the Haar push-forward.
    monkeypatch.setattr(moment, "haar_unitary_columns", lambda n, seed, start=0: (
        moment._gram_schmidt(moment.normals(seed, n, 12, start).reshape(n, 4, 3))))
    for lam in AGS_LAMBDAS:
        pts = moment.orbit_samples(lam, KS_N, 0).points[:KS_N]
        d = max(ks_distance(dh_marginal_cdf(lam, xi)[1], pts @ np.array(xi, dtype=float))
                for xi in DH_DIRECTIONS)
        assert d > KS_BOUND, (lam, d)


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
    # Contained and within 1e-9 of every vertex: the cloud's hull is the octahedron.
    cloud = moment.orbit_samples((0, 0, 1), 20000, 3)
    assert np.max(moment.moment_violations((0, 0, 1), cloud.points)) <= 1e-9
    assert np.max(moment.vertex_gaps((0, 0, 1), cloud.points)) <= 1e-9
    assert np.min(moment.vertex_gaps((0, 0, 1), cloud.points[:20000])) > 1e-9


def test_cloud_hull_is_the_exact_moment_polytope():
    # The cloud carries the exact Weyl images, so its exact hull is conv(W.lam).
    P = polytopes.hull(moment.orbit_samples((1, 0.5, 2), 2000, 1).points)
    Q = moment.moment_polytope((1, 0.5, 2))
    assert (P.vertices, P.facets) == (Q.vertices, Q.facets)
    assert (len(P.vertices), len(P.facets)) == (24, 14)


def test_vertex_gaps_measure_the_shortfall_at_each_vertex():
    lam = (1.0, 0.5, 2.0)
    images = np.array(weyl.weyl_orbit(lam), dtype=float)
    assert np.all(moment.vertex_gaps(lam, images) == 0.0)
    # A cloud shrunk by s falls short of every vertex by (1 - s) |lam|.
    gaps = moment.vertex_gaps(lam, 0.75 * images)
    assert np.allclose(gaps, 0.25 * np.linalg.norm(lam), rtol=0, atol=1e-15)
    # Without one image v, the gap at v is (|v|^2 - max <v, u>) / |v| over the rest.
    v, rest = images[0], images[1:]
    gaps = moment.vertex_gaps(lam, rest)
    expected = (v @ v - np.max(rest @ v)) / np.linalg.norm(v)
    assert np.max(gaps) == pytest.approx(expected, abs=1e-15) and expected > 0
    assert np.count_nonzero(gaps) == 1
    assert np.all(moment.vertex_gaps((0, 0, 0), np.zeros((1, 3))) == 0.0)


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


@pytest.mark.parametrize("i", [0, 4, -1])
def test_verify_singular_rejects_a_bad_weight_index(i):
    with pytest.raises(BadIndex):
        moment.verify_singular((1, 0.5, 2), i, weyl.IDENTITY, 10, 1)


def test_verify_singular_rejects_a_matrix_outside_the_group():
    not_in_group = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    with pytest.raises(ValueError, match="Weyl group"):
        moment.verify_singular((1, 0.5, 2), 1, not_in_group, 10, 1)


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
    poly = polytopes.hull(weyl.singular_vertex_set(lam, w, i))
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


def _skew_with_norm(rng, norm, shape=()):
    """Random skew matrices scaled to the given 1-norm."""
    A = rng.standard_normal(shape + (6, 6))
    X = A - np.swapaxes(A, -1, -2)
    ones = np.max(np.sum(np.abs(X), axis=-2), axis=-1)[..., None, None]
    return X * (norm / ones)


@pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-3, 0.5, 1.0, 5.0, 10.5, 50.0, 200.0, 1e3])
def test_exp_skew_matches_scipy_expm(norm):
    from scipy.linalg import expm

    rng = np.random.default_rng(int(norm * 7) + 1)
    tol = 1e-12 if norm <= 50 else 1e-14 * norm
    stack = _skew_with_norm(rng, norm, (20,))
    R = moment.exp_skew(stack)
    assert np.max(np.abs(R - expm(stack))) <= tol
    for k in range(3):
        single = moment.exp_skew(stack[k])
        assert np.max(np.abs(single - expm(stack[k]))) <= tol
        assert np.array_equal(single, R[k])
    assert np.max(np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(6))) <= 1e-13
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-13


def test_exp_skew_scales_each_matrix_of_a_stack_by_its_own_norm():
    rng = np.random.default_rng(3)
    # One stack spanning no squaring to eight squarings.
    stack = np.concatenate([_skew_with_norm(rng, c, (1,)) for c in (0.1, 4.0, 9.0, 700.0)])
    R = moment.exp_skew(stack)
    for k in range(len(stack)):
        assert np.array_equal(R[k], moment.exp_skew(stack[k]))
        assert np.array_equal(R[k], moment.exp_skew(stack[::-1])[len(stack) - 1 - k])
    assert np.array_equal(moment.exp_skew(np.zeros((6, 6))), np.eye(6))
    assert moment.exp_skew(np.zeros((0, 6, 6))).shape == (0, 6, 6)


def test_moment_does_not_use_scipy_expm():
    assert "expm" not in vars(moment)
