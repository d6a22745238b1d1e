"""Moment map, Haar sampling, moment polytopes, stabilizers, singular values."""

import numpy as np
import pytest

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
