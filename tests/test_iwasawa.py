"""Frame algebra of the complex Heisenberg group and integrability scans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitkit import iwasawa, moment
from orbitkit.errors import WrongClass
from orbitkit.forms import CARTAN_QUADRUPLES, E12, E34, E56, TwoForm, eigen_split, wedges


@pytest.fixture(scope="module")
def algebra():
    return iwasawa.iwasawa_algebra()


def jacobi_residual(algebra):
    """Largest entry of [[e_i, e_j], e_k] summed cyclically."""
    c = algebra
    term = np.einsum("mab,pmc->pabc", c, c)
    total = term + np.einsum("pabc->pbca", term) + np.einsum("pabc->pcab", term)
    return float(np.max(np.abs(total)))


def test_jacobi_identity(algebra):
    assert jacobi_residual(algebra) <= 1e-14


def test_bracket_values(algebra):
    e = np.eye(6)
    assert np.array_equal(iwasawa.bracket(algebra, e[0], e[2]), -e[4])
    assert np.array_equal(iwasawa.bracket(algebra, e[1], e[3]), e[4])
    assert np.array_equal(iwasawa.bracket(algebra, e[0], e[3]), -e[5])
    assert np.array_equal(iwasawa.bracket(algebra, e[1], e[2]), -e[5])
    assert np.all(iwasawa.bracket(algebra, e[0], e[1]) == 0)
    assert np.all(iwasawa.bracket(algebra, e[2], e[3]) == 0)
    # The four brackets above, each stored antisymmetrically, are all of c.
    assert np.count_nonzero(algebra) == 8


def test_center(algebra):
    e = np.eye(6)
    for i in range(6):
        assert np.all(iwasawa.bracket(algebra, e[4], e[i]) == 0)
        assert np.all(iwasawa.bracket(algebra, e[5], e[i]) == 0)


def test_bracket_bilinear_antisymmetric(algebra):
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal(6), rng.standard_normal(6)
    assert np.allclose(
        iwasawa.bracket(algebra, X, Y), -iwasawa.bracket(algebra, Y, X)
    )
    assert np.max(np.abs(iwasawa.bracket(algebra, X, X))) <= 1e-14
    Z = rng.standard_normal(6)
    assert np.allclose(
        iwasawa.bracket(algebra, X + 2 * Z, Y),
        iwasawa.bracket(algebra, X, Y) + 2 * iwasawa.bracket(algebra, Z, Y),
    )


def test_nijenhuis_standard_structure(algebra):
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    assert iwasawa._nijenhuis_norms(algebra, J0[None])[0] == 0.0


def test_nijenhuis_edge_family(algebra):
    grid = iwasawa.asd_edge_grid(25)
    forms = [iwasawa.asd_edge_form(a, b, c) for a, b, c in grid]
    Js = np.array([iwasawa.ocs_matrix(f) for f in forms])
    assert np.max(iwasawa._nijenhuis_norms(algebra, Js)) <= 1e-10
    for (a, b, c), f in zip(grid, forms):
        x, y, z = moment.mu_t(f)
        assert abs(x - a) <= 1e-15 and abs(y + a) <= 1e-15 and z == -1.0


def test_nijenhuis_positive_examples(algebra):
    w3 = TwoForm.from_cartan((-1, -1, 1))
    # A generic rotation of the standard structure is not integrable.
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    R = moment.haar_rotations(1, 100)[0]
    norms = iwasawa._nijenhuis_norms(algebra, np.array([w3.endomorphism(), R @ J0 @ R.T]))
    assert norms[0] > 1.0 and norms[1] > 1e-3


def test_ocs_matrix_rejects_non_complex(algebra):
    with pytest.raises(WrongClass):
        iwasawa.ocs_matrix(TwoForm.basis(5, 6))


def plane(i, j):
    V = np.zeros((6, 2))
    V[i - 1, 0] = 1.0
    V[j - 1, 1] = 1.0
    return V


def test_horizontal_closed_examples(algebra):
    assert not iwasawa.horizontal_closed(algebra, plane(5, 6))
    assert iwasawa.horizontal_closed(algebra, plane(1, 2))
    assert iwasawa.horizontal_closed(algebra, plane(1, 3))
    V = np.zeros((6, 2))
    V[0, 0] = V[2, 0] = 1 / np.sqrt(2)
    V[1, 1] = V[3, 1] = 1 / np.sqrt(2)
    assert iwasawa.horizontal_closed(algebra, V)


def test_horizontal_closure_equivalent_to_subspace(algebra):
    # In-subspace planes all pass; planes with any central component fail.
    for V in iwasawa._sample_planes_in(7, 60, 4):
        assert iwasawa.horizontal_closed(algebra, V)
    for V in iwasawa._sample_planes_in(8, 60, 6):
        if np.max(np.abs(V[4:])) > 1e-6:
            assert not iwasawa.horizontal_closed(algebra, V)


def test_vertical_closed_examples(algebra):
    assert iwasawa.vertical_closed(algebra, plane(1, 2))
    assert not iwasawa.vertical_closed(algebra, plane(1, 3))
    assert iwasawa.vertical_closed(algebra, plane(5, 6))


def test_scan_complex(algebra):
    cloud, rep = iwasawa.scan_complex(5000, 17)
    assert rep["pass"]
    assert rep["family_max_nijenhuis"] < 1e-10
    assert rep["max_identity_residual"] <= 1e-10
    assert abs(rep["mean_moment_norm2"] - 0.6) <= iwasawa._moment_norm2_bound(5000)
    # Family images cover the vertex and the opposite edge.
    pts = cloud.points
    assert any(np.allclose(p, (1, 1, 1)) for p in pts)
    end1 = np.array([1.0, -1.0, -1.0])
    end2 = np.array([-1.0, 1.0, -1.0])
    assert any(np.allclose(p, end1) for p in pts)
    assert any(np.allclose(p, end2) for p in pts)


def test_scan_complex_family_matches_the_per_form_loop(algebra):
    family = ([TwoForm.from_cartan((1, 1, 1))]
              + [iwasawa.asd_edge_form(*g) for g in iwasawa.asd_edge_grid()])
    family_max = max(float(iwasawa._nijenhuis_norms(algebra, iwasawa.ocs_matrix(f)[None])[0])
                     for f in family)
    cloud, rep = iwasawa.scan_complex(50, 3)
    assert rep["family_max_nijenhuis"] == family_max
    assert rep["accepted_haar"] == 0
    assert np.array_equal(cloud.points, np.array([moment.mu_t(f) for f in family]))


def test_nijenhuis_identity_on_haar_conjugates_and_the_family(algebra):
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    for seed in (0, 1):
        R = moment.haar_rotations(2000, seed)
        norms = iwasawa._nijenhuis_norms(algebra, R @ J0 @ np.swapaxes(R, 1, 2))
        # The images as the Cartan slots of R J0 R^T = sum_j (R e_2j ^ R e_2j+1),
        # not read from the entries of the structures as scan_complex reads them.
        images = sum(wedges(R[:, :, 2 * j], R[:, :, 2 * j + 1])[:, (E12, E34, E56)]
                     for j in range(3))
        assert np.max(np.abs(norms ** 2 - iwasawa.nijenhuis_polynomial(*images.T))) <= 1e-12
        # The twistor draws of scan_complex, with the images -B |u|^2.
        norms = iwasawa._nijenhuis_norms(algebra, moment.twistor_structures(2000, seed))
        g = moment.normals(seed, 2000, 8)
        p = g[:, 0::2] ** 2 + g[:, 1::2] ** 2
        images = -(p / p.sum(axis=1, keepdims=True)) @ np.array(CARTAN_QUADRUPLES).T
        assert np.max(np.abs(norms ** 2 - iwasawa.nijenhuis_polynomial(*images.T))) <= 1e-12
        assert iwasawa.scan_complex(2000, seed)[1]["max_identity_residual"] <= 1e-12
    family = ([TwoForm.from_cartan((1, 1, 1))]
              + [iwasawa.asd_edge_form(*g) for g in iwasawa.asd_edge_grid()])
    for f in family:
        norm = iwasawa._nijenhuis_norms(algebra, iwasawa.ocs_matrix(f)[None])[0]
        assert abs(norm ** 2 - iwasawa.nijenhuis_polynomial(*moment.mu_t(f))) <= 1e-12


def test_scan_complex_fails_on_a_flipped_structure_constant(monkeypatch):
    algebra = iwasawa.iwasawa_algebra()

    def flipped():
        c = algebra.copy()
        c[4, 0, 2], c[4, 2, 0] = -c[4, 0, 2], -c[4, 2, 0]
        return c

    monkeypatch.setattr(iwasawa, "iwasawa_algebra", flipped)
    cloud, rep = iwasawa.scan_complex(200, 3)
    assert not rep["pass"]
    assert rep["max_identity_residual"] > 1.0


def test_scan_complex_fails_on_transposed_structures(monkeypatch):
    # J^T = -J has the same Nijenhuis tensor but reads the image -mu.
    draw = moment.twistor_structures
    monkeypatch.setattr(moment, "twistor_structures",
                        lambda n, seed, start=0: np.swapaxes(draw(n, seed, start), -1, -2))
    cloud, rep = iwasawa.scan_complex(200, 3)
    assert not rep["pass"]
    assert rep["max_identity_residual"] > 1.0


def dirichlet_moment(ks):
    """E prod p_i^k_i for p uniform on the 3-simplex, Dirichlet(1, 1, 1, 1):
    3! prod k_i! / (3 + sum k_i)!."""
    num = 6
    for k in ks:
        num *= math.factorial(k)
    return Fraction(num, math.factorial(3 + sum(ks)))


def test_moment_norm2_constants_are_the_dirichlet_moments():
    # |mu|^2 = 4|p|^2 - 1 as B^T B = 4 - 1 1^T, so it lies in [0, 3].
    B = np.array(CARTAN_QUADRUPLES)
    assert np.array_equal(B.T @ B, 4 * np.eye(4) - 1)
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    p2 = sum(dirichlet_moment([2 * e for e in u]) for u in units)
    p4 = sum(dirichlet_moment([2 * a + 2 * b for a, b in zip(u, v)])
             for u in units for v in units)
    mean = 4 * p2 - 1
    assert mean == iwasawa._MOMENT_NORM2_MEAN == Fraction(3, 5)
    assert 16 * p4 - 8 * p2 + 1 - mean ** 2 == iwasawa._MOMENT_NORM2_VAR == Fraction(32, 175)
    assert iwasawa._MOMENT_NORM2_SPREAD == max(3 - mean, mean)
    J = moment.twistor_structures(100_000, 2)
    x = np.sum(J[:, (1, 3, 5), (0, 2, 4)] ** 2, axis=1)
    assert x.min() >= 0.0 and x.max() <= 3.0
    # Five standard errors: 0.0068 on the mean, 0.006 on the variance.
    assert abs(x.mean() - 0.6) <= 0.0068
    assert abs(x.var() - 32 / 175) <= 0.006


@pytest.mark.parametrize("n", [1, 2, 10, 2000, 10 ** 6])
def test_moment_norm2_bound_solves_bernstein_at_one_in_a_million(n):
    t = iwasawa._moment_norm2_bound(n)
    var, b = float(iwasawa._MOMENT_NORM2_VAR), float(iwasawa._MOMENT_NORM2_SPREAD)
    assert math.isclose(2 * math.exp(-n * t * t / (2 * var + 2 * b * t / 3)), 1e-6,
                        rel_tol=1e-9)
    # At n = 1 no draw in [0, 3] can fail the gate.
    assert iwasawa._moment_norm2_bound(1) > 3


def test_scan_complex_fails_on_real_unit_vectors(monkeypatch):
    # u with real entries stays on the orbit, so ||N||^2 = P(mu) still holds,
    # but its |u_i|^2 are Dirichlet(1/2, 1/2, 1/2, 1/2) and E|mu|^2 = 1.
    normals = moment.normals

    def real_parts(seed, n, m, start=0):
        g = normals(seed, n, m, start).copy()
        g[:, 1::2] = 0.0
        return g

    monkeypatch.setattr(moment, "normals", real_parts)
    for seed in range(6):
        rep = iwasawa.scan_complex(2000, seed)[1]
        assert not rep["pass"]
        assert rep["max_identity_residual"] <= 1e-10
        assert abs(rep["mean_moment_norm2"] - 1.0) <= iwasawa._moment_norm2_bound(2000)


def test_nijenhuis_polynomial_vanishes_exactly_on_the_integrable_set():
    # Every point of the tetrahedron conv(W.(1, 1, 1)) with denominator 24.
    d = 24
    r = range(-d, d + 1)
    coord = {k: Fraction(k, d) for k in r}
    grid = [(a, b, c) for a in r for b in r for c in r
            if max(a + b - c, -a - b - c, -a + b + c, a - b + c) <= d]
    assert len(grid) == 39249
    values = {p: iwasawa.nijenhuis_polynomial(*(coord[k] for k in p)) for p in grid}
    assert min(values.values()) == 0
    zeros = {p for p, v in values.items() if v == 0}
    assert zeros == {(d, d, d)} | {(k, -k, -d) for k in r}


def test_scan_K(algebra):
    cloud, rep = iwasawa.scan_K(800, 5)
    assert rep["pass"]
    assert rep["max_l1"] <= 1 + 1e-9
    assert rep["max_abs_z"] <= 1e-9
    assert rep["off_subspace_closed"] == 0
    # The square actually gets filled out.
    l1 = np.abs(cloud.points[:, 0]) + np.abs(cloud.points[:, 1])
    assert l1.max() > 0.9 and l1.min() < 0.3


def test_scan_K_gates_the_law_of_x_plus_y_and_x_minus_y(monkeypatch):
    # Haar planes give independent s = x + y and r = x - y, uniform on [-1, 1].
    _, rep = iwasawa.scan_K(10000, 2)
    assert rep["pass"] and rep["ks_bound"] == moment.dkw_halfwidth(10000)
    assert max(rep["ks_x_plus_y"], rep["ks_x_minus_y"]) <= rep["ks_bound"]

    # A wrong plane law with the right support: frames whose second column is
    # normalised but not projected off the first.  Their forms are shorter
    # than unit, so the images crowd the centre of the square.
    def unprojected(g):
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    monkeypatch.setattr(moment, "_gram_schmidt", unprojected)
    _, rep = iwasawa.scan_K(10000, 2)
    assert rep["max_l1"] <= 1.0 and rep["max_abs_z"] <= 1e-9
    assert not rep["pass"]
    assert min(rep["ks_x_plus_y"], rep["ks_x_minus_y"]) > 2 * rep["ks_bound"]


def test_scan_K_gates_the_joint_law_by_the_mean_of_s2r2(monkeypatch):
    # Independent uniform s and r give E s^2 r^2 = 1/9.  Frames of uniform
    # entries on [-1, 1] instead of normals keep both marginals close enough
    # to pass the KS gate, but read a mean s^2 r^2 near 0.087.
    bound = moment.bernstein_halfwidth(50000, 56 / 2025, 8 / 9)
    _, rep = iwasawa.scan_K(50000, 1)
    assert rep["pass"] and abs(rep["mean_s2r2"] - 1 / 9) <= bound < 0.0042

    def uniform_entries(seed, n, m, start=0):
        return 2.0 * moment.uniforms(moment.stream(seed, n, m + m % 2, start))[:, :m] - 1.0

    monkeypatch.setattr(moment, "normals", uniform_entries)
    _, rep = iwasawa.scan_K(50000, 1)
    assert max(rep["ks_x_plus_y"], rep["ks_x_minus_y"]) <= rep["ks_bound"]
    assert rep["all_in_subspace_closed"] and rep["max_l1"] <= 1.0
    assert not rep["pass"]
    assert abs(rep["mean_s2r2"] - 1 / 9) > 5 * bound


def test_scan_K_single_plane_images(algebra):
    assert moment.mu_t(TwoForm.from_wedge(*plane(1, 2).T)) == (1.0, 0.0, 0.0)
    V = np.zeros((6, 2))
    V[0, 0] = V[2, 0] = 1 / np.sqrt(2)
    V[1, 1] = V[3, 1] = 1 / np.sqrt(2)
    x, y, z = moment.mu_t(TwoForm.from_wedge(*V.T))
    assert abs(x - 0.5) <= 1e-12 and abs(y - 0.5) <= 1e-12 and z == 0.0


def test_scan_K_intersection(algebra):
    cloud, rep = iwasawa.scan_K_intersection(800, 5)
    assert rep["pass"]
    assert rep["family_all_doubly_closed"]
    assert rep["max_segment_deviation"] <= 1e-9
    s = cloud.points[:, 0] + cloud.points[:, 1]
    assert np.min(np.abs(np.abs(s) - 1.0)) <= 1e-12
    # Both segments are hit.
    assert np.any(s > 0.5) and np.any(s < -0.5)


def test_oriented_plane_images_on_segments(algebra):
    assert moment.mu_t(TwoForm.from_wedge(*plane(1, 2).T)) == (1.0, 0.0, 0.0)
    assert moment.mu_t(TwoForm.from_wedge(*plane(3, 4).T)) == (0.0, 1.0, 0.0)
    # Reversing orientation lands on the opposite segment.
    V = plane(1, 2)[:, ::-1]
    assert moment.mu_t(TwoForm.from_wedge(*V.T)) == (-1.0, 0.0, 0.0)
    assert iwasawa.vertical_closed(algebra, V)
    assert iwasawa.horizontal_closed(algebra, V)


def test_doubly_closed_family(algebra):
    rng = np.random.default_rng(9)
    for sign in (1, -1):
        for _ in range(20):
            u = rng.standard_normal(3)
            u = u / np.linalg.norm(u)
            V = iwasawa.doubly_closed_plane(sign, u)
            assert iwasawa.horizontal_closed(algebra, V)
            assert iwasawa.vertical_closed(algebra, V)
            x, y, z = moment.mu_t(TwoForm.from_wedge(*V.T))
            assert abs(x + y - sign) <= 1e-12
            assert abs(z) <= 1e-14


class IncompatiblePair(Exception):
    """The plane of a mixed pair is not invariant under its complex structure."""


def mixed_pair(J_form, V, t, tol=1e-9):
    """Per-draw reference of `iwasawa.mixed_images`: the mixed form J + t
    (plane form of V) of one plane, which must be J-invariant."""
    V = np.asarray(V, dtype=float)
    if not iwasawa._invariant(iwasawa.ocs_matrix(J_form), V, tol):
        raise IncompatiblePair("plane is not invariant under the complex structure")
    return J_form + float(t) * TwoForm.from_wedge(*V.T)


def test_mixed_pair_examples(algebra):
    m = mixed_pair(TwoForm.from_cartan((1, 1, 1)), plane(1, 2), 1.0)
    assert np.allclose(m.as_array(), TwoForm.from_cartan((2, 1, 1)).as_array())
    assert moment.mu_t(m) == (2.0, 1.0, 1.0)
    with pytest.raises(IncompatiblePair):
        mixed_pair(TwoForm.from_cartan((1, 1, 1)), plane(1, 3), 1.0)


def test_mixed_classes_over(algebra):
    cloud, rep = iwasawa.mixed_classes_over(300, 5, "K")
    assert rep["pass"] and rep["produced"] > 0
    cloud2, rep2 = iwasawa.mixed_classes_over(300, 5, "K_intersection")
    assert rep2["pass"] and rep2["produced"] > 0
    with pytest.raises(ValueError):
        iwasawa.mixed_classes_over(10, 5, "bogus")


def test_mixed_small_t_approaches_complex_images(algebra):
    rng = np.random.default_rng(10)
    for _ in range(10):
        g = rng.standard_normal(4)
        v = np.zeros(6)
        v[:4] = g / np.linalg.norm(g)
        J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
        V = np.column_stack([v, J0 @ v])
        m = mixed_pair(TwoForm.from_cartan((1, 1, 1)), V, 1e-9)
        assert np.linalg.norm(np.subtract(moment.mu_t(m), (1, 1, 1))) <= 1e-8


# ---------------------------------------------------------------------------
# Reference implementations: per-plane loops the stacked kernels must match
# ---------------------------------------------------------------------------

def complement_reference(V):
    """Orthonormal basis of the orthogonal complement of the plane V, by SVD."""
    _, _, vt = np.linalg.svd(V.T, full_matrices=True)
    return vt[2:].T


def horizontal_closed_reference(algebra, V, tol=1e-12):
    H = complement_reference(V)
    return all(
        np.max(np.abs(V.T @ iwasawa.bracket(algebra, H[:, a], H[:, b]))) <= tol
        for a in range(4) for b in range(a + 1, 4)
    )


def vertical_closed_reference(algebra, V, tol=1e-12):
    br = iwasawa.bracket(algebra, V[:, 0], V[:, 1])
    return bool(np.max(np.abs(complement_reference(V).T @ br)) <= tol)


def family_form(sign, u):
    e = TwoForm.basis
    return 0.5 * sign * (e(1, 2) + e(3, 4)) + 0.5 * (
        u[0] * (e(1, 2) - e(3, 4)) + u[1] * (e(1, 3) + e(2, 4))
        + u[2] * (e(1, 4) - e(2, 3))
    )


def family_directions(seed, n):
    G = moment.normals(seed, n, 3)
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0), G / np.linalg.norm(G, axis=1)[:, None]


def test_stacked_closure_matches_svd_reference(algebra):
    signs, U = family_directions(11, 40)
    stacks = {
        "coordinate": np.array([plane(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]),
        "in-subspace": iwasawa._sample_planes_in(12, 60, 4),
        "off-subspace": iwasawa._sample_planes_in(13, 60, 6),
        "doubly-closed": iwasawa.doubly_closed_plane(signs, U),
    }
    seen = set()
    for name, Vs in stacks.items():
        for test, reference in ((iwasawa.horizontal_closed, horizontal_closed_reference),
                                (iwasawa.vertical_closed, vertical_closed_reference)):
            stacked = test(algebra, Vs)
            assert stacked.shape == (len(Vs),)
            expected = [reference(algebra, V) for V in Vs]
            assert stacked.tolist() == expected, (name, test.__name__)
            assert [test(algebra, V) for V in Vs] == expected
            seen.update(expected)
    assert seen == {True, False}


def _einsum_bracket(c, X, Y):
    """Reference: [X, Y] as one three-operand einsum."""
    return np.einsum("kij,...i,...j->...k", c, np.asarray(X, dtype=float),
                     np.asarray(Y, dtype=float))


def _einsum_closures(c, V, tol=1e-12):
    """Reference: horizontal and vertical closure of a frame stack, with the
    bracket forms B_k = sum_m V[m, k] c[m] and [v1, v2] built by einsum."""
    P = iwasawa._perp(V)
    B = np.einsum("mij,...mk->...kij", c, V)
    horizontal = iwasawa._per_plane(P[..., None, :, :] @ B @ P[..., None, :, :], V, tol)
    br = _einsum_bracket(c, V[..., 0], V[..., 1])
    return horizontal, iwasawa._per_plane((P @ br[..., None])[..., 0], V, tol)


def _closures_match_the_einsums(c, Vs):
    """Stacked closures are the einsum references, and each frame alone
    gives the same answer as a bool."""
    horizontal, vertical = _einsum_closures(c, Vs)
    assert np.array_equal(iwasawa.horizontal_closed(c, Vs), horizontal)
    assert np.array_equal(iwasawa.vertical_closed(c, Vs), vertical)
    for V, h, v in zip(Vs, horizontal.tolist(), vertical.tolist()):
        one = iwasawa.horizontal_closed(c, V), iwasawa.vertical_closed(c, V)
        assert [type(x) for x in one] == [bool, bool] and one == (h, v)
    return horizontal, vertical


def test_closures_are_the_einsum_tables_on_every_kind_of_frame(algebra):
    signs, U = family_directions(23, 60)
    nan = iwasawa._sample_planes_in(24, 60, 4)
    nan[::7, 2, 1] = np.nan
    kinds = {"in-subspace": (iwasawa._sample_planes_in(21, 60, 4), True, None),
             "off-subspace": (iwasawa._sample_planes_in(22, 60, 6), False, None),
             "doubly-closed": (iwasawa.doubly_closed_plane(signs, U), True, True),
             "NaN": (nan, None, None)}
    for name, (Vs, h_expected, v_expected) in kinds.items():
        horizontal, vertical = _closures_match_the_einsums(algebra, Vs)
        assert h_expected is None or horizontal.all() == h_expected, name
        assert v_expected is None or vertical.all() == v_expected, name
    assert not horizontal[::7].any() and not vertical[::7].any()
    assert np.delete(horizontal, np.s_[::7]).all()


def test_bracket_is_the_einsum_to_rounding_whatever_its_stack(algebra):
    V = np.concatenate([iwasawa._sample_planes_in(25, 100, 4),
                        iwasawa._sample_planes_in(26, 100, 6)])
    X, Y = V[..., 0], V[..., 1]
    br = iwasawa.bracket(algebra, X, Y)
    assert br.shape == (200, 6)
    assert np.max(np.abs(br - _einsum_bracket(algebra, X, Y))) <= 1e-15
    rows = np.array([iwasawa.bracket(algebra, x, y) for x, y in zip(X, Y)])
    assert br.tobytes() == rows.tobytes()
    assert iwasawa.bracket(algebra, X.reshape(4, 50, 6), Y.reshape(4, 50, 6)).tobytes() \
        == br.tobytes()
    # One vector against a stack, on either side.
    assert iwasawa.bracket(algebra, X[0], Y).tobytes() == np.array(
        [iwasawa.bracket(algebra, X[0], y) for y in Y]).tobytes()
    assert iwasawa.bracket(algebra, X, Y[0]).tobytes() == np.array(
        [iwasawa.bracket(algebra, x, Y[0]) for x in X]).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("sparse", "full", "zero")),
    upper=arrays(float, (6, 15), elements=st.floats(-2.0, -0.25) | st.floats(0.25, 2.0)),
    keep=arrays(bool, (6, 15)),
    M=arrays(float, st.tuples(st.integers(1, 5), st.just(6), st.just(2)),
             elements=st.floats(-0.5, 0.5)),
    nan_row=st.integers(0, 100),
)
def test_closures_and_bracket_are_the_einsums_beyond_the_iwasawa_algebra(
        kind, upper, keep, M, nan_row):
    # Antisymmetric c as in the Nijenhuis test; Gram-Schmidt frames of
    # 2 (e1, e2) + M, whose columns are never parallel, and the 15 coordinate
    # planes, which a sparse c can leave closed.  No entry of c is below 1/4,
    # so no residual lands within rounding of the tolerance 1e-12.
    i, j = np.triu_indices(6, 1)
    c = np.zeros((6, 6, 6))
    if kind == "sparse":
        c[:, i, j] = upper * keep
    elif kind == "full":
        c[:, i, j] = upper
    c = c - np.swapaxes(c, 1, 2)
    Vs = np.concatenate([moment._gram_schmidt(2.0 * plane(1, 2) + M),
                         [plane(a + 1, b + 1) for a, b in zip(i, j)]])
    X, Y = Vs[..., 0], Vs[..., 1]
    br = iwasawa.bracket(c, X, Y)
    size = _einsum_bracket(np.abs(c), np.abs(X), np.abs(Y))
    assert np.all(np.abs(br - _einsum_bracket(c, X, Y)) <= 1e-14 * size)
    assert br.tobytes() == np.array([iwasawa.bracket(c, x, y) for x, y in zip(X, Y)]).tobytes()
    horizontal, vertical = _closures_match_the_einsums(c, Vs)
    if kind == "zero":
        assert horizontal.all() and vertical.all()
    # A NaN frame fails both tests and spoils its own row only.
    k = nan_row % len(Vs)
    spoilt = Vs.copy()
    spoilt[k, nan_row % 6, nan_row % 2] = np.nan
    for test, clean in ((iwasawa.horizontal_closed, horizontal),
                        (iwasawa.vertical_closed, vertical)):
        out = test(c, spoilt)
        assert not out[k] and np.array_equal(np.delete(out, k), np.delete(clean, k))


def test_doubly_closed_plane_stack_matches_rows_and_family_form():
    signs, U = family_directions(14, 50)
    stacked = iwasawa.doubly_closed_plane(signs, U)
    assert stacked.shape == (50, 6, 2)
    for k in range(50):
        V = iwasawa.doubly_closed_plane(int(signs[k]), U[k])
        assert np.array_equal(V, stacked[k])
        assert np.allclose(V.T @ V, np.eye(2), rtol=0, atol=1e-15)
        form = family_form(int(signs[k]), U[k])
        assert np.max(np.abs(TwoForm.from_wedge(*V.T).as_array() - form.as_array())) <= 1e-15
    with pytest.raises(ValueError):
        iwasawa.doubly_closed_plane(0, U[0])
    with pytest.raises(ValueError):
        iwasawa.doubly_closed_plane(signs, 2 * U)


def test_plane_images_are_the_plane_form_images():
    for V in iwasawa._sample_planes_in(15, 50, 6):
        assert tuple(wedges(*V.T)[[E12, E34, E56]]) == moment.mu_t(TwoForm.from_wedge(*V.T))
    # Bit for bit the 2x2 minors det V[2c:2c+2, :] the images were once read as.
    for dim in (4, 6):
        V = iwasawa._sample_planes_in(3, 5000, dim)
        minors = V[:, 1::2, 1] * V[:, 0::2, 0] - V[:, 1::2, 0] * V[:, 0::2, 1]
        assert np.array_equal(iwasawa._plane_images(V), minors)


def test_scan_K_matches_per_plane_loop(algebra):
    n, seed = 150, 4
    cloud, rep = iwasawa.scan_K(n, seed)
    planes = iwasawa._sample_planes_in(seed, n, 4)
    pts = np.array([moment.mu_t(TwoForm.from_wedge(*V.T)) for V in planes])
    assert np.max(np.abs(cloud.points - pts)) <= 1e-15
    assert rep["all_in_subspace_closed"] == all(
        horizontal_closed_reference(algebra, V) for V in planes)
    off = iwasawa._sample_planes_in(seed, min(n, 200), 6, start=n)
    assert rep["off_subspace_checked"] == len(off)
    assert rep["off_subspace_closed"] == sum(
        horizontal_closed_reference(algebra, V) for V in off)


def test_scan_K_intersection_matches_per_plane_loop(algebra):
    n, seed = 120, 6
    cloud, rep = iwasawa.scan_K_intersection(n, seed)
    signs, U = family_directions(seed, n)
    family = []
    for sign, u in zip(signs, U):
        plane_ = eigen_split(family_form(sign, u)).planes[2]
        V = np.column_stack([plane_.u, plane_.v])
        assert horizontal_closed_reference(algebra, V)
        assert vertical_closed_reference(algebra, V)
        family.append(moment.mu_t(TwoForm.from_wedge(*V.T)))
    assert rep["family_all_doubly_closed"]
    assert rep["max_identity_residual"] <= 1e-12
    expected = np.array(family)
    assert cloud.points.shape == expected.shape
    assert np.max(np.abs(cloud.points - expected)) <= 1e-15


def test_bracket_norm_identity_on_random_planes_of_the_subspace(algebra):
    # ||[v1, v2]||^2 = 1 - (x + y)^2 for a unit plane of <e1..e4>, plane by plane.
    for V in iwasawa._sample_planes_in(17, 200, 4):
        br = iwasawa.bracket(algebra, V[:, 0], V[:, 1])
        x, y, z = moment.mu_t(TwoForm.from_wedge(*V.T))
        assert z == 0.0
        assert abs(br @ br - (1.0 - (x + y) ** 2)) <= 1e-14


def doubled_bracket_algebra(c=iwasawa.iwasawa_algebra()):
    return 2.0 * c


def flipped_sign_algebra(c=iwasawa.iwasawa_algebra()):
    """The Iwasawa algebra with [e2, e4] = -e5: de5 = e13 - e42."""
    c = c.copy()
    c[4, 1, 3], c[4, 3, 1] = -c[4, 1, 3], -c[4, 3, 1]
    return c


@pytest.mark.parametrize("mutant", [doubled_bracket_algebra, flipped_sign_algebra])
def test_scan_K_intersection_fails_on_a_wrong_bracket(monkeypatch, mutant):
    monkeypatch.setattr(iwasawa, "iwasawa_algebra", mutant)
    _, rep = iwasawa.scan_K_intersection(150, 1)
    assert not rep["pass"]
    assert rep["max_identity_residual"] > 0.1


def mixed_reference(algebra, n, seed, which):
    """The per-draw loop of `mixed_classes_over`, on `mixed_pair`."""
    w = moment.stream(seed, n, 9)
    G = moment.gaussians(w[:, :8])
    T = 0.05 + 0.95 * moment.uniforms(w[:, 8])
    pts, skipped = [], 0
    for k in range(n):
        if which == "K_intersection" or k % 2 == 0:
            J_form = TwoForm.from_cartan((1, 1, 1))
        else:
            J_form = iwasawa.asd_edge_form(*(G[k, :3] / np.linalg.norm(G[k, :3])))
        v = np.zeros(6)
        v[:4] = G[k, 3:7] / np.linalg.norm(G[k, 3:7])
        V = np.column_stack([v, iwasawa.ocs_matrix(J_form) @ v])
        if which == "K_intersection" and not (
                horizontal_closed_reference(algebra, V)
                and vertical_closed_reference(algebra, V)):
            skipped += 1
            continue
        try:
            pts.append(moment.mu_t(mixed_pair(J_form, V, float(T[k]))))
        except IncompatiblePair:
            skipped += 1
    return np.array(pts).reshape(-1, 3), skipped


@pytest.mark.parametrize("which", ["K", "K_intersection"])
def test_mixed_classes_over_matches_per_draw_loop(algebra, which):
    n, seed = 200, 8
    cloud, rep = iwasawa.mixed_classes_over(n, seed, which)
    pts, skipped = mixed_reference(algebra, n, seed, which)
    assert (rep["produced"], rep["skipped"]) == (len(pts), skipped)
    assert cloud.points.shape == pts.shape
    assert np.max(np.abs(cloud.points - pts)) <= 1e-15


def test_mixed_invariance_test_matches_mixed_pair_on_stacks(algebra):
    J_form = TwoForm.from_cartan((1, 1, 1))
    J = iwasawa.ocs_matrix(J_form)
    Vs = np.concatenate([iwasawa._sample_planes_in(16, 30, 4),
                         np.array([plane(1, 2), plane(3, 4), plane(1, 3), plane(5, 6)])])
    stacked = iwasawa._invariant(np.broadcast_to(J, (len(Vs), 6, 6)), Vs, 1e-9)
    for V, ok in zip(Vs, stacked):
        img = J @ V
        assert ok == all(np.linalg.norm(img - V @ V.T @ img, axis=0) <= np.sqrt(1e-9))
        if ok:
            mixed_pair(J_form, V, 0.5)
        else:
            with pytest.raises(IncompatiblePair):
                mixed_pair(J_form, V, 0.5)
    assert set(stacked.tolist()) == {True, False}


@pytest.mark.parametrize("which, check", [("K", "_invariant"),
                                           ("K_intersection", "_invariant"),
                                           ("K_intersection", "horizontal_closed"),
                                           ("K_intersection", "vertical_closed")])
def test_mixed_skips_the_draws_a_check_rejects(monkeypatch, which, check):
    # Every draw passes the real checks; a check rejecting draws 0, 3, 6, ...
    # must turn exactly those into skips.
    full, _ = mixed_reference(iwasawa.iwasawa_algebra(), 30, 5, which)
    real = getattr(iwasawa, check)

    def reject_every_third(*args):
        ok = np.array(real(*args))
        ok[::3] = False
        return ok

    monkeypatch.setattr(iwasawa, check, reject_every_third)
    cloud, rep = iwasawa.mixed_classes_over(30, 5, which)
    assert (rep["produced"], rep["skipped"]) == (20, 10)
    assert rep["pass"] is False
    assert np.max(np.abs(cloud.points - full[np.arange(30) % 3 != 0])) <= 1e-15


def test_mixed_raises_on_a_structure_that_is_not_complex(monkeypatch):
    coeffs = iwasawa._asd_edge_coeffs
    monkeypatch.setattr(iwasawa, "_asd_edge_coeffs", lambda *abc: 2.0 * coeffs(*abc))
    with pytest.raises(WrongClass):
        iwasawa.mixed_classes_over(10, 5, "K")


def test_asd_edge_form_matches_twoform_arithmetic():
    e = TwoForm.basis
    grid = iwasawa.asd_edge_grid(11) + [(0.0, -0.0, 1.0), (-0.0, 0.6, -0.8), (-0.6, 0.0, -0.8)]
    for a, b, c in grid:
        expected = (a * (e(1, 2) - e(3, 4)) + b * (e(1, 3) - e(4, 2))
                    + c * (e(1, 4) - e(2, 3)) - e(5, 6))
        got = iwasawa.asd_edge_form(a, b, c)
        assert [(x, np.signbit(x)) for x in got.coeffs] == \
            [(x, np.signbit(x)) for x in expected.coeffs]


def _einsum_nijenhuis_norms(algebra, Js):
    """Reference: the dense three-einsum Nijenhuis kernel, half the sum of
    N^2 over all 36 ordered frame pairs."""
    c = algebra
    jj = np.einsum("kab,nai,nbj->nkij", c, Js, Js, optimize=True)
    mixed = (np.einsum("kaj,nai->nkij", c, Js, optimize=True)
             + np.einsum("kib,nbj->nkij", c, Js, optimize=True))
    N = jj - np.einsum("nkm,nmij->nkij", Js, mixed, optimize=True) - c
    return np.sqrt(0.5 * np.einsum("nkij,nkij->n", N, N))


def test_nijenhuis_kernel_matches_the_dense_einsums(algebra):
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    R = moment.haar_rotations(2000, 7)
    Js = R @ J0 @ np.swapaxes(R, 1, 2)
    # Haar conjugates R J0 R^T, as a matrix product against an einsum.
    assert np.max(np.abs(Js - np.einsum("nab,bc,ndc->nad", R, J0, R))) <= 1e-14
    for stack in (Js, moment.twistor_structures(2000, 7)):
        assert np.max(np.abs(iwasawa._nijenhuis_norms(algebra, stack)
                             - _einsum_nijenhuis_norms(algebra, stack))) <= 1e-14
    family = np.array([iwasawa.ocs_matrix(iwasawa.asd_edge_form(*abc))
                       for abc in iwasawa.asd_edge_grid()] + [J0])
    assert np.max(np.abs(iwasawa._nijenhuis_norms(algebra, family)
                         - _einsum_nijenhuis_norms(algebra, family))) <= 1e-14
    assert iwasawa._nijenhuis_norms(algebra, J0[None])[0] == 0.0


def _one_sided(c):
    """c with [e1, e3] stored but not its mirror [e3, e1]."""
    c = c.copy()
    c[4, 2, 0] = 0.0
    return c


@pytest.mark.parametrize("bad", [lambda c: c[:5], lambda c: c.reshape(6, 36),
                                 lambda c: c + np.eye(6), _one_sided])
def test_nijenhuis_kernel_rejects_bad_structure_constants(algebra, bad):
    with pytest.raises(ValueError, match="antisymmetric"):
        iwasawa._nijenhuis_norms(bad(algebra), moment.twistor_structures(3, 0))


@pytest.mark.parametrize("shape", [(6, 6), (3, 6, 5), (3, 36), (2, 3, 6, 6)])
def test_nijenhuis_kernel_rejects_a_stack_not_n_by_6_by_6(algebra, shape):
    with pytest.raises(ValueError, match=r"\(n, 6, 6\) stack"):
        iwasawa._nijenhuis_norms(algebra, np.zeros(shape))


def test_nijenhuis_kernel_of_an_empty_stack_is_empty(algebra):
    norms = iwasawa._nijenhuis_norms(algebra, np.zeros((0, 6, 6)))
    assert norms.shape == (0,) and norms.dtype == float


def test_nijenhuis_norms_rows_do_not_depend_on_their_stack(algebra):
    Js = moment.twistor_structures(300, 5)
    one_by_one = [iwasawa._nijenhuis_norms(algebra, J[None])[0] for J in Js]
    assert np.array_equal(iwasawa._nijenhuis_norms(algebra, Js), one_by_one)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tol", [1e-6, 4.0])
def test_scan_complex_is_the_same_in_batches_of_seven(monkeypatch, seed, tol):
    # At tol = 4 most of the 50 draws join the cloud, in draw order.  A float
    # sum batch by batch would move mean_moment_norm2 in its last bit on
    # seeds 0-1.
    whole_cloud, whole = iwasawa.scan_complex(50, seed, tol)
    monkeypatch.setattr(moment, "HAAR_BATCH_WORDS", 7 * 8)  # 7 draws of 8 words
    cloud, rep = iwasawa.scan_complex(50, seed, tol)
    assert cloud.to_csv() == whole_cloud.to_csv()
    assert rep == whole


@pytest.mark.parametrize("batch, n", [(7, 1), (7, 7), (7, 8), (7, 50),
                                      (None, moment.HAAR_BATCH_WORDS // 8 + 1)])
def test_scan_complex_calls_the_kernel_once_for_the_family_and_once_per_batch(
        monkeypatch, batch, n):
    # The traced kernel span then covers the family and every draw, 8 words a
    # draw: a batch of b draws is 8 b words.
    if batch is not None:
        monkeypatch.setattr(moment, "HAAR_BATCH_WORDS", 8 * batch)
    batch = moment.HAAR_BATCH_WORDS // 8
    kernel, stacks = iwasawa._nijenhuis_norms, []

    def counted(c, Js):
        stacks.append(len(Js))
        return kernel(c, Js)

    monkeypatch.setattr(iwasawa, "_nijenhuis_norms", counted)
    iwasawa.scan_complex(n, 3)
    assert len(stacks) == 1 + math.ceil(n / batch)
    assert stacks == [1 + len(iwasawa.asd_edge_grid())] + [
        min(batch, n - lo) for lo in range(0, n, batch)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("sparse", "full", "zero")),
    upper=arrays(float, (6, 15), elements=st.floats(-2.0, 2.0)),
    keep=arrays(bool, (6, 15)),
    M=arrays(float, st.tuples(st.integers(1, 4), st.just(6), st.just(6)),
             elements=st.floats(-1.0, 1.0)),
    nan_row=st.integers(0, 3),
)
def test_nijenhuis_kernel_matches_the_dense_einsums_beyond_the_iwasawa_algebra(
        kind, upper, keep, M, nan_row):
    # Antisymmetric c: a random sparsity pattern, all six slices nonzero, or
    # c = 0; structures J = P J0 P^-1, complex but not orthogonal.
    i, j = np.triu_indices(6, 1)
    c = np.zeros((6, 6, 6))
    if kind == "sparse":
        c[:, i, j] = upper * keep
    elif kind == "full":
        c[:, i, j] = np.where(upper == 0.0, 1.0, upper)
    c = c - np.swapaxes(c, 1, 2)
    P = 2.0 * np.eye(6) + M
    assume(np.max(np.linalg.cond(P)) < 1e3)
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    Js = P @ J0 @ np.linalg.inv(P)
    norms = iwasawa._nijenhuis_norms(c, Js)
    reference = _einsum_nijenhuis_norms(c, Js)
    assert np.all(np.abs(norms - reference) <= 1e-12 * (1.0 + reference))
    if kind == "zero":
        assert np.all(norms == 0.0)
    # A NaN entry spoils its own row only.  (With c = 0 no product is formed
    # and every row is 0.)
    k = nan_row % len(Js)
    spoilt = Js.copy()
    spoilt[k, 2, 3] = np.nan
    out = iwasawa._nijenhuis_norms(c, spoilt)
    assert np.isnan(out[k]) == bool(np.any(c))
    assert np.array_equal(np.delete(out, k), np.delete(norms, k))
