"""Frame algebra of the complex Heisenberg group and integrability scans."""

import numpy as np
import pytest

from orbitkit import iwasawa, moment
from orbitkit.errors import IncompatiblePair, WrongClass
from orbitkit.forms import TwoForm


@pytest.fixture(scope="module")
def algebra():
    return iwasawa.iwasawa_algebra()


def test_jacobi_identity(algebra):
    assert algebra.jacobi_residual() <= 1e-14


def test_structure_constants_from_derivative_expansion(algebra):
    # de5 = e13 - e24, de6 = e14 + e23 pin the brackets via
    # d(alpha)(X, Y) = -alpha([X, Y]).
    d5 = iwasawa.d_one_form(algebra, 5)
    assert d5.coefficient(1, 3) == 1.0
    assert d5.coefficient(2, 4) == -1.0
    assert sum(abs(c) for c in d5.coeffs) == 2.0
    d6 = iwasawa.d_one_form(algebra, 6)
    assert d6.coefficient(1, 4) == 1.0
    assert d6.coefficient(2, 3) == 1.0
    assert sum(abs(c) for c in d6.coeffs) == 2.0
    for k in (1, 2, 3, 4):
        assert iwasawa.d_one_form(algebra, k).norm() == 0.0


def test_bracket_values(algebra):
    e = np.eye(6)
    assert np.array_equal(iwasawa.bracket(algebra, e[0], e[2]), -e[4])
    assert np.array_equal(iwasawa.bracket(algebra, e[1], e[3]), e[4])
    assert np.array_equal(iwasawa.bracket(algebra, e[0], e[3]), -e[5])
    assert np.array_equal(iwasawa.bracket(algebra, e[1], e[2]), -e[5])
    assert np.all(iwasawa.bracket(algebra, e[0], e[1]) == 0)
    assert np.all(iwasawa.bracket(algebra, e[2], e[3]) == 0)


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


def test_d_squared_vanishes(algebra):
    for k in range(1, 7):
        dd = iwasawa.d_two_form(algebra, iwasawa.d_one_form(algebra, k))
        assert np.max(np.abs(dd)) == 0.0


def test_nijenhuis_standard_structure(algebra):
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    assert iwasawa.nijenhuis_norm(algebra, J0) == 0.0


def test_nijenhuis_edge_family(algebra):
    for a, b, c in iwasawa.asd_edge_grid(25):
        f = iwasawa.asd_edge_form(a, b, c)
        J = iwasawa.ocs_matrix(f)
        assert iwasawa.nijenhuis_norm(algebra, J) <= 1e-10
        x, y, z = moment.mu_t(f)
        assert abs(x - a) <= 1e-15 and abs(y + a) <= 1e-15 and z == -1.0


def test_nijenhuis_positive_examples(algebra):
    w3 = TwoForm.from_cartan((-1, -1, 1))
    assert iwasawa.nijenhuis_norm(algebra, w3.endomorphism()) > 1.0
    # A generic rotation of the standard structure is not integrable.
    J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
    R = moment.haar_rotations(1, 100)[0]
    assert iwasawa.nijenhuis_norm(algebra, R @ J0 @ R.T) > 1e-3


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
    assert rep["max_accepted_distance"] <= 1e-2
    # Family images cover the vertex and the opposite edge.
    pts = cloud.points
    assert any(np.allclose(p, (1, 1, 1)) for p in pts)
    end1 = np.array([1.0, -1.0, -1.0])
    end2 = np.array([-1.0, 1.0, -1.0])
    assert any(np.allclose(p, end1) for p in pts)
    assert any(np.allclose(p, end2) for p in pts)


def test_integrable_set_distance():
    assert iwasawa.integrable_set_distance((1, 1, 1)) == 0.0
    assert iwasawa.integrable_set_distance((0, 0, -1)) == 0.0
    assert iwasawa.integrable_set_distance((0.3, -0.3, -1)) <= 1e-15
    assert iwasawa.integrable_set_distance((0, 0, 0)) == 1.0


def test_scan_K(algebra):
    cloud, rep = iwasawa.scan_K(800, 5)
    assert rep["pass"]
    assert rep["max_l1"] <= 1 + 1e-9
    assert rep["max_abs_z"] <= 1e-9
    assert rep["off_subspace_closed"] == 0
    # The square actually gets filled out.
    l1 = np.abs(cloud.points[:, 0]) + np.abs(cloud.points[:, 1])
    assert l1.max() > 0.9 and l1.min() < 0.3


def test_scan_K_single_plane_images(algebra):
    assert moment.mu_t(iwasawa.plane_form(plane(1, 2))) == (1.0, 0.0, 0.0)
    V = np.zeros((6, 2))
    V[0, 0] = V[2, 0] = 1 / np.sqrt(2)
    V[1, 1] = V[3, 1] = 1 / np.sqrt(2)
    x, y, z = moment.mu_t(iwasawa.plane_form(V))
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
    assert moment.mu_t(iwasawa.plane_form(plane(1, 2))) == (1.0, 0.0, 0.0)
    assert moment.mu_t(iwasawa.plane_form(plane(3, 4))) == (0.0, 1.0, 0.0)
    # Reversing orientation lands on the opposite segment.
    V = plane(1, 2)[:, ::-1]
    assert moment.mu_t(iwasawa.plane_form(V)) == (-1.0, 0.0, 0.0)
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
            x, y, z = moment.mu_t(iwasawa.plane_form(V))
            assert abs(x + y - sign) <= 1e-12
            assert abs(z) <= 1e-14


def test_mixed_pair_examples(algebra):
    m = iwasawa.mixed_pair(TwoForm.from_cartan((1, 1, 1)), plane(1, 2), 1.0)
    assert np.allclose(m.as_array(), TwoForm.from_cartan((2, 1, 1)).as_array())
    assert moment.mu_t(m) == (2.0, 1.0, 1.0)
    with pytest.raises(IncompatiblePair):
        iwasawa.mixed_pair(TwoForm.from_cartan((1, 1, 1)), plane(1, 3), 1.0)


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
        m = iwasawa.mixed_pair(TwoForm.from_cartan((1, 1, 1)), V, 1e-9)
        assert iwasawa.integrable_set_distance(moment.mu_t(m)) <= 1e-8
