"""Fibration projections and the explicit inverse-image families."""

import numpy as np
import pytest

from orbitkit import iwasawa, klein, moment
from orbitkit.errors import (
    DegenerateOrientation,
    IncompatiblePattern,
    NormViolation,
    WrongClass,
)
from orbitkit.forms import (
    OrbitClass,
    TwoForm,
    canonical_triple,
    classify,
    conjugate,
)

W0 = TwoForm.from_cartan((1, 1, 1))
F1_FORM = TwoForm.from_cartan((1, 1, 2))
E56 = TwoForm.basis(5, 6)


def haar(seed, index=0):
    return moment.haar_rotations(1, seed, start=index)[0]


def test_fibration_project_flattens_values():
    out = klein.fibration_project(F1_FORM, (1, 1, 1))
    assert np.allclose(out.as_array(), W0.as_array(), atol=1e-12)
    assert classify(out) is OrbitClass.P_PLUS
    out = klein.fibration_project(F1_FORM, (0, 0, 1))
    assert np.allclose(out.as_array(), E56.as_array(), atol=1e-12)


def test_fibration_project_equivariant():
    for k in range(8):
        R = haar(31, k)
        for target, image in (((1, 1, 1), W0), ((0, 0, 1), E56)):
            out = klein.fibration_project(conjugate(F1_FORM, R), target)
            expected = conjugate(image, R)
            assert np.max(np.abs(out.as_array() - expected.as_array())) <= 1e-9


def test_fibration_project_incompatible():
    with pytest.raises(IncompatiblePattern):
        klein.fibration_project(E56, (1, 1, 1))
    with pytest.raises(IncompatiblePattern):
        klein.fibration_project(W0, (1, 1, 2))  # cannot refine a coarser form
    with pytest.raises(IncompatiblePattern):
        klein.fibration_project(F1_FORM, (1, -1, 1))  # orientation clash


def test_fibration_project_allows_valid_targets():
    # F2 projects onto the opposite-orientation structure.
    f2 = TwoForm.from_cartan((1, -1, 2))
    out = klein.fibration_project(f2, (1, -1, 1))
    assert classify(out) is OrbitClass.P_MINUS
    # A generic form refines everything.
    g = TwoForm.from_cartan((1, 0.5, 2))
    assert classify(klein.fibration_project(g, (1, 1, 1))) is OrbitClass.P_PLUS
    assert classify(klein.fibration_project(g, (0, 0, 1))) is OrbitClass.GRASSMANNIAN


def test_pi1_matches_fibration_project():
    # The paper's pi1, the complex-structure part of a mixed form, is
    # fibration_project onto (1, 1, 1); the polar factor F (-F^2)^(-1/2) of
    # the form's endomorphism is an independent reference for it.
    for k in range(5):
        f = conjugate(F1_FORM, haar(77, k))
        a = klein.fibration_project(f, (1, 1, 1)).as_array()
        F = f.endomorphism()
        s, Q = np.linalg.eigh(-F @ F)
        polar = TwoForm.from_matrix(F @ Q @ np.diag(s ** -0.5) @ Q.T, tol=1e-6)
        assert np.max(np.abs(a - polar.as_array())) <= 1e-9


def test_ocs_over_plane_completions():
    J = klein.ocs_over_plane(E56, (1, 0, 0))
    assert np.allclose(J.as_array(), W0.as_array(), atol=1e-14)
    Jm = klein.ocs_over_plane(E56, (-1, 0, 0))
    w3 = TwoForm.from_cartan((-1, -1, 1))
    assert np.allclose(Jm.as_array(), w3.as_array(), atol=1e-14)


def test_ocs_over_plane_sphere_properties():
    rng = np.random.default_rng(21)
    for _ in range(15):
        u = rng.standard_normal(3)
        u = u / np.linalg.norm(u)
        J = klein.ocs_over_plane(E56, u)
        M = J.endomorphism()
        assert np.max(np.abs(M @ M + np.eye(6))) <= 1e-12
        assert classify(J) is OrbitClass.P_PLUS
        # The plane of the simple form stays invariant.
        e5 = np.zeros(6)
        e5[4] = 1.0
        img = M @ e5
        assert abs(img[4]) + abs(img[5]) >= 1.0 - 1e-12


def test_ocs_over_plane_round_trip():
    rng = np.random.default_rng(22)
    for k in range(8):
        u = rng.standard_normal(3)
        u = u / np.linalg.norm(u)
        p = klein.SimplePlaneForm(
            conjugate(E56, haar(55, k))
        )
        J = klein.ocs_over_plane(p, u)
        mixed = J + 0.7 * p.form
        back = klein.fibration_project(mixed, (0, 0, 1))
        assert np.max(np.abs(back.as_array() - p.form.as_array())) <= 1e-9


def test_ocs_over_plane_norm_violation():
    with pytest.raises(NormViolation):
        klein.ocs_over_plane(E56, (1, 1, 0))


def test_invariant_plane_examples():
    e = np.eye(6)
    out = klein.invariant_plane(W0, e[0], +1)
    assert np.allclose(out.form.as_array(), TwoForm.basis(1, 2).as_array())
    out = klein.invariant_plane(W0, e[4], -1)
    assert np.allclose(out.form.as_array(), (-1 * E56).as_array())
    v = (e[0] + e[2]) / np.sqrt(2)
    out = klein.invariant_plane(W0, v, +1)
    oracle = TwoForm.from_wedge(v, W0.endomorphism() @ v)
    assert np.allclose(out.form.as_array(), oracle.as_array())
    assert abs(out.form.norm() - 1.0) <= 1e-12


def test_invariant_plane_wrong_class():
    with pytest.raises(WrongClass):
        klein.invariant_plane(E56, np.eye(6)[0], +1)


def test_mixed_over_examples():
    e = np.eye(6)
    m = klein.mixed_over(W0, e[4], 1.0)
    assert np.allclose(m.as_array(), TwoForm.from_cartan((1, 1, 2)).as_array())
    m = klein.mixed_over(W0, e[0], 0.25)
    assert np.allclose(m.as_array(), TwoForm.from_cartan((1.25, 1, 1)).as_array())
    assert classify(m) is OrbitClass.F1


def test_mixed_over_image_in_matching_polytope():
    rng = np.random.default_rng(31)
    for k in range(10):
        J = conjugate(W0, haar(91, k))
        f = rng.standard_normal(6)
        f = f / np.linalg.norm(f)
        t = float(rng.uniform(0.05, 0.5))
        m = klein.mixed_over(J, f, t)
        P = moment.moment_polytope(canonical_triple(m))
        from orbitkit.polytopes import violation

        assert violation(P, moment.mu_t(m)) <= 1e-9


def test_pi1_pi2_recover_mixed_components():
    # The paper's pi1 and pi2: fibration_project onto (1, 1, 1) and (0, 0, 1).
    rng = np.random.default_rng(41)
    for k in range(12):
        J = conjugate(W0, haar(14, k))
        f = rng.standard_normal(6)
        f = f / np.linalg.norm(f)
        t = float(rng.uniform(0.05, 2.0))
        m = klein.mixed_over(J, f, t)
        back = klein.fibration_project(m, (1, 1, 1))
        assert np.max(np.abs(back.as_array() - J.as_array())) <= 1e-9
        plane = klein.invariant_plane(J, f, +1)
        back2 = klein.fibration_project(m, (0, 0, 1))
        assert np.max(np.abs(back2.as_array() - plane.form.as_array())) <= 1e-9


def test_f3_plane_extraction():
    e12, e34, e56 = TwoForm.basis(1, 2), TwoForm.basis(3, 4), TwoForm.basis(5, 6)
    b = 0.5
    plus_cases = [-1 * e12 + e56 - b * e34, e12 - 1 * e56 - b * e34]
    minus_cases = [e12 + e56 - b * e34, -1 * e12 - 1 * e56 - b * e34]
    for f in plus_cases:
        assert classify(f) is OrbitClass.F3_PLUS
        out = klein.f3_plane(f)
        assert np.allclose(np.abs(out.form.as_array()), np.abs(e34.as_array()))
    for f in minus_cases:
        assert classify(f) is OrbitClass.F3_MINUS
        out = klein.f3_plane(f)
        assert np.allclose(np.abs(out.form.as_array()), np.abs(e34.as_array()))
    with pytest.raises(DegenerateOrientation):
        klein.f3_plane(TwoForm.basis(1, 4) + TwoForm.basis(2, 3))
    with pytest.raises(WrongClass):
        klein.f3_plane(W0)


def test_degenerate_structure_images():
    f = TwoForm.basis(1, 4) + TwoForm.basis(2, 3)
    assert classify(f) is OrbitClass.F3_ZERO
    assert moment.mu_t(f) == (0.0, 0.0, 0.0)
    assert moment.mu_t(f + TwoForm.basis(5, 6)) == (0.0, 0.0, 1.0)


def test_edge_prism_closed_form():
    assert klein.edge_prism_point(1, 0, 0, 1, 0, 0, 0.7) == (1.7, -1.0, -1.0)
    assert klein.edge_prism_point(0, 1, 0, 0, 0, 1, 2.0) == (0.0, 0.0, -3.0)
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b, c = rng.standard_normal(3)
        n = np.sqrt(a * a + b * b + c * c)
        a, b, c = a / n, b / n, c / n
        al, be, ga = rng.standard_normal(3)
        n = np.sqrt(al * al + be * be + ga * ga)
        al, be, ga = al / n, be / n, ga / n
        t = float(rng.uniform(0, 3))
        x, y, z = klein.edge_prism_point(a, b, c, al, be, ga, t)
        # Closed form from the construction.
        assert abs(x - (a + t * (al * al * a + al * be * c))) <= 1e-12
        assert abs(y - (-a + t * (al * be * c - be * be * a))) <= 1e-12
        assert abs(z - (-1 - t * ga * ga)) <= 1e-12
        assert abs(x - y - a * z - a * (3 + t)) <= 1e-12


def test_edge_prism_points_match_the_twoform_sum():
    # Each row equals, bit for bit, mu_t of the TwoForm sum w + t e^(Je).
    abc, abg, t = klein.fibre_draws(3000, 7, klein.EDGE_PRISM_T_LO)
    abc = np.vstack([abc, [(1, 0, 0), (0, 1, 0), (0.0, -0.0, 1.0), (-0.6, 0.0, -0.8)]])
    abg = np.vstack([abg, [(1, 0, 0), (0, 0, 1), (0.0, 1.0, -0.0), (0.0, -0.6, 0.8)]])
    t = np.concatenate([t, [0.7, 2.0, 0.0, 1.0]])
    got = klein.edge_prism_points(abc, abg, t)
    assert got.shape == (len(t), 3)
    for k in range(len(t)):
        w = iwasawa.asd_edge_form(*abc[k])
        e = np.zeros(6)
        e[0], e[2], e[4] = abg[k]
        expected = moment.mu_t(w + float(t[k]) * TwoForm.from_wedge(e, w.endomorphism() @ e))
        assert [(x, np.signbit(x)) for x in got[k]] == \
            [(x, np.signbit(x)) for x in expected], k
        assert klein.edge_prism_point(*abc[k], *abg[k], t[k]) == tuple(got[k])


def test_edge_prism_t_zero_is_edge():
    rng = np.random.default_rng(61)
    for _ in range(50):
        a, b, c = rng.standard_normal(3)
        n = np.sqrt(a * a + b * b + c * c)
        a, b, c = a / n, b / n, c / n
        pt = klein.edge_prism_point(a, b, c, 1, 0, 0, 0.0)
        assert pt == (a, -a, -1.0)


def test_edge_prism_norm_violation():
    with pytest.raises(NormViolation):
        klein.edge_prism_point(1, 1, 0, 1, 0, 0, 1.0)
    with pytest.raises(NormViolation):
        klein.edge_prism_point(1, 0, 0, 1, 1, 0, 1.0)


def test_edge_prism_forms_are_complex_structures():
    rng = np.random.default_rng(62)
    for _ in range(20):
        abc = rng.standard_normal(3)
        abc = abc / np.linalg.norm(abc)
        f = iwasawa.asd_edge_form(*abc)
        M = f.endomorphism()
        assert np.max(np.abs(M @ M + np.eye(6))) <= 1e-12
        assert classify(f) is OrbitClass.P_PLUS
        x, y, z = moment.mu_t(f)
        assert abs(x - abc[0]) <= 1e-15 and abs(y + abc[0]) <= 1e-15 and z == -1.0


def test_prism_region():
    assert klein.prism_region_test((1, -1, -1))
    assert klein.prism_region_test((0, 0, -2))
    assert not klein.prism_region_test((0, 0, 0))
    assert not klein.prism_region_test((0, 0, -3))
    rng = np.random.default_rng(63)
    for k in range(500):
        abc = rng.standard_normal(3)
        abc = abc / np.linalg.norm(abc)
        abg = rng.standard_normal(3)
        abg = abg / np.linalg.norm(abg)
        t = float(rng.uniform(0, 1))
        assert klein.prism_region_test(klein.edge_prism_point(*abc, *abg, t))


def test_square_fiber_examples():
    assert klein.square_fiber_points((1, 0, 0), (1, 0, 0), 1.0) == (2.0, 1.0, 1.0)
    # t -> 0 limit lands on the central square.
    rng = np.random.default_rng(64)
    for _ in range(50):
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        p = klein.plane_in_span4(v)
        x, y, z = moment.mu_t(p.form)
        assert abs(x) + abs(y) <= 1 + 1e-12
        assert abs(z) <= 1e-15
        u = rng.standard_normal(3)
        u = u / np.linalg.norm(u)
        t = float(rng.uniform(0.05, 1.0))
        X, Y, Z = klein.square_fiber_points(u, v, t)
        J = klein.ocs_over_plane(p, u)
        assert abs(Z - t * J.coeffs[14]) <= 1e-13
