"""Fibration projections and the explicit inverse-image families."""

import numpy as np
import pytest

from orbitkit import iwasawa, klein, moment, polytopes
from orbitkit.errors import IncompatiblePattern, NormViolation, WrongClass
from orbitkit.forms import (
    PAIRS,
    OrbitClass,
    TwoForm,
    canonical_triple,
    classify,
    conjugate,
    eigen_split,
    endomorphisms,
    wedges,
)
from orbitkit.polytopes import violation

W0 = TwoForm.from_cartan((1, 1, 1))
F1_FORM = TwoForm.from_cartan((1, 1, 2))
E56 = TwoForm.basis(5, 6)


def haar(seed, index=0):
    return moment.haar_rotations(1, seed, start=index)[0]


def bits(row):
    return [(float(c), bool(np.signbit(c))) for c in row]


def mixed_forms(J, v, t):
    """Coefficients and Cartan images of the lifts J + t (v ^ Jv) of
    `iwasawa.mixed_images`, for stacks J (n, 15), v (n, 6) and t (n,)."""
    V, images = iwasawa.mixed_images(J, v, t)
    return J + t[:, None] * wedges(V[..., 0], V[..., 1]), images


def test_wedges_are_the_rows_of_from_wedge():
    rng = np.random.default_rng(20)
    u, v = rng.standard_normal((2, 40, 6))
    u[::4, :3] = -0.0
    v[1::4, 2] = 0.0
    got = wedges(u.reshape(5, 8, 6), v.reshape(5, 8, 6)).reshape(40, 15)
    for k in range(40):
        expected = [u[k, i - 1] * v[k, j - 1] - u[k, j - 1] * v[k, i - 1] for i, j in PAIRS]
        assert bits(got[k]) == bits(expected)
        assert bits(TwoForm.from_wedge(u[k], v[k]).coeffs) == bits(expected)


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


#: Exact chamber points: the triples of test_forms.CLASS_CASES, then (3, 1, 3)
#: and (1/2, 1/2, 1/2).
CHAMBER_POINTS = [
    (0, 0, 0), (1, 1, 1), (1, -1, 1), (0, 0, 1), (1, 1, 2), (1, -1, 2), (2, 1, 2),
    (2, 0, 2), (2, -1, 2), (1, 0.5, 2), (1, 0, 2), (3, 1, 3), (0.5, 0.5, 0.5),
]
#: Row s, column t: 1 when `fibration_project` maps the Cartan form of
#: CHAMBER_POINTS[s] onto the orbit of CHAMBER_POINTS[t]; 78 of 169 pairs.
ACCEPTED = (
    "1000000000000",
    "1100000000001",
    "1010000000000",
    "1001000000000",
    "1101100000001",
    "1011010000000",
    "1110001110011",
    "1110001110011",
    "1110001110011",
    "1111111111111",
    "1111111111111",
    "1110001110011",
    "1100000000001",
)


def test_fibration_project_accepts_the_pinned_pairs():
    got = []
    for source in CHAMBER_POINTS:
        row = ""
        for target in CHAMBER_POINTS:
            try:
                klein.fibration_project(TwoForm.from_cartan(source), target)
                row += "1"
            except IncompatiblePattern:
                row += "0"
        got.append(row)
    assert tuple(got) == ACCEPTED


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


def test_ocs_over_plane_matches_the_twoform_sum():
    # Bit for bit the TwoForm sum over the kernel frame of eigen_split.
    rng = np.random.default_rng(23)
    for k in range(50):
        u = rng.standard_normal(3)
        u1, u2, u3 = (float(c) for c in u / np.linalg.norm(u))
        p = klein.SimplePlaneForm(conjugate(E56, haar(56, k)))
        k1, k2, _ = eigen_split(p.form).planes
        h1, h2, h3, h4 = k1.u, k1.v, k2.u, k2.v
        w = TwoForm.from_wedge
        expected = (p.form + u1 * (w(h1, h2) + w(h3, h4)) + u2 * (w(h1, h3) - w(h2, h4))
                    + u3 * (w(h1, h4) + w(h2, h3)))
        assert bits(klein.ocs_over_plane(p, (u1, u2, u3)).coeffs) == bits(expected.coeffs)


def test_ocs_over_plane_norm_violation():
    with pytest.raises(NormViolation):
        klein.ocs_over_plane(E56, (1, 1, 0))


def test_mixed_images_examples():
    e = np.eye(6)
    forms, images = mixed_forms(np.tile(W0.as_array(), (2, 1)), e[[4, 0]], np.array([1.0, 0.25]))
    expected = [TwoForm.from_cartan((1, 1, 2)), TwoForm.from_cartan((1.25, 1, 1))]
    assert np.allclose(forms, [f.as_array() for f in expected])
    assert np.allclose(images, [moment.mu_t(f) for f in expected])
    assert classify(TwoForm(forms[1])) is OrbitClass.F1


def test_mixed_image_in_matching_polytope():
    rng = np.random.default_rng(31)
    J = np.array([conjugate(W0, haar(91, k)).as_array() for k in range(10)])
    f = rng.standard_normal((10, 6))
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    forms, images = mixed_forms(J, f, rng.uniform(0.05, 0.5, 10))
    for m, image in zip(forms, images):
        P = moment.moment_polytope(canonical_triple(TwoForm(m)))
        assert violation(P, image) <= 1e-9


def test_pi1_pi2_recover_mixed_components():
    # The paper's pi1 and pi2, fibration_project onto (1, 1, 1) and (0, 0, 1),
    # give back J and the plane v ^ Jv of the lift J + t (v ^ Jv).
    rng = np.random.default_rng(41)
    J = np.array([conjugate(W0, haar(14, k)).as_array() for k in range(12)])
    f = rng.standard_normal((12, 6))
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    t = rng.uniform(0.05, 2.0, 12)
    V, _ = iwasawa.mixed_images(J, f, t)
    planes = wedges(V[..., 0], V[..., 1])
    forms = J + t[:, None] * planes
    for k in range(12):
        back = klein.fibration_project(TwoForm(forms[k]), (1, 1, 1))
        assert np.max(np.abs(back.as_array() - J[k])) <= 1e-9
        back2 = klein.fibration_project(TwoForm(forms[k]), (0, 0, 1))
        assert np.max(np.abs(back2.as_array() - planes[k])) <= 1e-9


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
    abc, abg, t = moment.fibre_draws(3000, 7, klein.EDGE_PRISM_T_LO, (3, 3))
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


NAN = float("nan")


@pytest.mark.parametrize("call, error", [
    (lambda: iwasawa.ocs_matrix(np.full((6, 6), NAN)), WrongClass),
    (lambda: iwasawa.ocs_matrix(np.stack([W0.endomorphism(), np.full((6, 6), NAN)])),
     WrongClass),
    (lambda: iwasawa.doubly_closed_plane(1, [NAN, 0, 0]), ValueError),
    (lambda: iwasawa.doubly_closed_plane([1, 1], [[1, 0, 0], [0, NAN, 0]]), ValueError),
    (lambda: klein._unit((NAN, 0, 0), "u"), NormViolation),
    (lambda: klein.edge_prism_point(NAN, 0, 0, 1, 0, 0, 0.5), NormViolation),
    (lambda: klein.edge_prism_point(1, 0, 0, 0, NAN, 0, 0.5), NormViolation),
    (lambda: klein.edge_prism_point(1, 0, 0, 1, 0, 0, NAN), ValueError),
], ids=["ocs", "ocs-stack", "plane", "plane-stack", "unit", "prism-abc", "prism-abg",
        "prism-t"])
def test_input_checks_refuse_nan(call, error):
    # Each check reads not (value <= bound): a NaN compares false either way.
    with pytest.raises(error):
        call()


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


def test_prism_region_is_the_clipped_moment_polytope():
    # Built from the orbit points with z <= -1; the clip is the definition.
    assert klein.prism_region() == polytopes.clip(moment.moment_polytope(klein.PRISM_LAMBDA),
                                                  (0, 0, 1), -1)


def test_square_fiber_examples():
    assert moment.mu_t(klein.square_fiber_form((1, 0, 0), (1, 0, 0), 1.0)) == (2.0, 1.0, 1.0)
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
        X, Y, Z = moment.mu_t(klein.square_fiber_form(u, v, t))
        # The image ((1 + t) a, t a w, t w) of the square region, a = v1, w = u1.
        assert abs(X - (1 + t) * v[0]) <= 1e-15
        assert abs(Y - t * u[0] * v[0]) <= 1e-15
        assert abs(Z - t * u[0]) <= 1e-15


def test_square_fiber_argument_checks():
    with pytest.raises(NormViolation):
        klein.square_fiber_form((1, 0, 0), (1, 1, 0), 0.5)
    with pytest.raises(NormViolation):
        klein.square_fiber_form((1, 1, 0), (1, 0, 0), 0.5)
    with pytest.raises(ValueError):
        klein.square_fiber_form((1, 0, 0), (1, 0, 0), 0.0)


def square_draws():
    """3000 square draws of seed 7, then every pair of signed axes."""
    u, v, t = moment.fibre_draws(3000, 7, klein.SQUARE_T_LO, (3, 3))
    axes = np.vstack([np.eye(3), -np.eye(3), [(0.0, -0.0, 1.0), (-0.0, 1.0, 0.0)]])
    au, av = (a.reshape(-1, 3) for a in np.broadcast_arrays(axes[:, None], axes[None]))
    at = np.linspace(klein.SQUARE_T_LO, 1.0, len(au))
    return np.vstack([u, au]), np.vstack([v, av]), np.concatenate([t, at])


def test_square_forms_are_rows_of_square_fiber_form():
    u, v, t = square_draws()
    p, J = klein.square_forms(u, v)
    assert p.shape == J.shape == (len(t), 15)
    images = p[:, [0, 9, 14]] + t[:, None] * J[:, [0, 9, 14]]
    for k in range(len(t)):
        assert bits(images[k]) == bits(moment.mu_t(klein.square_fiber_form(u[k], v[k], t[k]))), k


def test_square_forms_are_compatible_complex_structures():
    u, v, t = square_draws()
    p, J = klein.square_forms(u, v)
    M = endomorphisms(J)
    assert np.max(np.abs(M @ M + np.eye(6))) <= 1e-12
    # J e1 = p e1 = v, so the plane of p is J-invariant, with J equal to p on it.
    assert np.max(np.abs(J[:, :5] - p[:, :5])) == 0.0
    for k in list(range(100)) + list(range(3000, len(t))):
        assert classify(TwoForm(J[k])) is OrbitClass.P_PLUS, k


def test_square_fibre_forms_have_chamber_triple_t_t_1_plus_t():
    # The triple the square suite checks containment against.
    u, v, t = square_draws()
    p, J = klein.square_forms(u, v)
    for k in list(range(200)) + list(range(3000, len(t))):
        triple = canonical_triple(TwoForm(p[k] + t[k] * J[k]))
        assert np.max(np.abs(np.subtract(triple, (t[k], t[k], 1 + t[k])))) <= 1e-12, k


def test_fibration_project_splits_square_fibre_forms():
    u, v, t = square_draws()
    p, J = klein.square_forms(u, v)
    for k in list(range(200)) + list(range(3000, len(t))):
        form = TwoForm(p[k] + t[k] * J[k])
        back = klein.fibration_project(form, (1, 1, 1)).as_array()
        assert np.max(np.abs(back - J[k])) <= 1e-12, k
        back = klein.fibration_project(form, (0, 0, 1)).as_array()
        assert np.max(np.abs(back - p[k])) <= 1e-12, k
