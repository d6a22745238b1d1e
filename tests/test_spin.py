"""Double cover of the rotation circle by the unitary circle."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from orbitkit import spin
from orbitkit.forms import TwoForm


def test_theta_zero():
    r = spin.spin_cover_check(0.0)
    assert np.allclose(r.so6_action, np.eye(6))
    assert np.allclose(r.su4_element, np.eye(4))
    assert r.discrepancy <= 1e-15


def test_one_loop_downstairs_is_half_a_loop_upstairs():
    r = spin.spin_cover_check(2 * np.pi)
    assert np.max(np.abs(r.so6_action - np.eye(6))) <= 1e-12
    assert np.max(np.abs(r.su4_element + np.eye(4))) <= 1e-12
    assert r.discrepancy <= 1e-12
    r2 = spin.spin_cover_check(4 * np.pi)
    assert np.max(np.abs(r2.su4_element - np.eye(4))) <= 1e-12


def test_rotation_of_first_basis_vector():
    theta = np.pi / 3
    r = spin.spin_cover_check(theta)
    expected = np.zeros(6)
    expected[0] = np.cos(theta)
    expected[1] = np.sin(theta)
    assert np.allclose(r.so6_action[:, 0], expected, atol=1e-15)
    # The transported unitary action is real and agrees column by column.
    assert np.max(np.abs(r.su4_action_on_wedge.imag)) <= 1e-13
    assert np.allclose(r.su4_action_on_wedge[:, 0].real, expected, atol=1e-13)


def test_discrepancy_over_sweep():
    for theta in np.linspace(0, 4 * np.pi, 101):
        assert spin.spin_cover_check(float(theta)).discrepancy < 1e-12


def spin_cover_reference(theta):
    """The check at one angle, built one rotation plane and one wedge
    coordinate at a time: (rotation, wedge action, unitary, discrepancy)."""
    c, s = math.cos(theta), math.sin(theta)
    so6 = np.zeros((6, 6))
    for k in range(3):
        so6[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    w = spin.NU1_QUADRUPLE
    D = np.diag([np.exp(0.5j * theta * (w[a] + w[b])) for a, b in spin.WEDGE_PAIRS])
    wedge = spin._BASIS_MAP_INV @ D @ spin._BASIS_MAP
    U = np.diag(np.exp(0.5j * theta * np.array(w)))
    return so6, wedge, U, float(np.linalg.norm(wedge - so6, ord=2))


@given(st.lists(st.floats(-8 * np.pi, 8 * np.pi), min_size=1, max_size=40))
def test_stacked_check_is_the_check_at_each_angle(thetas):
    stack = spin.spin_cover_check(np.array(thetas))
    n = len(thetas)
    assert stack.so6_action.shape == (n, 6, 6) and stack.su4_element.shape == (n, 4, 4)
    assert stack.su4_action_on_wedge.shape == (n, 6, 6) and stack.discrepancy.shape == (n,)
    for k, theta in enumerate(thetas):
        one = spin.spin_cover_check(theta)
        assert one.so6_action.shape == (6, 6) and one.su4_element.shape == (4, 4)
        assert type(one.discrepancy) is float
        # A row does not depend on its stack.
        assert np.array_equal(stack.so6_action[k], one.so6_action)
        assert np.array_equal(stack.su4_action_on_wedge[k], one.su4_action_on_wedge)
        assert np.array_equal(stack.su4_element[k], one.su4_element)
        assert stack.discrepancy[k] == one.discrepancy
        so6, wedge, U, disc = spin_cover_reference(theta)
        assert np.max(np.abs(one.so6_action - so6)) <= 1e-15
        assert np.max(np.abs(one.su4_action_on_wedge - wedge)) <= 1e-15
        assert np.max(np.abs(one.su4_element - U)) <= 1e-15
        assert abs(one.discrepancy - disc) <= 1e-15


J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()


def phi_reference(H):
    """(i/2)(H ^ 1 + 1 ^ H) on the v_ab, v_a ^ v_b -> H v_a ^ v_b + v_a ^ H v_b
    one wedge at a time, carried to e1..e6 by the basis map."""
    M = np.zeros((6, 6), dtype=complex)
    for col, (a, b) in enumerate(spin.WEDGE_PAIRS):
        for c in range(4):
            for (x, y), h in (((c, b), H[c, a]), ((a, c), H[c, b])):
                if x < y:
                    M[spin.WEDGE_PAIRS.index((x, y)), col] += h
                elif x > y:
                    M[spin.WEDGE_PAIRS.index((y, x)), col] -= h
    return spin._BASIS_MAP_INV @ (0.5j * M) @ spin._BASIS_MAP


def traceless_hermitian(c):
    """The traceless Hermitian part of the complex 4x4 matrix of 32 reals."""
    M = np.reshape(c[:16], (4, 4)) + 1j * np.reshape(c[16:], (4, 4))
    H = M + M.conj().T
    return H - np.trace(H) / 4 * np.eye(4)


hermitians = st.lists(st.floats(-1, 1), min_size=32, max_size=32).map(traceless_hermitian)


def test_phi_sends_the_circle_weight_to_j0():
    assert np.array_equal(spin.wedge_generator(np.diag(spin.NU1_QUADRUPLE)), J0)
    assert np.array_equal(spin.wedge_generator(-np.diag(spin.NU1_QUADRUPLE)), -J0)
    # One table of +-1/4 entries; the trace part is dropped.
    assert spin._PHI.shape == (16, 36)
    assert set(np.unique(spin._PHI)) == {-0.25, 0.0, 0.25}
    assert np.array_equal(spin.wedge_generator(np.eye(4)), np.zeros((6, 6)))


@given(hermitians)
def test_phi_is_the_real_wedge_action_of_its_definition(H):
    ref = phi_reference(H)
    assert np.max(np.abs(ref.imag)) <= 1e-14
    assert np.max(np.abs(spin.wedge_generator(H) - ref.real)) <= 1e-14
    assert np.array_equal(spin.wedge_generator(H[None])[0], spin.wedge_generator(H))


@given(hermitians, hermitians, st.floats(-2, 2), st.floats(-2, 2))
def test_phi_is_linear(H1, H2, a, b):
    lhs = spin.wedge_generator(a * H1 + b * H2)
    rhs = a * spin.wedge_generator(H1) + b * spin.wedge_generator(H2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


@given(hermitians, st.floats(0, 4 * np.pi))
def test_phi_commutes_with_the_spin_cover_on_the_torus(H, theta):
    # Phi(U H U*) = W Phi(H) W^-1 for U = su4_circle(theta), W its wedge action.
    U = spin.su4_circle(theta)
    W = spin.wedge_action(theta)
    lhs = spin.wedge_generator(U @ H @ U.conj().T)
    rhs = W @ spin.wedge_generator(H) @ spin.wedge_action(-theta)
    assert np.max(np.abs(rhs.imag)) <= 1e-13
    assert np.max(np.abs(lhs - rhs.real)) <= 1e-13
