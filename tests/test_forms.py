"""2-form algebra: endomorphisms, eigen-splitting, classification, pairings."""

import numpy as np
import pytest

from orbitkit import forms, moment
from orbitkit.errors import InvalidRotation, WeightNotTraceFree
from orbitkit.forms import (
    OrbitClass,
    TwoForm,
    canonical_triple,
    cartan_to_spin_weight,
    classify,
    classify_full,
    conjugate,
    eigen_split,
    kks_pairing,
    spin_weight_to_cartan,
    torus_rotation,
)

W0 = TwoForm.from_cartan((1, 1, 1))


def haar(seed, index=0):
    return moment.haar_rotations(1, seed, start=index)[0]


def test_basis_form_endomorphism_entries():
    F = TwoForm.basis(1, 2).endomorphism()
    assert F[1, 0] == 1.0
    assert F[0, 1] == -1.0
    assert np.count_nonzero(F) == 2


def test_zero_form_endomorphism():
    assert np.all(TwoForm.zero().endomorphism() == 0.0)


def test_standard_structure_squares_to_minus_identity():
    J0 = W0.endomorphism()
    assert np.array_equal(J0 @ J0, -np.eye(6))


def test_endo_round_trip_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = TwoForm(tuple(rng.standard_normal(15)))
        assert TwoForm.from_matrix(f.endomorphism()).coeffs == f.coeffs


def test_two_form_validation():
    with pytest.raises(ValueError):
        TwoForm((1.0,) * 14)
    with pytest.raises(ValueError):
        TwoForm((float("nan"),) + (0.0,) * 14)


def test_eigen_split_block_diagonal():
    split = eigen_split(W0)
    assert split.values == (1.0, 1.0, 1.0)
    for plane, block in zip(split.planes, ((0, 1), (2, 3), (4, 5))):
        span = np.zeros(6)
        span[list(block)] = 1.0
        assert abs(np.array(plane.u) @ span) + abs(np.array(plane.v) @ span) > 1.9


def test_eigen_split_simple_form():
    split = eigen_split(TwoForm.basis(5, 6))
    assert split.values == (0.0, 0.0, 1.0)
    kernel = np.column_stack([split.planes[0].u, split.planes[0].v,
                              split.planes[1].u, split.planes[1].v])
    assert np.max(np.abs(kernel[4:, :])) <= 1e-12
    plane = np.column_stack([split.planes[2].u, split.planes[2].v])
    assert np.max(np.abs(plane[:4, :])) <= 1e-12


def test_eigen_split_of_random_conjugate():
    for k in range(10):
        R = haar(17, k)
        f = conjugate(W0, R)
        split = eigen_split(f)
        assert np.allclose(split.values, (1, 1, 1), atol=1e-12)
        recon = split.reconstruct()
        assert np.max(np.abs(recon.as_array() - f.as_array())) <= 1e-9


def test_eigen_split_frame_and_action():
    rng = np.random.default_rng(4)
    for k in range(15):
        f = TwoForm(tuple(rng.standard_normal(15)))
        split = eigen_split(f)
        frame = split.frame()
        assert np.max(np.abs(frame.T @ frame - np.eye(6))) <= 1e-10
        assert np.linalg.det(frame) > 0
        F = f.endomorphism()
        for plane in split.planes:
            u = np.array(plane.u)
            v = np.array(plane.v)
            assert np.linalg.norm(F @ u - plane.value * v) <= 1e-7
            assert np.linalg.norm(F @ v + plane.value * u) <= 1e-7
        recon = split.reconstruct()
        assert np.max(np.abs(recon.as_array() - f.as_array())) <= 1e-9


def test_canonical_triple_examples():
    assert canonical_triple(TwoForm.basis(1, 2)) == (0.0, 0.0, 1.0)
    assert canonical_triple(-1 * W0) == (1.0, -1.0, 1.0)
    assert canonical_triple(TwoForm.from_cartan((2, 1, 3))) == (2.0, 1.0, 3.0)


def test_canonical_triple_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(30):
        f = TwoForm(tuple(rng.standard_normal(15)))
        x, y, z = canonical_triple(f)
        assert z >= x >= abs(y)
        again = canonical_triple(TwoForm.from_cartan((x, y, z)))
        assert np.allclose(again, (x, y, z), atol=1e-12)


def test_canonical_triple_rotation_invariant():
    rng = np.random.default_rng(2)
    for k in range(25):
        f = TwoForm(tuple(rng.standard_normal(15)))
        t0 = canonical_triple(f)
        t1 = canonical_triple(conjugate(f, haar(90, k)))
        assert np.allclose(t0, t1, atol=1e-8)


CLASS_CASES = [
    ((0, 0, 0), OrbitClass.ZERO),
    ((1, 1, 1), OrbitClass.P_PLUS),
    ((1, -1, 1), OrbitClass.P_MINUS),
    ((0, 0, 1), OrbitClass.GRASSMANNIAN),
    ((1, 1, 2), OrbitClass.F1),
    ((1, -1, 2), OrbitClass.F2),
    ((2, 1, 2), OrbitClass.F3_PLUS),
    ((2, 0, 2), OrbitClass.F3_ZERO),
    ((2, -1, 2), OrbitClass.F3_MINUS),
    ((1, 0.5, 2), OrbitClass.GENERIC),
    ((1, 0, 2), OrbitClass.GENERIC),
]


@pytest.mark.parametrize("triple,expected", CLASS_CASES)
def test_classify_patterns(triple, expected):
    assert classify(TwoForm.from_cartan(triple)) is expected


def test_classify_table_forms():
    e = TwoForm.basis
    assert classify(e(1, 2) + e(3, 4) + e(5, 6)) is OrbitClass.P_PLUS
    assert classify(e(1, 2) - e(3, 4) + e(5, 6)) is OrbitClass.P_MINUS
    assert classify(e(1, 2) + e(3, 4) + 2 * e(5, 6)) is OrbitClass.F1
    assert classify(2 * (e(1, 2) + e(5, 6))) is OrbitClass.F3_ZERO
    assert classify(e(5, 6)) is OrbitClass.GRASSMANNIAN


def test_classify_not_ambiguous_on_clean_inputs():
    for triple, _ in CLASS_CASES:
        assert not classify_full(TwoForm.from_cartan(triple)).ambiguous


def test_classify_rotation_invariant():
    rng = np.random.default_rng(7)
    for k in range(40):
        f = TwoForm(tuple(rng.standard_normal(15)))
        c0 = classify(f)
        assert classify(conjugate(f, haar(123, k))) is c0


def test_conjugate_identity_and_invariant_plane():
    assert conjugate(W0, np.eye(6)).coeffs == W0.coeffs
    R = torus_rotation(0.8, 0.0, 0.0)
    out = conjugate(TwoForm.basis(1, 2), R)
    assert np.allclose(out.as_array(), TwoForm.basis(1, 2).as_array(), atol=1e-15)


def test_conjugate_against_matrix_oracle():
    # Swap e2 <-> e3 with a sign fix on e6 to stay special orthogonal.
    R = np.eye(6)
    R[1, 1] = R[2, 2] = 0.0
    R[1, 2] = R[2, 1] = 1.0
    R[5, 5] = -1.0
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12
    f = TwoForm.basis(1, 2)
    out = conjugate(f, R)
    oracle = TwoForm.from_matrix(R @ f.endomorphism() @ R.T)
    assert out.coeffs == oracle.coeffs
    assert np.allclose(out.as_array(), TwoForm.basis(1, 3).as_array())


def test_conjugate_rejects_non_rotation():
    with pytest.raises(InvalidRotation):
        conjugate(W0, np.diag([1, 1, 1, 1, 1, -1]))
    with pytest.raises(InvalidRotation):
        conjugate(W0, 2 * np.eye(6))


def skew(rng):
    A = rng.standard_normal((6, 6))
    return A - A.T


def test_kks_antisymmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X, Y = skew(rng), skew(rng)
        assert kks_pairing(W0, X, Y) == -kks_pairing(W0, Y, X)
        assert kks_pairing(W0, X, X) == 0.0


def test_kks_stabilizer_direction_vanishes():
    J0 = W0.endomorphism()
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = skew(rng)
        # Project onto the commutant of J0: X -> (X + J0 X J0^T) / 2.
        Xc = 0.5 * (X + J0 @ X @ J0.T)
        assert np.max(np.abs(Xc @ J0 - J0 @ Xc)) <= 1e-12
        Y = skew(rng)
        assert abs(kks_pairing(W0, Xc, Y)) <= 1e-12


def test_kks_matches_coefficient_pairing_oracle():
    # Independent evaluation: convert [X, Y] to a 2-form and pair coefficient
    # vectors, using that the basis forms are orthonormal for the trace product.
    rng = np.random.default_rng(8)
    for _ in range(20):
        base = TwoForm(tuple(rng.standard_normal(15)))
        X, Y = skew(rng), skew(rng)
        C = X @ Y - Y @ X
        oracle = float(
            np.dot(base.as_array(), TwoForm.from_matrix(C).as_array())
        )
        assert abs(kks_pairing(base, X, Y) - oracle) <= 1e-12


def test_spin_weight_examples():
    assert spin_weight_to_cartan((-3, 1, 1, 1)) == (1.0, 1.0, 1.0)
    assert spin_weight_to_cartan((0, 0, 0, 0)) == (0.0, 0.0, 0.0)
    with pytest.raises(WeightNotTraceFree):
        spin_weight_to_cartan((1, 0, 0, 0))


def test_second_weight_quadruple_by_linear_solve():
    # Solve the 3x4 pairing system for the quadruple mapping to (0, 0, 1).
    B = np.array(forms.CARTAN_QUADRUPLES)
    A = np.vstack([B / 4.0, np.ones(4)])
    rhs = np.array([0.0, 0.0, 1.0, 0.0])
    theta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    assert np.allclose(theta, (-1, 1, 1, -1), atol=1e-12)
    assert np.allclose(spin_weight_to_cartan(tuple(theta)), (0.0, 0.0, 1.0), atol=1e-14)
    assert spin_weight_to_cartan((-1, 1, 1, -1)) == (0.0, 0.0, 1.0)
    assert cartan_to_spin_weight((0, 0, 1)) == (-1.0, 1.0, 1.0, -1.0)


def test_torus_rotation_is_rotation():
    R = torus_rotation(0.3, -1.2, 2.5)
    forms.validate_rotation(R)
