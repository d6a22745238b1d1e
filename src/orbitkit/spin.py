"""Double cover of the standard SO(6) circle by a unitary circle on C^4.

A complex 4-space V with unitary basis v_0..v_3 induces a real 6-space W
inside the wedge square, spanned by

    e1 = v01 + v23            e2 = -i (v01 - v23)
    e3 = v02 + v31            e4 = -i (v02 - v31)
    e5 = v03 + v12            e6 = -i (v03 - v12)

with v_ab = v_a ^ v_b.  The diagonal circle with weight quadruple
(-3, 1, 1, 1) acts on v_ab by exp(i t (w_a + w_b) / 2); transported through
the basis above it equals the simultaneous rotation by t in the three
coordinate planes of W.  At t = 2 pi the unitary element is -1 while the
rotation is the identity: one loop downstairs lifts to half a loop upstairs.
`verify spin-cover` compares the two circles at its n angles in one stacked
`spin_cover_check`.

The derivative Phi of the cover (`wedge_generator`) sends a traceless
Hermitian H to the real 6x6 matrix of (i/2)(H ^ 1 + 1 ^ H).  Phi(diag(-3, 1,
1, 1)) is J0, the endomorphism of e12 + e34 + e56, and Phi(I - 4 u u*) over
the unit vectors u of C^4 sweeps its orbit, the twistor space CP^3
(`moment.twistor_structures`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import torus_rotation

#: Ordered index pairs of the wedge-square coordinate basis v_ab, a < b.
WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Weight quadruple of the circle direction (the chamber point (1, 1, 1)).
NU1_QUADRUPLE = (-3.0, 1.0, 1.0, 1.0)

# Columns express e1..e6 in v_ab coordinates; v31 = -v13.
_BASIS_MAP = np.array(
    [
        # v01      v02       v03       v12      v13       v23
        [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],       # e1
        [-1.0j, 0.0, 0.0, 0.0, 0.0, 1.0j],    # e2
        [0.0, 1.0, 0.0, 0.0, -1.0, 0.0],      # e3
        [0.0, -1.0j, 0.0, 0.0, -1.0j, 0.0],   # e4
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],       # e5
        [0.0, 0.0, -1.0j, 1.0j, 0.0, 0.0],    # e6
    ]
).T

_BASIS_MAP_INV = np.linalg.inv(_BASIS_MAP)
#: Weight w_a + w_b of the circle on each v_ab.
_PAIR_WEIGHTS = np.array([NU1_QUADRUPLE[a] + NU1_QUADRUPLE[b] for a, b in WEDGE_PAIRS])


def _phi_table() -> np.ndarray:
    """Phi (`wedge_generator`) as one real (16, 36) table acting on the
    flattened S = Re H + Im H, from which a Hermitian H is ((1 + i) S +
    (1 - i) S^T) / 2.  Every entry is 0 or +-1/4.

    With e1..e6 as antisymmetric 4x4 matrices A_k (v_a ^ v_b as E_ab - E_ba;
    orthogonal, each of squared Frobenius norm 4), H ^ 1 + 1 ^ H sends A to
    H A + A H^T, whose two terms have the same e-coordinates: on the matrix
    unit E_rs the complex-linear extension of Phi has entries
    (i/4) sum_q conj(A_j)[r, q] A_k[s, q].
    """
    A = np.zeros((6, 4, 4), dtype=complex)
    A[:, [a for a, _ in WEDGE_PAIRS], [b for _, b in WEDGE_PAIRS]] = _BASIS_MAP.T
    A -= np.swapaxes(A, 1, 2)
    units = 0.25j * np.einsum("jrq,ksq->rsjk", A.conj(), A)
    return (((1 + 1j) * units + (1 - 1j) * np.swapaxes(units, 0, 1)).real / 2).reshape(16, 36)


_PHI = _phi_table()


@dataclass(frozen=True)
class SpinCoverResult:
    so6_action: np.ndarray
    su4_action_on_wedge: np.ndarray
    su4_element: np.ndarray
    discrepancy: float | np.ndarray


def su4_circle(theta) -> np.ndarray:
    """The unitary element exp(i theta/2 diag(weights)), stacked like theta."""
    phase = np.exp(0.5j * np.asarray(theta)[..., None] * np.array(NU1_QUADRUPLE))
    return phase[..., None] * np.eye(4)


def wedge_action(theta) -> np.ndarray:
    """Action of su4_circle on the wedge square, in e-basis coordinates."""
    phase = np.exp(0.5j * np.asarray(theta)[..., None] * _PAIR_WEIGHTS)
    return _BASIS_MAP_INV @ (phase[..., :, None] * _BASIS_MAP)


def wedge_generator(H) -> np.ndarray:
    """Phi(H): the real 6x6 matrix of (i/2)(H ^ 1 + 1 ^ H) on the wedge
    square, in e-basis coordinates, for a traceless Hermitian H or a stack
    (..., 4, 4) of them.

    Phi is real-linear and is the derivative of the spin cover: the circle
    exp(i theta H/2) of unitaries acts on the wedge square as exp(theta
    Phi(H)), so Phi(diag(NU1_QUADRUPLE)) is the endomorphism of e12 + e34 +
    e56.  The trace part of H, which acts by an imaginary scalar, is dropped.
    One table product per matrix (einsum, so a matrix gives the same bits
    alone or in any stack).
    """
    H = np.asarray(H, dtype=complex)
    S = (H.real + H.imag).reshape(H.shape[:-2] + (16,))
    return np.einsum("...k,kc->...c", S, _PHI).reshape(H.shape[:-2] + (6, 6))


def spin_cover_check(theta) -> SpinCoverResult:
    """Compare the rotation circle with the transported unitary wedge action.

    The discrepancy (operator norm) vanishes for every theta, while the 4x4
    unitary element itself has period 4 pi.  An array of angles gives stacks
    and an array of discrepancies, each row the bits of its angle alone.
    """
    so6 = torus_rotation(theta, theta, theta)
    wedge = wedge_action(theta)
    disc = np.linalg.norm(wedge - so6, ord=2, axis=(-2, -1))
    return SpinCoverResult(so6, wedge, su4_circle(theta), disc if disc.ndim else float(disc))
