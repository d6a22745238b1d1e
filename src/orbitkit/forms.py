"""2-forms on R^6, skew endomorphisms, eigen-splitting and orbit classification.

A 2-form is stored by its 15 coefficients against the basis e^i ^ e^j,
(i, j) running over index pairs in lexicographic order.  The associated skew
endomorphism F satisfies g(F X, Y) = w(X, Y) for the standard Euclidean
metric, which fixes the matrix convention F[j][i] = coeff(i, j) for i < j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from . import weyl
from .errors import InvalidRotation, NonConvergence, WeightNotTraceFree

#: Index pairs (i, j), 1-based, lexicographic; coefficient k multiplies
#: e^i ^ e^j for (i, j) = PAIRS[k].
PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7)
)
PAIR_INDEX = {pair: k for k, pair in enumerate(PAIRS)}

#: Coefficient slots of the Cartan directions e^12, e^34, e^56.
E12 = PAIR_INDEX[(1, 2)]
E34 = PAIR_INDEX[(3, 4)]
E56 = PAIR_INDEX[(5, 6)]

#: Matrix positions (row, column) of each coefficient under F[j][i] = coeff(i, j).
_LOWER = tuple(np.array(idx) for idx in zip(*((j - 1, i - 1) for i, j in PAIRS)))


class OrbitClass(Enum):
    """Orbit types of 2-forms under the rotation group, by eigenvalue pattern."""

    ZERO = "Zero"
    GENERIC = "Generic"
    P_PLUS = "PPlus"
    P_MINUS = "PMinus"
    GRASSMANNIAN = "Grassmannian"
    F1 = "F1"
    F2 = "F2"
    F3_PLUS = "F3Plus"
    F3_ZERO = "F3Zero"
    F3_MINUS = "F3Minus"


# Specialisation (degeneration) order between orbit classes: CLOSURE[c] is the
# set of classes whose stratum closure contains the stratum of c.
_CLOSURE = {
    OrbitClass.ZERO: set(OrbitClass),
    OrbitClass.P_PLUS: {OrbitClass.P_PLUS, OrbitClass.F1, OrbitClass.F3_PLUS,
                        OrbitClass.GENERIC},
    OrbitClass.P_MINUS: {OrbitClass.P_MINUS, OrbitClass.F2, OrbitClass.F3_MINUS,
                         OrbitClass.GENERIC},
    OrbitClass.GRASSMANNIAN: {OrbitClass.GRASSMANNIAN, OrbitClass.F1,
                              OrbitClass.F2, OrbitClass.GENERIC},
    OrbitClass.F3_ZERO: {OrbitClass.F3_ZERO, OrbitClass.F3_PLUS,
                         OrbitClass.F3_MINUS, OrbitClass.GENERIC},
    OrbitClass.F1: {OrbitClass.F1, OrbitClass.GENERIC},
    OrbitClass.F2: {OrbitClass.F2, OrbitClass.GENERIC},
    OrbitClass.F3_PLUS: {OrbitClass.F3_PLUS, OrbitClass.GENERIC},
    OrbitClass.F3_MINUS: {OrbitClass.F3_MINUS, OrbitClass.GENERIC},
    OrbitClass.GENERIC: {OrbitClass.GENERIC},
}


@dataclass(frozen=True)
class TwoForm:
    """A 2-form sum_{i<j} c_ij e^i ^ e^j with coefficients in PAIRS order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        co = tuple(float(c) for c in self.coeffs)
        if len(co) != 15:
            raise ValueError(f"expected 15 coefficients, got {len(co)}")
        if not all(math.isfinite(c) for c in co):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", co)

    @classmethod
    def zero(cls) -> "TwoForm":
        return cls((0.0,) * 15)

    @classmethod
    def basis(cls, i: int, j: int) -> "TwoForm":
        """The basis form e^i ^ e^j (sign-corrected when i > j)."""
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        co = [0.0] * 15
        co[PAIR_INDEX[(i, j)]] = sign
        return cls(tuple(co))

    @classmethod
    def from_wedge(cls, u, v) -> "TwoForm":
        """The simple form u ^ v for 6-vectors u, v: one row of `wedges`."""
        return cls(wedges(u, v))

    @classmethod
    def from_cartan(cls, point) -> "TwoForm":
        """x e^12 + y e^34 + z e^56 for a Cartan point (x, y, z)."""
        x, y, z = point
        co = [0.0] * 15
        co[E12], co[E34], co[E56] = float(x), float(y), float(z)
        return cls(tuple(co))

    @classmethod
    def from_matrix(cls, F, tol: float = 1e-9) -> "TwoForm":
        """Read a 2-form off a skew matrix; exact inverse of `endomorphism`."""
        F = np.asarray(F, dtype=float)
        if F.shape != (6, 6):
            raise ValueError("expected a 6x6 matrix")
        if np.max(np.abs(F + F.T)) > tol * max(1.0, np.max(np.abs(F))):
            raise ValueError("matrix is not skew-symmetric")
        co = [(F[j - 1, i - 1] - F[i - 1, j - 1]) / 2.0 for i, j in PAIRS]
        return cls(tuple(co))

    def endomorphism(self) -> np.ndarray:
        """Skew matrix F with g(F X, Y) = w(X, Y)."""
        return endomorphisms(self.coeffs)

    def coefficient(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            return -self.coeffs[PAIR_INDEX[(j, i)]]
        return self.coeffs[PAIR_INDEX[(i, j)]]

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs)

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs))

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TwoForm":
        return TwoForm(tuple(-a for a in self.coeffs))

    def __mul__(self, s) -> "TwoForm":
        return TwoForm(tuple(float(s) * a for a in self.coeffs))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_dict(cls, data) -> "TwoForm":
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValueError("expected an object with a 'coeffs' key")
        return cls(tuple(data["coeffs"]))


def endomorphisms(coeffs) -> np.ndarray:
    """Skew matrices (..., 6, 6) of a coefficient array (..., 15), row by row
    the `TwoForm.endomorphism` of those coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    F = np.zeros(coeffs.shape[:-1] + (6, 6))
    F[..., _LOWER[0], _LOWER[1]] = coeffs
    F[..., _LOWER[1], _LOWER[0]] = -coeffs
    return F


def wedges(u, v) -> np.ndarray:
    """Coefficients (..., 15) of the simple forms u ^ v of two stacks (..., 6)
    of vectors: u_i v_j - u_j v_i for each (i, j) of PAIRS."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    j, i = _LOWER
    return u[..., i] * v[..., j] - u[..., j] * v[..., i]


@dataclass(frozen=True)
class InvariantPlane:
    """Oriented invariant 2-plane: F u = value * v, F v = -value * u."""

    u: tuple[float, ...]
    v: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class EigenSplit:
    """Three orthogonal invariant 2-planes; values equal the chamber triple."""

    planes: tuple[InvariantPlane, InvariantPlane, InvariantPlane]

    @property
    def values(self) -> tuple[float, float, float]:
        return tuple(p.value for p in self.planes)

    def frame(self) -> np.ndarray:
        """6x6 matrix whose columns are u1, v1, u2, v2, u3, v3."""
        cols = []
        for p in self.planes:
            cols.append(p.u)
            cols.append(p.v)
        return np.array(cols).T

    def reconstruct(self) -> TwoForm:
        """Sum of value_i * (u_i ^ v_i); reproduces the split form."""
        total = TwoForm.zero()
        for p in self.planes:
            total = total + p.value * TwoForm.from_wedge(p.u, p.v)
        return total


def eigen_split(form, tol: float = 1e-9) -> EigenSplit:
    """Split R^6 into three orthogonal invariant 2-planes of the form.

    Read off the real Schur form F = Z T Z^T: F is skew, hence normal, so T
    is block diagonal (Golub & Van Loan, Matrix Computations, 7.4) and each
    2x2 block k is the plane (Z[:, k], Z[:, k+1]) with value v^T F u, made
    non-negative by the sign of v.  The 1x1 blocks and the blocks with
    |value| <= tol * max(1, largest value) are the kernel, paired in order.
    Kernel planes come first and the others ascend by value; the frame is
    then forced to det = +1 by flipping the last plane if needed, and the
    planes are permuted/reflected so the signed values equal the chamber
    triple (z >= x >= |y|) in slot order.  Kernel values are +0.0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    F = form.endomorphism() if isinstance(form, TwoForm) else np.asarray(form, dtype=float)
    try:
        T, Z = scipy.linalg.schur(F, output="real")
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("real Schur decomposition of F failed") from exc
    kernel = []
    blocks = []
    k = 0
    while k < 6:
        if k == 5 or T[k + 1, k] == 0.0:
            kernel.append(Z[:, k])
            k += 1
            continue
        u, v = Z[:, k], Z[:, k + 1]
        value = float(v @ F @ u)
        if value < 0:
            v, value = -v, -value
        blocks.append((u, v, value))
        k += 2
    res = tol * max([1.0] + [value for _, _, value in blocks])
    kernel += [c for u, v, value in blocks if value <= res for c in (u, v)]
    planes = [(kernel[a], kernel[a + 1], 0.0) for a in range(0, len(kernel), 2)]
    planes += sorted((b for b in blocks if b[2] > res), key=lambda b: b[2])
    frame = np.column_stack([c for u, v, _ in planes for c in (u, v)])
    if np.linalg.det(frame) < 0:
        u, v, value = planes[-1]
        planes[-1] = (u, -v, -value)
    triple = tuple(value for _, _, value in planes)
    _, w = weyl.to_chamber(triple)
    ordered = []
    for i in range(3):
        j = next(k for k in range(3) if w[i][k] != 0)
        sign = w[i][j]
        u, v, value = planes[j]
        # + 0.0 turns the -0.0 of a reflected kernel plane into +0.0.
        ordered.append(
            InvariantPlane(tuple(u), tuple(sign * v), sign * value + 0.0)
        )
    return EigenSplit(tuple(ordered))


def canonical_triple(form: TwoForm, tol: float = 1e-9) -> tuple[float, float, float]:
    """Chamber representative (x, y, z), z >= x >= |y|, of the eigenvalue triple."""
    return eigen_split(form, tol).values


def _eq(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


#: The special orbit classes as patterns of the chamber triple (x, y, z), in
#: the order `classify_full` tries them: the slot signs s of the tied group
#: (the s_k t_k with s_k != 0 all agree), the slots that vanish and the sign
#: y must have (0: any).  The mirror y -> -y swaps PPlus, F1, F3Plus with
#: PMinus, F2, F3Minus and fixes the rest.  Generic matches none.
_PATTERNS = {
    OrbitClass.ZERO: ((0, 0, 0), (0, 1, 2), 0),
    OrbitClass.P_PLUS: ((1, 1, 1), (), 0),
    OrbitClass.P_MINUS: ((1, -1, 1), (), 0),
    OrbitClass.GRASSMANNIAN: ((0, 0, 0), (0, 1), 0),
    OrbitClass.F3_ZERO: ((1, 0, 1), (1,), 0),
    OrbitClass.F1: ((1, 1, 0), (), 0),
    OrbitClass.F2: ((1, -1, 0), (), 0),
    OrbitClass.F3_PLUS: ((1, 0, 1), (), 1),
    OrbitClass.F3_MINUS: ((1, 0, 1), (), -1),
}


def _tied(signs, triple) -> list:
    """The signed slots s_k t_k of triple with s_k != 0."""
    return [s * t for s, t in zip(signs, triple) if s]


def _matches(signs, vanish, y_sign, triple, tol: float) -> bool:
    pairs = itertools.combinations(_tied(signs, triple), 2)
    return (all(_eq(a, b, tol) for a, b in pairs)
            and all(_eq(triple[k], 0.0, tol) for k in vanish)
            and (y_sign == 0 or y_sign * triple[1] > 0))


def class_point(orbit_class: OrbitClass, triple) -> tuple:
    """The chamber triple projected onto the pattern of its class: a tied slot
    k becomes s_k m, m the mean of the tied s_k t_k, a vanishing slot 0, and
    other slots are kept; a Generic triple is unchanged.  So a form classified
    within tol exports the polytope of its class, not that of a generic orbit
    next to it."""
    if orbit_class not in _PATTERNS:
        return tuple(triple)
    signs, vanish, _ = _PATTERNS[orbit_class]
    tied = _tied(signs, triple)
    m = sum(tied) / len(tied) if tied else 0.0
    return tuple(0.0 if k in vanish else s * m if s else t
                 for k, (s, t) in enumerate(zip(signs, triple)))


def _orthogonal_roots(point, tol: float) -> frozenset:
    """The roots of `weyl.ROOTS` orthogonal to point within tol: the two terms
    s, t of the product agree as s and -t under `_eq`."""
    return frozenset(a for a in weyl.ROOTS
                     for s, t in [_tied(a, point)] if _eq(s, -t, tol))


def refines(source, target, tol: float = 1e-8) -> bool:
    """Whether the isotropy of the chamber triple source lies inside that of
    the chamber triple target, slot by slot: every root orthogonal to source
    within tol is orthogonal to target within tol."""
    return _orthogonal_roots(source, tol) <= _orthogonal_roots(target, tol)


#: Dimension of the isotropy algebra of a representative form inside so(6):
#: the Cartan algebra (3) plus one root space per root orthogonal to the
#: class point of the generic (1, 1/2, 2).
STABILIZER_DIM = {
    c: 3 + len(_orthogonal_roots(class_point(c, (1, 0.5, 2)), 0.0)) for c in OrbitClass
}


@dataclass(frozen=True)
class Classification:
    orbit_class: OrbitClass
    triple: tuple[float, float, float]
    ambiguous: bool
    matches: tuple[OrbitClass, ...]


def classify_full(form: TwoForm, tol: float = 1e-8) -> Classification:
    """Classify by the equality/sign pattern of the chamber triple.

    Every pattern of `_PATTERNS` matching within tolerance is collected; the
    winner is the most degenerate match (largest stabilizer) and, among
    matches of equal stabilizer dimension, the one whose stratum closure
    holds the others (F3Zero over F3Plus and F3Minus), else the first tried.
    The ambiguous flag is set when some match does not lie in the closure of
    the winner's stratum, i.e. two patterns matched but genuinely disagree.
    The patterns are mirror images, so classification commutes with y -> -y.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    triple = canonical_triple(form, tol=min(tol, 1e-9))
    matched = [c for c, p in _PATTERNS.items() if _matches(*p, triple, tol)]
    if not matched:
        return Classification(OrbitClass.GENERIC, triple, False,
                              (OrbitClass.GENERIC,))
    top = max(STABILIZER_DIM[c] for c in matched)
    tied = [c for c in matched if STABILIZER_DIM[c] == top]
    winner = next((c for c in tied if _CLOSURE[c].issuperset(tied)), tied[0])
    ambiguous = any(m not in _CLOSURE[winner] for m in matched)
    return Classification(winner, triple, ambiguous, tuple(matched))


def classify(form: TwoForm, tol: float = 1e-8) -> OrbitClass:
    return classify_full(form, tol).orbit_class


def validate_rotation(R, tol: float = 1e-12) -> np.ndarray:
    """Check orthogonality and det = +1; raises InvalidRotation."""
    R = np.asarray(R, dtype=float)
    if R.shape != (6, 6):
        raise InvalidRotation("expected a 6x6 matrix")
    if np.max(np.abs(R.T @ R - np.eye(6))) > tol:
        raise InvalidRotation("matrix is not orthogonal")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise InvalidRotation("matrix has determinant != +1")
    return R


def conjugate(form: TwoForm, rot, tol: float = 1e-12) -> TwoForm:
    """Push the form forward along a rotation: endomorphism R F R^T."""
    R = validate_rotation(rot, tol)
    return TwoForm.from_matrix(R @ form.endomorphism() @ R.T, tol=1e-6)


def kks_pairing(base: TwoForm, X, Y) -> float:
    """Canonical symplectic pairing (base, [X, Y]) under the trace product.

    The inner product is (A, B) = tr(A B^T) / 2, which makes the basis forms
    e^i ^ e^j orthonormal; antisymmetric in X, Y exactly.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    C = X @ Y - Y @ X
    return 0.5 * float(np.trace(base.endomorphism() @ C.T))


def torus_rotation(t1: float, t2: float, t3: float) -> np.ndarray:
    """Block rotation by angles (t1, t2, t3) in the three coordinate planes."""
    R = np.zeros((6, 6))
    for k, t in enumerate((t1, t2, t3)):
        c, s = math.cos(t), math.sin(t)
        R[2 * k, 2 * k] = c
        R[2 * k, 2 * k + 1] = -s
        R[2 * k + 1, 2 * k] = s
        R[2 * k + 1, 2 * k + 1] = c
    return R


#: Orthogonal basis of the trace-free diagonal quadruples; each has norm^2 = 4.
CARTAN_QUADRUPLES = (
    (-1.0, -1.0, 1.0, 1.0),
    (-1.0, 1.0, -1.0, 1.0),
    (-1.0, 1.0, 1.0, -1.0),
)


def spin_weight_to_cartan(theta, tol: float = 1e-12) -> tuple[float, float, float]:
    """Coordinates of a trace-free weight quadruple against the diagonal basis."""
    theta = tuple(float(t) for t in theta)
    if len(theta) != 4:
        raise ValueError("expected a quadruple")
    if abs(sum(theta)) >= tol:
        raise WeightNotTraceFree(f"sum is {sum(theta)}, not 0")
    return tuple(
        sum(t * b for t, b in zip(theta, basis)) / 4.0
        for basis in CARTAN_QUADRUPLES
    )


def cartan_to_spin_weight(point) -> tuple[float, float, float, float]:
    """Inverse of spin_weight_to_cartan on the trace-free subspace."""
    x, y, z = (float(c) for c in point)
    return tuple(
        x * CARTAN_QUADRUPLES[0][k]
        + y * CARTAN_QUADRUPLES[1][k]
        + z * CARTAN_QUADRUPLES[2][k]
        for k in range(4)
    )
