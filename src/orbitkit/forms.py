"""2-forms on R^6, skew endomorphisms, eigen-splitting and orbit classification.

A 2-form is stored by its 15 coefficients against the basis e^i ^ e^j,
(i, j) running over index pairs in lexicographic order.  The associated skew
endomorphism F satisfies g(F X, Y) = w(X, Y) for the standard Euclidean
metric, which fixes the matrix convention F[j][i] = coeff(i, j) for i < j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


#: Dimension of the isotropy algebra of a representative form inside so(6).
STABILIZER_DIM = {
    OrbitClass.ZERO: 15,
    OrbitClass.P_PLUS: 9,
    OrbitClass.P_MINUS: 9,
    OrbitClass.GRASSMANNIAN: 7,
    OrbitClass.F1: 5,
    OrbitClass.F2: 5,
    OrbitClass.F3_PLUS: 5,
    OrbitClass.F3_ZERO: 5,
    OrbitClass.F3_MINUS: 5,
    OrbitClass.GENERIC: 3,
}

#: Dimension of the orbit itself: 15 - stabilizer dimension.
ORBIT_DIM = {cls: 15 - d for cls, d in STABILIZER_DIM.items()}

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
        """The simple form u ^ v for 6-vectors u, v."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        co = [u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in PAIRS]
        return cls(tuple(co))

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
        F = np.zeros((6, 6))
        for k, (i, j) in enumerate(PAIRS):
            F[j - 1, i - 1] = self.coeffs[k]
            F[i - 1, j - 1] = -self.coeffs[k]
        return F

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


def _cluster(values, tol):
    groups = []
    current = [0]
    for k in range(1, len(values)):
        if values[k] - values[current[-1]] <= tol:
            current.append(k)
        else:
            groups.append(current)
            current = [k]
    groups.append(current)
    # Rotation rates pair up, so every cluster must have even size; merge any
    # odd cluster with its nearest neighbour (an artefact of too-tight tol).
    k = 0
    while k < len(groups):
        if len(groups[k]) % 2 == 1:
            if k + 1 < len(groups):
                groups[k] = groups[k] + groups.pop(k + 1)
            else:
                groups[k - 1] = groups[k - 1] + groups.pop(k)
                k -= 1
        else:
            k += 1
    return groups


def eigen_split(form, tol: float = 1e-9) -> EigenSplit:
    """Split R^6 into three orthogonal invariant 2-planes of the form.

    Computed from the symmetric positive-semidefinite matrix -F^2.  Each
    plane is oriented so F acts by a non-negative rotation, then the frame is
    forced to det = +1 by flipping the last plane if needed, and finally the
    planes are permuted/reflected so the signed values equal the chamber
    triple (z >= x >= |y|) in slot order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    F = form.endomorphism() if isinstance(form, TwoForm) else np.asarray(form, dtype=float)
    M = -F @ F
    try:
        _, Q = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("eigensolve on -F^2 failed") from exc
    # Rotation rate per eigenvector, measured directly on F: |F q| avoids the
    # sqrt-amplified noise of the -F^2 eigenvalues near the kernel.
    lam = np.linalg.norm(F @ Q, axis=0)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    Q = Q[:, order]
    scale = max(1.0, float(lam[-1]))
    res = tol * scale
    planes = []
    for group in _cluster(list(lam), res):
        basis = [Q[:, k].copy() for k in group]
        level = float(np.mean(lam[group]))
        if level <= res:
            # Kernel block: F vanishes here, pair the basis vectors as-is.
            for a in range(0, len(basis), 2):
                planes.append((basis[a], basis[a + 1], 0.0))
            continue
        while basis:
            u = basis.pop(0)
            u = u / np.linalg.norm(u)
            fu = F @ u
            value = float(np.linalg.norm(fu))
            v = fu / value
            v = v - (v @ u) * u
            v = v / np.linalg.norm(v)
            planes.append((u, v, value))
            reduced = []
            for b in basis:
                b = b - (b @ u) * u - (b @ v) * v
                nb = np.linalg.norm(b)
                if nb > 0.5:  # basis vectors stay near unit after projection
                    reduced.append(b / nb)
            # Re-orthonormalise what is left.
            out = []
            for b in reduced:
                for c in out:
                    b = b - (b @ c) * c
                nb = np.linalg.norm(b)
                if nb > 1e-6:
                    out.append(b / nb)
            basis = out
    if len(planes) != 3:
        raise NonConvergence(f"expected 3 invariant planes, found {len(planes)}")
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
        ordered.append(
            InvariantPlane(tuple(u), tuple(sign * v), sign * value)
        )
    return EigenSplit(tuple(ordered))


def canonical_triple(form: TwoForm, tol: float = 1e-9) -> tuple[float, float, float]:
    """Chamber representative (x, y, z), z >= x >= |y|, of the eigenvalue triple."""
    return eigen_split(form, tol).values


def _eq(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Classification:
    orbit_class: OrbitClass
    triple: tuple[float, float, float]
    ambiguous: bool
    matches: tuple[OrbitClass, ...]


def classify_full(form: TwoForm, tol: float = 1e-8) -> Classification:
    """Classify by the equality/sign pattern of the chamber triple.

    Every special pattern matching within tolerance is collected; the winner
    is the most degenerate match (largest stabilizer).  The ambiguous flag is
    set when some match does not lie in the closure of the winner's stratum,
    i.e. two patterns matched but genuinely disagree.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x, y, z = canonical_triple(form, tol=min(tol, 1e-9))
    matched = []
    if _eq(x, 0, tol) and _eq(y, 0, tol) and _eq(z, 0, tol):
        matched.append(OrbitClass.ZERO)
    if _eq(x, y, tol) and _eq(y, z, tol) and _eq(x, z, tol):
        matched.append(OrbitClass.P_PLUS)
    if _eq(x, z, tol) and _eq(x, -y, tol):
        matched.append(OrbitClass.P_MINUS)
    if _eq(x, 0, tol) and _eq(y, 0, tol):
        matched.append(OrbitClass.GRASSMANNIAN)
    if _eq(x, z, tol) and _eq(y, 0, tol):
        matched.append(OrbitClass.F3_ZERO)
    if _eq(x, y, tol):
        matched.append(OrbitClass.F1)
    if _eq(x, -y, tol):
        matched.append(OrbitClass.F2)
    if _eq(x, z, tol) and y > 0:
        matched.append(OrbitClass.F3_PLUS)
    if _eq(x, z, tol) and y < 0:
        matched.append(OrbitClass.F3_MINUS)
    if not matched:
        return Classification(OrbitClass.GENERIC, (x, y, z), False,
                              (OrbitClass.GENERIC,))
    winner = max(matched, key=lambda c: STABILIZER_DIM[c])
    ambiguous = any(m not in _CLOSURE[winner] for m in matched)
    return Classification(winner, (x, y, z), ambiguous, tuple(matched))


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
