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
        """The form of a JSON object {"coeffs": [15 numbers]}; a string or a
        boolean coefficient is refused, not converted."""
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValueError("expected an object with a 'coeffs' key")
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list) or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs):
            raise ValueError("'coeffs' must be a list of JSON numbers")
        return cls(tuple(coeffs))


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


def eigen_splits(coeffs, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Three orthogonal invariant 2-planes of each row of an (n, 15) stack:
    chamber values (n, 3) and frames (n, 6, 6), columns u1, v1, u2, v2, u3, v3.

    An eigenvector z of the Hermitian iF for lambda > 0, turned so that its
    largest entry (the first on ties) is real and positive, gives F Re z =
    lambda Im z and F Im z = -lambda Re z.  The planes of the r eigenvalues
    above tol * max(1, largest) are orthonormalised together (Cholesky QR:
    near zero the +-lambda eigenvectors mix), each value v^T F u made
    non-negative by the sign of v; the kernel is the null space of their
    projector.  Kernel planes come first, the others ascend by value, then by
    largest entry; the last plane is flipped if det < 0, and the planes are
    permuted/reflected so the values are the chamber triple z >= x >= |y|
    (kernel values +0.0).  Forms of one rank share each LAPACK call in a
    single form's layout, so a row has the same bits in any stack.
    ValueError: a bad shape or entry; NonConvergence: LAPACK failed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != 15 or not np.isfinite(coeffs).all():
        raise ValueError(f"expected finite coefficients of shape (n, 15), got {coeffs.shape}")
    F = endomorphisms(coeffs)
    n, at = len(F), np.arange(len(F))[:, None]
    vectors, triples = np.empty_like(F), np.zeros((n, 3))  # vectors[k]: frame k transposed
    try:
        lam, Z = (top[..., 3:] for top in np.linalg.eigh(1j * F))  # the top three pairs
        ranks = (lam > tol * np.maximum(1.0, lam[:, 2:])).sum(axis=1)
        lead = np.abs(Z).argmax(axis=1)
        phase = Z[at, lead, [0, 1, 2]]
        # Columns Re z_0, Im z_0, Re z_1, ... of the phase-fixed eigenvectors.
        A = (Z * (phase.conj() / np.abs(phase))[:, None]).view(float)
        for r in set(ranks.tolist()):
            rows = np.flatnonzero(ranks == r)
            m = len(rows)
            A_r = A[rows, :, 6 - 2 * r:]
            X = np.linalg.solve(np.linalg.cholesky(A_r.swapaxes(1, 2) @ A_r), A_r.swapaxes(1, 2))
            if r < 3:
                kernel = np.linalg.eigh(X.swapaxes(1, 2) @ X)[1]
                vectors[rows, :6 - 2 * r] = kernel.swapaxes(1, 2)[:, :6 - 2 * r]
            values = np.diagonal(X @ F[rows] @ X.swapaxes(1, 2), -1, 1, 2)[:, ::2]
            X[:, 1::2] *= np.where(values < 0, -1.0, 1.0)[:, :, None]
            values = np.abs(values)
            order = np.lexsort((lead[rows, 3 - r:], values))
            vectors[rows, 6 - 2 * r:] = X.reshape(m, r, 2, 6)[at[:m], order].reshape(m, 2 * r, 6)
            triples[rows, 3 - r:] = values[at[:m], order]
        flips = (np.linalg.det(vectors.swapaxes(1, 2)) < 0).tolist()
    except np.linalg.LinAlgError as exc:
        raise NonConvergence("Hermitian eigensolver on iF failed") from exc
    # A flip negates z and v3; slot i of w.triple is plane j, v times s.
    chambers, index, signs = [], [], []
    for k, ((x, y, z), flip) in enumerate(zip(triples.tolist(), flips)):
        q, w = weyl.to_chamber((x, y, -z if flip else z))
        chambers.append(q)
        index += [6 * k + 2 * j + b for j, _ in weyl._MOVES[w] for b in (0, 1)]
        signs += [c for j, s in weyl._MOVES[w] for c in (1.0, -s if flip and j == 2 else s)]
    frames = vectors.reshape(-1, 6)[index] * np.array(signs)[:, None]
    return np.array(chambers).reshape(n, 3), frames.reshape(n, 6, 6).swapaxes(1, 2)


def eigen_split(form: TwoForm, tol: float = 1e-9) -> EigenSplit:
    """The `eigen_splits` row of one form, as three invariant planes."""
    values, frames = eigen_splits([form.coeffs], tol)
    c = [tuple(column) for column in frames[0].T.tolist()]
    return EigenSplit(tuple(map(InvariantPlane, c[::2], c[1::2], values[0].tolist())))


def canonical_triple(form: TwoForm, tol: float = 1e-9) -> tuple[float, float, float]:
    """Chamber representative (x, y, z), z >= x >= |y|, of the eigenvalue triple."""
    return eigen_split(form, tol).values


def _eq(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


#: The special orbit classes as patterns of the chamber triple (x, y, z), from
#: the most degenerate down, the order in which the first match wins in
#: `classify_full`: the slot signs s of the tied group
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


#: One generic point of each class: the class point of (1, 1/2, 2), or of
#: (1, -1/2, 2) where the pattern needs y < 0.
_POINTS = {c: class_point(c, (1, -0.5 if _PATTERNS.get(c, (0, 0, 0))[2] < 0 else 0.5, 2))
           for c in OrbitClass}

#: Specialisation (degeneration) order between orbit classes: _CLOSURE[c] is
#: the set of classes whose stratum closure contains the stratum of c, i.e.
#: Generic and the classes whose patterns hold exactly at the point p of c,
#: their y sign relaxed to y_sign * y >= 0.
_CLOSURE = {c: frozenset([OrbitClass.GENERIC]).union(
    d for d, (s, v, y) in _PATTERNS.items() if _matches(s, v, 0, p, 0.0) and y * p[1] >= 0)
    for c, p in _POINTS.items()}

#: Dimension of the isotropy algebra of a representative form inside so(6):
#: the Cartan algebra (3) plus one root space per root orthogonal to the
#: generic point of the class.
STABILIZER_DIM = {c: 3 + len(_orthogonal_roots(p, 0.0)) for c, p in _POINTS.items()}


@dataclass(frozen=True)
class Classification:
    orbit_class: OrbitClass
    triple: tuple[float, float, float]
    ambiguous: bool
    matches: tuple[OrbitClass, ...]


def classify_full(form: TwoForm, tol: float = 1e-8) -> Classification:
    """Classify by the equality/sign pattern of the chamber triple.

    The first pattern of `_PATTERNS` matching within tolerance wins (none:
    Generic).  The table runs from the most degenerate class down, each class
    before the rest of its stratum closure, so the winner has the largest
    stabilizer and, among equal ones, the closure holding the others (F3Zero
    over F3Plus and F3Minus).  The ambiguous flag is set when some match lies
    outside the winner's closure, i.e. two patterns genuinely disagree.  The
    patterns are mirror images, so classification commutes with y -> -y.
    """
    return _class_of(canonical_triple(form, tol=min(tol, 1e-9)), tol)


def classify_many(coeffs, tol: float = 1e-8) -> list[Classification]:
    """`classify_full` of each row of an (n, 15) stack, split in one call."""
    return [_class_of(tuple(t), tol) for t in eigen_splits(coeffs, min(tol, 1e-9))[0].tolist()]


def _class_of(triple, tol: float) -> Classification:
    matched = [c for c, p in _PATTERNS.items() if _matches(*p, triple, tol)]
    matched = matched or [OrbitClass.GENERIC]
    ambiguous = not _CLOSURE[matched[0]].issuperset(matched)
    return Classification(matched[0], triple, ambiguous, tuple(matched))


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


def torus_rotation(t1, t2, t3) -> np.ndarray:
    """Block rotation by angles (t1, t2, t3) in the three coordinate planes;
    angle arrays broadcast to a stack (..., 6, 6) of rotations."""
    t = np.stack(np.broadcast_arrays(t1, t2, t3), axis=-1)
    c, s = np.cos(t), np.sin(t)
    R = np.zeros(t.shape[:-1] + (6, 6))
    k = np.arange(0, 6, 2)
    R[..., k, k] = R[..., k + 1, k + 1] = c
    R[..., k, k + 1] = -s
    R[..., k + 1, k] = s
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
