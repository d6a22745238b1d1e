"""Fibration projections between orbit types and explicit inverse-image data.

A mixed structure (orthogonal complex structure J plus a J-invariant oriented
2-plane) projects to its complex-structure part and to its plane part; those
projections are realised here on 2-forms, together with the closed-form
inverse-image families: the prism over the distinguished tetrahedron edge and
the central-square fibres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import iwasawa, moment, polytopes, weyl
from .errors import (
    DegenerateOrientation,
    DegenerateVector,
    IncompatiblePattern,
    NormViolation,
    WrongClass,
)
from .forms import (
    OrbitClass,
    TwoForm,
    canonical_triple,
    classify,
    eigen_split,
    _eq,
)


@dataclass(frozen=True)
class SimplePlaneForm:
    """Unit simple 2-form: the oriented plane (ker F)^perp with kernel 4-plane."""

    form: TwoForm

    def __post_init__(self):
        x, y, z = canonical_triple(self.form)
        if not (abs(x) <= 1e-8 and abs(y) <= 1e-8 and abs(z - 1.0) <= 1e-8):
            raise ValueError(
                f"not a unit simple form: canonical triple ({x}, {y}, {z})"
            )


def as_simple_plane(p) -> SimplePlaneForm:
    return p if isinstance(p, SimplePlaneForm) else SimplePlaneForm(p)


@dataclass(frozen=True)
class MixedStructure:
    """Commuting pair: complex structure J and product structure P.

    P is the reflection with +1 eigenspace the distinguished 2-plane (so
    P^2 = I, trace -2), J squares to -1, JP = PJ, and the weights (a, b)
    recover the defining form as a * (form of J) + b * (plane form).
    """

    J: np.ndarray
    P: np.ndarray
    weights: tuple[float, float]

    def __post_init__(self):
        if np.max(np.abs(self.J @ self.J + np.eye(6))) > 1e-9:
            raise ValueError("J does not square to -identity")
        if np.max(np.abs(self.P @ self.P - np.eye(6))) > 1e-9:
            raise ValueError("P is not an involution")
        if abs(np.trace(self.P) + 2.0) > 1e-9:
            raise ValueError("P must have a 2-dimensional +1 eigenspace")
        if np.max(np.abs(self.J @ self.P - self.P @ self.J)) > 1e-10:
            raise ValueError("J and P do not commute")
        a, b = self.weights
        if not (a > 0 and b != 0):
            raise ValueError("weights must satisfy a > 0, b != 0")

    def plane_basis(self) -> np.ndarray:
        """Orthonormal basis (6, 2) of the +1 eigenspace of P, J-oriented."""
        s, Q = np.linalg.eigh(self.P)
        v = Q[:, -1]
        w = self.J @ v
        return np.column_stack([v, w])

    def form(self) -> TwoForm:
        """The defining 2-form a * (form of J) + b * (oriented plane form)."""
        a, b = self.weights
        V = self.plane_basis()
        return a * TwoForm.from_matrix(self.J) + b * TwoForm.from_wedge(
            V[:, 0], V[:, 1]
        )


def mixed_structure(form: TwoForm, tol: float = 1e-8) -> MixedStructure:
    """Decompose a mixed-class form into its commuting (J, P, weights) data."""
    split = eigen_split(form, tol=min(tol, 1e-9))
    x, y, z = split.values
    if not (_eq(x, y, tol) and z > x > 0):
        raise WrongClass("mixed decomposition expects an F1-class form")
    J = pi1(form, tol).endomorphism()
    plane = split.planes[2]
    V = np.column_stack([plane.u, plane.v])
    P = 2.0 * V @ V.T - np.eye(6)
    return MixedStructure(J, P, ((x + y) / 2.0, z - (x + y) / 2.0))


def _pattern_refines(source, target, tol: float) -> bool:
    """Can the eigenvalue pattern of source be coarsened to target?

    Slot-aligned rule on chamber triples: an equal (resp. opposite) nonzero
    pair of source values needs the target pair equal (resp. opposite) or
    both zero; a doubly-zero source pair needs a doubly-zero target pair.
    """
    for a in range(3):
        for b in range(a + 1, 3):
            va, vb = source[a], source[b]
            ta, tb = target[a], target[b]
            za = _eq(va, 0.0, tol)
            zb = _eq(vb, 0.0, tol)
            if za and zb:
                if not (_eq(ta, 0.0, tol) and _eq(tb, 0.0, tol)):
                    return False
            elif not za and not zb:
                if _eq(va, vb, tol):
                    if not (_eq(ta, tb, tol)):
                        return False
                elif _eq(va, -vb, tol):
                    if not (_eq(ta, -tb, tol)):
                        return False
    return True


def fibration_project(form: TwoForm, target, tol: float = 1e-8) -> TwoForm:
    """Project a form onto the orbit of a coarser Cartan point.

    The eigen-split planes keep their frames and are reassigned the target's
    chamber values slot by slot; requires the isotropy of the source to sit
    inside the isotropy of the target.
    """
    split = eigen_split(form, tol=min(tol, 1e-9))
    target_chamber, _ = weyl.to_chamber(tuple(float(c) for c in target))
    if not _pattern_refines(split.values, target_chamber, tol):
        raise IncompatiblePattern(
            f"pattern {split.values} does not refine to {target_chamber}"
        )
    out = TwoForm.zero()
    for value, plane in zip(target_chamber, split.planes):
        out = out + float(value) * TwoForm.from_wedge(plane.u, plane.v)
    return out


def pi1(form: TwoForm, tol: float = 1e-8) -> TwoForm:
    """Complex-structure part of a mixed form: the factor F (-F^2)^(-1/2)."""
    if classify(form, tol) is not OrbitClass.F1:
        raise WrongClass("pi1 expects an F1-class form")
    F = form.endomorphism()
    M = -F @ F
    s, Q = np.linalg.eigh(M)
    inv_sqrt = Q @ np.diag(1.0 / np.sqrt(s)) @ Q.T
    return TwoForm.from_matrix(F @ inv_sqrt, tol=1e-6)


def pi2(form: TwoForm, tol: float = 1e-8) -> SimplePlaneForm:
    """Plane part of a mixed form: the eigenplane carrying the distinct value."""
    if classify(form, tol) is not OrbitClass.F1:
        raise WrongClass("pi2 expects an F1-class form")
    plane = eigen_split(form, tol=min(tol, 1e-9)).planes[2]
    return SimplePlaneForm(TwoForm.from_wedge(plane.u, plane.v))


def _hodge_basis(plane_form: SimplePlaneForm):
    """Orthonormal frame (v-pair, 4 kernel vectors) oriented positively."""
    split = eigen_split(plane_form.form)
    k1, k2, pl = split.planes
    h = (k1.u, k1.v, k2.u, k2.v)
    return (pl.u, pl.v), h


def ocs_over_plane(p, u) -> TwoForm:
    """Complete a unit simple form to a complex-structure form.

    The coordinates u = (u1, u2, u3) select a unit self-dual form on the
    kernel 4-plane against the orthonormal triple built from the kernel frame
    (h1^h2 + h3^h4, h1^h3 - h2^h4, h1^h4 + h2^h3); the result squares to -1
    and classifies PPlus, with the plane of p invariant.
    """
    p = as_simple_plane(p)
    u = tuple(float(c) for c in u)
    if abs(sum(c * c for c in u) - 1.0) > 1e-12:
        raise NormViolation("self-dual coordinates must be a unit 3-vector")
    (_, _), h = _hodge_basis(p)
    h1, h2, h3, h4 = h
    sd1 = TwoForm.from_wedge(h1, h2) + TwoForm.from_wedge(h3, h4)
    sd2 = TwoForm.from_wedge(h1, h3) - TwoForm.from_wedge(h2, h4)
    sd3 = TwoForm.from_wedge(h1, h4) + TwoForm.from_wedge(h2, h3)
    return p.form + u[0] * sd1 + u[1] * sd2 + u[2] * sd3


def invariant_plane(J_form: TwoForm, v, orientation: int = 1,
                    tol: float = 1e-8) -> SimplePlaneForm:
    """The oriented plane spanned by {v, Jv} (+1) or {v, -Jv} (-1)."""
    J = J_form.endomorphism()
    if np.max(np.abs(J @ J + np.eye(6))) > math.sqrt(tol):
        raise WrongClass("form does not define a complex structure")
    v = np.asarray(v, dtype=float)
    w = J @ v
    wedge = TwoForm.from_wedge(v, w)
    n = wedge.norm()
    if n < tol:
        raise DegenerateVector("v wedges to zero with Jv")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return SimplePlaneForm((orientation / n) * wedge)


def mixed_over(J_form: TwoForm, f, t: float, tol: float = 1e-8) -> TwoForm:
    """The mixed form J + t (f ^ Jf) over a complex-structure form."""
    if classify(J_form, tol) is not OrbitClass.P_PLUS:
        raise WrongClass("mixed_over expects a PPlus-class form")
    if t <= 0:
        raise ValueError("t must be positive")
    plane = invariant_plane(J_form, f, +1, tol)
    return J_form + float(t) * plane.form


def f3_plane(form: TwoForm, tol: float = 1e-8) -> SimplePlaneForm:
    """Distinguished oriented 2-plane of an F3-type form.

    For the wall case with kernel the form cannot orient the plane and the
    extraction is refused.
    """
    cls = classify(form, tol)
    if cls is OrbitClass.F3_ZERO:
        raise DegenerateOrientation(
            "form has a kernel; no compatible orientation on it"
        )
    if cls not in (OrbitClass.F3_PLUS, OrbitClass.F3_MINUS):
        raise WrongClass("f3_plane expects an F3-type form")
    plane = eigen_split(form, tol=min(tol, 1e-9)).planes[1]
    sign = 1.0 if plane.value > 0 else -1.0
    return SimplePlaneForm(sign * TwoForm.from_wedge(plane.u, plane.v))


# ---------------------------------------------------------------------------
# Fibre sampling
# ---------------------------------------------------------------------------

#: Lower end of the fibre parameter t for the edge prism and the square.
EDGE_PRISM_T_LO = 0.0
SQUARE_T_LO = 0.05


def fibre_draws(n: int, seed: int, t_lo: float) -> list:
    """Per-sample fibre parameters (u, v, t) for samples 0..n-1.

    Sample k draws, from moment.stream(seed, k) and in this order, two unit
    3-vectors u and v and then t ~ U(t_lo, 1).
    """
    draws = []
    for k in range(n):
        rng = moment.stream(seed, k)
        u = rng.standard_normal(3)
        u = u / np.linalg.norm(u)
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        draws.append((u, v, float(rng.uniform(t_lo, 1.0))))
    return draws


# ---------------------------------------------------------------------------
# Edge prism
# ---------------------------------------------------------------------------

def edge_prism_point(a, b, c, alpha, beta, gamma, t,
                     tol: float = 1e-12) -> tuple[float, float, float]:
    """Moment image of w + t e^(Je) for w on the edge family and
    e = alpha e1 + beta e3 + gamma e5."""
    if abs(a * a + b * b + c * c - 1.0) > tol:
        raise NormViolation("(a, b, c) must be a unit vector")
    if abs(alpha * alpha + beta * beta + gamma * gamma - 1.0) > tol:
        raise NormViolation("(alpha, beta, gamma) must be a unit vector")
    if t < 0:
        raise ValueError("t must be nonnegative")
    w = iwasawa.asd_edge_form(a, b, c)
    e = np.zeros(6)
    e[0], e[2], e[4] = alpha, beta, gamma
    je = w.endomorphism() @ e
    return moment.mu_t(w + float(t) * TwoForm.from_wedge(e, je))


def prism_region(t0=1) -> polytopes.Polytope:
    """Moment polytope of (1, 1, 1 + t0) cut down to z <= -1."""
    P = moment.moment_polytope((1, 1, Fraction(1) + Fraction(t0)))
    return polytopes.clip(P, (0, 0, 1), -1)


_PRISM_CACHE: dict = {}


def prism_region_test(p, tol: float = 1e-9, t0=1) -> bool:
    """Membership in the edge-prism region (z <= -1 inside the polytope)."""
    key = Fraction(t0)
    if key not in _PRISM_CACHE:
        _PRISM_CACHE[key] = prism_region(key)
    if float(p[2]) > -1.0 + tol:
        return False
    return polytopes.contains(_PRISM_CACHE[key], tuple(float(c) for c in p), tol)


# ---------------------------------------------------------------------------
# Central square
# ---------------------------------------------------------------------------

def plane_in_span4(v) -> SimplePlaneForm:
    """Simple unit form v1 e12 + v2 e13 + v3 e14: the plane <e1, v.(e2,e3,e4)>."""
    v = tuple(float(c) for c in v)
    if abs(sum(c * c for c in v) - 1.0) > 1e-12:
        raise NormViolation("plane coordinates must be a unit 3-vector")
    form = (
        v[0] * TwoForm.basis(1, 2)
        + v[1] * TwoForm.basis(1, 3)
        + v[2] * TwoForm.basis(1, 4)
    )
    return SimplePlaneForm(form)


def square_fiber_form(u, v, t: float) -> TwoForm:
    """Plane form of v plus t times a compatible complex-structure completion."""
    if t <= 0:
        raise ValueError("t must be positive")
    p = plane_in_span4(v)
    J = ocs_over_plane(p, u)
    return p.form + float(t) * J


def square_fiber_points(u, v, t: float) -> tuple[float, float, float]:
    """Moment image of the central-square fibre construction."""
    return moment.mu_t(square_fiber_form(u, v, t))
