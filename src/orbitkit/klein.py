"""Fibration projections between orbit types and explicit inverse-image data.

`fibration_project` maps a form onto the orbit of a coarser Cartan point:
onto (1, 1, 1) it gives the complex-structure part of a mixed form, onto
(0, 0, 1) its plane part.  The fibres over a complex structure J are lifts,
the mixed forms J + t (v ^ Jv) of `iwasawa.mixed_images`; here they give
the closed-form inverse-image families: the prism over the distinguished
tetrahedron edge and the central-square fibres p + t J, J a completion of
the plane form p by a self-dual part on its kernel (`_complete`), stacked
over all draws by `square_forms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import iwasawa, moment, polytopes, weyl
from .errors import IncompatiblePattern, NormViolation
from .forms import TwoForm, canonical_triple, eigen_split, refines, wedges


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


def fibration_project(form: TwoForm, target, tol: float = 1e-8) -> TwoForm:
    """Project a form onto the orbit of a coarser Cartan point.

    The eigen-split planes keep their frames and are reassigned the target's
    chamber values slot by slot; requires the isotropy of the source to sit
    inside the isotropy of the target.
    """
    split = eigen_split(form, tol=min(tol, 1e-9))
    target_chamber, _ = weyl.to_chamber(tuple(float(c) for c in target))
    if not refines(split.values, target_chamber, tol):
        raise IncompatiblePattern(
            f"pattern {split.values} does not refine to {target_chamber}"
        )
    out = TwoForm.zero()
    for value, plane in zip(target_chamber, split.planes):
        out = out + float(value) * TwoForm.from_wedge(plane.u, plane.v)
    return out


def _unit(x, what: str) -> tuple[float, float, float]:
    x = tuple(float(c) for c in x)
    if not abs(sum(c * c for c in x) - 1.0) <= 1e-12:
        raise NormViolation(f"{what} must be a unit 3-vector")
    return x


def _complete(p, h, u) -> np.ndarray:
    """Complete plane forms p (..., 15) to complex-structure forms, row by row
    p + u1 (h1^h2 + h3^h4) + u2 (h1^h3 - h2^h4) + u3 (h1^h4 + h2^h3).

    h (..., 4, 6) is an orthonormal frame of the kernel of p which, followed by
    an oriented frame of p's plane, is positively oriented; u (..., 3) are unit
    coordinates of the self-dual part against it.
    """
    h1, h2, h3, h4 = np.moveaxis(h, -2, 0)
    u1, u2, u3 = np.moveaxis(u[..., None], -2, 0)
    return (p + u1 * (wedges(h1, h2) + wedges(h3, h4))
            + u2 * (wedges(h1, h3) - wedges(h2, h4))
            + u3 * (wedges(h1, h4) + wedges(h2, h3)))


def ocs_over_plane(p, u) -> TwoForm:
    """Complete a unit simple form to a complex-structure form.

    The coordinates u = (u1, u2, u3) select a unit self-dual form on the
    kernel 4-plane against the orthonormal triple built from the kernel frame
    (h1^h2 + h3^h4, h1^h3 - h2^h4, h1^h4 + h2^h3) of `eigen_split`; the result
    squares to -1 and classifies PPlus, with the plane of p invariant.
    """
    p = as_simple_plane(p)
    u = _unit(u, "self-dual coordinates")
    k1, k2, _ = eigen_split(p.form).planes
    h = np.array([k1.u, k1.v, k2.u, k2.v])
    return TwoForm(_complete(p.form.as_array(), h, np.array(u)))


#: Lower end of the fibre parameter t for the edge prism and the square; a
#: fibre draw is `moment.fibre_draws` of sizes (3, 3).
EDGE_PRISM_T_LO = 0.0
SQUARE_T_LO = 0.05


# ---------------------------------------------------------------------------
# Edge prism
# ---------------------------------------------------------------------------

def edge_prism_points(abc, abg, t) -> np.ndarray:
    """Moment images (n, 3) of w + t e^(Je), row by row: w the edge-family
    form `iwasawa.asd_edge_form` of a row (a, b, c) of abc (n, 3) and
    e = alpha e1 + beta e3 + gamma e5 of a row of abg (n, 3)."""
    abc, abg, t = (np.asarray(x, dtype=float) for x in (abc, abg, t))
    e = np.zeros((len(t), 6))
    e[:, 0::2] = abg
    return iwasawa.mixed_images(iwasawa._asd_edge_coeffs(*abc.T), e, t)[1]


def edge_prism_point(a, b, c, alpha, beta, gamma, t) -> tuple[float, float, float]:
    """One row of `edge_prism_points`, for unit (a, b, c) and
    (alpha, beta, gamma) and t >= 0."""
    if not abs(a * a + b * b + c * c - 1.0) <= 1e-12:
        raise NormViolation("(a, b, c) must be a unit vector")
    if not abs(alpha * alpha + beta * beta + gamma * gamma - 1.0) <= 1e-12:
        raise NormViolation("(alpha, beta, gamma) must be a unit vector")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    return tuple(edge_prism_points([(a, b, c)], [(alpha, beta, gamma)], [t])[0].tolist())


#: Chamber triple (1, 1, 1 + t) of the edge-prism forms at the top t = 1.
PRISM_LAMBDA = (1, 1, 2)


def prism_region() -> polytopes.Polytope:
    """Moment polytope of (1, 1, 2) cut down to z <= -1."""
    return polytopes.clip(moment.moment_polytope(PRISM_LAMBDA), (0, 0, 1), -1)


def prism_region_test(p) -> bool:
    """Membership within `moment.GATE_TOL` in the edge-prism region (z <= -1
    inside the polytope) of a point, or of every row of an (n, 3) array."""
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    return bool(np.all(pts[:, 2] <= -1.0 + moment.GATE_TOL)
                and np.all(moment.moment_violations(PRISM_LAMBDA, pts) <= moment.GATE_TOL))


# ---------------------------------------------------------------------------
# Central square
# ---------------------------------------------------------------------------

def plane_in_span4(v) -> SimplePlaneForm:
    """Simple unit form v1 e12 + v2 e13 + v3 e14: the plane <e1, v.(e2,e3,e4)>."""
    v = _unit(v, "plane coordinates")
    form = (
        v[0] * TwoForm.basis(1, 2)
        + v[1] * TwoForm.basis(1, 3)
        + v[2] * TwoForm.basis(1, 4)
    )
    return SimplePlaneForm(form)


def square_forms(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows (n, 15) of the plane forms p = v1 e12 + v2 e13 + v3 e14
    and of their completions J, for rows of unit 3-vectors u and v (n, 3);
    the central-square fibre form is p + t J.

    J is `_complete` of p against the kernel frame (a, v x a, e5, e6), with v
    and a in <e2, e3, e4> and a the unit v x e_k for the axis k of v's
    smallest |entry|.  As det(v, a, v x a) = 1, the frame followed by (e1, v)
    is positive, the orientation `eigen_split` gives, so J classifies PPlus,
    p + t J has chamber triple (t, t, 1 + t) and Cartan image
    ((1 + t) v1, t u1 v1, t u1).
    """
    u, v = (np.asarray(x, dtype=float) for x in (u, v))
    p = np.zeros((len(v), 15))
    p[:, :3] = v  # the slots of e12, e13, e14
    a = np.cross(v, np.eye(3)[np.argmin(np.abs(v), axis=1)])
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    h = np.zeros((len(v), 4, 6))
    h[:, 0, 1:4], h[:, 1, 1:4] = a, np.cross(v, a)
    h[:, 2, 4] = h[:, 3, 5] = 1.0
    return p, _complete(p, h, u)


def square_fiber_form(u, v, t: float) -> TwoForm:
    """The fibre form p + t J: one row of `square_forms`, for unit u and v
    and t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    v = _unit(v, "plane coordinates")
    p, J = square_forms([_unit(u, "self-dual coordinates")], [v])
    return TwoForm(p[0] + float(t) * J[0])


def square_region() -> polytopes.Polytope:
    """Tetrahedron conv{(2a, a w, w) : a, w = +-1}, facets (+-1, +-2, +-2) . p <= 2.

    It holds every square image ((1 + t) a, t a w, t w), |a|, |w| <= 1 and
    0 <= t <= 1: a facet functional is bilinear in (a, w), so it peaks at a
    corner, and affine in t there, so it peaks at t = 0 (value 1) or at a
    vertex (t = 1).
    """
    return polytopes.hull([(2 * a, a * w, w) for a in (1, -1) for w in (1, -1)])

