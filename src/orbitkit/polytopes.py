"""Convex polytopes in R^3, computed exactly.

Every hull has Fraction vertex coordinates and primitive integer facet
normals, and every comparison is exact, so the facet systems of Weyl-orbit
inputs come out verbatim.  Float coordinates are taken at their binary
values.  Degenerate hulls of dimension 0, 1 and 2 are first-class values
carrying their affine hull as a list of equality constraints.

Two exact primitives carry the geometry: `_independent` is the one rank
test (the affine basis of a point set, and which hull points are vertices)
and `_meet` the one three-plane solve (the candidate vertices of
`intersect`, `clip` and `section`).  No step has a tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyIntersection, EmptySection


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, np.integer)) and not isinstance(x, bool)


def _fractionize(p):
    return tuple(Fraction(c) for c in p)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _neg(a):
    return (-a[0], -a[1], -a[2])


def _primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    fr = [Fraction(c) for c in vec]
    lcm = 1
    for f in fr:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fr]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def _lex_positive(vec):
    """Flip sign so the first nonzero entry is positive."""
    for c in vec:
        if c != 0:
            return vec if c > 0 else _neg(vec)
    raise ValueError("zero vector")


def _json_number(x):
    """Lossless JSON value: an integer as an int, a rational equal to a float
    as that float, any other rational as the string "p/q"."""
    p, q = Fraction(x).as_integer_ratio()
    if q == 1:
        return p
    return p / q if (p / q).as_integer_ratio() == (p, q) else f"{p}/{q}"


@dataclass(frozen=True)
class Facet:
    """Halfspace normal . p <= offset with outward normal."""

    normal: tuple
    offset: object

    def to_json(self) -> dict:
        return {
            "normal": [_json_number(c) for c in self.normal],
            "offset": _json_number(self.offset),
            "sense": "le",
        }


@dataclass(frozen=True)
class Polytope:
    """V- and H-representation of a convex polytope of dimension 0..3.

    For dim < 3 the affine hull is recorded as equality constraints and the
    facets are inequalities valid within that affine subspace.
    """

    dim: int
    vertices: tuple
    facets: tuple
    equalities: tuple

    def facet_tight_vertices(self):
        """Per facet, the tuple of vertex indices where it is tight."""
        return [tuple(k for k, v in enumerate(self.vertices) if _dot(f.normal, v) == f.offset)
                for f in self.facets]

    def edge_count(self) -> int:
        if self.dim != 3:
            raise ValueError("edge_count requires a 3-dimensional polytope")
        total = sum(len(t) for t in self.facet_tight_vertices())
        if total % 2 != 0:
            raise ValueError("inconsistent facet incidence")
        return total // 2


def _float_norm(vec) -> float:
    return math.sqrt(sum(float(c) * float(c) for c in vec))


def _independent(vecs) -> bool:
    """Whether one, two or three exact vectors are linearly independent:
    nonzero, nonzero cross product, nonzero triple product."""
    if len(vecs) == 1:
        return vecs[0] != (0, 0, 0)
    if len(vecs) == 2:
        return _cross(*vecs) != (0, 0, 0)
    return _dot(_cross(vecs[0], vecs[1]), vecs[2]) != 0


def _affine_basis_exact(pts):
    """Indices (p0, p1, p2, p3) realising the affine dimension, greedily: each
    point whose difference from p0 is independent of those kept is kept."""
    idx, dirs = [0], []
    for k in range(1, len(pts)):
        d = _sub(pts[k], pts[0])
        if _independent(dirs + [d]):
            idx.append(k)
            dirs.append(d)
            if len(dirs) == 3:
                break
    return idx


def _orthogonal_pair(direction):
    """Two primitive integer normals spanning the plane orthogonal to direction."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    n1 = None
    for a in axes:
        c = _cross(direction, a)
        if c != (0, 0, 0):
            n1 = _primitive(c)
            break
    n2 = _primitive(_cross(direction, n1))
    return _lex_positive(n1), _lex_positive(n2)


def _hull2d_exact(projected):
    """Monotone chain on exact 2D points; returns extreme points, ccw order."""
    pts = sorted(set(projected))
    if len(pts) == 1:
        return pts

    def crossz(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and crossz(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and crossz(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_facets_exact(ring, plane_normal, interior):
    """Outward in-plane edge inequalities for a polygon given in ring order."""
    facets = []
    m = len(ring)
    for k in range(m):
        a, b = ring[k], ring[(k + 1) % m]
        ne = _cross(plane_normal, _sub(b, a))
        ne = _primitive(ne)
        off = _dot(ne, a)
        if _dot(ne, interior) > off:
            ne, off = _neg(ne), -off
        facets.append(Facet(ne, Fraction(off)))
    return facets


def _centroid(pts):
    n = len(pts)
    return tuple(sum(p[i] for p in pts) / n for i in range(3))


def _hull_exact(points) -> Polytope:
    pts = sorted(set(_fractionize(p) for p in points))
    basis = _affine_basis_exact(pts)
    dim = len(basis) - 1

    if dim == 0:
        p = pts[0]
        eqs = tuple(
            Facet(axis, Fraction(p[k]))
            for k, axis in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        )
        return Polytope(0, (p,), (), eqs)

    p0 = pts[basis[0]]
    if dim == 1:
        u = _primitive(_sub(pts[basis[1]], p0))
        tvals = [(_dot(u, p), p) for p in pts]
        lo = min(tvals)[1]
        hi = max(tvals)[1]
        facets = (
            Facet(u, Fraction(_dot(u, hi))),
            Facet(_neg(u), Fraction(-_dot(u, lo))),
        )
        n1, n2 = _orthogonal_pair(u)
        eqs = tuple(
            sorted(
                (Facet(n1, Fraction(_dot(n1, p0))), Facet(n2, Fraction(_dot(n2, p0)))),
                key=lambda f: (f.normal, f.offset),
            )
        )
        return Polytope(1, tuple(sorted((lo, hi))), _sort_facets(facets), eqs)

    if dim == 2:
        n = _lex_positive(_primitive(_cross(_sub(pts[basis[1]], p0), _sub(pts[basis[2]], p0))))
        # Drop the axis of n's largest component: the projection is 1-1.
        drop = max(range(3), key=lambda i: abs(n[i]))
        keep = [i for i in range(3) if i != drop]
        back = {(p[keep[0]], p[keep[1]]): p for p in pts}
        ring = [back[q] for q in _hull2d_exact(list(back))]
        interior = _centroid(ring)
        facets = _polygon_facets_exact(ring, n, interior)
        eqs = (Facet(n, Fraction(_dot(n, p0))),)
        return Polytope(2, tuple(sorted(ring)), _sort_facets(facets), eqs)

    return _hull3_exact(pts, basis)


def _hull3_exact(pts, basis) -> Polytope:
    order = basis + [k for k in range(len(pts)) if k not in basis]
    interior = _centroid([pts[k] for k in basis])

    def make_face(ia, ib, ic):
        a, b, c = pts[ia], pts[ib], pts[ic]
        n = _cross(_sub(b, a), _sub(c, a))
        d = _dot(n, a)
        if _dot(n, interior) > d:
            n, d = _neg(n), -d
            ia, ib = ib, ia
        return (ia, ib, ic, n, d)

    faces = [make_face(*tri) for tri in itertools.combinations(order[:4], 3)]
    for ip in order[4:]:
        p = pts[ip]
        visible = [f for f in faces if _dot(f[3], p) > f[4]]
        if not visible:
            continue
        hidden = [f for f in faces if _dot(f[3], p) <= f[4]]
        edges = {}
        for f in visible:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                if (b, a) in edges:
                    del edges[(b, a)]
                else:
                    edges[(a, b)] = True
        faces = hidden + [make_face(a, b, ip) for a, b in edges]

    # An ordered set: huge normals can round to equal float sort keys, and
    # _sort_facets then keeps the order in which the facets were found.
    facets = {}
    for f in faces:
        n = _primitive(f[3])
        k = next(i for i in range(3) if n[i] != 0)
        facets[Facet(n, Fraction(f[4]) * n[k] / f[3][k])] = None

    def is_vertex(p):
        tight = [f.normal for f in facets if _dot(f.normal, p) == f.offset]
        return any(_independent(c) for c in itertools.combinations(tight, 3))

    vertices = [p for p in pts if is_vertex(p)]
    return Polytope(3, tuple(sorted(vertices)), _sort_facets(facets), ())


def _sort_facets(facets):
    return tuple(sorted(facets, key=lambda f: (tuple(map(float, f.normal)),
                                               float(f.offset))))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def hull(points) -> Polytope:
    """Exact convex hull of a nonempty finite point set in R^3.

    Coordinates may be int, Fraction or float; a float is taken at its exact
    binary value.  Degenerate hulls report dim < 3 with the affine hull
    attached as equality constraints.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    if all(_is_exact_scalar(c) for p in pts for c in p):
        return _hull_exact(pts)
    return _hull_float(pts)


def _hull_float(points) -> Polytope:
    """`_hull_exact` of points with float coordinates; kept as its own
    function so the benchmark tracer's span `polytopes.hull.float` counts
    the hulls of float input."""
    return _hull_exact(points)


def violation(P: Polytope, point) -> float:
    """Largest scaled constraint violation of a point (<= 0 means inside):
    one row of `violations_many`."""
    return float(violations_many(P, [point])[0])


def violations_many(P: Polytope, points: np.ndarray) -> np.ndarray:
    """Scaled violation of each row of an (n, 3) array (<= 0 means inside)."""
    pts = np.asarray(points, dtype=float)
    worst = np.full(len(pts), -np.inf)
    for k, f in enumerate(P.facets + P.equalities):
        v = (pts @ np.array(f.normal, dtype=float) - float(f.offset)) / _float_norm(f.normal)
        worst = np.maximum(worst, v if k < len(P.facets) else np.abs(v))
    worst[worst == -np.inf] = 0.0
    return worst


def contains(P: Polytope, point, tol: float = 0.0) -> bool:
    """Membership within tol (tol 0 with int/Fraction coordinates is exact)."""
    if tol == 0.0 and all(_is_exact_scalar(c) for c in point):
        q = _fractionize(point)
        return all(_dot(f.normal, q) <= f.offset for f in P.facets) and all(
            _dot(f.normal, q) == f.offset for f in P.equalities
        )
    return violation(P, point) <= tol


def _meet(f, g, h):
    """The point where the planes of three facets meet, (d_f (n_g x n_h) +
    d_g (n_h x n_f) + d_h (n_f x n_g)) / (n_f . (n_g x n_h)), or None when
    that determinant is 0."""
    gh = _cross(g.normal, h.normal)
    hf = _cross(h.normal, f.normal)
    fg = _cross(f.normal, g.normal)
    det = Fraction(_dot(f.normal, gh))
    if det == 0:
        return None
    return tuple((f.offset * a + g.offset * b + h.offset * c) / det
                 for a, b, c in zip(gh, hf, fg))


def _feasible_vertices(facets):
    found = set()
    for f, g, h in itertools.combinations(facets, 3):
        p = _meet(f, g, h)
        if p is not None and all(_dot(c.normal, p) <= c.offset for c in facets):
            found.add(p)
    return sorted(found)


def _exact_halfspace(normal, offset) -> Facet:
    if not (all(_is_exact_scalar(c) for c in normal) and _is_exact_scalar(offset)):
        raise ValueError("normal and offset must be int or Fraction")
    return Facet(tuple(normal), Fraction(offset))


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection of two full-dimensional polytopes.

    Raises EmptyIntersection when the halfspace systems share no point;
    empty-interior intersections come back with dim < 3.
    """
    if P.dim != 3 or Q.dim != 3:
        raise ValueError("intersect requires two 3-dimensional polytopes")
    verts = _feasible_vertices(list(P.facets) + list(Q.facets))
    if not verts:
        raise EmptyIntersection("polytopes do not meet")
    return _hull_exact(verts)


def clip(P: Polytope, normal, offset) -> Polytope:
    """Intersection of a 3-polytope with the halfspace normal . p <= offset
    (int or Fraction coefficients)."""
    if P.dim != 3:
        raise ValueError("clip requires a 3-dimensional polytope")
    verts = _feasible_vertices(list(P.facets) + [_exact_halfspace(normal, offset)])
    if not verts:
        raise EmptyIntersection("halfspace misses the polytope")
    return _hull_exact(verts)


def section(P: Polytope, normal, offset) -> Polytope:
    """Slice of a 3-polytope by the plane normal . p = offset (int or
    Fraction coefficients; dim <= 2).

    The plane enters as the facet pair normal . p <= offset and
    -normal . p <= -offset, so every feasible vertex lies on it.
    """
    if P.dim != 3:
        raise ValueError("section requires a 3-dimensional polytope")
    plane = _exact_halfspace(normal, offset)
    flipped = Facet(_neg(plane.normal), -plane.offset)
    cand = _feasible_vertices(list(P.facets) + [plane, flipped])
    if not cand:
        raise EmptySection("plane misses the polytope")
    return _hull_exact(cand)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _facet_rings(P: Polytope):
    """Vertex index rings per facet, ordered around the face, outward ccw, on
    the vertices scaled by a power of two near 1/max|coordinate| (no overflow)."""
    top = max(abs(c) for v in P.vertices for c in v)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    verts = np.array([[float(c * scale) for c in v] for v in P.vertices])
    rings = []
    for f, tight in zip(P.facets, P.facet_tight_vertices()):
        pts = verts[list(tight)]
        center = np.mean(pts, axis=0)
        n = np.array([float(c) for c in f.normal])
        n = n / np.linalg.norm(n)
        ref = pts[0] - center
        ref = ref - np.dot(ref, n) * n
        ref = ref / np.linalg.norm(ref)
        perp = np.cross(n, ref)
        angles = []
        for k, p in zip(tight, pts):
            d = p - center
            angles.append((math.atan2(float(np.dot(d, perp)), float(np.dot(d, ref))), k))
        rings.append(tuple(k for _, k in sorted(angles)))
    return rings


def to_off(P: Polytope) -> str:
    """ASCII OFF mesh; the rational vertices are emitted as integer strings
    scaled by their common denominator."""
    rings = _facet_rings(P) if P.dim >= 2 else []
    denom = 1
    for v in P.vertices:
        for c in v:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    lines = ["OFF", f"# rational vertices scaled by common denominator {denom}",
             f"{len(P.vertices)} {len(rings)} 0"]
    for v in P.vertices:
        lines.append(" ".join(str(int(c * denom)) for c in v))
    for ring in rings:
        lines.append(str(len(ring)) + " " + " ".join(str(k) for k in ring))
    return "\n".join(lines) + "\n"


def polytope_to_json(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "exact": True,
        "vertices": [[_json_number(c) for c in v] for v in P.vertices],
        "facets": [f.to_json() for f in P.facets],
        "equalities": [f.to_json() for f in P.equalities],
    }
