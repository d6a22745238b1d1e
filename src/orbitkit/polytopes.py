"""Convex polytopes in R^3, computed exactly.

Every hull has Fraction vertex coordinates and primitive integer facet
normals, and every comparison is exact, so the facet systems of Weyl-orbit
inputs come out verbatim.  Float coordinates are taken at their binary
values.  Degenerate hulls of dimension 0, 1 and 2 are first-class values
carrying their affine hull as a list of equality constraints.

The hulls run on Python ints: each input is scaled once by the common
denominator D of its coordinates (or offsets), every sign test is taken on
the integer numerators, and Fractions are built only for the output.  Two
exact primitives carry it: `_independent` is the one rank test (the affine
basis of a point set) and `_polygon` the one polygon ordering (the edges of
a dim-2 hull and the face rings of `to_off`), a monotone chain on a
coordinate projection.  A 3-dimensional hull is one incremental pass that
tests each (face, point) pair once and reads its vertices off the final
triangulation: the triangle corners that lie on three distinct facet
planes.  `intersect`, `clip` and `section` read their vertices off the
polar hull of their halfspaces (`_cut`), so that hull is the one routine
between points and halfspaces.  No step has a tolerance.
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


_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _ratio(c):
    """(numerator, denominator > 0) of an int, a rational or a binary float;
    numpy floats of every width are taken at their exact value."""
    if isinstance(c, np.integer):
        c = int(c)
    return (c if hasattr(c, "as_integer_ratio") else Fraction(c)).as_integer_ratio()


def _scaled(values):
    """The integers D * v for exact values v, and their common denominator D."""
    ratios = [_ratio(c) for c in values]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def _primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    ints, _ = _scaled(vec)
    g = math.gcd(*ints)
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
    as that float, any other rational as the string "p/q".  A float's reduced
    numerator has at most 53 bits, so p / q is taken only where it cannot
    overflow."""
    p, q = _ratio(x)
    if q == 1:
        return p
    exact = p.bit_length() <= 53 and (p / q).as_integer_ratio() == (p, q)
    return p / q if exact else f"{p}/{q}"


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
        ints, d = _scaled(c for v in self.vertices for c in v)
        return _tight_sets(self.facets, list(zip(ints[0::3], ints[1::3], ints[2::3])), d)


def _tight_sets(facets, pts, d):
    """Per facet, the indices of the integer points pts (exact points scaled
    by d) where it is tight."""
    return [tuple(k for k, p in enumerate(pts) if _dot(f.normal, p) == off)
            for f in facets for off in [f.offset * d]]


def _float_normal(normal) -> tuple[np.ndarray, int]:
    """An integer normal as floats divided by 2**k, which brings its largest
    |entry| into [1, 2), and k: no overflow, and float arithmetic on it is
    (away from subnormals) that on the normal, scaled by 2**-k bit for bit."""
    k = max(map(abs, normal)).bit_length() - 1
    scale = 1 << k
    return np.array([c / scale for c in normal]), k


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
    n1 = _primitive(next(c for c in (_cross(direction, a) for a in _AXES) if c != (0, 0, 0)))
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


def _polygon(pts, n):
    """The extreme points of integer points on a plane with normal n, ccw
    about n: `_hull2d_exact` of the projection that drops the axis of n's
    largest |component| (a 1-1 map), reversed where that projection flips
    the orientation."""
    drop = max(range(3), key=lambda i: abs(n[i]))
    keep = [i for i in range(3) if i != drop]
    back = {(p[keep[0]], p[keep[1]]): p for p in pts}
    ring = [back[q] for q in _hull2d_exact(list(back))]
    return ring[::-1] if (n[drop] > 0) == (drop == 1) else ring


def _rational(p, d):
    return tuple(Fraction(c, d) for c in p)


def _hull_exact(points) -> Polytope:
    """Hull of the points, scaled to integer triples over their common
    denominator d > 0: sign tests and the sort order are those of the
    rational points, and offsets n . p come out as (n . (d p)) / d."""
    ints, d = _scaled(c for p in points for c in p)
    pts = sorted(set(zip(ints[0::3], ints[1::3], ints[2::3])))
    basis = _affine_basis_exact(pts)
    dim = len(basis) - 1

    if dim == 0:
        eqs = tuple(Facet(axis, Fraction(c, d)) for axis, c in zip(_AXES, pts[0]))
        return Polytope(0, (_rational(pts[0], d),), (), eqs)

    p0 = pts[basis[0]]
    if dim == 1:
        # u is lex-positive, so the sorted points run along it end to end.
        u = _primitive(_sub(pts[basis[1]], p0))
        lo, hi = pts[0], pts[-1]
        facets = (
            Facet(u, Fraction(_dot(u, hi), d)),
            Facet(_neg(u), Fraction(-_dot(u, lo), d)),
        )
        eqs = tuple(Facet(n, Fraction(_dot(n, p0), d)) for n in sorted(_orthogonal_pair(u)))
        return Polytope(1, (_rational(lo, d), _rational(hi, d)), _sort_facets(facets), eqs)

    if dim == 2:
        n = _lex_positive(_primitive(_cross(_sub(pts[basis[1]], p0), _sub(pts[basis[2]], p0))))
        ring = _polygon(pts, n)
        # The ring runs ccw about n, so each edge's outward normal is (b - a) x n.
        facets = [Facet(ne, Fraction(_dot(ne, a), d)) for a, b in zip(ring, ring[1:] + ring[:1])
                  for ne in [_primitive(_cross(_sub(b, a), n))]]
        eqs = (Facet(n, Fraction(_dot(n, p0), d)),)
        return Polytope(2, tuple(_rational(p, d) for p in sorted(ring)),
                        _sort_facets(facets), eqs)

    return _hull3_exact(pts, basis, d)


def _hull3_exact(pts, basis, d) -> Polytope:
    order = basis + [k for k in range(len(pts)) if k not in basis]
    # 4 times the centroid of the basis simplex, an interior point.
    inside = tuple(sum(pts[k][i] for k in basis) for i in range(3))

    def make_face(ia, ib, ic):
        a, b, c = pts[ia], pts[ib], pts[ic]
        n = _cross(_sub(b, a), _sub(c, a))
        off = _dot(n, a)
        if _dot(n, inside) > 4 * off:
            n, off = _neg(n), -off
            ia, ib = ib, ia
        return (ia, ib, ic, n, off)

    faces = [make_face(*tri) for tri in itertools.combinations(order[:4], 3)]
    for ip in order[4:]:
        p = pts[ip]
        visible, hidden = [], []
        for f in faces:
            (visible if _dot(f[3], p) > f[4] else hidden).append(f)
        if not visible:
            continue
        edges = {}
        for f in visible:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                if (b, a) in edges:
                    del edges[(b, a)]
                else:
                    edges[(a, b)] = True
        faces = hidden + [make_face(a, b, ip) for a, b in edges]

    # A corner is a vertex iff its triangles span three facet planes: a vertex
    # is a corner in each facet through it, a point inside a facet or an edge
    # lies on at most two.
    planes, corner_planes = {}, {}
    for ia, ib, ic, n, off in faces:
        g = math.gcd(*n)
        n = (n[0] // g, n[1] // g, n[2] // g)
        planes[n] = off // g
        for k in (ia, ib, ic):
            corner_planes.setdefault(k, set()).add(n)
    vertices = [_rational(pts[k], d) for k in sorted(corner_planes) if len(corner_planes[k]) >= 3]
    facets = [Facet(n, Fraction(off, d)) for n, off in planes.items()]
    return Polytope(3, tuple(vertices), _sort_facets(facets), ())


def _sort_facets(facets):
    return tuple(sorted(facets, key=lambda f: (f.normal, f.offset)))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _require_point(point):
    """Raise ValueError unless a point has 3 coordinates and every float
    coordinate is finite."""
    if len(point) != 3:
        raise ValueError(f"a point has 3 coordinates, got {point!r}")
    if not all(_is_exact_scalar(c) or np.isfinite(c) for c in point):
        raise ValueError(f"point coordinates must be finite, got {point!r}")


def hull(points) -> Polytope:
    """Exact convex hull of a nonempty finite point set in R^3.

    Coordinates may be int, Fraction or float (numpy floats of any width
    included); a float is taken at its exact binary value, and a non-finite
    one raises ValueError.  Degenerate hulls report dim < 3 with the affine
    hull attached as equality constraints.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    for p in pts:
        _require_point(p)
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
    one row of `violations_many`; a non-finite coordinate raises ValueError."""
    _require_point(point)
    return float(violations_many(P, [point])[0])


def violations_many(P: Polytope, points: np.ndarray) -> np.ndarray:
    """Scaled violation of each row of an (n, 3) array (<= 0 means inside).

    An array kernel with no finiteness check: a row with a NaN or infinite
    coordinate reads NaN or +inf, never <= tol, and np.max propagates the
    NaN, so callers that gate on the maximum fail such a row.
    """
    pts = np.asarray(points, dtype=float)
    worst = np.full(len(pts), -np.inf)
    for k, f in enumerate(P.facets + P.equalities):
        # Normal and offset are scaled alike, so the quotient is unchanged.
        n, shift = _float_normal(f.normal)
        offset = f.offset.numerator / (f.offset.denominator << shift)
        v = (pts @ n - offset) / math.sqrt(sum(c * c for c in n.tolist()))
        worst = np.maximum(worst, v if k < len(P.facets) else np.abs(v))
    worst[worst == -np.inf] = 0.0
    return worst


def contains(P: Polytope, point, tol: float = 0.0) -> bool:
    """Membership within tol; at tol 0 exact, with floats taken at their
    binary values as in `hull`.  A non-finite coordinate raises ValueError."""
    if tol != 0.0:
        return violation(P, point) <= tol
    _require_point(point)
    q = tuple(Fraction(*_ratio(c)) for c in point)
    return all(_dot(f.normal, q) <= f.offset for f in P.facets) and all(
        _dot(f.normal, q) == f.offset for f in P.equalities
    )


def _cut(P: Polytope, halfspaces) -> list:
    """The vertices of P cut by halfspaces (Facets with integer normals); []
    if empty.  With c strictly inside the cut, n . p <= d is the polar point
    n / (d - n . c), scaled to integers, and facet g . q <= e of their hull
    the vertex c + g / e.  c starts at P's centroid; a halfspace with
    n . c >= d misses, touches (vertices off its plane go) or cuts the vertices
    so far; c then moves to the midpoint of the plane and a lowest vertex."""

    def polar_vertices():
        ints, D = _scaled([*c, *(h.offset for h in kept)])
        E = [off - _dot(h.normal, ints) for h, off in zip(kept, ints[3:])]
        L = math.lcm(*E)
        polar = _hull_exact([tuple(x * (L // e) for x in h.normal) for h, e in zip(kept, E)])
        return [tuple(Fraction(a * e + b * L, e * D) for a, b in zip(ints[:3], f.normal))
                for f in polar.facets for e in [f.offset.numerator]]

    verts, kept, planes = P.vertices, list(P.facets), []
    c = tuple(sum(x) / len(verts) for x in zip(*verts))
    for h in halfspaces:
        nc = _dot(h.normal, c)
        if nc >= h.offset:
            verts = verts or polar_vertices()
            s, low = min((_dot(h.normal, v), v) for v in verts)
            if s > h.offset:
                return []
            if s == h.offset:
                planes.append(h)
                continue
            t = (1 + (nc - h.offset) / (nc - s)) / 2
            c = tuple(a + t * (b - a) for a, b in zip(c, low))
        kept.append(h)
        verts = None
    verts = verts or polar_vertices()
    return [v for v in verts if all(_dot(h.normal, v) == h.offset for h in planes)]


def _exact_halfspace(normal, offset) -> Facet:
    if not (all(_is_exact_scalar(c) for c in normal) and _is_exact_scalar(offset)):
        raise ValueError("normal and offset must be int or Fraction")
    ints, k = _scaled(normal)  # Python ints, as numpy integers overflow
    if len(ints) != 3 or not any(ints):
        raise ValueError(f"normal must be a nonzero 3-vector, got {normal!r}")
    return Facet(tuple(ints), Fraction(*_ratio(offset)) * k)


def intersect(P: Polytope, Q: Polytope) -> Polytope:
    """Intersection of two full-dimensional polytopes: P cut by Q's facets.
    Raises EmptyIntersection when they share no point; an intersection with
    empty interior comes back with dim < 3."""
    if P.dim != 3 or Q.dim != 3:
        raise ValueError("intersect requires two 3-dimensional polytopes")
    verts = _cut(P, Q.facets)
    if not verts:
        raise EmptyIntersection("polytopes do not meet")
    return _hull_exact(verts)


def clip(P: Polytope, normal, offset) -> Polytope:
    """Intersection of a 3-polytope with the halfspace normal . p <= offset
    (int or Fraction coefficients)."""
    if P.dim != 3:
        raise ValueError("clip requires a 3-dimensional polytope")
    verts = _cut(P, [_exact_halfspace(normal, offset)])
    if not verts:
        raise EmptyIntersection("halfspace misses the polytope")
    return _hull_exact(verts)


def section(P: Polytope, normal, offset) -> Polytope:
    """Slice of a 3-polytope by the plane normal . p = offset (int or
    Fraction coefficients; dim <= 2): its cut by the halfspace pair
    normal . p <= offset and -normal . p <= -offset."""
    if P.dim != 3:
        raise ValueError("section requires a 3-dimensional polytope")
    plane = _exact_halfspace(normal, offset)
    verts = _cut(P, [plane, Facet(_neg(plane.normal), -plane.offset)])
    if not verts:
        raise EmptySection("plane misses the polytope")
    return _hull_exact(verts)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _facet_rings(P: Polytope, pts, d):
    """Vertex index rings ccw about their normal, each starting at its lowest
    index: one per facet of a 3-polytope, or the polygon itself about its
    plane's normal.  pts are the vertices scaled to integers by d."""
    if P.dim == 2:
        faces = [(P.equalities[0].normal, range(len(pts)))]
    else:
        faces = zip((f.normal for f in P.facets), _tight_sets(P.facets, pts, d))
    index = {p: k for k, p in enumerate(pts)}
    rings = []
    for normal, tight in faces:
        ring = [index[p] for p in _polygon([pts[k] for k in tight], normal)]
        low = ring.index(min(ring))
        rings.append(tuple(ring[low:] + ring[:low]))
    return rings


def to_off(P: Polytope) -> str:
    """ASCII OFF mesh; the rational vertices are emitted as integer strings
    scaled by their common denominator."""
    ints, denom = _scaled(c for v in P.vertices for c in v)
    pts = list(zip(ints[0::3], ints[1::3], ints[2::3]))
    rings = _facet_rings(P, pts, denom) if P.dim >= 2 else []
    lines = ["OFF", f"# rational vertices scaled by common denominator {denom}",
             f"{len(P.vertices)} {len(rings)} 0"]
    lines += [" ".join(map(str, p)) for p in pts]
    lines += [" ".join(map(str, (len(ring),) + ring)) for ring in rings]
    return "\n".join(lines) + "\n"


def polytope_to_json(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "exact": True,
        "vertices": [[_json_number(c) for c in v] for v in P.vertices],
        "facets": [f.to_json() for f in P.facets],
        "equalities": [f.to_json() for f in P.equalities],
    }
