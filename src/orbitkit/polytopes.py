"""Convex polytopes in R^3 with exact rational and floating-point backends.

The exact backend (Fraction coordinates, primitive integer facet normals)
serves Weyl-orbit inputs, where facet systems must come out verbatim; the
float backend (unit normals, tolerance) serves Monte-Carlo clouds and is
delegated to qhull.  Degenerate hulls of dimension 0, 1 and 2 are first-class
values carrying their affine hull as a list of equality constraints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull as _QHull

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


@dataclass(frozen=True)
class Facet:
    """Halfspace normal . p <= offset with outward normal."""

    normal: tuple
    offset: object

    def to_json(self) -> dict:
        def num(x):
            if isinstance(x, Fraction):
                return int(x) if x.denominator == 1 else float(x)
            if isinstance(x, float) and x.is_integer():
                return int(x)
            return int(x) if isinstance(x, (int, np.integer)) else float(x)

        return {
            "normal": [num(c) for c in self.normal],
            "offset": num(self.offset),
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
    exact: bool

    def facet_tight_vertices(self, tol: float = 1e-9):
        """Per facet, the tuple of vertex indices where it is tight."""
        out = []
        for f in self.facets:
            scale = _float_norm(f.normal)
            tight = []
            for k, v in enumerate(self.vertices):
                if self.exact:
                    if _dot(f.normal, v) == f.offset:
                        tight.append(k)
                else:
                    if abs(_dot(f.normal, v) - f.offset) <= tol * scale:
                        tight.append(k)
            out.append(tuple(tight))
        return out

    def edge_count(self, tol: float = 1e-9) -> int:
        if self.dim != 3:
            raise ValueError("edge_count requires a 3-dimensional polytope")
        total = sum(len(t) for t in self.facet_tight_vertices(tol))
        if total % 2 != 0:
            raise ValueError("inconsistent facet incidence")
        return total // 2


def _float_norm(vec) -> float:
    return math.sqrt(sum(float(c) * float(c) for c in vec))


# ---------------------------------------------------------------------------
# Exact backend
# ---------------------------------------------------------------------------

def _affine_basis_exact(pts):
    """Indices (p0, p1, p2, p3) realising the affine dimension, greedily."""
    idx = [0]
    for k in range(1, len(pts)):
        if pts[k] != pts[0]:
            idx.append(k)
            break
    if len(idx) == 1:
        return idx
    d1 = _sub(pts[idx[1]], pts[idx[0]])
    for k in range(1, len(pts)):
        if k in idx:
            continue
        if _cross(d1, _sub(pts[k], pts[idx[0]])) != (0, 0, 0):
            idx.append(k)
            break
    if len(idx) == 2:
        return idx
    n = _cross(d1, _sub(pts[idx[2]], pts[idx[0]]))
    for k in range(1, len(pts)):
        if k in idx:
            continue
        if _dot(n, _sub(pts[k], pts[idx[0]])) != 0:
            idx.append(k)
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


def _drop_axis(normal):
    return max(range(3), key=lambda i: abs(normal[i]))


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
        return Polytope(0, (p,), (), eqs, True)

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
        return Polytope(1, tuple(sorted((lo, hi))), _sort_facets(facets), eqs, True)

    if dim == 2:
        n = _lex_positive(_primitive(_cross(_sub(pts[basis[1]], p0), _sub(pts[basis[2]], p0))))
        drop = _drop_axis(n)
        keep = [i for i in range(3) if i != drop]
        back = {}
        proj = []
        for p in pts:
            q = (p[keep[0]], p[keep[1]])
            back[q] = p
            proj.append(q)
        ring2 = _hull2d_exact(proj)
        ring = [back[q] for q in ring2]
        interior = _centroid(ring)
        facets = _polygon_facets_exact(ring, n, interior)
        eqs = (Facet(n, Fraction(_dot(n, p0))),)
        return Polytope(2, tuple(sorted(ring)), _sort_facets(facets), eqs, True)

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

    i0, i1, i2, i3 = order[:4]
    faces = [
        make_face(i0, i1, i2),
        make_face(i0, i1, i3),
        make_face(i0, i2, i3),
        make_face(i1, i2, i3),
    ]
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

    planes = {}
    for f in faces:
        n = _primitive(f[3])
        k = next(i for i in range(3) if n[i] != 0)
        scale = Fraction(f[3][k]) / n[k]
        planes[(n, Fraction(f[4]) / scale)] = True

    facet_list = []
    tight_map = []
    for (n, d) in planes:
        tight = [p for p in pts if _dot(n, p) == d]
        facet_list.append(Facet(n, d))
        tight_map.append(tight)

    counts = {p: [] for p in pts}
    for (n, d), tight in zip(planes, tight_map):
        for p in tight:
            counts[p].append(n)
    vertices = []
    for p, normals in counts.items():
        if len(normals) >= 3 and _rank3(normals) == 3:
            vertices.append(p)
    return Polytope(3, tuple(sorted(vertices)), _sort_facets(facet_list), (), True)


def _rank3(vecs) -> int:
    rank = 0
    basis = []
    for v in vecs:
        w = v
        if rank == 1:
            if _cross(basis[0], w) == (0, 0, 0):
                continue
        if rank == 2:
            if _dot(_cross(basis[0], basis[1]), w) == 0:
                continue
        if rank == 0 and w == (0, 0, 0):
            continue
        basis.append(w)
        rank += 1
        if rank == 3:
            break
    return rank


def _sort_facets(facets):
    return tuple(sorted(facets, key=lambda f: (tuple(map(float, f.normal)),
                                               float(f.offset))))


# ---------------------------------------------------------------------------
# Float backend
# ---------------------------------------------------------------------------

def _hull_float(points, tol: float) -> Polytope:
    pts = np.asarray(points, dtype=float)
    scale = max(1.0, float(np.max(np.abs(pts))))
    center = pts.mean(axis=0)
    u, s, vt = np.linalg.svd(pts - center, full_matrices=False)
    dim = int(np.sum(s > tol * max(scale, 1.0) * 10))

    if dim == 0:
        p = tuple(center)
        eqs = tuple(
            Facet(axis, p[k])
            for k, axis in enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        )
        return Polytope(0, (p,), (), eqs, False)

    if dim == 1:
        d = vt[0]
        tvals = pts @ d
        lo = tuple(pts[np.argmin(tvals)])
        hi = tuple(pts[np.argmax(tvals)])
        d = tuple(d)
        facets = (Facet(d, _dot(d, hi)), Facet(_neg(d), -_dot(d, lo)))
        n1 = tuple(vt[1])
        n2 = tuple(vt[2])
        eqs = tuple(
            Facet(_lex_positive_float(n), _dot(_lex_positive_float(n), lo))
            for n in (n1, n2)
        )
        return Polytope(1, tuple(sorted((lo, hi))), _sort_facets(facets), eqs, False)

    if dim == 2:
        normal = _lex_positive_float(tuple(vt[2]))
        b1, b2 = vt[0], vt[1]
        proj = np.column_stack([(pts - center) @ b1, (pts - center) @ b2])
        hull2 = _QHull(proj)
        ring_idx = list(hull2.vertices)
        ring = [tuple(pts[k]) for k in ring_idx]
        interior = _centroid(ring)
        facets = []
        m = len(ring)
        for k in range(m):
            a, b = ring[k], ring[(k + 1) % m]
            ne = _cross(normal, _sub(b, a))
            nn = _float_norm(ne)
            ne = tuple(c / nn for c in ne)
            off = _dot(ne, a)
            if _dot(ne, interior) > off:
                ne, off = _neg(ne), -off
            facets.append(Facet(ne, off))
        eqs = (Facet(normal, _dot(normal, tuple(center))),)
        return Polytope(2, tuple(sorted(ring)), _sort_facets(facets), eqs, False)

    return _hull3_float(pts, tol, scale)


def _lex_positive_float(vec):
    for c in vec:
        if abs(c) > 1e-14:
            return vec if c > 0 else _neg(vec)
    return vec


def _hull3_float(pts, tol, scale) -> Polytope:
    hull = _QHull(pts)
    eqs = hull.equations  # n . x + b <= 0, |n| = 1
    nf = len(eqs)
    parent = list(range(nf))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    angle_tol = 1e-7
    for f, nbrs in enumerate(hull.neighbors):
        for g in nbrs:
            if g < 0:
                continue
            if np.dot(eqs[f, :3], eqs[g, :3]) > 1.0 - angle_tol and \
               abs(eqs[f, 3] - eqs[g, 3]) <= 10 * tol * scale:
                union(f, int(g))

    groups = {}
    for f in range(nf):
        groups.setdefault(find(f), []).append(f)

    hull_pts = pts[hull.vertices]
    inner = hull_pts.mean(axis=0)
    facets = []
    tight_sets = []
    for members in groups.values():
        simplex_vertices = set()
        for f in members:
            simplex_vertices.update(hull.simplices[f])
        face_pts = pts[sorted(simplex_vertices)]
        fc = face_pts.mean(axis=0)
        _, _, fvt = np.linalg.svd(face_pts - fc, full_matrices=False)
        n = fvt[2]
        if np.dot(n, fc - inner) < 0:
            n = -n
        off = float(np.dot(n, fc))
        facets.append(Facet(tuple(n), off))
        tight_sets.append(face_pts)

    counts = {}
    for f in facets:
        for k in hull.vertices:
            p = pts[k]
            if abs(float(np.dot(f.normal, p)) - f.offset) <= 50 * tol * scale:
                counts.setdefault(int(k), []).append(f.normal)
    vertices = []
    for k, normals in counts.items():
        if len(normals) >= 3:
            arr = np.array(normals)
            if np.linalg.matrix_rank(arr, tol=1e-6) == 3:
                vertices.append(tuple(pts[k]))
    return Polytope(3, tuple(sorted(vertices)), _sort_facets(facets), (), False)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def hull(points, exact=None, tol: float = 1e-9) -> Polytope:
    """Convex hull of a nonempty finite point set in R^3.

    The backend is chosen from the coordinate types (int/Fraction -> exact)
    unless overridden; exact=True converts float coordinates to their exact
    binary values.  Degenerate hulls report dim < 3 with the affine hull
    attached as equality constraints.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    if exact is None:
        exact = all(_is_exact_scalar(c) for p in pts for c in p)
    if exact:
        return _hull_exact(pts)
    return _hull_float(pts, tol)


def violation(P: Polytope, point) -> float:
    """Largest scaled constraint violation of a point (<= 0 means inside)."""
    worst = -math.inf
    for f in P.facets:
        v = (float(_dot(f.normal, point)) - float(f.offset)) / _float_norm(f.normal)
        worst = max(worst, v)
    for f in P.equalities:
        v = abs(float(_dot(f.normal, point)) - float(f.offset)) / _float_norm(f.normal)
        worst = max(worst, v)
    if worst == -math.inf:
        worst = 0.0
    return worst


def violations_many(P: Polytope, points: np.ndarray) -> np.ndarray:
    """Scaled violation of each row of an (n, 3) array (<= 0 means inside)."""
    pts = np.asarray(points, dtype=float)
    worst = np.full(len(pts), -np.inf)
    for f in P.facets:
        n = np.array([float(c) for c in f.normal])
        worst = np.maximum(worst, (pts @ n - float(f.offset)) / _float_norm(f.normal))
    for f in P.equalities:
        n = np.array([float(c) for c in f.normal])
        worst = np.maximum(
            worst, np.abs(pts @ n - float(f.offset)) / _float_norm(f.normal)
        )
    worst[worst == -np.inf] = 0.0
    return worst


def contains(P: Polytope, point, tol: float = 0.0) -> bool:
    """Membership within tol (tol 0 on an exact polytope is exact)."""
    if tol == 0.0 and P.exact and all(_is_exact_scalar(c) for c in point):
        q = _fractionize(point)
        return all(_dot(f.normal, q) <= f.offset for f in P.facets) and all(
            _dot(f.normal, q) == f.offset for f in P.equalities
        )
    return violation(P, point) <= tol


def _cramer_exact(rows, rhs):
    m = [[Fraction(rows[i][j]) for j in range(3)] for i in range(3)]
    r = [Fraction(x) for x in rhs]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        return None
    sols = []
    for k in range(3):
        mm = [row[:] for row in m]
        for i in range(3):
            mm[i][k] = r[i]
        dk = (
            mm[0][0] * (mm[1][1] * mm[2][2] - mm[1][2] * mm[2][1])
            - mm[0][1] * (mm[1][0] * mm[2][2] - mm[1][2] * mm[2][0])
            + mm[0][2] * (mm[1][0] * mm[2][1] - mm[1][1] * mm[2][0])
        )
        sols.append(dk / det)
    return tuple(sols)


def _cramer_float(rows, rhs):
    A = np.array(rows, dtype=float)
    det = np.linalg.det(A)
    if abs(det) <= 1e-12 * max(1.0, np.max(np.abs(A)) ** 3):
        return None
    return tuple(np.linalg.solve(A, np.array(rhs, dtype=float)))


def _feasible_vertices(facets, exact, tol):
    solver = _cramer_exact if exact else _cramer_float
    found = []
    for f, g, h in itertools.combinations(facets, 3):
        sol = solver((f.normal, g.normal, h.normal), (f.offset, g.offset, h.offset))
        if sol is None:
            continue
        if exact:
            if all(_dot(c.normal, sol) <= c.offset for c in facets):
                found.append(sol)
        else:
            ok = all(
                float(_dot(c.normal, sol)) - float(c.offset)
                <= tol * _float_norm(c.normal)
                for c in facets
            )
            if ok:
                found.append(sol)
    if exact:
        return sorted(set(found))
    out = []
    for p in found:
        if not any(max(abs(p[k] - q[k]) for k in range(3)) <= 10 * tol for q in out):
            out.append(p)
    return out


def intersect(P: Polytope, Q: Polytope, tol: float = 1e-9) -> Polytope:
    """Intersection of two full-dimensional polytopes.

    Raises EmptyIntersection when the halfspace systems share no point;
    empty-interior intersections come back with dim < 3.
    """
    if P.dim != 3 or Q.dim != 3:
        raise ValueError("intersect requires two 3-dimensional polytopes")
    exact = P.exact and Q.exact
    combined = list(P.facets) + list(Q.facets)
    verts = _feasible_vertices(combined, exact, tol)
    if not verts:
        raise EmptyIntersection("polytopes do not meet")
    return hull(verts, exact=exact, tol=tol)


def clip(P: Polytope, normal, offset, tol: float = 1e-9) -> Polytope:
    """Intersection of a 3-polytope with the halfspace normal . p <= offset."""
    if P.dim != 3:
        raise ValueError("clip requires a 3-dimensional polytope")
    exact = P.exact and all(_is_exact_scalar(c) for c in normal) and _is_exact_scalar(offset)
    extra = Facet(tuple(normal), Fraction(offset) if exact else float(offset))
    combined = list(P.facets) + [extra]
    verts = _feasible_vertices(combined, exact, tol)
    if not verts:
        raise EmptyIntersection("halfspace misses the polytope")
    return hull(verts, exact=exact, tol=tol)


def section(P: Polytope, normal, offset, tol: float = 1e-9) -> Polytope:
    """Slice of a 3-polytope by the plane normal . p = offset (dim <= 2).

    The plane enters as the facet pair normal . p <= offset and
    -normal . p <= -offset, so every feasible vertex lies on it.
    """
    if P.dim != 3:
        raise ValueError("section requires a 3-dimensional polytope")
    exact = P.exact and all(_is_exact_scalar(c) for c in normal) and _is_exact_scalar(offset)
    if exact:
        plane = Facet(tuple(normal), Fraction(offset))
    else:
        plane = Facet(tuple(float(c) for c in normal), float(offset))
    flipped = Facet(_neg(plane.normal), -plane.offset)
    cand = _feasible_vertices(list(P.facets) + [plane, flipped], exact, tol)
    if not cand:
        raise EmptySection("plane misses the polytope")
    return hull(cand, exact=exact, tol=tol)


def polytopes_close(P: Polytope, Q: Polytope, tol: float = 1e-9) -> bool:
    """Vertex sets and facet systems agree within tol (unit-normal compare)."""
    if P.dim != Q.dim or len(P.vertices) != len(Q.vertices) or len(P.facets) != len(Q.facets):
        return False

    def match(av, bv, key):
        used = [False] * len(bv)
        for a in av:
            hit = False
            for k, b in enumerate(bv):
                if not used[k] and key(a, b) <= tol:
                    used[k] = True
                    hit = True
                    break
            if not hit:
                return False
        return True

    def vdist(a, b):
        return max(abs(float(a[k]) - float(b[k])) for k in range(3))

    def fdist(a, b):
        na = _float_norm(a.normal)
        nb = _float_norm(b.normal)
        d = max(
            abs(float(a.normal[k]) / na - float(b.normal[k]) / nb) for k in range(3)
        )
        return max(d, abs(float(a.offset) / na - float(b.offset) / nb))

    return match(P.vertices, Q.vertices, vdist) and match(P.facets, Q.facets, fdist)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _facet_rings(P: Polytope, tol: float = 1e-9):
    """Vertex index rings per facet, ordered around the face, outward ccw."""
    rings = []
    for f, tight in zip(P.facets, P.facet_tight_vertices(tol)):
        pts = [np.array([float(c) for c in P.vertices[k]]) for k in tight]
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


def to_off(P: Polytope, tol: float = 1e-9) -> str:
    """ASCII OFF mesh; exact vertices are emitted as scaled integer strings."""
    rings = _facet_rings(P, tol) if P.dim >= 2 else []
    lines = ["OFF"]
    if P.exact:
        denom = 1
        for v in P.vertices:
            for c in v:
                f = Fraction(c)
                denom = denom * f.denominator // math.gcd(denom, f.denominator)
        lines.append(f"# rational vertices scaled by common denominator {denom}")
        lines.append(f"{len(P.vertices)} {len(rings)} 0")
        for v in P.vertices:
            lines.append(" ".join(str(int(Fraction(c) * denom)) for c in v))
    else:
        lines.append(f"{len(P.vertices)} {len(rings)} 0")
        for v in P.vertices:
            lines.append(" ".join(f"{float(c):.17g}" for c in v))
    for ring in rings:
        lines.append(str(len(ring)) + " " + " ".join(str(k) for k in ring))
    return "\n".join(lines) + "\n"


def polytope_to_json(P: Polytope) -> dict:
    def num(x):
        f = Fraction(x) if _is_exact_scalar(x) else None
        if f is not None:
            return int(f) if f.denominator == 1 else float(f)
        return float(x)

    return {
        "dim": P.dim,
        "exact": P.exact,
        "vertices": [[num(c) for c in v] for v in P.vertices],
        "facets": [f.to_json() for f in P.facets],
        "equalities": [f.to_json() for f in P.equalities],
    }
