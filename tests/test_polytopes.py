"""Hull computation against a brute-force facet oracle, plus set operations."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import moment, polytopes, weyl
from orbitkit.errors import EmptyIntersection, EmptySection
from orbitkit.polytopes import clip, contains, hull, intersect, section
from test_golden import exact_layer_polytopes


def brute_force_facets(points):
    """All supporting planes through point triples; independent of the
    incremental construction."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    found = set()
    for a, b, c in itertools.combinations(pts, 3):
        n = polytopes._cross(polytopes._sub(b, a), polytopes._sub(c, a))
        if n == (0, 0, 0):
            continue
        d = polytopes._dot(n, a)
        sides = [polytopes._dot(n, p) - d for p in pts]
        if all(s <= 0 for s in sides):
            n = polytopes._primitive(n)
            found.add((n, Fraction(polytopes._dot(n, a))))
        elif all(s >= 0 for s in sides):
            n = polytopes._primitive(polytopes._neg(n))
            found.add((n, Fraction(polytopes._dot(n, a))))
    return found


TETRA_POINTS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
TETRA_FACETS = {
    ((-1, -1, -1), 1),
    ((-1, 1, 1), 1),
    ((1, -1, 1), 1),
    ((1, 1, -1), 1),
}
OCTA_POINTS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
OCTA_FACETS = {
    ((sx, sy, sz), 1) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
}


def facet_set(P):
    return {(f.normal, f.offset) for f in P.facets}


def test_tetrahedron():
    P = hull(TETRA_POINTS)
    assert P.dim == 3
    assert all(isinstance(c, Fraction) for v in P.vertices for c in v)
    assert set(P.vertices) == set(tuple(map(Fraction, p)) for p in TETRA_POINTS)
    assert facet_set(P) == TETRA_FACETS
    assert facet_set(P) == brute_force_facets(TETRA_POINTS)


def test_octahedron():
    P = hull(OCTA_POINTS)
    assert len(P.vertices) == 6
    assert facet_set(P) == OCTA_FACETS == brute_force_facets(OCTA_POINTS)


def test_point_hull():
    P = hull([(0, 0, 0)])
    assert P.dim == 0
    assert P.vertices == ((0, 0, 0),)
    assert len(P.equalities) == 3
    assert contains(P, (0, 0, 0))
    assert not contains(P, (0, 0, 1))


def test_segment_hull():
    P = hull([(0, 0, 0), (1, 0, 0), (Fraction(1, 2), 0, 0)])
    assert P.dim == 1
    assert set(P.vertices) == {(0, 0, 0), (1, 0, 0)}
    assert len(P.facets) == 2  # the two endpoint inequalities
    assert len(P.equalities) == 2  # the affine hull
    assert contains(P, (Fraction(1, 4), 0, 0))
    assert not contains(P, (2, 0, 0))
    assert not contains(P, (Fraction(1, 2), Fraction(1, 2), 0))


def test_polygon_hull():
    pts = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 0)]
    P = hull(pts)
    assert P.dim == 2
    assert len(P.vertices) == 4
    assert len(P.facets) == 4
    assert len(P.equalities) == 1
    assert contains(P, (Fraction(1, 4), Fraction(1, 4), 0))
    assert not contains(P, (0, 0, Fraction(1, 100)))


def edge_count(P):
    """Edges of a 3-dimensional polytope: each lies on exactly two facets."""
    assert P.dim == 3
    total = sum(len(t) for t in P.facet_tight_vertices())
    assert total % 2 == 0, "inconsistent facet incidence"
    return total // 2


def test_generic_orbit_hull_face_counts():
    pts = weyl.weyl_orbit(tuple(Fraction(c) for c in (1, Fraction(1, 2), 2)))
    P = hull(pts)
    assert len(P.vertices) == 24
    assert len(P.facets) == 14
    assert facet_set(P) == brute_force_facets(pts)
    sizes = sorted(len(t) for t in P.facet_tight_vertices())
    assert sizes == [4] * 6 + [6] * 8
    assert len(P.vertices) - edge_count(P) + len(P.facets) == 2


def test_truncated_tetrahedron_counts():
    pts = weyl.weyl_orbit((1, 1, 2))
    P = hull(pts)
    assert len(P.vertices) == 12
    assert facet_set(P) == brute_force_facets(pts)
    sizes = sorted(len(t) for t in P.facet_tight_vertices())
    assert sizes == [3, 3, 3, 3, 6, 6, 6, 6]


def test_hull_skips_interior_and_boundary_points():
    pts = TETRA_POINTS + [(0, 0, 0), (0, 0, 1)]  # interior + face point
    P = hull(pts)
    assert set(P.vertices) == set(tuple(map(Fraction, p)) for p in TETRA_POINTS)
    assert facet_set(P) == TETRA_FACETS


def test_round_trip_canonical():
    P = hull(weyl.weyl_orbit((1, 1, 2)))
    Q = hull(P.vertices)
    assert P == Q


def test_facets_tight_on_at_least_three_vertices():
    for lam in [(1, 1, 1), (0, 0, 1), (1, 1, 2), (1, Fraction(1, 2), 2)]:
        P = hull(weyl.weyl_orbit(lam))
        for t in P.facet_tight_vertices():
            assert len(t) >= 3


def test_contains_examples():
    T = hull(TETRA_POINTS)
    assert contains(T, (0, 0, 0))
    eps = Fraction(1, 1000)
    assert not contains(T, (1 + eps, 1 + eps, 1 + eps), 1e-12)
    O = hull(OCTA_POINTS)
    assert contains(O, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    for v in T.vertices:
        assert contains(T, v, 1e-12)


def test_intersection_of_tetrahedra_is_octahedron():
    plus = hull(TETRA_POINTS)
    minus = hull([(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    both = intersect(plus, minus)
    octa = hull(OCTA_POINTS)
    assert both == octa


def test_intersection_idempotent_commutative():
    P = hull(TETRA_POINTS)
    Q = hull(OCTA_POINTS)
    assert intersect(P, P) == P
    assert intersect(P, Q) == intersect(Q, P)


def test_disjoint_intersection_raises():
    P = hull(TETRA_POINTS)
    shifted = hull([(x + 10, y, z) for x, y, z in TETRA_POINTS])
    with pytest.raises(EmptyIntersection):
        intersect(P, shifted)


def test_section_square():
    O = hull(OCTA_POINTS)
    S = section(O, (0, 0, 1), 0)
    assert S.dim == 2
    assert set(S.vertices) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}


def test_section_edge():
    T = hull(TETRA_POINTS)
    S = section(T, (0, 0, 1), 1)
    assert S.dim == 1
    assert set(S.vertices) == {(1, 1, 1), (-1, -1, 1)}


def test_section_empty():
    O = hull(OCTA_POINTS)
    with pytest.raises(EmptySection):
        section(O, (0, 0, 1), 2)


def test_clip():
    O = hull(OCTA_POINTS)
    C = polytopes.clip(O, (0, 0, 1), 0)
    assert C.dim == 3
    assert (0, 0, -1) in C.vertices
    assert (0, 0, 1) not in C.vertices
    assert len(C.vertices) == 5


def test_set_operations_take_only_exact_input():
    O = hull(OCTA_POINTS)
    with pytest.raises(ValueError):
        polytopes.clip(O, (0.0, 0, 1), 0)
    with pytest.raises(ValueError):
        section(O, (0, 0, 1), 0.5)
    assert section(O, (0, 0, 1), Fraction(1, 2)).dim == 2


def test_float_hull_simplex_cloud():
    rng = np.random.default_rng(0)
    # Random points inside the octahedron plus its exact vertices.
    w = rng.dirichlet(np.ones(6), size=500)
    cloud = w @ np.array(OCTA_POINTS, dtype=float) * 0.9
    pts = np.vstack([cloud, np.array(OCTA_POINTS, dtype=float)])
    P = hull(pts)
    Q = hull(OCTA_POINTS)
    assert P.dim == 3
    assert P.vertices == Q.vertices and P.facets == Q.facets


def test_float_hull_degenerate_dims():
    seg = hull(np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 0, 0]]))
    assert seg.dim == 1
    flat = hull(
        np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0.1, 0.1, 0]])
    )
    assert flat.dim == 2
    assert len(flat.vertices) == 4


def test_hull_scales_mixed_denominators_exactly():
    # Coprime denominators 3, 7, 11, a subnormal on the facet z = 0, a
    # 2**1000 spike and a 2**-30 interior point share one denominator.
    pts = [(0, 0, 0), (Fraction(1, 3), 0, 0), (0, Fraction(1, 7), 0), (0, 0, Fraction(1, 11)),
           (5e-324, 5e-324, 0), (-2.0 ** 1000, 0, 0), (Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)),
           (Fraction(1, 21), Fraction(1, 33), 2.0 ** -30)]
    P = hull(pts)
    exact = [tuple(map(Fraction, p)) for p in pts]
    assert facet_set(P) == brute_force_facets(pts)
    assert P.vertices == tuple(sorted(exact[k] for k in (1, 2, 3, 5, 6)))


def test_facet_normals_beyond_the_float_range_sort_and_export():
    # A subnormal next to 2**1000 gives primitive normals of about 2**2083:
    # the facets sort on exact keys and the float exports scale the normals
    # by a power of two before converting them.
    pts = [(0, 0, 0), (Fraction(1, 3), 0, 0), (0, Fraction(1, 7), 0), (0, 0, Fraction(1, 11)),
           (5e-324, 5e-324, 5e-324), (2.0 ** 1000, Fraction(1, 3), Fraction(-1, 7)),
           (-1, Fraction(2, 11), 5e-324), (Fraction(1, 21), Fraction(1, 33), Fraction(1, 77)),
           (0.5, -2.0 ** 1000, 1)]
    P = hull(pts)
    assert facet_set(P) == brute_force_facets(pts)
    assert max(abs(c) for f in P.facets for c in f.normal) > 2 ** 1024
    assert [f.normal for f in P.facets] == sorted(f.normal for f in P.facets)
    assert len(polytopes.polytope_to_json(P)["facets"]) == len(P.facets)
    assert polytopes.to_off(P).splitlines()[2] == f"{len(P.vertices)} {len(P.facets)} 0"
    v = polytopes.violations_many(P, np.array(pts, dtype=float))
    assert np.all(np.isfinite(v)) and np.all(v <= 1e-9)


def test_numpy_integers_are_taken_as_python_ints():
    # np.int64 arithmetic would wrap at 2**63.
    big = np.array([(2**62, 0, 0), (0, 2**62, 0), (0, 0, 2**62), (0, 0, 0)], dtype=np.int64)
    assert hull(big) == hull(big.tolist())
    assert not contains(hull(TETRA_POINTS), (np.int64(2**62), np.int64(2**62), np.int64(0)))


def test_hull_takes_numpy_floats_of_every_width_exactly():
    corners = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
    assert hull(corners.astype(np.float32)) == hull(corners)
    pts = np.random.default_rng(1).standard_normal((40, 3)).astype(np.float32)
    assert hull(pts) == hull(pts.astype(np.float64))
    assert hull(pts.astype(np.float16)) == hull(pts.astype(np.float16).astype(np.float64))
    assert hull([(np.float32(0.5), 0, 0), (0, 1, 0)]) == hull([(0.5, 0, 0), (0, 1, 0)])
    third = np.longdouble(1) / 3
    assert hull([(third, 0, 0)]).vertices == ((Fraction(*third.as_integer_ratio()), 0, 0),)


def test_contains_at_tol_zero_takes_floats_at_their_binary_values():
    # The binary point of (0.1, 1.1, -1.3) lies outside the generic moment
    # polytope by a hair that a float violation does not see.
    P = moment.moment_polytope((1, 0.5, 2))
    point = (0.1, 1.1, -1.3)
    assert not contains(P, tuple(Fraction(c) for c in point))
    assert not contains(P, point)
    assert not contains(P, np.array(point))
    for bad in [(float("nan"), 0, 0), (0, float("inf"), 0), (0, 0, -np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            contains(P, bad)


def test_violations_many_matches_scalar():
    P = hull(TETRA_POINTS)
    pts = np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2], [-1, -1, -1]])
    v = polytopes.violations_many(P, pts)
    for k, p in enumerate(pts):
        # Reference: the exact slack of each facet, scaled by |normal|.
        q = tuple(Fraction(c) for c in p)
        exact = max(float(polytopes._dot(f.normal, q) - f.offset) / np.linalg.norm(f.normal)
                    for f in P.facets)
        assert abs(v[k] - exact) <= 1e-12
        assert polytopes.violation(P, tuple(p)) == v[k]
    assert v[0] < 0 and abs(v[1]) <= 1e-15 and v[2] > 0


def test_off_export():
    P = hull(TETRA_POINTS)
    text = polytopes.to_off(P)
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1].startswith("#")
    counts = lines[2].split()
    assert counts[0] == "4" and counts[1] == "4"
    # Faces index valid vertices and close up into triangles.
    for face_line in lines[7:]:
        parts = [int(x) for x in face_line.split()]
        assert parts[0] == 3
        assert all(0 <= k < 4 for k in parts[1:])


def test_off_of_a_polygon_is_one_cyclic_face():
    square = section(hull(weyl.weyl_orbit((1, 1, 2))), (0, 0, 1), 0)
    hexagon = section(hull(weyl.weyl_orbit((1, Fraction(1, 2), 2))), (1, 1, 1), 0)
    for P, nv in ((square, 4), (hexagon, 6)):
        assert P.dim == 2
        lines = polytopes.to_off(P).splitlines()
        assert lines[2] == f"{nv} 1 0"
        ring = [int(k) for k in lines[3 + nv].split()]
        assert ring[0] == nv and sorted(ring[1:]) == list(range(nv))
        # Consecutive ring vertices span an edge, and the ring turns ccw about
        # the plane's normal.
        edges = {frozenset(t) for t in P.facet_tight_vertices()}
        cyc = ring[1:] + ring[1:2]
        assert {frozenset(e) for e in zip(cyc, cyc[1:])} == edges
        a, b, c = (P.vertices[k] for k in ring[1:4])
        turn = polytopes._cross(polytopes._sub(b, a), polytopes._sub(c, b))
        assert polytopes._dot(turn, P.equalities[0].normal) > 0


def test_off_rings_of_a_huge_polytope_match_its_unit_copy():
    # Float coordinates near 2**600 square past the float maximum; the rings
    # are ordered on the integer vertices, which no scale changes.
    lam = (1, Fraction(1, 2), 2)
    unit = polytopes.to_off(hull(weyl.weyl_orbit(lam)))
    big = polytopes.to_off(hull(weyl.weyl_orbit(tuple(2 ** 600 * c for c in lam))))
    rings = len(weyl.weyl_orbit(lam)) + 3
    assert big.splitlines()[rings:] == unit.splitlines()[rings:]


def float_facet_rings(P):
    """Reference: the float ring order `to_off` used before its rings came
    from the exact monotone chain.  Vertices are scaled by a power of two near
    1/max|coordinate| and normals by `_float_normal`, and each face is sorted
    by the atan2 angle about its centroid from its lowest tight vertex."""
    top = max(abs(c) for v in P.vertices for c in v)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
    verts = np.array([[float(c * scale) for c in v] for v in P.vertices])
    if P.dim == 2:
        faces = [(P.equalities[0].normal, range(len(P.vertices)))]
    else:
        faces = zip((f.normal for f in P.facets), P.facet_tight_vertices())
    rings = []
    for normal, tight in faces:
        pts = verts[list(tight)]
        center = np.mean(pts, axis=0)
        n, _ = polytopes._float_normal(normal)
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


def chamber_sweep(count, seed):
    """count chamber points z >= x >= |y| with mixed denominators, on and off
    the walls, led by the two generic points whose float rings started at
    different vertices on faces with a vertex opposite the first."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 4, 6, 8, 12, 72)))

    out = [(1, Fraction(1, 2), 2), (Fraction(5, 6), Fraction(35, 72), 2)]
    while len(out) < count:
        a, b, c = sorted((q(), q(), q()))
        out.append((b, rng.choice((a, -a, 0, b, -b)), rng.choice((c, c, b))))
    return out


@functools.cache
def ring_polytopes():
    """(name, polytope) of every polygon and 3-polytope of the exact-layer
    golden and of a seeded sweep of 240 chamber points."""
    out = [(name, P) for name, P in exact_layer_polytopes().items() if P.dim >= 2]
    out += [(f"moment {lam}", moment.moment_polytope(lam)) for lam in chamber_sweep(240, 23)]
    return out


def off_rings(P):
    """The face rings of P's OFF export, as tuples of vertex indices."""
    rings = []
    for line in polytopes.to_off(P).splitlines()[3 + len(P.vertices):]:
        count, *ring = map(int, line.split())
        assert count == len(ring)
        rings.append(tuple(ring))
    return rings


def test_off_rings_are_rotations_of_the_float_rings():
    for name, P in ring_polytopes():
        rings, reference = off_rings(P), float_facet_rings(P)
        assert len(rings) == len(reference), name
        for ring, ref in zip(rings, reference):
            assert ring in [ref[k:] + ref[:k] for k in range(len(ref))], name


def test_off_rings_run_ccw_round_their_face_from_its_lowest_vertex():
    for name, P in ring_polytopes():
        if P.dim == 2:
            faces = [(P.equalities[0].normal, tuple(range(len(P.vertices))))]
        else:
            faces = list(zip((f.normal for f in P.facets), P.facet_tight_vertices()))
        rings = off_rings(P)
        assert len(rings) == len(faces), name
        for ring, (normal, tight) in zip(rings, faces):
            assert sorted(ring) == list(tight) and ring[0] == min(ring), name
            # Every other vertex lies strictly left of each edge, so every
            # consecutive triple turns ccw about the outward normal and the
            # ring goes once round the face.
            for a, b in zip(ring, ring[1:] + ring[:1]):
                A, B = P.vertices[a], P.vertices[b]
                for c in ring:
                    if c not in (a, b):
                        turn = polytopes._cross(polytopes._sub(B, A),
                                                polytopes._sub(P.vertices[c], A))
                        assert polytopes._dot(turn, normal) > 0, name


def test_facets_json_shape():
    P = hull(OCTA_POINTS)
    data = polytopes.polytope_to_json(P)
    assert data["dim"] == 3
    assert len(data["facets"]) == 8
    for f in data["facets"]:
        assert set(f) == {"normal", "offset", "sense"}
        assert f["sense"] == "le"
        assert f["offset"] == 1


# ---------------------------------------------------------------------------
# Properties of the exact hull and the set operations
# ---------------------------------------------------------------------------

# Small integers put many points on shared edges and planes.
COORD = st.integers(-2, 2) | st.fractions(min_value=-3, max_value=3, max_denominator=3)
POINT = st.tuples(COORD, COORD, COORD)
NORMAL = st.tuples(*[st.integers(-2, 2)] * 3).filter(lambda n: n != (0, 0, 0))
OFFSET = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def solid(points):
    """The hull of points, or None when it is not 3-dimensional."""
    P = hull(points)
    return P if P.dim == 3 else None


@settings(deadline=None, max_examples=60)
@given(st.lists(POINT, min_size=1, max_size=10), st.data())
def test_hull_ignores_order_and_duplicates(points, data):
    P = hull(points)
    shuffled = data.draw(st.permutations(points))
    assert hull(shuffled + points[::2]) == P
    assert hull(P.vertices) == P
    # Midpoints of vertex pairs, often on an edge, add nothing.
    mids = [tuple((a + b) / 2 for a, b in zip(u, v))
            for u, v in zip(P.vertices, P.vertices[1:])]
    assert hull(list(P.vertices) + mids) == P
    assert all(contains(P, p) for p in points)
    # Every vertex is extreme: the other vertices' hull misses it.
    if len(P.vertices) > 1:
        assert not any(contains(hull([w for w in P.vertices if w != v]), v)
                       for v in P.vertices)


@settings(deadline=None, max_examples=40)
@given(st.lists(POINT, min_size=4, max_size=8).map(solid).filter(bool), NORMAL, OFFSET)
def test_clip_and_section_agree_with_contains(P, normal, offset):
    side = [polytopes._dot(normal, v) - offset for v in P.vertices]
    try:
        C = clip(P, normal, offset)
    except EmptyIntersection:
        assert min(side) > 0
    else:
        assert all(contains(P, v) and polytopes._dot(normal, v) <= offset for v in C.vertices)
        assert all(contains(C, v) for v, s in zip(P.vertices, side) if s <= 0)
    try:
        S = section(P, normal, offset)
    except EmptySection:
        assert min(side) > 0 or max(side) < 0
    else:
        assert all(contains(P, v) and polytopes._dot(normal, v) == offset for v in S.vertices)


@settings(deadline=None, max_examples=25)
@given(st.lists(POINT, min_size=4, max_size=6).map(solid).filter(bool),
       st.lists(POINT, min_size=4, max_size=6).map(solid).filter(bool))
def test_intersect_is_commutative_and_inside_both(P, Q):
    try:
        both = intersect(P, Q)
    except EmptyIntersection:
        with pytest.raises(EmptyIntersection):
            intersect(Q, P)
        return
    assert intersect(Q, P) == both
    assert all(contains(P, v) and contains(Q, v) for v in both.vertices)


@pytest.mark.parametrize("bad", [(float("nan"), 0, 0), (float("inf"), 0, 0),
                                 (0, -np.inf, 0), (0, 0, np.float32("nan"))])
def test_non_finite_coordinates_raise_value_error(bad, recwarn):
    P = moment.moment_polytope((1, 0.5, 2))
    with pytest.raises(ValueError, match="finite"):
        hull([bad, (0, 1, 0)])
    for tol in (0.0, 1e-9):
        with pytest.raises(ValueError, match="finite"):
            contains(P, bad, tol)
    with pytest.raises(ValueError, match="finite"):
        polytopes.violation(P, bad)
    assert not recwarn.list


def test_violations_many_reads_non_finite_rows_as_outside():
    P = moment.moment_polytope((1, 0.5, 2))
    with np.errstate(invalid="ignore"):
        v = polytopes.violations_many(P, [(0, 0, 0), (np.nan, 0, 0), (np.inf, 0, 0), (0, -np.inf, 0)])
    assert v[0] <= 0
    assert not np.any(v[1:] <= 1e-9)
    assert np.isnan(np.max(v)) or np.max(v) == np.inf
