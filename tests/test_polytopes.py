"""Hull computation against a brute-force facet oracle, plus set operations."""

import functools
import itertools
import json
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
from test_golden import ORBIT_TYPE_LAMBDAS, exact_layer_polytopes


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


def test_section_by_a_zero_normal_raises_value_error():
    # The zero normal's plane 0 . p = 0 holds everywhere: it returned P, dim 3.
    with pytest.raises(ValueError, match="nonzero 3-vector"):
        section(hull(OCTA_POINTS), (0, 0, 0), 0)


def test_clip_by_a_zero_normal_raises_value_error():
    # 0 . p <= -1 holds nowhere: it raised EmptyIntersection.
    with pytest.raises(ValueError, match="nonzero 3-vector"):
        clip(hull(OCTA_POINTS), (0, 0, 0), -1)


def test_normals_of_other_lengths_raise_value_error():
    # The 4th component was dropped, the cut taken by (1, 0, 0).
    O = hull(OCTA_POINTS)
    for normal in ((1, 0, 0, 7), (1, 0), ()):
        with pytest.raises(ValueError, match="nonzero 3-vector"):
            clip(O, normal, 0)
        with pytest.raises(ValueError, match="nonzero 3-vector"):
            section(O, normal, 0)


def test_points_of_other_lengths_raise_value_error():
    # The coordinates were read as one flat list in threes: this hull had
    # vertices such as (4, 0, 0) and (0, 9, 1), none of them an input point.
    with pytest.raises(ValueError, match="3 coordinates"):
        hull([(1, 2, 3, 4), (0, 0, 0, 9), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(ValueError, match="3 coordinates"):
        hull([(0.5, 1.0), (1.0, 2.0, 0.0)])
    P = moment.moment_polytope((1, Fraction(1, 2), 2))
    for tol in (0.0, 1e-9):
        # contains read the first three coordinates and answered True.
        with pytest.raises(ValueError, match="3 coordinates"):
            contains(P, (0, 0, 0, 5), tol)
        with pytest.raises(ValueError, match="3 coordinates"):
            contains(P, (0, 0), tol)


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


# ---------------------------------------------------------------------------
# The one-pass hull and the writers against their earlier forms
# ---------------------------------------------------------------------------

def reference_hull3(pts, basis, d):
    """Reference: the 3-dimensional hull before it read its vertices off the
    triangulation.  Visible and hidden faces are two list scans, each normal
    is reduced by `_primitive`, and a point is a vertex when three of the
    planes tight on it are independent."""
    order = basis + [k for k in range(len(pts)) if k not in basis]
    inside = tuple(sum(pts[k][i] for k in basis) for i in range(3))

    def make_face(ia, ib, ic):
        a, b, c = pts[ia], pts[ib], pts[ic]
        n = polytopes._cross(polytopes._sub(b, a), polytopes._sub(c, a))
        off = polytopes._dot(n, a)
        if polytopes._dot(n, inside) > 4 * off:
            n, off = polytopes._neg(n), -off
            ia, ib = ib, ia
        return (ia, ib, ic, n, off)

    faces = [make_face(*tri) for tri in itertools.combinations(order[:4], 3)]
    for ip in order[4:]:
        p = pts[ip]
        visible = [f for f in faces if polytopes._dot(f[3], p) > f[4]]
        if not visible:
            continue
        hidden = [f for f in faces if polytopes._dot(f[3], p) <= f[4]]
        edges = {}
        for f in visible:
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                if (b, a) in edges:
                    del edges[(b, a)]
                else:
                    edges[(a, b)] = True
        faces = hidden + [make_face(a, b, ip) for a, b in edges]

    planes = set()
    for f in faces:
        n = polytopes._primitive(f[3])
        planes.add((n, polytopes._dot(n, pts[f[0]])))

    def is_vertex(p):
        tight = [n for n, off in planes if polytopes._dot(n, p) == off]
        return any(polytopes._independent(c) for c in itertools.combinations(tight, 3))

    vertices = [polytopes._rational(p, d) for p in pts if is_vertex(p)]
    facets = [polytopes.Facet(n, Fraction(off, d)) for n, off in planes]
    return polytopes.Polytope(3, tuple(vertices), polytopes._sort_facets(facets), ())


def reference_hull(points):
    """`reference_hull3` of the points as `_hull_exact` scales them, or None
    when their hull is not 3-dimensional."""
    ints, d = polytopes._scaled(c for p in points for c in p)
    pts = sorted(set(zip(ints[0::3], ints[1::3], ints[2::3])))
    basis = polytopes._affine_basis_exact(pts)
    return reference_hull3(pts, basis, d) if len(basis) == 4 else None


def orbit_point_sets():
    """The Weyl orbit of every CHAMBER_GRID tie pattern with exact and with
    float coordinates, and of its chamber point 1e-13 off each wall, in
    float and in Fraction; once per distinct chamber point, as equal points
    have one orbit."""
    from test_weyl import CHAMBER_GRID

    chamber = {}
    for p in itertools.product(CHAMBER_GRID, repeat=3):
        for lam in (tuple(map(Fraction, p)), tuple(map(float, p))):
            q = weyl.to_chamber(lam)[0]
            chamber.setdefault(q, q)
    lams = dict(chamber)
    for q in chamber:
        for eps in (1e-13, Fraction(1, 10 ** 13)):
            x, y, z = (type(eps)(c) for c in q)
            for lam in ((x, y + eps, z), (x, y - eps, z), (x, y, z + eps)):
                lams.setdefault(lam, lam)
    return [weyl.weyl_orbit(lam) for lam in lams.values()]


def test_hull_of_every_tie_pattern_orbit_is_the_reference_hull():
    count = 0
    for orbit in orbit_point_sets():
        want = reference_hull(orbit)
        assert want is None or hull(orbit) == want, orbit
        count += want is not None
    assert count > 100


@st.composite
def cluttered_points(draw):
    """Rational or float points with duplicates, points on the lines and
    inside the triangles of others (so on edges and facets, or collinear and
    coplanar with them), scaled to 1, 2**-1074 or 2**1000."""
    # Built from integers: hypothesis draws st.fractions slowly.
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))) | st.floats(-3, 3)
    base = [tuple(map(Fraction, p))
            for p in draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=10))]
    pick = st.sampled_from(base)
    weight = st.builds(Fraction, st.integers(-4, 8), st.just(4))
    extra = []
    for kind in draw(st.lists(st.sampled_from(("duplicate", "line", "plane")), max_size=8)):
        u, v, w = draw(pick), draw(pick), draw(pick)
        s, t = draw(weight), draw(weight)
        if kind == "duplicate":
            extra.append(u)
        elif kind == "line":
            extra.append(tuple(a + s * (b - a) for a, b in zip(u, v)))
        else:
            extra.append(tuple(a + s * (b - a) + t * (c - a) for a, b, c in zip(u, v, w)))
    scale = draw(st.sampled_from((1, Fraction(2) ** -1074, Fraction(2) ** 1000)))
    pts = [tuple(c * scale for c in p) for p in base + extra]
    return [tuple(map(float, p)) for p in pts] if draw(st.booleans()) else pts


@settings(deadline=None, max_examples=200)
@given(cluttered_points())
def test_hull_is_the_reference_hull(points):
    want = reference_hull(points)
    if want is not None:
        assert hull(points) == want


def reference_facet_tight_vertices(P):
    ints, d = polytopes._scaled(c for v in P.vertices for c in v)
    pts = list(zip(ints[0::3], ints[1::3], ints[2::3]))
    return [tuple(k for k, p in enumerate(pts) if polytopes._dot(f.normal, p) == off)
            for f in P.facets for off in [f.offset * d]]


def reference_to_off(P):
    """Reference: `to_off` when its face rings rescaled the vertices through
    `facet_tight_vertices`."""
    ints, denom = polytopes._scaled(c for v in P.vertices for c in v)
    pts = list(zip(ints[0::3], ints[1::3], ints[2::3]))
    rings = []
    if P.dim >= 2:
        if P.dim == 2:
            faces = [(P.equalities[0].normal, range(len(pts)))]
        else:
            faces = zip((f.normal for f in P.facets), reference_facet_tight_vertices(P))
        index = {p: k for k, p in enumerate(pts)}
        for normal, tight in faces:
            ring = [index[p] for p in polytopes._polygon([pts[k] for k in tight], normal)]
            low = ring.index(min(ring))
            rings.append(tuple(ring[low:] + ring[:low]))
    lines = ["OFF", f"# rational vertices scaled by common denominator {denom}",
             f"{len(P.vertices)} {len(rings)} 0"]
    lines += [" ".join(map(str, p)) for p in pts]
    lines += [" ".join(map(str, (len(ring),) + ring)) for ring in rings]
    return "\n".join(lines) + "\n"


def reference_json_number(x):
    p, q = Fraction(x).as_integer_ratio()
    if q == 1:
        return p
    exact = p.bit_length() <= 53 and (p / q).as_integer_ratio() == (p, q)
    return p / q if exact else f"{p}/{q}"


def reference_polytope_to_json(P):
    def facet(f):
        return {"normal": [reference_json_number(c) for c in f.normal],
                "offset": reference_json_number(f.offset), "sense": "le"}

    return {
        "dim": P.dim,
        "exact": True,
        "vertices": [[reference_json_number(c) for c in v] for v in P.vertices],
        "facets": [facet(f) for f in P.facets],
        "equalities": [facet(f) for f in P.equalities],
    }


def writer_polytopes():
    """Every orbit type, singular-value, clip, section, intersect and random
    polytope of the exact-layer golden, the cut polytopes of the other orbit
    types, and hulls at 2**600 and with normals past the float range."""
    out = list(exact_layer_polytopes().values())
    for name, lam in ORBIT_TYPE_LAMBDAS.items():
        P = moment.moment_polytope(lam)
        if P.dim == 3:
            out += [clip(P, (1, 1, 1), 0), section(P, (1, 1, 1), 0),
                    section(P, (0, 0, 1), Fraction(1, 3))]
            out.append(intersect(P, moment.moment_polytope((1, Fraction(1, 2), 2))))
    out.append(hull(weyl.weyl_orbit((2 ** 600, 2 ** 599, 2 ** 601))))
    out.append(hull([(0, 0, 0), (Fraction(1, 3), 0, 0), (0, Fraction(1, 7), 0), (0, 0, Fraction(1, 11)),
                     (5e-324, 5e-324, 5e-324), (2.0 ** 1000, Fraction(1, 3), Fraction(-1, 7)),
                     (-1, Fraction(2, 11), 5e-324), (0.5, -2.0 ** 1000, 1)]))
    return out


def test_writers_are_byte_identical_to_the_reference_writers():
    for P in writer_polytopes():
        assert polytopes.to_off(P) == reference_to_off(P)
        assert (json.dumps(polytopes.polytope_to_json(P), indent=2)
                == json.dumps(reference_polytope_to_json(P), indent=2))
        if P.dim == 3:
            assert P.facet_tight_vertices() == reference_facet_tight_vertices(P)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_numpy_integer_normals_cut_as_int_normals(dtype):
    small = moment.moment_polytope((1, Fraction(1, 2), 2))
    huge = moment.moment_polytope((10 ** 20, 5 * 10 ** 19, 2 * 10 ** 20))
    for P, offset in ((small, Fraction(1, 3)), (huge, 3 * 10 ** 19)):
        for normal in ((0, 0, 1), (1, -1, 1)):
            typed = tuple(dtype(c) for c in normal)
            assert clip(P, typed, offset) == clip(P, normal, offset)
            assert section(P, typed, offset) == section(P, normal, offset)
            assert clip(P, normal, dtype(1)) == clip(P, normal, 1)
    # A rational normal cuts as the integer normal of the same halfspace.
    assert clip(small, (Fraction(1, 2), 0, 0), Fraction(1, 4)) == clip(small, (1, 0, 0), Fraction(1, 2))


# ---------------------------------------------------------------------------
# The polar-hull cut against the three-plane scan it replaced
# ---------------------------------------------------------------------------

def reference_meet(f, g, h):
    """Reference: the three-plane solve `_meet` that the set operations used
    before they read their vertices off the polar hull.

    Where the planes n . p = d of three (normal, integer offset) pairs
    meet: the integer triple x = d_f (n_g x n_h) + d_g (n_h x n_f) +
    d_h (n_f x n_g) and det = |n_f . (n_g x n_h)| > 0, with the point at
    x / det; None when that determinant is 0."""
    (nf, df), (ng, dg), (nh, dh) = f, g, h
    gh, hf, fg = polytopes._cross(ng, nh), polytopes._cross(nh, nf), polytopes._cross(nf, ng)
    det = polytopes._dot(nf, gh)
    if det == 0:
        return None
    x = tuple(df * a + dg * b + dh * c for a, b, c in zip(gh, hf, fg))
    return (x, det) if det > 0 else (polytopes._neg(x), -det)


def reference_feasible_vertices(facets):
    """Reference: `_feasible_vertices`, the vertices of `clip`, `section`
    and `intersect` before `_cut`.

    The set of points where three facet planes meet and no facet is
    violated; the offsets are scaled once to integers over their common
    denominator e, so a meet x / det lies at x / (det e)."""
    offsets, e = polytopes._scaled(f.offset for f in facets)
    planes = list(zip((f.normal for f in facets), offsets))
    found = set()
    for f, g, h in itertools.combinations(planes, 3):
        m = reference_meet(f, g, h)
        if m is None:
            continue
        x, det = m
        if all(polytopes._dot(n, x) <= off * det for n, off in planes):
            found.add(polytopes._rational(x, det * e))
    return found


def reference_cut(P, halfspaces, empty):
    verts = reference_feasible_vertices(list(P.facets) + halfspaces)
    if not verts:
        raise empty("reference cut is empty")
    return polytopes._hull_exact(verts)


def reference_clip(P, normal, offset):
    return reference_cut(P, [polytopes._exact_halfspace(normal, offset)], EmptyIntersection)


def reference_section(P, normal, offset):
    plane = polytopes._exact_halfspace(normal, offset)
    flipped = polytopes.Facet(polytopes._neg(plane.normal), -plane.offset)
    return reference_cut(P, [plane, flipped], EmptySection)


def reference_intersect(P, Q):
    return reference_cut(P, list(Q.facets), EmptyIntersection)


def outcome(op, *args):
    """The Polytope an operation returns, or the type of what it raises."""
    try:
        return op(*args)
    except (EmptyIntersection, EmptySection) as exc:
        return type(exc)


CUT_POLYTOPES = [moment.moment_polytope(lam) for lam in
                 ((1, Fraction(1, 2), 2), (0, 0, 1), (1, 1, 1), (1, -1, 1), (1, 0, 1))]
SOLIDS = st.sampled_from(CUT_POLYTOPES) | st.lists(POINT, min_size=4, max_size=8).map(solid).filter(bool)
SCALES = st.sampled_from((1, Fraction(2) ** -1000, Fraction(2) ** 1000))


def scaled(P, scale):
    return hull([tuple(c * scale for c in v) for v in P.vertices])


@st.composite
def cuts(draw):
    """A solid of small rational points or a moment polytope, scaled by 1,
    2**-1000 or 2**1000, a normal, and an offset at a vertex value, half way
    between two or beyond every vertex: cuts that touch a vertex, an edge or
    a facet, lower-dimensional sections and empty cuts."""
    scale = draw(SCALES)
    P = scaled(draw(SOLIDS), scale)
    normal = draw(NORMAL)
    values = sorted({polytopes._dot(normal, v) for v in P.vertices})
    a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
    offset = draw(st.sampled_from((a, (a + b) / 2, values[0] - scale, values[-1] + scale)))
    return P, normal, offset


@settings(deadline=None, max_examples=150)
@given(cuts())
def test_clip_and_section_are_the_three_plane_reference(cut):
    assert outcome(clip, *cut) == outcome(reference_clip, *cut)
    assert outcome(section, *cut) == outcome(reference_section, *cut)


@st.composite
def intersect_pairs(draw):
    """Two polytopes at one scale: P and another solid, or P and its copy
    shifted along a facet normal until it touches that facet from outside (a
    shared face, edge or vertex) or past it (disjoint)."""
    scale = draw(SCALES)
    P = scaled(draw(SOLIDS), scale)
    kind = draw(st.sampled_from(("other", "touch", "apart")))
    if kind == "other":
        return P, scaled(draw(SOLIDS), scale)
    f = draw(st.sampled_from(P.facets))
    low = min(polytopes._dot(f.normal, v) for v in P.vertices)
    t = (f.offset - low) / polytopes._dot(f.normal, f.normal) + (kind == "apart")
    return P, hull([tuple(c + t * n for c, n in zip(v, f.normal)) for v in P.vertices])


@settings(deadline=None, max_examples=100)
@given(intersect_pairs())
def test_intersect_is_the_three_plane_reference(pair):
    P, Q = pair
    assert outcome(intersect, P, Q) == outcome(reference_intersect, P, Q)
    assert outcome(intersect, Q, P) == outcome(reference_intersect, Q, P)


def test_intersect_of_moment_polytopes_is_the_three_plane_reference():
    for P, Q in itertools.product(CUT_POLYTOPES, repeat=2):
        assert intersect(P, Q) == reference_intersect(P, Q)
