"""Weyl group realisation: closure, orbits, chamber reduction, parabolics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbitkit import moment, weyl
from orbitkit.errors import BadIndex


def perm_to_element(perm):
    """Push an index permutation of the weight quadruples through the
    diagonal basis; independent construction of group elements."""
    basis = (
        (-1, -1, 1, 1),
        (-1, 1, -1, 1),
        (-1, 1, 1, -1),
    )
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            permuted = tuple(basis[j][perm[a]] for a in range(4))
            row.append(sum(p * b for p, b in zip(permuted, basis[i])) // 4)
        rows.append(tuple(row))
    return tuple(rows)


def test_group_order_and_identity():
    G = weyl.weyl_group()
    assert len(G) == 24
    assert weyl.IDENTITY in G
    assert G[0] == weyl.IDENTITY


def test_group_closed_and_has_inverses():
    G = set(weyl.weyl_group())
    for w1 in G:
        assert weyl.inverse(w1) in G
        for w2 in G:
            assert weyl.compose(w1, w2) in G


def test_transpositions_land_in_group():
    G = set(weyl.weyl_group())
    # All 4! permutations of the quadruple slots realise the group.
    import itertools

    images = set()
    for perm in itertools.permutations(range(4)):
        el = perm_to_element(perm)
        assert el in G
        images.add(el)
    assert images == G


def test_double_transposition_gives_sign_flip():
    # Swapping slots (0,3) and (1,2) acts as diag(-1, -1, 1).
    el = perm_to_element((3, 2, 1, 0))
    assert el == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert el in set(weyl.weyl_group())


def test_group_preserves_roots():
    roots = set(weyl.ROOTS)
    for w in weyl.weyl_group():
        assert {weyl.act(w, a) for a in roots} == roots


def test_orbit_of_first_weight():
    assert set(weyl.weyl_orbit((1, 1, 1))) == {
        (1, 1, 1),
        (1, -1, -1),
        (-1, 1, -1),
        (-1, -1, 1),
    }


def test_orbit_of_origin():
    assert weyl.weyl_orbit((0, 0, 0)) == ((0, 0, 0),)


def test_orbit_of_second_weight_is_signed_units():
    expected = set()
    for w in weyl.weyl_group():
        expected.add(weyl.act(w, (0, 0, 1)))
    assert len(expected) == 6
    assert set(weyl.weyl_orbit((0, 0, 1))) == expected
    assert expected == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    }


def stabilizer_size(p, tol=1e-12):
    return sum(
        1
        for w in weyl.weyl_group()
        if max(abs(a - b) for a, b in zip(weyl.act(w, p), p)) <= tol
    )


@pytest.mark.parametrize(
    "point",
    [(1, 1, 1), (0, 0, 1), (1, -1, 1), (1, 1, 2), (1, 0.5, 2), (0, 0, 0), (1, 0, 1)],
)
def test_orbit_sizes_match_stabilizers(point):
    orbit = weyl.weyl_orbit(point)
    assert len(orbit) * stabilizer_size(point) == 24
    assert len(orbit) in {1, 4, 6, 12, 24}


def test_to_chamber_examples():
    q, w = weyl.to_chamber((1, 0, 0))
    assert q == (0, 0, 1)
    assert weyl.act(w, (1, 0, 0)) == q

    q, _ = weyl.to_chamber((-1, -1, -1))
    assert q == (1, -1, 1)

    q, w = weyl.to_chamber((1, 0.5, 2))
    assert q == (1, 0.5, 2)
    assert w == weyl.IDENTITY


def test_to_chamber_invariant_under_group():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = tuple(rng.standard_normal(3))
        q0, _ = weyl.to_chamber(p)
        x, y, z = q0
        assert z >= x >= abs(y)
        for w in weyl.weyl_group():
            q, _ = weyl.to_chamber(weyl.act(w, p))
            assert max(abs(a - b) for a, b in zip(q, q0)) <= 1e-10


def test_parabolic_orders():
    assert len(weyl.parabolic(1)) == 6
    assert len(weyl.parabolic(2)) == 4
    assert len(weyl.parabolic(3)) == 6


def test_parabolic_two_generated_by_expected_reflections():
    gens = [weyl.reflection((1, 1, 0)), weyl.reflection((1, -1, 0))]
    group = {weyl.IDENTITY}
    frontier = [weyl.IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                h = weyl.compose(g, w)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    assert set(weyl.parabolic(2)) == group


def test_parabolic_fixes_weight():
    for i in (1, 2, 3):
        nu = weyl.FUNDAMENTAL_WEIGHTS[i]
        for w in weyl.parabolic(i):
            assert weyl.act(w, nu) == nu


def test_parabolic_bad_index():
    with pytest.raises(BadIndex):
        weyl.parabolic(4)


def test_singular_classes_pick_the_first_element_of_each_class():
    expected = []
    seen = set()
    for i in (1, 2, 3):
        for w in weyl.weyl_group():
            key = (i, weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]))
            if key not in seen:
                seen.add(key)
                expected.append((i, w))
    classes = weyl.singular_classes()
    assert classes == tuple(expected)
    assert len(classes) == 14
    assert [i for i, _ in classes] == sorted(i for i, _ in classes)
    images = [weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]) for i, w in classes]
    assert len(set(images)) == 14
    group = weyl.weyl_group()
    for (i, w), image in zip(classes, images):
        earlier = group[:group.index(w)]
        assert all(weyl.act(u, weyl.FUNDAMENTAL_WEIGHTS[i]) != image for u in earlier)
    assert np.array_equal(np.array(sorted(images), dtype=float), moment._NORMALS)


def test_orbit_near_a_wall_keeps_every_image():
    # 1e-13 off the F1 wall in float and in Fraction: 24 distinct images,
    # and the 6 vertices of a hexagon face, none merged.
    for lam in ((1.0, 1.0 + 1e-13, 2.0), (1, Fraction(10**13 + 1, 10**13), 2)):
        assert len(weyl.weyl_orbit(lam)) == 24
        assert len(weyl.singular_vertex_set(lam, weyl.IDENTITY, 1)) == 6


def test_singular_vertex_set_examples():
    nu1 = (1, 1, 1)
    assert weyl.singular_vertex_set(nu1, weyl.IDENTITY, 1) == (nu1,)
    assert set(weyl.singular_vertex_set(nu1, weyl.IDENTITY, 2)) == {
        (1, 1, 1),
        (-1, -1, 1),
    }
    hexagon = weyl.singular_vertex_set((1, 0.5, 2), weyl.IDENTITY, 1)
    assert len(hexagon) == 6


def test_singular_vertex_sets_coplanar_with_moved_weight():
    lam = (1, 0.5, 2)
    for i in (1, 2, 3):
        nu = weyl.FUNDAMENTAL_WEIGHTS[i]
        for w in weyl.weyl_group():
            normal = weyl.act(w, nu)
            pts = weyl.singular_vertex_set(lam, w, i)
            base = weyl.act(w, lam)
            level = sum(a * b for a, b in zip(base, normal))
            for p in pts:
                assert abs(sum(a * b for a, b in zip(p, normal)) - level) <= 1e-12


def test_singular_vertex_set_is_orbit_cap():
    lam = (1, 0.5, 2)
    orbit = weyl.weyl_orbit(lam)
    for i in (1, 2, 3):
        nu = weyl.FUNDAMENTAL_WEIGHTS[i]
        for w in weyl.weyl_group():
            normal = weyl.act(w, nu)
            base = weyl.act(w, lam)
            level = sum(a * b for a, b in zip(base, normal))
            on_plane = {
                p
                for p in orbit
                if abs(sum(a * b for a, b in zip(p, normal)) - level) <= 1e-12
            }
            assert set(weyl.singular_vertex_set(lam, w, i)) == on_plane


def test_element_json_round_trip():
    for w in weyl.weyl_group():
        data = weyl.element_to_json(w)
        assert len(data) == 9
        assert tuple(tuple(data[3 * i:3 * i + 3]) for i in range(3)) == w


def _formula_act(w, p):
    """Reference: the matrix product w p, summed entry by entry in exact
    arithmetic (a float becomes the Fraction of its value)."""
    p = tuple(Fraction(c) for c in p)
    return tuple(w[i][0] * p[0] + w[i][1] * p[1] + w[i][2] * p[2] for i in range(3))


@pytest.mark.parametrize("p", [
    (1, 2, 3), (0, 0, 1), (1, -1, 1), (-4, 0, 7),
    (Fraction(1, 3), Fraction(-2), Fraction(0)), (Fraction(5, 7), Fraction(1, 2), Fraction(-9, 4)),
    (1.0, 0.5, 2.0), (0.0, -0.0, 1.5), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (-1e-300, 3.25, -0.0),
    (np.float64(-0.0), np.float64(2.0), np.float64(0.1)),
    (1, Fraction(1, 2), 2), (1, 0.5, 2), (Fraction(1, 3), 0.25, -0.0), (0.0, -1.0, -2.0),
])
def test_act_is_the_matrix_product_bit_for_bit(p):
    # Equal to w p; row i moves the one coordinate p[j] it reads, keeping its
    # type, and writes a zero image as +0 whatever sign w p's sum would give.
    for w in weyl.weyl_group():
        image = weyl.act(w, p)
        assert image == _formula_act(w, p)
        for i, c in enumerate(image):
            j = next(j for j in range(3) if w[i][j])
            assert type(c) is type(p[j])
            if c == 0:
                assert math.copysign(1.0, c) == 1.0


def test_act_outside_the_group_raises():
    for w in (((1, 0, 0), (0, 1, 0), (0, 0, -1)), ((2, 1, 0), (0, 1, 0), (0, 0, 1)),
              ((1, 0, 0), (0, 1, 0))):
        for p in ((1, 2, 3), (0.5, -0.0, 2.0), (Fraction(1, 3), Fraction(2), Fraction(-1))):
            with pytest.raises(ValueError):
                weyl.act(w, p)
