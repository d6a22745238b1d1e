"""Weyl group of so(6) acting on the Cartan 3-space.

The group is realised concretely as 3x3 signed permutation matrices with an
even number of sign flips (order 24, isomorphic to S4), enumerated directly;
it is the group generated by the reflections in the 12 roots
{(0,±1,±1), (±1,0,±1), (±1,±1,0)}.  Every element is stored as a nested
tuple of integers, so that the action on rational or floating-point points
is exact: a signed permutation only moves and negates coordinates.  Orbits
are therefore deduplicated by equality, with no tolerance, and a point near
a wall keeps all of its distinct images; `weyl_orbit` deduplicates them as
integer ranks of the signed coordinates, and refuses a NaN coordinate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations, product

from .errors import BadIndex

#: The 12 roots, primitive integer coordinates.
ROOTS: tuple[tuple[int, int, int], ...] = tuple(
    sorted(
        set(
            [(0, s, t) for s in (1, -1) for t in (1, -1)]
            + [(s, 0, t) for s in (1, -1) for t in (1, -1)]
            + [(s, t, 0) for s in (1, -1) for t in (1, -1)]
        )
    )
)

#: Fundamental weights in chamber coordinates.
FUNDAMENTAL_WEIGHTS = {1: (1, 1, 1), 2: (0, 0, 1), 3: (1, -1, 1)}

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

Element = tuple[tuple[int, int, int], ...]


def act(w: Element, p):
    """Apply a group element to a point; exact for int/Fraction coordinates.

    Row i of a signed permutation has one entry +-1, at column j, so
    coordinate i is p[j] or -p[j], moved rather than summed: it keeps the
    type of p[j] and equals row i of the matrix product w p.  A zero image
    is written as +0 of its type, so -0.0 never appears in an orbit.  A w
    outside the group raises ValueError.
    """
    moves = _MOVES.get(w)
    if moves is None:
        raise ValueError(f"{w} is not an element of the Weyl group")
    (i, s), (j, t), (k, u) = moves
    x = p[i] if s > 0 else -p[i]
    y = p[j] if t > 0 else -p[j]
    z = p[k] if u > 0 else -p[k]
    return (x or abs(x), y or abs(y), z or abs(z))


#: Per group element, the (column, sign) of the nonzero entry of each row:
#: every permutation of the columns with every even choice of signs.
_MOVES = {
    tuple(tuple(s if j == col else 0 for j in range(3)) for col, s in moves): moves
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3) if signs.count(-1) % 2 == 0
    for moves in [tuple(zip(perm, signs))]
}

#: Per group element w its code w.(1, 2, 3); w moves u's code to that of w u.
_CODES = {w: tuple(s * (c + 1) for c, s in moves) for w, moves in _MOVES.items()}


@lru_cache(maxsize=1)
def weyl_group() -> tuple[Element, ...]:
    """All 24 group elements, identity first, the rest sorted."""
    return tuple(sorted(_MOVES, key=lambda w: (w != IDENTITY, w)))


@lru_cache(maxsize=1)
def singular_classes() -> tuple[tuple[int, Element], ...]:
    """The 14 pairs (i, w), one per distinct w.(weight i): i = 1, 2, 3 in
    turn, each w the first element of `weyl_group()` reaching its image."""
    firsts = {}
    for i in (1, 2, 3):
        for w in weyl_group():
            firsts.setdefault((i, act(w, FUNDAMENTAL_WEIGHTS[i])), w)
    return tuple((i, w) for (i, _), w in firsts.items())


@lru_cache(maxsize=None)
def parabolic(i: int) -> tuple[Element, ...]:
    """Stabilizer of weight i, in `weyl_group()` order: the subgroup
    generated by the reflections in the roots orthogonal to it."""
    if i not in (1, 2, 3):
        raise BadIndex(f"weight index must be 1, 2 or 3, got {i}")
    nu = FUNDAMENTAL_WEIGHTS[i]
    return tuple(w for w in weyl_group() if act(w, nu) == nu)


#: Per element of `weyl_group()`, the slot 2 j + (s < 0) of each row's move (j, s).
_SLOTS = tuple(tuple(2 * j + (s < 0) for j, s in _MOVES[w]) for w in weyl_group())


def weyl_orbit(p) -> tuple:
    """Distinct points of the orbit of a point under the full group, sorted,
    as a set of the 24 `act` images: the six signed coordinates +-p[j] (+0
    for a zero) are ranked once, and each rank triple is built by the first
    element of `weyl_group()` reaching it.  A NaN raises ValueError."""
    if any(c != c for c in p):
        raise ValueError(f"{tuple(p)} has a NaN coordinate")
    signed = [v or abs(v) for c in p for v in (c, -c)]
    order = sorted(range(6), key=signed.__getitem__)
    steps = (signed[b] != signed[a] for a, b in zip(order, order[1:]))
    rank = dict(zip(order, accumulate(steps, initial=0)))
    firsts = {}
    for a, b, c in _SLOTS:  # the triple of ranks < 6 as one base-6 key
        firsts.setdefault(36 * rank[a] + 6 * rank[b] + rank[c], (a, b, c))
    return tuple((signed[a], signed[b], signed[c]) for a, b, c in map(firsts.get, sorted(firsts)))


def to_chamber(p):
    """Chamber representative with z >= x >= |y|, and an element realising it.

    The group permutes coordinates and changes an even number of signs, so
    the lexicographically largest image (z, x, y) has z and x the two largest
    |coordinates| and y the smallest, negated when an odd number of
    coordinates are negative; w is the first element of `weyl_group()`
    reaching it.  The point is exact, so it satisfies the chamber
    inequalities exactly; a NaN coordinate raises ValueError.
    """
    y, x, z = sorted(map(abs, p))
    target = (x, -y if sum(c < 0 for c in p) % 2 else y, z)
    for w in weyl_group():
        q = act(w, p)
        if q == target:
            return q, w
    raise ValueError(f"{p} has no chamber representative")


def singular_vertex_set(lam, w: Element, i: int) -> tuple:
    """Vertices w·(W_i·lam), distinct and sorted: the orbit points on the
    plane through w·lam orthogonal to w·(weight i)."""
    return tuple(sorted({act(w, act(u, lam)) for u in parabolic(i)}))


def singular_faces(lam, classes) -> tuple[tuple, list[tuple[int, ...]]]:
    """`weyl_orbit(lam)` and, per class (i, w), the sorted indices into it of
    `singular_vertex_set(lam, w, i)`, the images of the products w u, u in
    `parabolic(i)`, from one act per element.  Raises ValueError unless each
    w is in `weyl_group()`."""
    images = {_CODES[g]: act(g, lam) for g in weyl_group()}
    orbit = sorted(set(images.values()))
    at = {p: k for k, p in enumerate(orbit)}
    faces = []
    for i, w in classes:
        if w not in _MOVES:
            raise ValueError(f"{w} is not an element of the Weyl group")
        (a, s), (b, t), (c, r) = _MOVES[w]
        faces.append(tuple(sorted({at[images[s * u[a], t * u[b], r * u[c]]]
                                   for u in map(_CODES.get, parabolic(i))})))
    return tuple(orbit), faces


def element_to_json(w: Element) -> list[int]:
    """Row-major 9-entry integer array."""
    return [w[i][j] for i in range(3) for j in range(3)]

