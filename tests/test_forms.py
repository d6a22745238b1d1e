"""2-form algebra: endomorphisms, eigen-splitting, classification, pairings."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import forms, moment, weyl
from orbitkit.errors import InvalidRotation, NonConvergence, WeightNotTraceFree
from orbitkit.forms import (
    OrbitClass,
    TwoForm,
    canonical_triple,
    cartan_to_spin_weight,
    classify,
    classify_full,
    conjugate,
    eigen_split,
    spin_weight_to_cartan,
    torus_rotation,
)

W0 = TwoForm.from_cartan((1, 1, 1))


def haar(seed, index=0):
    return moment.haar_rotations(1, seed, start=index)[0]


def split_frame(split):
    """6x6 matrix whose columns are u1, v1, u2, v2, u3, v3 of an eigen-split."""
    return np.array([c for p in split.planes for c in (p.u, p.v)]).T


def reconstruct(split):
    """Sum of value_i * (u_i ^ v_i), which must reproduce the split form."""
    total = TwoForm.zero()
    for p in split.planes:
        total = total + p.value * TwoForm.from_wedge(p.u, p.v)
    return total


def test_basis_form_endomorphism_entries():
    F = TwoForm.basis(1, 2).endomorphism()
    assert F[1, 0] == 1.0
    assert F[0, 1] == -1.0
    assert np.count_nonzero(F) == 2


def test_zero_form_endomorphism():
    assert np.all(TwoForm.zero().endomorphism() == 0.0)


def test_standard_structure_squares_to_minus_identity():
    J0 = W0.endomorphism()
    assert np.array_equal(J0 @ J0, -np.eye(6))


def test_endo_round_trip_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = TwoForm(tuple(rng.standard_normal(15)))
        assert TwoForm.from_matrix(f.endomorphism()).coeffs == f.coeffs


def test_two_form_validation():
    with pytest.raises(ValueError):
        TwoForm((1.0,) * 14)
    with pytest.raises(ValueError):
        TwoForm((float("nan"),) + (0.0,) * 14)


def test_eigen_split_block_diagonal():
    split = eigen_split(W0)
    assert split.values == (1.0, 1.0, 1.0)
    for plane, block in zip(split.planes, ((0, 1), (2, 3), (4, 5))):
        span = np.zeros(6)
        span[list(block)] = 1.0
        assert abs(np.array(plane.u) @ span) + abs(np.array(plane.v) @ span) > 1.9


def test_eigen_split_simple_form():
    split = eigen_split(TwoForm.basis(5, 6))
    assert split.values == (0.0, 0.0, 1.0)
    kernel = np.column_stack([split.planes[0].u, split.planes[0].v,
                              split.planes[1].u, split.planes[1].v])
    assert np.max(np.abs(kernel[4:, :])) <= 1e-12
    plane = np.column_stack([split.planes[2].u, split.planes[2].v])
    assert np.max(np.abs(plane[:4, :])) <= 1e-12


def test_eigen_split_of_random_conjugate():
    for k in range(10):
        R = haar(17, k)
        f = conjugate(W0, R)
        split = eigen_split(f)
        assert np.allclose(split.values, (1, 1, 1), atol=1e-12)
        recon = reconstruct(split)
        assert np.max(np.abs(recon.as_array() - f.as_array())) <= 1e-9


def test_eigen_split_frame_and_action():
    rng = np.random.default_rng(4)
    for k in range(15):
        f = TwoForm(tuple(rng.standard_normal(15)))
        split = eigen_split(f)
        frame = split_frame(split)
        assert np.max(np.abs(frame.T @ frame - np.eye(6))) <= 1e-10
        assert np.linalg.det(frame) > 0
        F = f.endomorphism()
        for plane in split.planes:
            u = np.array(plane.u)
            v = np.array(plane.v)
            assert np.linalg.norm(F @ u - plane.value * v) <= 1e-7
            assert np.linalg.norm(F @ v + plane.value * u) <= 1e-7
        recon = reconstruct(split)
        assert np.max(np.abs(recon.as_array() - f.as_array())) <= 1e-9


def test_canonical_triple_examples():
    assert canonical_triple(TwoForm.basis(1, 2)) == (0.0, 0.0, 1.0)
    assert canonical_triple(-1 * W0) == (1.0, -1.0, 1.0)
    assert canonical_triple(TwoForm.from_cartan((2, 1, 3))) == (2.0, 1.0, 3.0)


def test_canonical_triple_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(30):
        f = TwoForm(tuple(rng.standard_normal(15)))
        x, y, z = canonical_triple(f)
        assert z >= x >= abs(y)
        again = canonical_triple(TwoForm.from_cartan((x, y, z)))
        assert np.allclose(again, (x, y, z), atol=1e-12)


def test_canonical_triple_rotation_invariant():
    rng = np.random.default_rng(2)
    for k in range(25):
        f = TwoForm(tuple(rng.standard_normal(15)))
        t0 = canonical_triple(f)
        t1 = canonical_triple(conjugate(f, haar(90, k)))
        assert np.allclose(t0, t1, atol=1e-8)


CLASS_CASES = [
    ((0, 0, 0), OrbitClass.ZERO),
    ((1, 1, 1), OrbitClass.P_PLUS),
    ((1, -1, 1), OrbitClass.P_MINUS),
    ((0, 0, 1), OrbitClass.GRASSMANNIAN),
    ((1, 1, 2), OrbitClass.F1),
    ((1, -1, 2), OrbitClass.F2),
    ((2, 1, 2), OrbitClass.F3_PLUS),
    ((2, 0, 2), OrbitClass.F3_ZERO),
    ((2, -1, 2), OrbitClass.F3_MINUS),
    ((1, 0.5, 2), OrbitClass.GENERIC),
    ((1, 0, 2), OrbitClass.GENERIC),
]


@pytest.mark.parametrize("triple,expected", CLASS_CASES)
def test_classify_patterns(triple, expected):
    assert classify(TwoForm.from_cartan(triple)) is expected


def test_classify_table_forms():
    e = TwoForm.basis
    assert classify(e(1, 2) + e(3, 4) + e(5, 6)) is OrbitClass.P_PLUS
    assert classify(e(1, 2) - e(3, 4) + e(5, 6)) is OrbitClass.P_MINUS
    assert classify(e(1, 2) + e(3, 4) + 2 * e(5, 6)) is OrbitClass.F1
    assert classify(2 * (e(1, 2) + e(5, 6))) is OrbitClass.F3_ZERO
    assert classify(e(5, 6)) is OrbitClass.GRASSMANNIAN


def test_classify_not_ambiguous_on_clean_inputs():
    for triple, _ in CLASS_CASES:
        assert not classify_full(TwoForm.from_cartan(triple)).ambiguous


@pytest.mark.parametrize("y", [5e-9, -5e-9])
def test_classify_tie_prefers_the_class_whose_closure_holds_the_others(y):
    # F3Zero and F3Plus/F3Minus both match, with equal stabilizer dimension.
    result = classify_full(TwoForm.from_cartan((1, y, 1)))
    side = OrbitClass.F3_PLUS if y > 0 else OrbitClass.F3_MINUS
    assert set(result.matches) == {OrbitClass.F3_ZERO, side}
    assert forms.STABILIZER_DIM[OrbitClass.F3_ZERO] == forms.STABILIZER_DIM[side]
    assert result.orbit_class is OrbitClass.F3_ZERO
    assert not result.ambiguous


#: The class tables typed by hand, the reference for those `forms` derives
#: from `_PATTERNS`: the classes whose stratum closure holds each class's
#: stratum, and the isotropy dimension of each class.
_O = OrbitClass
REFERENCE_CLOSURE = {
    _O.ZERO: set(_O),
    _O.P_PLUS: {_O.P_PLUS, _O.F1, _O.F3_PLUS, _O.GENERIC},
    _O.P_MINUS: {_O.P_MINUS, _O.F2, _O.F3_MINUS, _O.GENERIC},
    _O.GRASSMANNIAN: {_O.GRASSMANNIAN, _O.F1, _O.F2, _O.GENERIC},
    _O.F3_ZERO: {_O.F3_ZERO, _O.F3_PLUS, _O.F3_MINUS, _O.GENERIC},
    _O.F1: {_O.F1, _O.GENERIC},
    _O.F2: {_O.F2, _O.GENERIC},
    _O.F3_PLUS: {_O.F3_PLUS, _O.GENERIC},
    _O.F3_MINUS: {_O.F3_MINUS, _O.GENERIC},
    _O.GENERIC: {_O.GENERIC},
}
REFERENCE_STABILIZER_DIM = {
    _O.ZERO: 15, _O.P_PLUS: 9, _O.P_MINUS: 9, _O.GRASSMANNIAN: 7,
    _O.F3_ZERO: 5, _O.F1: 5, _O.F2: 5, _O.F3_PLUS: 5, _O.F3_MINUS: 5, _O.GENERIC: 3,
}


def test_class_tables_derived_from_the_patterns_equal_the_reference():
    assert forms._CLOSURE == REFERENCE_CLOSURE
    assert forms.STABILIZER_DIM == REFERENCE_STABILIZER_DIM


def test_pattern_order_runs_from_the_most_degenerate_class_down():
    # First match wins only because each class precedes the rest of its
    # closure and the stabilizer dimension never grows along the table.
    order = list(forms._PATTERNS) + [OrbitClass.GENERIC]
    for k, c in enumerate(order):
        assert all(order.index(d) > k for d in forms._CLOSURE[c] - {c}), c
    dims = [forms.STABILIZER_DIM[c] for c in order]
    assert dims == sorted(dims, reverse=True)


def reference_winner(matched):
    """The earlier rule: largest stabilizer, then the class whose closure
    holds the other tied matches, else the first tried; ambiguous when some
    match lies outside the winner's closure."""
    top = max(REFERENCE_STABILIZER_DIM[c] for c in matched)
    tied = [c for c in matched if REFERENCE_STABILIZER_DIM[c] == top]
    winner = next((c for c in tied if REFERENCE_CLOSURE[c].issuperset(tied)), tied[0])
    return winner, any(m not in REFERENCE_CLOSURE[winner] for m in matched)


def test_first_match_equals_the_largest_stabilizer_rule_on_every_subset(monkeypatch):
    # Feed classify_full every nonempty subset of the patterns as its matches.
    patterns = list(forms._PATTERNS)
    subsets = [s for r in range(1, len(patterns) + 1)
               for s in itertools.combinations(patterns, r)]
    assert len(subsets) == 511
    for subset in subsets:
        chosen = [forms._PATTERNS[c] for c in subset]
        monkeypatch.setattr(forms, "_matches", lambda *args, chosen=chosen: args[:3] in chosen)
        result = classify_full(W0)
        assert result.matches == subset
        assert (result.orbit_class, result.ambiguous) == reference_winner(subset), subset


#: The mirror y -> -y on classes; classes it does not name map to themselves.
MIRROR = {
    OrbitClass.P_PLUS: OrbitClass.P_MINUS, OrbitClass.P_MINUS: OrbitClass.P_PLUS,
    OrbitClass.F1: OrbitClass.F2, OrbitClass.F2: OrbitClass.F1,
    OrbitClass.F3_PLUS: OrbitClass.F3_MINUS, OrbitClass.F3_MINUS: OrbitClass.F3_PLUS,
}


def mirrored(result):
    return MIRROR.get(result.orbit_class, result.orbit_class), result.ambiguous


@pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-3])
def test_classify_commutes_with_the_mirror(tol):
    # Each slot of a class case is kept or moved by +-U(0, 2) tol max(1, |c|),
    # so patterns match, miss and overlap near the edge of the tolerance.
    rng = np.random.default_rng(41)
    for triple, _ in CLASS_CASES:
        for _ in range(30):
            shift = rng.integers(-1, 2, 3) * rng.uniform(0, 2, 3) * tol
            x, y, z = (c + d * max(1, abs(c)) for c, d in zip(triple, shift))
            a = classify_full(TwoForm.from_cartan((x, y, z)), tol)
            b = classify_full(TwoForm.from_cartan((x, -y, z)), tol)
            assert mirrored(a) == (b.orbit_class, b.ambiguous), ((x, y, z), tol)


def test_mirror_of_a_near_pplus_triple_is_near_pminus():
    # y ~ x but y !~ z: F1 beside F3Plus; the mirror lacks -y ~ z, so it is
    # F2 beside F3Minus, not PMinus.
    a = classify_full(TwoForm.from_cartan((1, 1 - 0.9e-8, 1 + 0.9e-8)))
    b = classify_full(TwoForm.from_cartan((1, -(1 - 0.9e-8), 1 + 0.9e-8)))
    assert (a.orbit_class, a.ambiguous) == (OrbitClass.F1, True)
    assert (b.orbit_class, b.ambiguous) == (OrbitClass.F2, True)
    assert OrbitClass.P_MINUS not in b.matches


def test_classify_rotation_invariant():
    rng = np.random.default_rng(7)
    for k in range(40):
        f = TwoForm(tuple(rng.standard_normal(15)))
        c0 = classify(f)
        assert classify(conjugate(f, haar(123, k))) is c0


def test_eigen_split_near_degenerate_conjugates():
    # Near-equal rates: the split must still find three planes, and its
    # frame and reconstruction must hold to rounding.
    R = haar(77, 1388)
    f = conjugate(TwoForm.from_cartan((1, 1.000000003, 1)), R)
    assert classify_full(f).orbit_class is OrbitClass.P_PLUS
    g = conjugate(TwoForm.from_cartan((3, 2, 3.00000002)), R)
    split = eigen_split(g)
    frame = split_frame(split)
    assert np.max(np.abs(reconstruct(split).as_array() - g.as_array())) <= 1e-12
    assert np.max(np.abs(frame.T @ frame - np.eye(6))) <= 1e-12


#: Every orbit pattern of CLASS_CASES plus near-degenerate triples.
SPLIT_PATTERNS = [triple for triple, _ in CLASS_CASES] + [
    (1, 5e-9, 1), (1, -5e-9, 1), (1, 1, 1 + 3e-9), (3, 2, 3 + 2e-8),
]


@given(st.sampled_from(SPLIT_PATTERNS), st.integers(-6, 6),
       st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_eigen_split_of_haar_conjugates(triple, decade, seed, index):
    f = TwoForm.from_cartan(tuple(10.0**decade * c for c in triple))
    g = conjugate(f, haar(seed, index))
    split = eigen_split(g)
    frame = split_frame(split)
    assert np.max(np.abs(frame.T @ frame - np.eye(6))) <= 1e-12
    assert abs(np.linalg.det(frame) - 1.0) <= 1e-12
    x, y, z = split.values
    assert z >= x >= abs(y)
    G = g.endomorphism()
    scale = max(1.0, z)
    for plane in split.planes:
        if abs(plane.value) > 1e-9 * scale:
            u, v = np.array(plane.u), np.array(plane.v)
            assert np.max(np.abs(G @ u - plane.value * v)) <= 1e-12 * scale
            assert np.max(np.abs(G @ v + plane.value * u)) <= 1e-12 * scale
    assert classify(g) is classify(f)


def schur_split(form, tol=1e-9):
    """Reference: the eigen-split read off the real Schur form F = Z T Z^T.

    F is skew, hence normal, so T is block diagonal; each 2x2 block k is the
    plane (Z[:, k], Z[:, k+1]) with value v^T F u, made non-negative by the
    sign of v, and the 1x1 blocks and the blocks with |value| <= tol * max(1,
    largest value) are the kernel, paired in order.  Ordering, orientation and
    chamber reflection follow `eigen_split`.
    """
    import scipy.linalg

    F = form.endomorphism()
    T, Z = scipy.linalg.schur(F, output="real")
    kernel = []
    blocks = []
    k = 0
    while k < 6:
        if k == 5 or T[k + 1, k] == 0.0:
            kernel.append(Z[:, k])
            k += 1
            continue
        u, v = Z[:, k], Z[:, k + 1]
        value = float(v @ F @ u)
        if value < 0:
            v, value = -v, -value
        blocks.append((u, v, value))
        k += 2
    res = tol * max([1.0] + [value for _, _, value in blocks])
    kernel += [c for u, v, value in blocks if value <= res for c in (u, v)]
    planes = [(kernel[a], kernel[a + 1], 0.0) for a in range(0, len(kernel), 2)]
    planes += sorted((b for b in blocks if b[2] > res), key=lambda b: b[2])
    frame = np.column_stack([c for u, v, _ in planes for c in (u, v)])
    if np.linalg.det(frame) < 0:
        u, v, value = planes[-1]
        planes[-1] = (u, -v, -value)
    _, w = weyl.to_chamber(tuple(value for _, _, value in planes))
    ordered = []
    for i in range(3):
        j = next(k for k in range(3) if w[i][k] != 0)
        sign = w[i][j]
        u, v, value = planes[j]
        ordered.append(forms.InvariantPlane(tuple(u), tuple(sign * v), sign * value + 0.0))
    return forms.EigenSplit(tuple(ordered))


#: Cartan coordinates whose triples have ties, values near the kernel
#: threshold 1e-9 and near-equal pairs.
SPLIT_COORDS = (0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 5e-9, -5e-9, 3e-9, 1e-9,
                1 + 3e-9, 3 + 2e-8)


# The first example imports scipy.linalg, which takes longer than a deadline.
@settings(deadline=None, max_examples=300)
@given(st.tuples(*[st.sampled_from(SPLIT_COORDS)] * 3), st.integers(-6, 6),
       st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_eigen_split_agrees_with_the_schur_split(triple, decade, seed, index):
    g = conjugate(TwoForm.from_cartan(tuple(10.0**decade * c for c in triple)),
                  haar(seed, index))
    new, old = eigen_split(g), schur_split(g)
    scale = max(1.0, new.values[2])
    res = 1e-9 * scale
    if not any(res / 2 <= abs(v) <= 2 * res for v in new.values + old.values):
        assert np.max(np.abs(np.subtract(new.values, old.values))) <= 1e-12 * scale
    for i, (p, q) in enumerate(zip(new.planes, old.planes)):
        others = [abs(r.value) for j, r in enumerate(new.planes) if j != i]
        if all(abs(abs(p.value) - t) > 1e-6 * scale for t in others):
            P = np.outer(p.u, p.u) + np.outer(p.v, p.v)
            R = np.outer(q.u, q.u) + np.outer(q.v, q.v)
            assert np.max(np.abs(P - R)) <= 1e-9


def test_eigen_split_frames_do_not_depend_on_the_eigenvector_phases(monkeypatch):
    # Forms whose planes are unique, or block diagonal: the frame of a
    # rotated tie or of a rotated kernel is any orthonormal basis of it.
    rng = np.random.default_rng(8)
    cases = [W0, TwoForm.basis(5, 6), TwoForm.from_cartan((1, 0.5, 2))]
    cases += [conjugate(TwoForm.from_cartan(t), haar(8, k))
              for k, t in enumerate(((1, 0.5, 2), (1, 5e-9, 2), (3, -2, 4)))]
    before = [eigen_split(f) for f in cases]
    eigh = np.linalg.eigh

    def turned(a, UPLO="L"):
        lam, Z = eigh(a, UPLO)
        if np.iscomplexobj(a):
            Z = Z * np.exp(2j * np.pi * rng.random(Z.shape[1]))
        return lam, Z

    monkeypatch.setattr(np.linalg, "eigh", turned)
    for f, split in zip(cases, before):
        after = eigen_split(f)
        assert np.max(np.abs(np.subtract(after.values, split.values))) <= 1e-14
        assert np.max(np.abs(split_frame(after) - split_frame(split))) <= 1e-14


def test_eigen_split_raises_non_convergence_when_the_eigensolver_fails(monkeypatch):
    def fail(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NonConvergence):
        eigen_split(W0)
    stack = np.array([W0.coeffs, TwoForm.basis(5, 6).coeffs])
    with pytest.raises(NonConvergence):
        forms.eigen_splits(stack)
    with pytest.raises(NonConvergence):
        forms.classify_many(stack)


def test_kernel_values_are_positive_zeros():
    for triple in ((0, 0, 1), (1, 0, 1), (0, 0, -1), (1, 0, 2), (0, 0, 0)):
        for k in range(20):
            f = conjugate(TwoForm.from_cartan(triple), haar(5, k))
            for value in eigen_split(f).values + canonical_triple(f):
                assert value != 0.0 or math.copysign(1.0, value) == 1.0


def reference_split(form, tol=1e-9):
    """Reference: the one-form eigen-split that `forms.eigen_splits` stacks,
    with its own LAPACK calls, a Python sort and a per-plane chamber move."""
    F = form.endomorphism()
    lam, Z = np.linalg.eigh(1j * F)
    top = lam[3:].tolist()
    r = sum(value > tol * max(1.0, top[2]) for value in top)
    Z = Z[:, 6 - r:]
    lead = np.argmax(np.abs(Z), axis=0)
    phase = Z[lead, np.arange(r)]
    A = (Z * (phase.conj() / np.abs(phase))).view(float)
    Q = np.linalg.solve(np.linalg.cholesky(A.T @ A), A.T).T
    kernel = np.linalg.eigh(Q @ Q.T)[1][:, :6 - 2 * r] if r < 3 else np.zeros((6, 0))
    values = (Q.T @ F @ Q).diagonal(-1)[::2]
    Q[:, 1::2] *= np.where(values < 0, -1.0, 1.0)
    values = np.abs(values).tolist()
    order = sorted(range(r), key=lambda k: (values[k], lead[k]))
    frame = np.hstack([kernel, Q.reshape(6, r, 2)[:, order].reshape(6, 2 * r)])
    triple = [0.0] * (3 - r) + [values[k] for k in order]
    if np.linalg.det(frame) < 0:
        frame[:, 5] *= -1.0
        triple[2] = -triple[2]
    _, w = weyl.to_chamber(tuple(triple))
    columns = frame.T.tolist()
    ordered = []
    for i in range(3):
        j = next(k for k in range(3) if w[i][k] != 0)
        sign = w[i][j]
        ordered.append(forms.InvariantPlane(tuple(columns[2 * j]),
                                            tuple(sign * c for c in columns[2 * j + 1]),
                                            sign * triple[j] + 0.0))
    return forms.EigenSplit(tuple(ordered))


def reference_classification(form, tol=1e-8):
    """Reference: the pattern match of `classify_full` on `reference_split`."""
    triple = reference_split(form, tol=min(tol, 1e-9)).values
    matched = [c for c, p in forms._PATTERNS.items() if forms._matches(*p, triple, tol)]
    matched = matched or [OrbitClass.GENERIC]
    ambiguous = not forms._CLOSURE[matched[0]].issuperset(matched)
    return forms.Classification(matched[0], triple, ambiguous, tuple(matched))


def bits(values, frame=()):
    """Values and frame entries, each with the sign of its zero."""
    return [(float(x), math.copysign(1.0, x))
            for x in itertools.chain(np.ravel(values), np.ravel(frame))]


def split_bits(split):
    return bits(split.values, split_frame(split))


#: Every CLASS_CASES point, triples on and near the kernel threshold 1e-9,
#: and near ties: the kernels of one stack have ranks 0 to 3.
STACK_TRIPLES = [triple for triple, _ in CLASS_CASES] + [
    (3e-9, 1e-9, 1), (1e-9, -1e-9, 1), (2e-9, 0, 1e-9), (1, 5e-9, 1), (1, -5e-9, 1),
    (1, 1, 1 + 3e-9), (3, 2, 3 + 2e-8),
]

#: A form: a triple scaled by 10**decade, Haar-rotated or on the torus.
STACK_FORMS = st.builds(
    lambda triple, decade, rotation: conjugate(
        TwoForm.from_cartan(tuple(10.0**decade * c for c in triple)),
        haar(*rotation) if rotation else np.eye(6)),
    st.sampled_from(STACK_TRIPLES), st.integers(-6, 6),
    st.none() | st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10**6)))

def f3_coeffs():
    """The twelve forms of `verify f3-segments`, as it builds them."""
    e12, e34, e56 = np.eye(15)[[forms.E12, forms.E34, forms.E56]]
    bases = (-e12 + e56, e12 - e56, e12 + e56, -e12 - e56)
    return np.array([base - b * e34 for b in (0.25, 0.5, 0.75) for base in bases])


def assert_stack_is_the_reference(fs):
    """Each row of the stacked split and classification of fs has the bits of
    the per-form reference: in this stack, alone and in a shuffled stack."""
    coeffs = np.array([f.coeffs for f in fs])
    want = [split_bits(reference_split(f)) for f in fs]
    values, frames = forms.eigen_splits(coeffs)
    assert values.shape == (len(fs), 3) and frames.shape == (len(fs), 6, 6)
    assert [bits(v, fr) for v, fr in zip(values, frames)] == want
    assert [split_bits(eigen_split(f)) for f in fs] == want
    for k in range(len(fs)):
        alone = forms.eigen_splits(coeffs[k:k + 1])
        assert bits(alone[0][0], alone[1][0]) == want[k]
    order = np.random.default_rng(len(fs)).permutation(len(fs))
    values, frames = forms.eigen_splits(coeffs[order])
    assert [bits(v, fr) for v, fr in zip(values, frames)] == [want[k] for k in order]
    for got, f in zip(forms.classify_many(coeffs), fs):
        ref = reference_classification(f)
        assert (got.orbit_class, got.matches, got.ambiguous) == (
            ref.orbit_class, ref.matches, ref.ambiguous)
        assert bits(got.triple) == bits(ref.triple)
        assert classify_full(f) == got


@settings(deadline=None)
@given(st.lists(STACK_FORMS, min_size=1, max_size=8))
def test_stacked_split_and_classes_are_the_per_form_reference_bit_for_bit(fs):
    assert_stack_is_the_reference(fs)


def test_stacked_split_of_the_f3_segments_and_of_every_rank_at_once():
    fs = [TwoForm(tuple(c)) for c in f3_coeffs()]
    fs += [conjugate(TwoForm.from_cartan(t), haar(11, k)) for k, t in enumerate(
        ((0, 0, 0), (0, 0, 1), (1, 0, 2), (1, 0.5, 2), (3e-9, 1e-9, 1), (1, 1, 1)))]
    assert_stack_is_the_reference(fs)


@pytest.mark.parametrize("coeffs", [
    np.zeros(15), np.zeros((2, 14)), np.zeros((1, 2, 15)), [[math.nan] + [0.0] * 14],
    [[1.0] * 15, [0.0] * 14 + [math.inf]], [[1.0] * 15, [-math.inf] + [0.0] * 14],
])
def test_stacked_split_refuses_a_bad_shape_or_a_non_finite_row(coeffs):
    with pytest.raises(ValueError):
        forms.eigen_splits(coeffs)
    with pytest.raises(ValueError):
        forms.classify_many(coeffs)


def test_a_non_positive_tol_is_refused():
    for tol in (0.0, -1e-9):
        for call in (forms.eigen_splits, forms.classify_many):
            with pytest.raises(ValueError, match="tol must be positive"):
                call(np.ones((1, 15)), tol)
        for call in (eigen_split, classify_full):
            with pytest.raises(ValueError, match="tol must be positive"):
                call(W0, tol)


def test_stacked_split_of_an_empty_stack_is_empty():
    values, frames = forms.eigen_splits(np.zeros((0, 15)))
    assert values.shape == (0, 3) and frames.shape == (0, 6, 6)
    assert forms.classify_many(np.zeros((0, 15))) == []


def test_conjugate_identity_and_invariant_plane():
    assert conjugate(W0, np.eye(6)).coeffs == W0.coeffs
    R = torus_rotation(0.8, 0.0, 0.0)
    out = conjugate(TwoForm.basis(1, 2), R)
    assert np.allclose(out.as_array(), TwoForm.basis(1, 2).as_array(), atol=1e-15)


def test_conjugate_against_matrix_oracle():
    # Swap e2 <-> e3 with a sign fix on e6 to stay special orthogonal.
    R = np.eye(6)
    R[1, 1] = R[2, 2] = 0.0
    R[1, 2] = R[2, 1] = 1.0
    R[5, 5] = -1.0
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12
    f = TwoForm.basis(1, 2)
    out = conjugate(f, R)
    oracle = TwoForm.from_matrix(R @ f.endomorphism() @ R.T)
    assert out.coeffs == oracle.coeffs
    assert np.allclose(out.as_array(), TwoForm.basis(1, 3).as_array())


def test_conjugate_rejects_non_rotation():
    with pytest.raises(InvalidRotation):
        conjugate(W0, np.diag([1, 1, 1, 1, 1, -1]))
    with pytest.raises(InvalidRotation):
        conjugate(W0, 2 * np.eye(6))


def test_spin_weight_examples():
    assert spin_weight_to_cartan((-3, 1, 1, 1)) == (1.0, 1.0, 1.0)
    assert spin_weight_to_cartan((0, 0, 0, 0)) == (0.0, 0.0, 0.0)
    with pytest.raises(WeightNotTraceFree):
        spin_weight_to_cartan((1, 0, 0, 0))


def test_second_weight_quadruple_by_linear_solve():
    # Solve the 3x4 pairing system for the quadruple mapping to (0, 0, 1).
    B = np.array(forms.CARTAN_QUADRUPLES)
    A = np.vstack([B / 4.0, np.ones(4)])
    rhs = np.array([0.0, 0.0, 1.0, 0.0])
    theta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    assert np.allclose(theta, (-1, 1, 1, -1), atol=1e-12)
    assert np.allclose(spin_weight_to_cartan(tuple(theta)), (0.0, 0.0, 1.0), atol=1e-14)
    assert spin_weight_to_cartan((-1, 1, 1, -1)) == (0.0, 0.0, 1.0)
    assert cartan_to_spin_weight((0, 0, 1)) == (-1.0, 1.0, 1.0, -1.0)


def test_torus_rotation_is_rotation():
    R = torus_rotation(0.3, -1.2, 2.5)
    forms.validate_rotation(R)


def test_torus_rotation_broadcasts_over_angle_arrays():
    t1, t2 = np.linspace(-7.0, 9.0, 5), np.array([[0.3], [-1.2]])
    R = torus_rotation(t1, t2, 2.5)
    assert R.shape == (2, 5, 6, 6) and torus_rotation(0.3, -1.2, 2.5).shape == (6, 6)
    for i, j in itertools.product(range(2), range(5)):
        assert np.array_equal(R[i, j], torus_rotation(t1[j], t2[i, 0], 2.5))
        for k, t in enumerate((t1[j], t2[i, 0], 2.5)):
            block = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
            assert np.max(np.abs(R[i, j, 2 * k:2 * k + 2, 2 * k:2 * k + 2] - block)) <= 1e-15
