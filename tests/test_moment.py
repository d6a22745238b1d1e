"""Moment map, Haar sampling, moment polytopes, stabilizers, singular values."""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitkit import iwasawa, klein, moment, polytopes, weyl
from orbitkit.cli import AGS_LAMBDAS
from orbitkit.errors import BadIndex
from orbitkit.forms import (
    CARTAN_QUADRUPLES,
    E12,
    E34,
    E56,
    OrbitClass,
    STABILIZER_DIM,
    TwoForm,
    cartan_to_spin_weight,
    classify,
    spin_weight_to_cartan,
    torus_rotation,
    conjugate,
    wedges,
)


def test_mu_examples():
    assert moment.mu_t(TwoForm.from_cartan((1, 1, 1))) == (1.0, 1.0, 1.0)
    f = TwoForm.basis(1, 2) + 5 * TwoForm.basis(1, 3)
    assert moment.mu_t(f) == (1.0, 0.0, 0.0)


def test_mu_of_sign_flip_family():
    # -w0 + 2 e ^ (J0 e) projects to (-1 + 2(x1^2+x2^2), ...), summing to -1.
    w0 = TwoForm.from_cartan((1, 1, 1))
    J0 = w0.endomorphism()
    rng = np.random.default_rng(12)
    for _ in range(20):
        e = rng.standard_normal(6)
        e = e / np.linalg.norm(e)
        f = -1 * w0 + 2 * TwoForm.from_wedge(e, J0 @ e)
        x, y, z = moment.mu_t(f)
        assert abs(x - (-1 + 2 * (e[0] ** 2 + e[1] ** 2))) <= 1e-14
        assert abs(y - (-1 + 2 * (e[2] ** 2 + e[3] ** 2))) <= 1e-14
        assert abs(z - (-1 + 2 * (e[4] ** 2 + e[5] ** 2))) <= 1e-14
        assert abs(x + y + z + 1) <= 1e-13


def test_mu_torus_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = TwoForm(tuple(rng.standard_normal(15)))
        R = torus_rotation(*rng.uniform(0, 2 * np.pi, 3))
        g = conjugate(f, R)
        assert max(
            abs(a - b) for a, b in zip(moment.mu_t(f), moment.mu_t(g))
        ) <= 1e-13


def test_haar_rotation_properties():
    R = moment.haar_rotations(1, 0)[0]
    assert np.max(np.abs(R.T @ R - np.eye(6))) <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def test_haar_rotation_deterministic():
    assert np.array_equal(moment.haar_rotations(1, 42)[0], moment.haar_rotations(1, 42)[0])
    batch = moment.haar_rotations(5, 42)
    assert np.array_equal(batch[3], moment.haar_rotations(1, 42, start=3)[0])


MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed,index", [
    (0, 0), (3, 17), (2 ** 64 - 1, 2 ** 63 + 5), (-1, 4), (-(2 ** 40) - 3, 9),
])
def test_stream_words_match_numpy_philox(seed, index):
    # Sample k of m words is numpy's Philox keyed (seed mod 2^64, 0) from
    # counter k b, b = ceil(m / 4); a negative seed is masked to 64 bits.
    want = np.random.Philox(key=seed & MASK64, counter=index * 4).random_raw(48)
    got = moment.stream(seed, 3, 13, start=index)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want.reshape(3, 16)[:, :13])
    short = np.random.Philox(key=seed & MASK64, counter=index * 2).random_raw(8)
    assert np.array_equal(moment.stream(seed, 1, 5, start=index)[0], short[:5])


def test_stream_batches_split_by_start():
    whole = moment.stream(11, 100, 13)
    assert np.array_equal(whole, np.vstack([moment.stream(11, 37, 13),
                                            moment.stream(11, 63, 13, start=37)]))


def test_stream_start_is_unbounded_and_nonnegative():
    with pytest.raises(ValueError):
        moment.stream(5, 1, 8, start=-1)
    start = 2 ** 64 + 3
    want = np.random.Philox(key=5, counter=start * 2).random_raw(16).reshape(2, 8)
    assert np.array_equal(moment.stream(5, 2, 8, start=start), want)
    assert not np.array_equal(want[0], moment.stream(5, 1, 8, start=3)[0])


def test_haar_rotations_independent_of_chunking():
    n, seed = 45, 77
    whole = moment.haar_rotations(n, seed)
    by7 = np.concatenate([moment.haar_rotations(min(7, n - j), seed, start=j)
                          for j in range(0, n, 7)])
    by1 = np.concatenate([moment.haar_rotations(1, seed, start=j) for j in range(n)])
    assert np.array_equal(whole, by7)
    assert np.array_equal(whole, by1)
    big = moment.haar_rotations(20000, seed)
    split = np.concatenate([moment.haar_rotations(12345, seed),
                            moment.haar_rotations(20000 - 12345, seed, start=12345)])
    assert np.array_equal(big, split)
    assert np.array_equal(big[:n], whole)


def test_normals_moments():
    z = moment.normals(2024, 10000, 10).ravel()
    assert z.size == 10 ** 5
    assert np.all(np.isfinite(z))
    # Standard errors over 1e5 draws: mean 0.003, variance 0.0045,
    # third moment 0.012, fourth moment 0.03; every bound is about 5 of them.
    assert abs(z.mean()) < 0.015
    assert abs(z.var() - 1.0) < 0.025
    assert abs(np.mean(z ** 3)) < 0.06
    assert abs(np.mean(z ** 4) - 3.0) < 0.15
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6826894921) < 0.01


def fibre_draws_reference(n, seed, words, t_lo):
    """The two fibre-draw slicings `moment.fibre_draws` replaced: klein's 7
    words (u, v from normals 0-5, t ~ U(t_lo, 1) from word 6) and iwasawa
    mixed's 9 (a 3-vector from normals 0-2, a 4-vector from normals 3-6,
    t ~ U(0.05, 1) from word 8)."""
    w = moment.stream(seed, n, words)
    if words == 7:
        g = moment.gaussians(w[:, :6])
        u = g[:, :3] / np.linalg.norm(g[:, :3], axis=1, keepdims=True)
        v = g[:, 3:] / np.linalg.norm(g[:, 3:], axis=1, keepdims=True)
        return u, v, t_lo + (1.0 - t_lo) * moment.uniforms(w[:, 6])
    G = moment.gaussians(w[:, :8])
    abc = G[:, :3] / np.linalg.norm(G[:, :3], axis=1, keepdims=True)
    v = G[:, 3:7] / np.linalg.norm(G[:, 3:7], axis=1, keepdims=True)
    return abc, v, 0.05 + 0.95 * moment.uniforms(w[:, 8])


@pytest.mark.parametrize("sizes, words, t_lo", [((3, 3), 7, klein.EDGE_PRISM_T_LO),
                                                ((3, 3), 7, klein.SQUARE_T_LO),
                                                ((3, 4), 9, 0.05)])
def test_fibre_draws_are_the_old_slicings_bit_for_bit(sizes, words, t_lo):
    for seed in range(5):
        for n in (1, 7, 300, 5001):
            got = moment.fibre_draws(n, seed, t_lo, sizes)
            want = fibre_draws_reference(n, seed, words, t_lo)
            assert len(got) == 3
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert np.all((got[2] >= t_lo) & (got[2] < 1.0))


def test_normals_take_their_words_in_pairs():
    # An odd count drops the second normal of the last pair, nothing else.
    assert np.array_equal(moment.normals(9, 50, 3), moment.normals(9, 50, 4)[:, :3])
    words = moment.stream(9, 50, 4)
    assert np.array_equal(moment.normals(9, 50, 4), moment.gaussians(words))
    u = moment.uniforms(words)
    assert u.min() >= 0.0 and u.max() < 1.0


def reference_gaussians(w):
    """Box-Muller as written before the in-place rewrite of `moment.gaussians`."""
    u1 = ((w[:, 0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    phi = (2.0 * np.pi) * moment.uniforms(w[:, 1::2])
    z = np.empty(w.shape)
    z[:, 0::2] = r * np.cos(phi)
    z[:, 1::2] = r * np.sin(phi)
    return z


def test_gaussians_are_the_box_muller_expressions_and_leave_their_words():
    # Word 0 gives the radius uniform 2^-53, the largest radius there is, and
    # 2^64 - 1 gives radius 0 and the angle nearest 2 pi.
    words = np.concatenate([moment.stream(4, 3000, 10),
                            np.zeros((2, 10), np.uint64), np.full((2, 10), 2 ** 64 - 1, np.uint64)])
    words[0, :4] = words[1, 4:8] = 0, 2 ** 64 - 1, 2 ** 64 - 1, 0
    kept = words.copy()
    for w in (words, words[:, :6], words[:, 2:], words[::3, 1:9]):
        got, want = moment.gaussians(w), reference_gaussians(w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(words, kept)
    z = moment.gaussians(np.zeros((1, 2), np.uint64))
    assert z[0, 0] == math.sqrt(-2.0 * math.log(2.0 ** -53)) and z[0, 1] == 0.0


def test_haar_rotations_are_the_sign_fixed_lapack_q():
    # The QR with positive R diagonal is unique: Gram-Schmidt gives the same
    # Q as LAPACK's with the Mezzadri sign fix, then the same det flip.
    n = 100_000
    R = moment.haar_rotations(n, 31)
    q, r = np.linalg.qr(moment.normals(31, n, 36).reshape(n, 6, 6))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    assert np.max(np.abs(R - q)) <= 1e-12
    assert np.max(np.abs(np.einsum("nki,nkj->nij", R, R) - np.eye(6))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-14


def test_haar_unitary_columns_are_the_phase_fixed_lapack_q():
    # The complex QR with positive real R diagonal is unique: Gram-Schmidt
    # gives LAPACK's Q with each column times the phase of its R diagonal.
    n = 20000
    U = moment.haar_unitary_columns(n, 31)
    g = moment.normals(31, n, 24)
    q, r = np.linalg.qr((g[:, 0::2] + 1j * g[:, 1::2]).reshape(n, 4, 3))
    d = np.einsum("nii->ni", r)
    q = q * (d / np.abs(d))[:, None, :]
    assert U.shape == (n, 4, 3) and U.dtype == np.complex128
    assert np.max(np.abs(U - q)) <= 1e-13
    assert np.max(np.abs(np.einsum("nki,nkj->nij", U.conj(), U) - np.eye(3))) <= 1e-14
    assert np.array_equal(U[17], moment.haar_unitary_columns(1, 31, start=17)[0])


def test_twistor_structures_are_read_off_one_unit_vector_of_c4():
    # J = Phi(I - 4 u u*) is an orthogonal complex structure whose image is
    # -B |u|^2, B the rows of CARTAN_QUADRUPLES, u the normalised 4 complex
    # normals of the sample.
    n = 20000
    J = moment.twistor_structures(n, 8)
    g = moment.normals(8, n, 8)
    u = g[:, 0::2] + 1j * g[:, 1::2]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    assert J.shape == (n, 6, 6) and J.dtype == np.float64
    assert np.max(np.abs(J @ J + np.eye(6))) <= 1e-14
    assert np.max(np.abs(np.swapaxes(J, 1, 2) + J)) <= 1e-14
    images = J[:, (1, 3, 5), (0, 2, 4)]
    want = -(np.abs(u) ** 2) @ np.array(CARTAN_QUADRUPLES).T
    assert np.max(np.abs(images - want)) <= 1e-14


def test_twistor_structures_split_by_start_at_the_batch_bound():
    N, seed = moment.HAAR_BATCH, 4
    whole = moment.twistor_structures(N + 7, seed)
    halves = [moment.twistor_structures(N, seed), moment.twistor_structures(7, seed, start=N)]
    assert np.array_equal(whole, np.concatenate(halves))
    alone = [moment.twistor_structures(1, seed, start=N + k)[0] for k in range(7)]
    assert np.array_equal(whole[N:], np.array(alone))


def test_orbit_samples_split_by_start_at_the_batch_bound(monkeypatch):
    # The HAAR_BATCH + 7 draws are two batches; each equals the cloud of its
    # own size, the second one with its draws started at HAAR_BATCH, and
    # each of its rows equals the cloud of that draw alone.
    lam, seed, N = (1.0, 0.5, 2.0), 4, moment.HAAR_BATCH
    whole = moment.orbit_samples(lam, N + 7, seed).points
    head = moment.orbit_samples(lam, N, seed).points
    columns = moment.haar_unitary_columns
    shift = [N]
    monkeypatch.setattr(moment, "haar_unitary_columns",
                        lambda n, seed, start=0: columns(n, seed, start + shift[0]))
    tail = moment.orbit_samples(lam, 7, seed).points
    alone = []
    for k in range(7):
        shift[0] = N + k
        alone.append(moment.orbit_samples(lam, 1, seed).points[0])
    assert np.array_equal(whole[:N], head[:N])
    assert np.array_equal(whole[N:], tail)
    assert np.array_equal(whole[N:N + 7], np.array(alone))


def test_haar_column_means_small():
    R = moment.haar_rotations(10000, 2024)
    means = R.mean(axis=0)
    assert np.max(np.abs(means)) < 0.05


#: The 12 roots +-e_i +- e_j of so(6).
ROOTS = tuple(tuple(s if k == i else t if k == j else 0 for k in range(3))
              for i in range(3) for j in range(i + 1, 3) for s in (1, -1) for t in (1, -1))
#: Generic directions: distinct nonzero |xi_i|, so no root is orthogonal to xi.
DH_DIRECTIONS = (
    (Fraction(1, 5), Fraction(-1, 2), Fraction(1)),
    (Fraction(2, 3), Fraction(1, 4), Fraction(-1)),
)
#: Kolmogorov-Smirnov bound c(alpha) / sqrt(n) at alpha = 1e-6, n = 20000.
KS_N = 20000
KS_BOUND = moment.dkw_halfwidth(KS_N)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dh_marginal_cdf(lam, xi):
    """Exact CDF of <mu, xi> under the Duistermaat-Heckman measure of the
    orbit of lam (the Haar push-forward): (M, F) with

        F(s) = sum_p (s - <p, xi>)_+^M / (M! prod_{beta: <beta, p> > 0} <beta, xi>)

    over the distinct points p of W.lam, normalised to F = 1 above the top
    breakpoint; M is the number of roots positive on p (half the orbit's
    dimension).  F takes a Fraction (exact) or a float array."""
    lam = tuple(Fraction(c) for c in lam)
    terms = []
    for p in weyl.weyl_orbit(lam):
        up = [b for b in ROOTS if _dot(b, p) > 0]
        weight = Fraction(1)
        for b in up:
            weight *= _dot(b, xi)
        terms.append((_dot(p, xi), 1 / (math.factorial(len(up)) * weight), len(up)))
    M = terms[0][2]
    assert all(m == M for _, _, m in terms)
    top = max(a for a, _, _ in terms)
    total = sum(c * (top - a) ** M for a, c, _ in terms)

    def F(s):
        if isinstance(s, Fraction):
            return sum(c / total * max(s - a, 0) ** M for a, c, _ in terms)
        return sum(float(c / total) * np.maximum(s - float(a), 0.0) ** M
                   for a, c, _ in terms)

    return M, F


def test_ks_distance_and_its_bound():
    # One draw at 1/4 against U(0, 1): the empirical CDF jumps from 0 to 1 there.
    assert moment.ks_distance(lambda v: v, np.array([0.25])) == 0.75
    x = (np.arange(100) + 0.5) / 100
    assert moment.ks_distance(lambda v: v, x[::-1]) == pytest.approx(0.005)
    assert math.isnan(moment.ks_distance(lambda v: v, np.array([0.5, np.nan])))
    assert moment.dkw_halfwidth(1) == pytest.approx(math.sqrt(math.log(2e6) / 2))
    # 2 exp(-2 n t^2) = alpha.
    assert 2 * math.exp(-2 * 400 * moment.dkw_halfwidth(400) ** 2) == pytest.approx(1e-6)


def test_dh_cdf_of_the_tetrahedron_orbit_is_uniform():
    # The orbit of (1, 1, 1) is CP^3; its moment image is uniform on the
    # tetrahedron W.(1, 1, 1), whose linear marginals have the divided
    # difference CDF sum_i (s - a_i)_+^3 / prod_{j != i} (a_j - a_i).
    for lam in ((1, 1, 1), (1, -1, 1)):
        for xi in DH_DIRECTIONS:
            M, F = dh_marginal_cdf(lam, xi)
            assert M == 3
            a = [_dot(p, xi) for p in weyl.weyl_orbit(tuple(map(Fraction, lam)))]
            assert len(set(a)) == 4
            for s in (min(a) - 1, *a, Fraction(-1, 3), Fraction(2, 7), max(a) + 1):
                want = Fraction(0)
                for i, ai in enumerate(a):
                    den = Fraction(1)
                    for j, aj in enumerate(a):
                        if j != i:
                            den *= aj - ai
                    want += max(s - ai, 0) ** 3 / den
                assert F(s) == want
            assert F(min(a)) == 0 and F(max(a)) == 1


def test_dh_cdf_degrees_and_monotonicity():
    # M = 6 generic, 5 on the (1, 1, 2) walls, 4 for (0, 0, 1), 3 for (1, +-1, 1).
    degrees = dict(zip(AGS_LAMBDAS, (3, 3, 4, 5, 5, 5, 6)))
    for lam, M in degrees.items():
        got, F = dh_marginal_cdf(lam, DH_DIRECTIONS[0])
        assert got == M
        # In floats the power sum cancels to about 1e-11 above the top point.
        s = np.linspace(-6.0, 6.0, 2001)
        f = F(s)
        assert np.all(np.diff(f) >= -1e-9)
        assert f[0] == 0.0 and abs(f[-1] - 1.0) <= 1e-9


@pytest.mark.parametrize("lam", AGS_LAMBDAS, ids=str)
def test_orbit_samples_follow_the_duistermaat_heckman_law(lam):
    for seed in (0, 1):
        pts = moment.orbit_samples(lam, KS_N, seed).points[:KS_N]
        for xi in DH_DIRECTIONS:
            _, F = dh_marginal_cdf(lam, xi)
            d = moment.ks_distance(F, pts @ np.array(xi, dtype=float))
            assert d <= KS_BOUND, (seed, xi, d)


def test_twistor_images_follow_the_duistermaat_heckman_law():
    for seed in (0, 1):
        pts = moment.twistor_structures(KS_N, seed)[:, (1, 3, 5), (0, 2, 4)]
        for xi in DH_DIRECTIONS:
            _, F = dh_marginal_cdf((1, 1, 1), xi)
            d = moment.ks_distance(F, pts @ np.array(xi, dtype=float))
            assert d <= KS_BOUND, (seed, xi, d)


def test_duistermaat_heckman_gate_rejects_unsigned_qr():
    # LAPACK Q without the R-diagonal sign fix is not Haar distributed.
    g = moment.normals(0, KS_N, 36).reshape(KS_N, 6, 6)
    q = np.linalg.qr(g)[0]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    # Image of R F R^T, F the Cartan form of lam: sum_j lam_j (R e_2j ^ R e_2j+1).
    planes = [wedges(q[:, :, 2 * j], q[:, :, 2 * j + 1])[:, (E12, E34, E56)] for j in range(3)]
    for lam in AGS_LAMBDAS:
        pts = sum(c * plane for c, plane in zip(map(float, lam), planes))
        d = max(moment.ks_distance(dh_marginal_cdf(lam, xi)[1], pts @ np.array(xi, dtype=float))
                for xi in DH_DIRECTIONS)
        assert d > KS_BOUND, (lam, d)


def test_duistermaat_heckman_gate_rejects_orthogonal_columns(monkeypatch):
    # The same construction on a real Gaussian, O(4) columns instead of U(4),
    # is not the Haar push-forward.
    monkeypatch.setattr(moment, "haar_unitary_columns", lambda n, seed, start=0: (
        moment._gram_schmidt(moment.normals(seed, n, 12, start).reshape(n, 4, 3))))
    for lam in AGS_LAMBDAS:
        pts = moment.orbit_samples(lam, KS_N, 0).points[:KS_N]
        d = max(moment.ks_distance(dh_marginal_cdf(lam, xi)[1], pts @ np.array(xi, dtype=float))
                for xi in DH_DIRECTIONS)
        assert d > KS_BOUND, (lam, d)


def test_orbit_samples_contained():
    cloud = moment.orbit_samples((1, 1, 1), 1000, 5)
    assert len(cloud.points) == 1000 + 4
    P = moment.moment_polytope((1, 1, 1))
    assert float(np.max(polytopes.violations_many(P, cloud.points))) <= 1e-9


def test_orbit_samples_zero_point():
    cloud = moment.orbit_samples((0, 0, 0), 50, 5)
    assert np.max(np.abs(cloud.points)) <= 1e-15


def test_orbit_samples_csv_deterministic():
    a = moment.orbit_samples((1, 0.5, 2), 100, 9).to_csv()
    b = moment.orbit_samples((1, 0.5, 2), 100, 9).to_csv()
    assert a == b
    header, cols = a.splitlines()[:2]
    assert header.startswith("#") and "seed=9" in header and "n=100" in header
    assert cols == "x,y,z"


def reference_csv(cloud):
    """`SampleCloud.to_csv` as written before it read one flat list: a list per row."""
    rows = [f"{x!r},{y!r},{z!r}" for x, y, z in cloud.points.tolist()]
    return "\n".join([f"# {cloud.source} stream={moment.STREAM}", "x,y,z", *rows]) + "\n"


def test_to_csv_is_the_per_row_writer_byte_for_byte():
    odd = np.array([[-0.0, 1e-05, 1e16], [5e-324, 2.0, math.nan], [math.inf, -math.inf, 0.1],
                    [-1.5e-300, 1.7976931348623157e308, 123456789.125]])
    wide = np.arange(60.0).reshape(5, 12) / 7.0
    clouds = [moment.SampleCloud(odd, "source=odd"),
              moment.SampleCloud(np.empty((0, 3)), "source=empty n=0"),
              moment.SampleCloud(wide[:, 2:11:4], "source=strided"),
              moment.SampleCloud(wide.reshape(20, 3)[::-2], "source=reversed"),
              moment.SampleCloud(wide.reshape(3, 20).T, "source=transposed"),
              moment.orbit_samples((1, 0.5, 2), 300, 9)]
    for cloud in clouds:
        assert cloud.to_csv() == reference_csv(cloud)
    assert clouds[0].to_csv().splitlines()[2:4] == ["-0.0,1e-05,1e+16", "5e-324,2.0,nan"]
    assert clouds[1].to_csv() == "# source=empty n=0 stream=philox4x64-10-ctr\nx,y,z\n"
    # Each field reads back as the drawn double.
    rows = [line.split(",") for line in clouds[-1].to_csv().splitlines()[2:]]
    assert np.array_equal(np.array(rows, dtype=float), clouds[-1].points)


def test_to_csv_of_a_large_cloud_runs_no_garbage_collection():
    # A list per row would make the cyclic collector run several times here.
    cloud = moment.orbit_samples((1, 0.5, 2), 5000, 1)
    stops = []

    def count(phase, info):
        if phase == "stop":
            stops.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        text = cloud.to_csv()
    finally:
        gc.callbacks.remove(count)
    assert stops == []
    assert text.count("\n") == 5000 + 24 + 2


def test_cloud_hull_reaches_polytope():
    # Contained and within 1e-9 of every vertex: the cloud's hull is the octahedron.
    cloud = moment.orbit_samples((0, 0, 1), 20000, 3)
    assert np.max(moment.moment_violations((0, 0, 1), cloud.points)) <= 1e-9
    assert np.max(moment.vertex_gaps((0, 0, 1), cloud.points)) <= 1e-9
    assert np.min(moment.vertex_gaps((0, 0, 1), cloud.points[:20000])) > 1e-9


def test_cloud_hull_is_the_exact_moment_polytope():
    # The cloud carries the exact Weyl images, so its exact hull is conv(W.lam).
    P = polytopes.hull(moment.orbit_samples((1, 0.5, 2), 2000, 1).points)
    Q = moment.moment_polytope((1, 0.5, 2))
    assert (P.vertices, P.facets) == (Q.vertices, Q.facets)
    assert (len(P.vertices), len(P.facets)) == (24, 14)


def test_vertex_gaps_measure_the_shortfall_at_each_vertex():
    lam = (1.0, 0.5, 2.0)
    images = np.array(weyl.weyl_orbit(lam), dtype=float)
    assert np.all(moment.vertex_gaps(lam, images) == 0.0)
    # A cloud shrunk by s falls short of every vertex by (1 - s) |lam|.
    gaps = moment.vertex_gaps(lam, 0.75 * images)
    assert np.allclose(gaps, 0.25 * np.linalg.norm(lam), rtol=0, atol=1e-15)
    # Without one image v, the gap at v is (|v|^2 - max <v, u>) / |v| over the rest.
    v, rest = images[0], images[1:]
    gaps = moment.vertex_gaps(lam, rest)
    expected = (v @ v - np.max(rest @ v)) / np.linalg.norm(v)
    assert np.max(gaps) == pytest.approx(expected, abs=1e-15) and expected > 0
    assert np.count_nonzero(gaps) == 1
    assert np.all(moment.vertex_gaps((0, 0, 0), np.zeros((1, 3))) == 0.0)


def test_moment_polytope_facets():
    P = moment.moment_polytope((1, 1, 1))
    assert {(f.normal, f.offset) for f in P.facets} == {
        ((-1, -1, -1), 1),
        ((-1, 1, 1), 1),
        ((1, -1, 1), 1),
        ((1, 1, -1), 1),
    }
    O = moment.moment_polytope((0, 0, 1))
    assert len(O.facets) == 8
    T = moment.moment_polytope((1, 1, 2))
    assert len(T.vertices) == 12
    # Reduction happens internally: any orbit point gives the same polytope.
    assert moment.moment_polytope((-1, -1, -1)) == moment.moment_polytope((1, -1, 1))


STAB_CASES = [
    ((1, 1, 1), 9),
    ((1, -1, 1), 9),
    ((0, 0, 1), 7),
    ((1, 1, 2), 5),
    ((1, -1, 2), 5),
    ((2, 1, 2), 5),
    ((2, 0, 2), 5),
    ((1, 0.5, 2), 3),
]


@pytest.mark.parametrize("lam,dim", STAB_CASES)
def test_stabilizer_dimensions(lam, dim):
    form = TwoForm.from_cartan(lam)
    basis = moment.stabilizer_algebra(form)
    assert len(basis) == dim
    assert dim == STABILIZER_DIM[classify(form)]
    assert dim == 15 - (15 - dim)  # orbit dim + stabilizer dim = 15
    F = form.endomorphism()
    for X in basis:
        assert np.max(np.abs(X @ F - F @ X)) <= 1e-12
        assert np.max(np.abs(X + X.T)) <= 1e-14


def test_stabilizer_rejects_zero_form():
    with pytest.raises(ValueError):
        moment.stabilizer_algebra(TwoForm.zero())


def test_singular_value_polytopes_tetrahedron():
    polys = moment.singular_value_polytopes((1, 1, 1))
    dims = sorted(p.dim for p in polys)
    assert dims == [0] * 4 + [1] * 6 + [2] * 4
    # The 2-dimensional members are exactly the facets of the tetrahedron.
    P = moment.moment_polytope((1, 1, 1))
    facet_vertex_sets = {
        tuple(sorted(P.vertices[k] for k in t))
        for t in P.facet_tight_vertices()
    }
    family_faces = {
        tuple(sorted(p.vertices)) for p in polys if p.dim == 2
    }
    assert family_faces == facet_vertex_sets


def test_singular_value_polytopes_generic_cover_facets():
    lam = (1, 0.5, 2)
    polys = moment.singular_value_polytopes(lam)
    P = moment.moment_polytope(lam)
    sizes = sorted(len(p.vertices) for p in polys)
    assert sizes == [4] * 6 + [6] * 8
    facet_vertex_sets = {
        tuple(sorted(P.vertices[k] for k in t))
        for t in P.facet_tight_vertices()
    }
    family = {tuple(sorted(p.vertices)) for p in polys}
    assert facet_vertex_sets <= family


def _one_class(lam, i, w, n, seed):
    """The row of verify_singular for the single class (i, w)."""
    (row,) = moment.verify_singular(lam, [(i, w)], n, seed)
    return row


def _passes(row, tol=1e-9):
    return row["max_violation"] <= tol and row["law_deviation"] <= 1.0


def test_verify_singular_fixed_point():
    rep = _one_class((1, 1, 1), 1, weyl.IDENTITY, 300, 11)
    assert _passes(rep)
    assert rep["polytope_vertices"] == 1


def test_verify_singular_hexagon_and_edge():
    rep = _one_class((1, 0.5, 2), 1, weyl.IDENTITY, 500, 11)
    assert _passes(rep) and rep["max_violation"] <= 1e-9
    rep = _one_class((1, 1, 1), 2, weyl.IDENTITY, 500, 11)
    assert _passes(rep)
    assert rep["polytope_vertices"] == 2


def test_verify_singular_moved_class():
    w = weyl.weyl_group()[5]
    rep = _one_class((1, 0.5, 2), 2, w, 300, 4)
    assert _passes(rep)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_verify_singular_rejects_a_bad_weight_index(i):
    with pytest.raises(BadIndex):
        _one_class((1, 0.5, 2), i, weyl.IDENTITY, 10, 1)


def test_verify_singular_rejects_a_matrix_outside_the_group():
    not_in_group = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    with pytest.raises(ValueError, match="Weyl group"):
        _one_class((1, 0.5, 2), 1, not_in_group, 10, 1)


def _reference_images(d, q, n, seed):
    """One class's stabilizer images drawn alone, as each class once drew
    them: its own U(3) columns or U(2) moduli from the seed."""
    d = np.asarray(d, dtype=float)
    q = np.asarray(q, dtype=float)
    blocks = sorted((np.flatnonzero(q == v) for v in np.unique(q)), key=len)
    theta = np.empty((n, 4))
    if len(blocks[0]) == 2:
        c = moment.uniforms(moment.stream(seed, n, 2))
        for (a, b), cb in zip(sorted(blocks, key=min), c.T):
            theta[:, a] = d[b] + cb * (d[a] - d[b])
            theta[:, b] = d[a] + cb * (d[b] - d[a])
    else:
        (j,), block = blocks
        U = moment._gram_schmidt(moment.normals(seed, n, 12).view(np.complex128).reshape(n, 3, 2))
        theta[:, j] = d[j]
        theta[:, block] = d[block[2]] + np.einsum("njc,c->nj", U.real ** 2 + U.imag ** 2,
                                                  d[block[:2]] - d[block[2]])
    return np.einsum("nk,ck->nc", theta, np.array(CARTAN_QUADRUPLES)) / 4.0


def _reference_row(lam, i, w, n, seed):
    """One class checked on its own: its images, one moment_violations call,
    its off-plane distances and its spread, as the per-class form did."""
    lam = tuple(float(c) for c in lam)
    vertices = weyl.singular_vertex_set(tuple(Fraction(c) for c in lam), w, i)
    normal = np.array(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]), dtype=float)
    base = weyl.act(w, lam)
    d = cartan_to_spin_weight(base)
    q = cartan_to_spin_weight(normal)
    pts = _reference_images(d, q, n, seed)
    off_plane = np.abs(pts @ normal - normal @ base) / np.linalg.norm(normal)
    worst = float(np.max(np.maximum(moment.moment_violations(lam, pts), off_plane)))
    e_mu, expected, top = moment.stabilizer_law(d, q)
    spread2 = float(np.mean(np.sum((pts - np.array(e_mu, dtype=float)) ** 2, axis=1)))
    width = (moment.bernstein_halfwidth(n, float((top - expected) * expected), float(top - expected))
             + moment.LAW_FLOOR * (1.0 + max(map(abs, d))) ** 2)
    return {"max_violation": worst, "mean_spread2": spread2, "expected_spread2": float(expected),
            "law_deviation": abs(spread2 - float(expected)) / width,
            "polytope_vertices": len(vertices), "i": i, "w": weyl.element_to_json(w)}


@pytest.mark.parametrize("n", [1, 100, 10_000])
def test_verify_singular_rows_equal_the_per_class_reference(n):
    # Shared draws and stacked gates change no figure: each class's row is
    # its reference row, max_violation up to BLAS rounding.
    lam = (1.0, 0.5, 2.0)
    classes = weyl.singular_classes()
    for seed in range(4):
        rows = moment.verify_singular(lam, classes, n, seed)
        assert len(rows) == len(classes)
        for (i, w), row in zip(classes, rows):
            ref = _reference_row(lam, i, w, n, seed)
            assert abs(row["max_violation"] - ref.pop("max_violation")) <= 1e-15
            assert {key: row[key] for key in ref} == ref, (n, seed, i, w)
            assert row["face"] == weyl.singular_vertex_set(tuple(map(Fraction, lam)), w, i)


def test_stabilizer_images_are_the_same_in_batches_or_whole():
    lam, seed, batch = (1.0, 0.5, 2.0), 5, moment.HAAR_BATCH
    n = 2 * batch + 1
    orbits = [(cartan_to_spin_weight(weyl.act(w, lam)),
               cartan_to_spin_weight(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])))
              for i, w in weyl.singular_classes()]
    whole = moment.stabilizer_images(orbits, n, seed)
    parts = [moment.stabilizer_images(orbits, min(n, lo + batch) - lo, seed, start=lo)
             for lo in range(0, n, batch)]
    assert [len(p[0]) for p in parts] == [batch, batch, 1]
    assert np.array_equal(whole, np.concatenate(parts, axis=1))
    # Each class's images are the ones it drew alone.
    for (d, q), pts in zip(orbits, whole):
        assert np.array_equal(pts, _reference_images(d, q, n, seed))


def _reference_law(d, q):
    """stabilizer_law as Fraction arithmetic on the entries of d."""
    d = [Fraction(c) for c in d]
    blocks = [[k for k in range(4) if q[k] == v] for v in sorted(set(q))]
    means = [sum(d[k] for k in b) / len(b) for b in blocks]
    squares = [sum((d[k] - mean) ** 2 for k in b) for b, mean in zip(blocks, means)]
    expected = sum(s / (4 * (len(b) + 1)) for b, s in zip(blocks, squares))
    step = (means[0] - means[-1]) / 4
    e_mu = tuple(step * sum(int(row[k]) for k in blocks[0]) for row in CARTAN_QUADRUPLES)
    return e_mu, expected, sum(squares) / 4


def _reference_verify_singular(lam, classes, n, seed):
    """verify_singular class by class: each face a `singular_vertex_set`,
    each law `_reference_law`, the gates stacked over the classes."""
    lam = tuple(float(c) for c in lam)
    exact = tuple(Fraction(c) for c in lam)
    rows, data = [], []
    for i, w in classes:
        face = weyl.singular_vertex_set(exact, w, i)
        normal, base = weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]), weyl.act(w, lam)
        d, q = cartan_to_spin_weight(base), cartan_to_spin_weight(normal)
        e_mu, expected, top = _reference_law(d, q)
        width = (moment.bernstein_halfwidth(n, float((top - expected) * expected),
                                            float(top - expected))
                 + moment.LAW_FLOOR * (1.0 + max(map(abs, d))) ** 2)
        data.append(((d, q), (normal, base), e_mu, width))
        rows.append({"i": i, "w": weyl.element_to_json(w), "face": face,
                     "polytope_vertices": len(face), "expected_spread2": float(expected)})
    orbits, planes, e_mu, widths = zip(*data)
    normal, base = np.array(planes, dtype=float).transpose(1, 0, 2)
    offsets = np.einsum("kc,kc->k", normal, base)[:, None]
    lengths = np.linalg.norm(normal, axis=1, keepdims=True)
    e_mu = np.array(e_mu, dtype=float)[:, None, :]
    worst, sums = np.full(len(rows), -np.inf), np.zeros(len(rows))
    for lo in range(0, n, moment.HAAR_BATCH):
        pts = moment.stabilizer_images(orbits, min(n, lo + moment.HAAR_BATCH) - lo, seed, start=lo)
        off_plane = np.abs(np.einsum("knc,kc->kn", pts, normal) - offsets) / lengths
        violations = moment.moment_violations(lam, pts.reshape(-1, 3)).reshape(off_plane.shape)
        worst = np.maximum(worst, np.max(np.maximum(violations, off_plane), axis=1))
        sums += np.sum(np.sum((pts - e_mu) ** 2, axis=2), axis=1)
    for row, bad, spread2, width in zip(rows, worst.tolist(), (sums / n).tolist(), widths):
        row.update(max_violation=bad, mean_spread2=spread2,
                   law_deviation=abs(spread2 - row["expected_spread2"]) / width)
    return rows


#: Chamber points of every orbit pattern, and one whose spin weights round.
_SINGULAR_LAMBDAS = (*AGS_LAMBDAS, (0.1, -0.03, 0.7))


@pytest.mark.parametrize("n", [1, 100, moment.HAAR_BATCH + 1])
def test_verify_singular_rows_equal_the_class_by_class_body(n):
    # Faces from one orbit pass and laws on integers change no figure: every
    # row is the class-by-class row, value and type, at each chamber pattern.
    # Past one Haar batch, the generic point and the rounding one with seed 0
    # cross the batch boundary.
    classes = weyl.singular_classes()
    big = n > moment.HAAR_BATCH
    for lam in ((1.0, 0.5, 2.0), (0.1, -0.03, 0.7)) if big else _SINGULAR_LAMBDAS:
        for seed in range(1 if big else 3):
            rows = moment.verify_singular(lam, classes, n, seed)
            refs = _reference_verify_singular(lam, classes, n, seed)
            assert len(rows) == len(refs) == 14
            for row, ref in zip(rows, refs):
                assert repr({key: row[key] for key in ref}) == repr(ref), (lam, seed, n)
                assert row["face"] == tuple(weyl.weyl_orbit(tuple(map(Fraction, lam)))[k]
                                            for k in row["face_indices"])


def test_singular_faces_are_the_singular_vertex_sets():
    # Exact and float points, generic and on walls, and classes beyond the 14.
    classes = [(i, w) for i in (1, 2, 3) for w in weyl.weyl_group()]
    for lam in (*_SINGULAR_LAMBDAS, (Fraction(1, 3), Fraction(-1, 7), 2), (0, 0, 0)):
        orbit, faces = weyl.singular_faces(lam, classes)
        assert orbit == weyl.weyl_orbit(lam)
        for (i, w), face in zip(classes, faces):
            assert tuple(orbit[k] for k in face) == weyl.singular_vertex_set(lam, w, i)
    with pytest.raises(ValueError, match="Weyl group"):
        weyl.singular_faces((1, 0.5, 2), [(1, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))])
    with pytest.raises(BadIndex):
        weyl.singular_faces((1, 0.5, 2), [(4, weyl.IDENTITY)])


def test_stabilizer_law_is_the_fraction_law_on_random_chamber_points():
    # The integer law against Fraction arithmetic on every class of 60 random
    # float chamber points, whose spin weights round in their last bits.
    rng = np.random.default_rng(7)
    for _ in range(60):
        small, mid, big = np.sort(rng.uniform(0.0, 3.0, 3) * 10.0 ** rng.integers(-3, 4))
        lam = (float(mid), float(small) * float(rng.choice((-1, 1))), float(big))
        for i, w in weyl.singular_classes():
            d = cartan_to_spin_weight(weyl.act(w, lam))
            q = cartan_to_spin_weight(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]))
            got = moment.stabilizer_law(d, q)
            assert got == _reference_law(d, q), (lam, i, w)
            assert all(type(c) is Fraction for c in (*got[0], got[1], got[2]))
    for q in ((0, 0, 0, 0), (1, 1, 1, 1)):
        assert moment.stabilizer_law((-3.5, 1.5, 2.5, -0.5), q) == _reference_law(
            (-3.5, 1.5, 2.5, -0.5), q)


def test_stabilizer_images_refuse_one_block_and_point_to_orbit_samples():
    d = cartan_to_spin_weight((1.0, 0.5, 2.0))
    with pytest.raises(ValueError, match=r"all of SU\(4\).*orbit_samples"):
        moment.stabilizer_images([(d, (0.0, 0.0, 0.0, 0.0))], 5, 0)
    # A torus-like q with three values has no U(3) or U(2) x U(2) blocks either.
    with pytest.raises(ValueError, match=r"blocks of sizes 2 \+ 2 or 1 \+ 3"):
        moment.stabilizer_images([(d, (0.0, 1.0, 2.0, 2.0))], 5, 0)


@pytest.mark.parametrize("lam", [(1.0, 0.5, 2.0), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0)])
def test_one_block_law_is_the_mean_of_orbit_samples(lam):
    # With q constant the stabilizer is all of SU(4) and its orbit is the one
    # orbit_samples draws: E mu = 0, and the mean |mu|^2 of the Haar images
    # lies within the Bernstein half-width of E X = S / 20 (21/20 at (1, 0.5, 2)).
    n = 20000
    e_mu, expected, top = moment.stabilizer_law(cartan_to_spin_weight(lam), (1, 1, 1, 1))
    assert e_mu == (0, 0, 0)
    if lam == (1.0, 0.5, 2.0):
        assert expected == Fraction(21, 20)
    width = moment.bernstein_halfwidth(n, float((top - expected) * expected),
                                       float(top - expected))
    for seed in range(3):
        pts = moment.orbit_samples(lam, n, seed).points[:n]
        X = np.sum(pts ** 2, axis=1)
        assert np.max(X) <= float(top) * (1 + 1e-12)
        assert abs(np.mean(X) - float(expected)) <= width, (lam, seed)


def test_fixed_points_project_to_weyl_orbit():
    lam = (1, 0.5, 2)
    for p in weyl.weyl_orbit(lam):
        f = TwoForm.from_cartan(p)
        assert max(abs(a - b) for a, b in zip(moment.mu_t(f), p)) <= 1e-12


def test_monte_carlo_volume_ratio_self():
    P = moment.moment_polytope((1, 0.5, 2))
    assert moment.monte_carlo_volume_ratio(P, P, 20000, 1) == 1.0


def test_exp_skew_rotation():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    X = A - A.T
    R = moment.exp_skew(X)
    assert np.max(np.abs(R.T @ R - np.eye(6))) <= 1e-12
    assert abs(np.linalg.det(R) - 1) <= 1e-12
    stack = moment.exp_skew(np.stack([X, 2 * X, -X]))
    for k, c in enumerate((1, 2, -1)):
        assert np.array_equal(stack[k], moment.exp_skew(c * X))


def _block_unitary(q, normals, c):
    """The block-diagonal 4x4 unitary of one stabilizer draw, built whole: a
    U(3) block completes its two Gram-Schmidt columns by a third orthonormal
    one; a U(2) block is [[sqrt c, -sqrt(1 - c)], [sqrt(1 - c), sqrt c]]."""
    U = np.zeros((4, 4), dtype=complex)
    blocks = sorted((np.flatnonzero(q == v) for v in np.unique(q)), key=len)
    if len(blocks[0]) == 2:
        for (a, b), cb in zip(sorted(blocks, key=min), c):
            U[np.ix_((a, b), (a, b))] = [[math.sqrt(cb), -math.sqrt(1 - cb)],
                                         [math.sqrt(1 - cb), math.sqrt(cb)]]
    else:
        (j,), block = blocks
        g = normals.view(complex).reshape(3, 2)
        cols = []
        for v in (g[:, 0], g[:, 1], np.eye(3)[np.argmin(np.abs(g[:, 0]) + np.abs(g[:, 1]))]):
            for u in cols:
                v = v - u * np.vdot(u, v)
            cols.append(v / np.linalg.norm(v))
        U[j, j] = 1.0
        U[np.ix_(block, block)] = np.column_stack(cols)
    return U


def test_verify_singular_matches_the_per_sample_loop():
    # A (3, 1) class, a (2, 2) class and a (1, 3) class.
    for i, k in ((3, 7), (2, 5), (1, 0)):
        _check_against_the_per_sample_loop((1.0, 0.5, 2.0), i, weyl.weyl_group()[k], 60, 5)


def _check_against_the_per_sample_loop(lam, i, w, n, seed):
    rep = _one_class(lam, i, w, n, seed)
    # Reference: one block-diagonal unitary, diag(U D U*) and a face hull per draw.
    q = np.array(cartan_to_spin_weight(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])))
    D = np.diag(cartan_to_spin_weight(weyl.act(w, lam)))
    G = moment.normals(seed, n, 12)
    C = moment.uniforms(moment.stream(seed, n, 2))
    pts = []
    for s in range(n):
        U = _block_unitary(q, G[s], C[s])
        assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-14
        pts.append(spin_weight_to_cartan(np.diag(U @ D @ U.conj().T).real, tol=1e-9))
    poly = polytopes.hull(weyl.singular_vertex_set(tuple(map(Fraction, lam)), w, i))
    assert len(poly.vertices) == rep["polytope_vertices"]
    worst = float(np.max(polytopes.violations_many(poly, np.array(pts))))
    assert abs(rep["max_violation"] - worst) <= 1e-15
    (images,) = moment.stabilizer_images([(np.diag(D), q)], n, seed)
    assert np.max(np.abs(images - pts)) <= 1e-14


def test_the_exp_skew_flow_and_the_block_sampler_land_on_the_same_face():
    # The old sampler of verify singular (Gaussian coordinates of the
    # stabilizer algebra, exp_skew, R F R^T) and the block sampler both fill
    # the face conv(w.(W_i.lam)) of every class, and no other face.
    lam, n, seed = (1.0, 0.5, 2.0), 200, 3
    exact = tuple(map(Fraction, lam))
    for i, w in weyl.singular_classes():
        normal = weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])
        basis = moment.stabilizer_algebra(TwoForm.from_cartan(normal))
        coords = moment.normals(seed, n, len(basis)) * (np.pi / 2)
        R = moment.exp_skew(np.einsum("kn,nab->kab", coords, basis))
        conj = R @ TwoForm.from_cartan(weyl.act(w, lam)).endomorphism() @ np.swapaxes(R, 1, 2)
        old = conj[:, (1, 3, 5), (0, 2, 4)]
        (new,) = moment.stabilizer_images([(cartan_to_spin_weight(weyl.act(w, lam)),
                                            cartan_to_spin_weight(normal))], n, seed)
        face = polytopes.hull(weyl.singular_vertex_set(exact, w, i))
        for pts in (old, new):
            assert np.max(polytopes.violations_many(face, pts)) <= 1e-12, (i, w)
            # Neither flow stays on a smaller face: its cloud spans the face.
            assert np.linalg.matrix_rank(pts - pts[0], tol=1e-9) == face.dim, (i, w)


def test_stabilizer_law_of_the_generic_point():
    # d = (-7/2, 3/2, 5/2, -1/2).  Class (1, id): blocks {0} and {1, 2, 3},
    # whose d has mean 7/6 and squared spread S = 14/3, so E X = S / 16 and
    # max X = S / 4.  Class (2, id): blocks {0, 3} and {1, 2}, S = 9/2 and 1/2.
    d = cartan_to_spin_weight((1.0, 0.5, 2.0))
    e_mu, expected, top = moment.stabilizer_law(d, cartan_to_spin_weight((1, 1, 1)))
    assert (expected, top) == (Fraction(7, 24), Fraction(7, 6))
    # E theta = (-7/2, 7/6, 7/6, 7/6), and B E theta / 4 is 7/6 in each row.
    assert e_mu == (Fraction(7, 6),) * 3
    e_mu, expected, top = moment.stabilizer_law(d, cartan_to_spin_weight((0, 0, 1)))
    assert (expected, top) == (Fraction(9, 2) / 12 + Fraction(1, 2) / 12, Fraction(5, 4))
    assert e_mu == (0, 0, 2)
    # The zero-spread class of the fixed-point test.
    e_mu, expected, top = moment.stabilizer_law((-3.0, 1.0, 1.0, 1.0), (-3, 1, 1, 1))
    assert e_mu == (1, 1, 1) and expected == top == 0


def test_stabilizer_law_of_one_block_is_the_whole_orbit_law():
    # With q constant the stabilizer is all of SU(4): E mu = 0, E X = S / 20
    # = |lam|^2 / 5 and max X = S / 4.  At (1, 1, 1) this is the law of the
    # scan-complex draws, whose constants iwasawa derives by hand.
    e_mu, expected, top = moment.stabilizer_law(cartan_to_spin_weight((1, 1, 1)), (0, 0, 0, 0))
    assert e_mu == (0, 0, 0)
    assert expected == iwasawa._MOMENT_NORM2_MEAN == Fraction(3, 5) and top == 3
    assert top - expected == iwasawa._MOMENT_NORM2_SPREAD
    for lam, mean in (((1, 0.5, 2), Fraction(21, 20)), ((1, 1, 2), Fraction(6, 5)),
                      ((0, 0, 1), Fraction(1, 5))):
        e_mu, expected, top = moment.stabilizer_law(cartan_to_spin_weight(lam), (1, 1, 1, 1))
        assert e_mu == (0, 0, 0) and expected == mean and top == 5 * mean


@pytest.mark.parametrize("i", [1, 2, 3])
def test_stabilizer_images_follow_their_exact_law(i):
    # The sample means of mu and of X over 2e5 images against the exact E mu
    # and E X, and no X above max X.
    lam, n = (1.0, 0.5, 2.0), 200000
    d = cartan_to_spin_weight(lam)
    q = cartan_to_spin_weight(weyl.FUNDAMENTAL_WEIGHTS[i])
    (pts,) = moment.stabilizer_images([(d, q)], n, 8)
    e_mu, expected, top = moment.stabilizer_law(d, q)
    X = np.sum((pts - np.array(e_mu, dtype=float)) ** 2, axis=1)
    assert np.max(X) <= float(top) + 1e-12
    assert abs(np.mean(X) - float(expected)) <= 5 * np.std(X) / math.sqrt(n)
    assert np.max(np.abs(np.mean(pts, axis=0) - np.array(e_mu, dtype=float))) <= 0.01


def test_verify_singular_law_gate_rejects_draws_at_the_mean(monkeypatch):
    # Draws on the right face with the wrong law: c = 1/2 on every U(2) block
    # puts each image at E mu = (0, 0, 2), so the spread reads 0 against 5/12.
    rep = _one_class((1, 0.5, 2), 2, weyl.IDENTITY, 100, 1)
    assert _passes(rep) and rep["law_deviation"] <= 1.0
    assert rep["expected_spread2"] == 5 / 12
    monkeypatch.setattr(moment, "uniforms", lambda w: np.full(w.shape, 0.5))
    rep = _one_class((1, 0.5, 2), 2, weyl.IDENTITY, 100, 1)
    assert rep["max_violation"] <= 1e-9 and rep["mean_spread2"] == 0.0
    assert not _passes(rep) and rep["law_deviation"] > 1.0


TOL = 1e-9


def _chamber_point(kind, a, b, u):
    """A chamber point z >= x >= |y| of the given orbit pattern."""
    return {
        "zero": (0.0, 0.0, 0.0),
        "p_plus": (a, a, a),
        "p_minus": (a, -a, a),
        "plane": (0.0, 0.0, a),
        "f1_plus": (a, a, a + b),
        "f1_minus": (a, -a, a + b),
        "f2": (a, a * u, a),
        "wall": (a, 0.0, a + b),
        "generic": (a, a * u, a + b),
    }[kind]


coordinate = st.floats(-6.0, 6.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("zero", "p_plus", "p_minus", "plane", "f1_plus",
                          "f1_minus", "f2", "wall", "generic")),
    a=st.floats(0.1, 3.0),
    b=st.floats(0.1, 3.0),
    u=st.floats(-0.95, 0.95),
    points=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1,
                    max_size=40),
    vertex_noise=st.floats(-1e-6, 1e-6),
)
def test_moment_violations_agree_with_the_exact_hull(kind, a, b, u, points,
                                                     vertex_noise):
    lam = _chamber_point(kind, a, b, u)
    P = moment.moment_polytope(lam)
    vertices = np.array([[float(c) for c in v] for v in P.vertices])
    pts = np.vstack([np.array(points), vertices, vertices + vertex_noise])
    facet = polytopes.violations_many(P, pts)
    closed = moment.moment_violations(lam, pts)
    # Every facet is among the 14 planes, and every other plane supports the
    # polytope at a vertex or an edge, whose normal cone the facets span.
    assert np.all(closed >= facet - 1e-12)
    assert np.all(closed <= 3.0 * np.maximum(facet, 0.0) + 1e-12)
    clear = (facet <= TOL / 3.0) | (facet > TOL)
    assert np.array_equal((closed <= TOL)[clear], (facet <= TOL)[clear])


def test_moment_violations_take_one_triple_per_row():
    lams = np.array([(1.0, 0.5, 2.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    pts = np.array([(2.0, 1.0, 0.5), (0.0, 0.0, 1.5), (1.0, -1.0, -1.0)])
    rows = moment.moment_violations(lams, pts)
    for k in range(3):
        assert rows[k] == moment.moment_violations(lams[k], pts[k])[0]
    assert rows[0] <= 0.0 and rows[1] == pytest.approx(0.5) and rows[2] <= 0.0
    # The offsets are Weyl-invariant in lam: no chamber reduction is needed.
    assert np.array_equal(moment.moment_violations((-1.0, -1.0, -1.0), pts),
                          moment.moment_violations((1.0, -1.0, 1.0), pts))


def _weyl_sweep_violations(lam, points):
    """Reference: offsets max n.(w.lam) over the 24 Weyl images of lam, an
    (..., 24, 14) table reduced over its middle axis."""
    images = np.einsum("wij,...j->...wi", moment._WEYL, np.asarray(lam, dtype=float))
    offsets = np.max(images @ moment._NORMALS.T, axis=-2)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.max((pts @ moment._NORMALS.T - offsets) / moment._NORMAL_LENGTHS, axis=1)


def test_the_orbit_table_splits_the_normals_4_6_4_into_weight_orbits():
    assert np.bincount(moment._NORMAL_ORBIT).tolist() == [4, 6, 4]
    starts = moment._ORBIT_STARTS + (len(moment._ORBIT_NORMALS),)
    for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
        orbit = weyl.weyl_orbit(weyl.FUNDAMENTAL_WEIGHTS[i + 1])
        assert sorted(map(tuple, moment._ORBIT_NORMALS[lo:hi].tolist())) == list(orbit)
        normals = moment._NORMALS[moment._NORMAL_ORBIT == i]
        assert sorted(map(tuple, normals.tolist())) == list(orbit)


_ORBIT_KINDS = ("zero", "p_plus", "p_minus", "plane", "f1_plus", "f1_minus", "f2", "wall",
                "generic")


@st.composite
def weyl_moved_rows(draw):
    """(lam, points) of one row: a chamber point of any orbit type, or a tie
    a = b, moved 1e-13 off a wall or not, then by a Weyl element, its zeros
    signed at random and all scaled by 2^e; points in the box |lam| [-1, 1]^3
    and the Weyl images of lam."""
    kind = draw(st.sampled_from(_ORBIT_KINDS))
    a, u = draw(st.floats(0.1, 3.0)), draw(st.floats(-0.95, 0.95))
    b = draw(st.one_of(st.just(a), st.floats(0.1, 3.0)))
    nudge = draw(st.sampled_from((0.0, 1e-13, -1e-13))) * np.array(
        draw(st.sampled_from(weyl.ROOTS)))
    lam = np.add(_chamber_point(kind, a, b, u), nudge)
    lam = np.array(weyl.act(draw(st.sampled_from(weyl.weyl_group())), tuple(lam.tolist())))
    lam = np.where((lam == 0.0) & draw(arrays(bool, 3)), -0.0, lam)
    lam = lam * 2.0 ** draw(st.sampled_from((-500, -1, 0, 5, 500)))
    box = draw(arrays(float, st.tuples(st.integers(0, 6), st.just(3)),
                      elements=st.floats(-1.0, 1.0)))
    points = np.vstack([box * np.linalg.norm(lam), weyl.weyl_orbit(tuple(lam.tolist()))])
    return lam, points


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(weyl_moved_rows(), min_size=1, max_size=6), nan_row=st.integers(0, 100))
def test_per_row_offsets_are_the_weyl_sweep_to_rounding(rows, nan_row):
    lams = np.vstack([np.tile(lam, (len(points), 1)) for lam, points in rows])
    pts = np.vstack([points for _, points in rows])
    got = moment.moment_violations(lams, pts)
    scale = 1.0 + np.linalg.norm(lams, axis=1)
    assert np.all(np.abs(got - _weyl_sweep_violations(lams, pts)) <= 1e-15 * scale)
    # Stacked rows are row-by-row calls bit for bit.
    one_by_one = np.concatenate([moment.moment_violations(lam, p) for lam, p in zip(lams, pts)])
    assert got.tobytes() == one_by_one.tobytes()
    # A NaN lam spoils its own row only.
    k = nan_row % len(lams)
    spoilt = lams.copy()
    spoilt[k, nan_row % 3] = np.nan
    out = moment.moment_violations(spoilt, pts)
    assert np.isnan(out[k])
    assert np.delete(out, k).tobytes() == np.delete(got, k).tobytes()


def test_an_empty_stack_of_triples_has_no_violations():
    out = moment.moment_violations(np.zeros((0, 3)), np.zeros((0, 3)))
    assert out.shape == (0,) and out.dtype == float


@pytest.mark.parametrize("lam", [*AGS_LAMBDAS, klein.PRISM_LAMBDA, (0.1, -0.03, 0.7)])
def test_one_triple_offsets_are_the_weyl_sweep_bit_for_bit(lam):
    # So the sample, verify ags and verify singular reports keep their bytes.
    cloud = moment.orbit_samples(lam, 300, 4).points
    box = 3.0 * moment.uniforms(moment.stream(5, 300, 3)) - 1.5
    for pts in (cloud, box, np.array(weyl.weyl_orbit(tuple(map(float, lam))))):
        assert (moment.moment_violations(lam, pts).tobytes()
                == _weyl_sweep_violations(lam, pts).tobytes())


def _skew_with_norm(rng, norm, shape=()):
    """Random skew matrices scaled to the given 1-norm."""
    A = rng.standard_normal(shape + (6, 6))
    X = A - np.swapaxes(A, -1, -2)
    ones = np.max(np.sum(np.abs(X), axis=-2), axis=-1)[..., None, None]
    return X * (norm / ones)


@pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-3, 0.5, 1.0, 5.0, 10.5, 50.0, 200.0, 1e3])
def test_exp_skew_matches_scipy_expm(norm):
    from scipy.linalg import expm

    rng = np.random.default_rng(int(norm * 7) + 1)
    tol = 1e-12 if norm <= 50 else 1e-14 * norm
    stack = _skew_with_norm(rng, norm, (20,))
    R = moment.exp_skew(stack)
    assert np.max(np.abs(R - expm(stack))) <= tol
    for k in range(3):
        single = moment.exp_skew(stack[k])
        assert np.max(np.abs(single - expm(stack[k]))) <= tol
        assert np.array_equal(single, R[k])
    assert np.max(np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(6))) <= 1e-13
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= 1e-13


def test_exp_skew_scales_each_matrix_of_a_stack_by_its_own_norm():
    rng = np.random.default_rng(3)
    # One stack spanning no squaring to eight squarings.
    stack = np.concatenate([_skew_with_norm(rng, c, (1,)) for c in (0.1, 4.0, 9.0, 700.0)])
    R = moment.exp_skew(stack)
    for k in range(len(stack)):
        assert np.array_equal(R[k], moment.exp_skew(stack[k]))
        assert np.array_equal(R[k], moment.exp_skew(stack[::-1])[len(stack) - 1 - k])
    assert np.array_equal(moment.exp_skew(np.zeros((6, 6))), np.eye(6))
    assert moment.exp_skew(np.zeros((0, 6, 6))).shape == (0, 6, 6)


def test_moment_does_not_use_scipy_expm():
    assert "expm" not in vars(moment)
