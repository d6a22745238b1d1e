"""Toric moment map, Haar orbit sampling, moment polytopes and singular values.

Every Monte-Carlo draw comes from one counter-based generator,
Philox-4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), run by numpy's native `np.random.Philox`.  A run with seed s is
keyed (s mod 2^64, 0).  A call site that takes m words per sample gives
sample k the b = ceil(m / 4) counter blocks k b + 1, ..., (k + 1) b, four
words each, of which it keeps the first m: 24 for the three unitary columns
of a Haar moment image, 8 for the unit vector of C^4 of a twistor structure,
12 for the two U(3) columns and 2 for the two U(2) moduli of a stabilizer
image, 36 for a Haar rotation, 2k for an iwasawa plane of <e1..e_k>, 4 for a
doubly-closed plane direction, 3 for a volume-ratio point, and sum(sizes)
rounded up to even, plus 1, for a `fibre_draws` draw (7 for the klein
fibres, 9 for iwasawa mixed).  So sample k's words depend only on (s, k):
it is the same whichever batch it is drawn in, and a batch split by `start`
is bit-identical to the whole.  Uniforms are (w >> 11) * 2^-53; normals come
from Box-Muller on word pairs.  Sample files carry the tag
`stream=philox4x64-10-ctr` in their header.

Haar moment images come from SU(4), not SO(6): the spin cover carries the
orbit of the Cartan form of lam onto the unitary orbit of D = diag(d),
d = cartan_to_spin_weight(lam), whose torus moment map is diag(U D U*)
(Schur-Horn; Atiyah 1982, Guillemin-Sternberg 1982).  So an image needs only
the moduli |U_ij|^2 of a Haar unitary (Mezzadri 2007), never a 6x6 rotation.
Likewise the orbit of J0 = from_cartan((1, 1, 1)) is the twistor space
CP^3 = SU(4)/U(3), and a Haar point on it needs one unit vector of C^4.

By Kostant ("On convexity, the Weyl group and the Iwasawa decomposition",
1973), p lies in the moment polytope conv(W.lam) iff <w.omega_i, p> <=
<omega_i, lam+> for the 14 vectors w.omega_i (omega_i the fundamental
weights, lam+ the chamber point of lam; the offset is the support function
max of mu.lam over mu in W.omega_i): `moment_violations` tests clouds
against this facet system with no hull and no chamber reduction.  The face
of the polytope exposed by w.omega_i is conv(w.(W_i.lam)), the moment image
of the orbit of the stabilizer of w.omega_i through w.lam; `verify_singular`
samples it by Schur-Horn on the stabilizer's unitary blocks
(`stabilizer_images`).  Its classes share one draw per block shape, so their
gates, each of false-alarm bound ALPHA, are not independent evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polytopes, spin, weyl
from .forms import (_LOWER, CARTAN_QUADRUPLES, E12, E34, E56, TwoForm, cartan_to_spin_weight,
                    endomorphisms)

#: Name of the sampling scheme, written into every sample CSV header.
STREAM = "philox4x64-10-ctr"

_MASK64 = (1 << 64) - 1

#: Stream words per batch of `orbit_samples` (682 draws of 24), `verify_singular`
#: (1170 of 14) and `iwasawa.scan_complex` (2048 of 8): L2-sized temporaries, which
#: the heap reuses rather than returning to the OS.  No row depends on its batch.
HAAR_BATCH_WORDS = 16384


def haar_batches(n: int, words: int) -> list[tuple[int, int]]:
    """(lo, hi) of n draws of `words` words each, HAAR_BATCH_WORDS // words a batch."""
    step = max(1, HAAR_BATCH_WORDS // words)
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


#: Fixed bound of the sampled containment gates (`moment_violations`, region
#: and face distances) of sample, verify ags|singular|square, the klein
#: fibres and iwasawa mixed.
GATE_TOL = 1e-9


def stream(seed: int, n: int, m: int, start: int = 0) -> np.ndarray:
    """(n, m) uint64 words: row k is the first m words of sample start + k,
    i.e. of the counter blocks (start + k) b + 1, ..., (start + k + 1) b of
    Philox-4x64-10 keyed (seed mod 2^64, 0), with b = ceil(m / 4)."""
    if start < 0:
        raise ValueError("start must be nonnegative")
    blocks = -(-m // 4)
    bits = np.random.Philox(key=int(seed) & _MASK64, counter=int(start) * blocks)
    return bits.random_raw(n * 4 * blocks).reshape(n, 4 * blocks)[:, :m]


def uniforms(w: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from words: the top 53 bits times 2^-53."""
    return (w >> np.uint64(11)) * 2.0 ** -53


def gaussians(w: np.ndarray) -> np.ndarray:
    """Standard normals from an (n, 2j) word array by Box-Muller on the
    column pairs (2i, 2i + 1); the radius uniform of word 2i lies in (0, 1],
    so its logarithm is finite."""
    # In place on fresh buffers, never on w.  Each ufunc reads a contiguous
    # array and writes a fresh one or its own input: the loops that the plain
    # expressions sqrt(-2 log u1) and 2 pi u2 run, so the same bits.
    k = w[:, 0::2] >> np.uint64(11)
    k += np.uint64(1)
    r = k * 2.0 ** -53
    np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
    phi = np.right_shift(w[:, 1::2], np.uint64(11), out=k) * 2.0 ** -53
    phi *= 2.0 * np.pi
    z = np.empty(w.shape)
    np.multiply(r, np.cos(phi), out=z[:, 0::2])
    np.multiply(r, np.sin(phi, out=phi), out=z[:, 1::2])
    return z


def normals(seed: int, n: int, m: int, start: int = 0) -> np.ndarray:
    """(n, m) standard normals; sample k takes the first m + m % 2 words of
    its stream (an odd m drops the last normal)."""
    return gaussians(stream(seed, n, m + m % 2, start))[:, :m]


def fibre_draws(n: int, seed: int, t_lo: float, sizes) -> tuple[np.ndarray, ...]:
    """Fibre draws of samples 0..n-1: one uniform unit vector (n, s) per
    entry s of sizes, in order, then the fibre parameters t (n,).

    Sample k takes m + 1 words of stream (seed, k), m = sum(sizes) rounded up
    to even: the vectors are the normals of words 0..m-1 split in order and
    normalised (an odd sum leaves the last normal unused), and t ~ U(t_lo, 1)
    is the uniform of word m.
    """
    m = sum(sizes) + sum(sizes) % 2
    w = stream(seed, n, m + 1)
    parts = np.split(gaussians(w[:, :m]), np.cumsum(sizes), axis=1)[:-1]
    t = t_lo + (1.0 - t_lo) * uniforms(w[:, m])
    return (*(g / np.linalg.norm(g, axis=1, keepdims=True) for g in parts), t)


def mu_t(form: TwoForm) -> tuple[float, float, float]:
    """Projection to the Cartan coefficients (e^12, e^34, e^56)."""
    c = form.coeffs
    return (c[E12], c[E34], c[E56])


def haar_rotations(n: int, seed: int, start: int = 0) -> np.ndarray:
    """(n, 6, 6) stack of Haar-distributed special orthogonal matrices.

    Classical Gram-Schmidt, projecting twice per column, of a Gaussian
    matrix (36 normals of sample start + k, row by row): the Q of its QR
    with positive R diagonal (Mezzadri 2007), then a fixed column flip to
    land in the det = +1 component.
    """
    q = _gram_schmidt(normals(seed, n, 36, start).reshape(n, 6, 6))
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


def haar_unitary_columns(n: int, seed: int, start: int = 0) -> np.ndarray:
    """(n, 4, 3) stack: the first three columns of Haar-distributed 4x4
    unitary matrices.

    Gram-Schmidt of a complex Gaussian 4x3 matrix whose entry (i, j) is the
    complex normal of Box-Muller pair 3 i + j (real part first) of sample
    start + k, 24 words in all: the first three columns of the Q, positive R
    diagonal, of a complex Gaussian 4x4 matrix, which is Haar on U(4)
    (Mezzadri 2007).
    """
    return _gram_schmidt(normals(seed, n, 24, start).view(np.complex128).reshape(n, 4, 3))


def twistor_structures(n: int, seed: int, start: int = 0) -> np.ndarray:
    """(n, 6, 6) stack of Haar-distributed complex structures on the orbit of
    J0 = from_cartan((1, 1, 1)), the twistor space CP^3 = SU(4)/U(3).

    Under the spin cover J0 = Phi(D), D = diag(-3, 1, 1, 1) (Phi is
    `spin.wedge_generator`), and a Haar conjugate U D U* = I - 4 u u* needs
    only the first column u of U, which is uniform on the unit sphere of C^4:
    u = g / |g|, g the 4 complex normals of sample start + k (8 words, real
    part first).  J = Phi(I - 4 u u*) is one table product, so sample k is
    the same whichever batch it is drawn in.
    """
    g = normals(seed, n, 8, start).view(np.complex128)
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    return spin.wedge_generator(np.eye(4) - 4.0 * u[:, :, None] * u.conj()[:, None, :])


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Orthonormal columns of each matrix of a real or complex (n, m, k)
    stack: classical Gram-Schmidt, projecting twice per column with
    conjugated inner products, i.e. the Q of its QR with positive real R
    diagonal.  On a real stack `conj` and `real` return the array itself,
    so real results do not depend on the complex case."""
    q = np.empty_like(g)
    for j in range(g.shape[2]):
        v, qj = g[:, :, j], q[:, :, :j]
        qc = qj.conj()
        for _ in range(2 if j else 0):
            v = v - np.einsum("nij,nj->ni", qj, np.einsum("nij,ni->nj", qc, v))
        q[:, :, j] = v / np.sqrt(np.einsum("ni,ni->n", v.conj(), v).real)[:, None]
    return q


@dataclass(frozen=True)
class SampleCloud:
    """Cloud of Cartan points; `source` says how it was drawn, seed included."""

    points: np.ndarray
    source: str

    def to_csv(self) -> str:
        """Lines `# <source> stream=<STREAM>` and `x,y,z`, then one line per
        row of points: its coordinates' `repr` (the shortest string that reads
        back as the same double) joined by commas; every line ends in "\\n".
        The fields come from one flat list: a list per row sets off the GC."""
        values = iter(map(repr, self.points.ravel().tolist()))
        rows = map(",".join, zip(values, values, values))
        return "\n".join([f"# {self.source} stream={STREAM}", "x,y,z", *rows]) + "\n"


def orbit_samples(lam, n: int, seed: int) -> SampleCloud:
    """Moment images of n Haar conjugates of the Cartan form of lam.

    Image k is spin_weight_to_cartan(diag(U D U*)), U the Haar unitary of
    `haar_unitary_columns` sample k and D = diag(cartan_to_spin_weight(lam)).
    The header tag `haar=u4` marks these clouds; files without it hold images
    of SO(6) rotations (36 words per sample) and do not match files written
    now.  The exact Weyl-orbit images (the torus-fixed points) are appended,
    so the hull of the cloud is the moment polytope deterministically
    (`vertex_gaps` reads 0).  No row depends on its 24-word `haar_batches`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = tuple(float(c) for c in lam)
    # The image is B theta / 4, B the rows of CARTAN_QUADRUPLES and theta =
    # diag(U D U*) = P d with P_ij = |U_ij|^2.  Rows of U are unit, so P_i3 =
    # 1 - sum_{j<3} P_ij, and rows of B sum to 0: the image is B P (d[:3] -
    # d[3]) / 4 on the three drawn columns, one (12, 3) weight per lam.
    d = np.array(cartan_to_spin_weight(lam))
    weights = np.einsum("ci,j->ijc", np.array(CARTAN_QUADRUPLES) / 4.0, d[:3] - d[3]).reshape(12, 3)
    fixed = weyl.weyl_orbit(lam)
    pts = np.empty((n + len(fixed), 3))
    pts[n:] = fixed
    for lo, hi in haar_batches(n, 24):
        U = haar_unitary_columns(hi - lo, seed, start=lo)
        # einsum, not a BLAS product, so that a row does not depend on its batch.
        pts[lo:hi] = np.einsum("nk,kc->nc", (U.real ** 2 + U.imag ** 2).reshape(-1, 12), weights)
    source = (f"source=orbit_samples lambda=({lam[0]!r},{lam[1]!r},{lam[2]!r}) n={n} "
              f"seed={seed} haar=u4")
    return SampleCloud(pts, source)


def moment_polytope(lam) -> polytopes.Polytope:
    """Convex hull of the Weyl orbit, exact rational backend."""
    return polytopes.hull(weyl.weyl_orbit(tuple(Fraction(c) for c in lam)))


#: The 14 facet normals w.omega_i sorted, in orbit order W.omega_1, _2, _3
#: (4 + 6 + 4 from _ORBIT_STARTS), and each one's orbit; the 24 Weyl elements.
_ORBITS = {weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]): i - 1 for i, w in weyl.singular_classes()}
_NORMALS = np.array(sorted(_ORBITS), dtype=float)
_NORMAL_LENGTHS = np.linalg.norm(_NORMALS, axis=1)
_ORBIT_NORMALS, _ORBIT_STARTS = np.array(list(_ORBITS), dtype=float), (0, 4, 10)
_NORMAL_ORBIT = np.array([_ORBITS[v] for v in sorted(_ORBITS)])
_WEYL = np.array(weyl.weyl_group(), dtype=float)


def moment_violations(lam, points) -> np.ndarray:
    """Scaled violation of each row of points against conv(W.lam), as in
    `polytopes.violations_many` (<= 0 means inside); lam is one triple or one
    per row.  Offsets are the support functions max of mu.lam over mu in each
    orbit W.omega_i.  For singular lam the extra normals only support the
    polytope: membership is the same, an outside point reads up to 3x."""
    mu_lam = np.asarray(lam, dtype=float) @ _ORBIT_NORMALS.T
    offsets = np.maximum.reduceat(mu_lam, _ORBIT_STARTS, axis=-1)[..., _NORMAL_ORBIT]
    table = np.atleast_2d(np.asarray(points, dtype=float)) @ _NORMALS.T
    table -= offsets
    table /= _NORMAL_LENGTHS
    return np.max(table, axis=1)


def vertex_gaps(lam, points) -> np.ndarray:
    """How far points fall short of each vertex of conv(W.lam): for each of
    the 24 Weyl images v = w.lam, (|v|^2 - max_x <v, x>) / |v|, and 0 when
    v = 0.  The images all have the norm |lam|, so v is the unique maximiser
    of <v, .> on the polytope: a contained cloud whose gaps are all <= tol
    reaches every vertex, and its hull is the polytope up to O(tol)."""
    images = _WEYL @ np.asarray(lam, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    gaps = np.einsum("wi,wi->w", images, images) - np.max(pts @ images.T, axis=0)
    lengths = np.linalg.norm(images, axis=1)
    return np.divide(gaps, lengths, out=np.zeros(len(images)), where=lengths > 0)


#: Endomorphisms of the 15 basis forms, in PAIRS order.
_SKEW_BASIS = endomorphisms(np.eye(15))


def stabilizer_algebra(ref_form: TwoForm, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (k, 6, 6) of {X skew : [X, F_ref] = 0}.

    Null space of the bracket-with-F map on the 15-dimensional coefficient
    space, via SVD.  No command calls it.
    """
    if ref_form.norm() == 0.0:
        raise ValueError("reference form must be nonzero")
    F = ref_form.endomorphism()
    L = (_SKEW_BASIS @ F - F @ _SKEW_BASIS)[:, _LOWER[0], _LOWER[1]].T
    u, s, vt = np.linalg.svd(L)
    null_mask = s <= tol * max(1.0, s[0])
    coords = vt[len(s) - int(np.sum(null_mask)):]
    return np.einsum("nk,kab->nab", coords, _SKEW_BASIS)


def singular_value_polytopes(lam) -> tuple[polytopes.Polytope, ...]:
    """Deduplicated family hull(w . (W_i . lam)) over the singular classes."""
    lam = tuple(Fraction(c) for c in lam)
    _require_chamber(lam)
    orbit, faces = weyl.singular_faces(lam, weyl.singular_classes())
    return tuple(polytopes.hull([orbit[k] for k in face]) for face in dict.fromkeys(faces))


def _require_chamber(lam):
    x, y, z = lam
    if not (z >= x >= abs(y)):
        raise ValueError(f"{lam} is not in the closed chamber z >= x >= |y|")


#: Numerator coefficients b_k / b_0 of the degree-13 Pade approximant of exp,
#: and theta_13, the largest 1-norm at which it is accurate to double
#: precision without scaling (Higham 2005).
_PADE13 = np.array([64764752532480000, 32382376266240000, 7771770303897600,
                    1187353796428800, 129060195264000, 10559470521600,
                    670442572800, 33522128640, 1323241920, 40840800, 960960,
                    16380, 182, 1]) / 64764752532480000
_THETA13 = 5.371920351148152


def exp_skew(X: np.ndarray) -> np.ndarray:
    """Rotation exp(X) of a skew matrix, or of each matrix of an (n, m, m)
    stack, by degree-13 Pade scaling and squaring over the whole stack
    (Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26, 2005).

    Matrix k is scaled by 2^-s_k, s_k >= 0 the least with 1-norm at most
    theta_13, and its approximant is squared s_k times; a matrix is the same
    bit for bit alone or in any stack.  The approximant is (V - U)^-1 (V + U)
    with V even and U odd in X, so for skew X the denominator is the
    transpose of the normal numerator and each result is orthogonal to
    rounding.  No command calls it."""
    X = np.asarray(X, dtype=float)
    A = X.reshape(-1, *X.shape[-2:])
    norms = np.max(np.sum(np.abs(A), axis=-2), axis=-1)
    s = np.zeros(len(A), dtype=int)
    # A non-finite matrix is left unscaled: its result is NaN, not a loop.
    big = np.isfinite(norms) & (norms > _THETA13)
    s[big] = np.ceil(np.log2(norms[big] / _THETA13))
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for j in range(int(np.max(s, initial=0))):
        k = s > j
        R[k] = R[k] @ R[k]
    return R.reshape(X.shape)


_QUADRUPLES = np.array(CARTAN_QUADRUPLES)


def stabilizer_images(orbits, n: int, seed: int, start: int = 0) -> np.ndarray:
    """(len(orbits), n, 3) moment images of samples start, ..., start + n - 1
    of the orbit of diag(d) under the stabilizer S(U(m1) x U(m2)) of diag(q)
    in SU(4), its blocks on the equal entries of q, for each pair (d, q).

    By Schur-Horn an image is B P d / 4, B the rows of CARTAN_QUADRUPLES and
    P_jk = |U_jk|^2.  All pairs read one draw per block shape: a U(3) block
    takes the first two Gram-Schmidt columns of the complex Gaussian 3x2
    matrix of sample k's 12 words (entry (j, c) is Box-Muller pair 2 j + c),
    its third column of P being 1 minus the other two; a U(2) block has P =
    [[c, 1 - c], [1 - c, c]], c the uniform of word 0 (for the block holding
    entry 0 of q) or word 1 of 2.  A block's theta = P d is summed as d_last
    + P (d - d_last), so entries of d that agree are kept exactly.
    """
    # theta = base + weights . (six U(3) moduli P_jc, c < 2, and two U(2) uniforms)
    table = []
    for d, q in orbits:
        d, q = [float(c) for c in d], [float(c) for c in q]
        blocks = [[j for j in range(4) if q[j] == v] for v in dict.fromkeys(q)]
        if {len(b) for b in blocks} not in ({2}, {1, 3}):
            raise ValueError(f"q = {q} has no blocks of sizes 2 + 2 or 1 + 3 (a constant q's "
                             "stabilizer is all of SU(4), whose orbit `orbit_samples` draws)")
        theta, w = d[:], [0.0] * 32  # w[8 j + f]: the weight of draw f in theta_j
        for word, b in enumerate(blocks):  # a U(2) block takes word 0 if it holds entry 0
            if len(b) == 2:
                for j, p in (b, b[::-1]):
                    theta[j], w[8 * j + 6 + word] = d[p], d[j] - d[p]
            elif len(b) == 3:  # a U(3) block, summed from its last entry
                for r, j in enumerate(b):
                    theta[j] = d[b[2]]
                    w[8 * j + 2 * r:8 * j + 2 * r + 2] = d[b[0]] - d[b[2]], d[b[1]] - d[b[2]]
        table.append(theta + w)
    table = np.array(table).reshape(-1, 36)
    base, weights = table[:, :4], table[:, 4:].reshape(-1, 4, 8)
    U = _gram_schmidt(normals(seed, n, 12, start).view(np.complex128).reshape(n, 3, 2))
    draws = np.concatenate([(U.real ** 2 + U.imag ** 2).reshape(n, 6),
                            uniforms(stream(seed, n, 2, start))], axis=1)
    theta = base[:, None, :] + np.einsum("nf,kjf->knj", draws, weights)
    return np.einsum("knj,cj->knc", theta, _QUADRUPLES) / 4.0


def stabilizer_law(d, q) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """Exact law data of `stabilizer_images(d, q, ...)` for the spread
    X = |mu - E mu|^2: (E mu, E X, max X), from the float entries of d.

    Row j of a Haar U(m) has moduli uniform on the simplex (Dirichlet(1^m)),
    so theta = P d has E theta_j = mean of d over j's block, Var theta_j =
    S / (m (m + 1)) with S the block's sum of (d - mean)^2, and covariance
    -Var / (m - 1) within a block (theta sums to sum d), 0 across blocks.  As
    B^T B = 4 - 1 1^T and the covariance C of theta has C 1 = 0, E X =
    tr(B C B^T) / 16 = tr C / 4 = sum over blocks of S / (4 (m + 1)).  Also
    X = |theta - E theta|^2 / 4 and a doubly stochastic P does not lengthen
    d - E theta, so max X = sum of S / 4, reached where P is a permutation.
    The rows of B sum to 0, so E mu = B E theta / 4 is (mean_1 - mean_2) / 4
    times B 1_1, 1_1 the indicator of the first block.  With one block (q
    constant, the stabilizer all of SU(4)) E mu = 0 and E X = S / 20.
    """
    a, D = polytopes._scaled(d)
    blocks = [[k for k in range(4) if q[k] == v] for v in sorted(set(q))]
    # On a = D d, a block of size m and numerator sum s has 240 D^2 S / 4 = x =
    # (60 / m) (m (sum of a^2) - s^2), and m + 1 divides 60 / m for m <= 4.
    stats = [(len(b), sum(a[k] for k in b)) for b in blocks]
    x = [60 // m * (m * sum(a[k] ** 2 for k in b) - s * s) for b, (m, s) in zip(blocks, stats)]
    (m0, s0), (m1, s1) = stats[0], stats[-1]
    e_mu = tuple(Fraction((s0 * m1 - s1 * m0) * sum(int(row[k]) for k in blocks[0]),
                          4 * m0 * m1 * D) for row in CARTAN_QUADRUPLES)
    expected = sum(v // (m + 1) for v, (m, _) in zip(x, stats))
    return e_mu, Fraction(expected, 240 * D * D), Fraction(sum(x), 240 * D * D)


#: False-alarm probability of each law gate.
ALPHA = 1e-6


def bernstein_halfwidth(n: int, var: float, spread: float) -> float:
    """Half-width t with P(|mean - E X| >= t) <= ALPHA for the mean of n
    independent draws of X with Var X <= var and |X - E X| <= spread, by
    Bernstein's inequality: 2 exp(-n t^2 / (2 var + 2 spread t / 3)) = ALPHA."""
    # The root of n t^2 - c t - 2 var log(2 / ALPHA) = 0, c = 2 spread log(2 / ALPHA) / 3.
    log = math.log(2.0 / ALPHA)
    c = 2.0 * spread * log / 3.0
    return (c + math.sqrt(c * c + 8.0 * n * var * log)) / (2.0 * n)


def ks_distance(F, x) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - F| between the empirical CDF of
    the sample x and the continuous CDF F, which takes a sorted float array;
    NaN if x holds a NaN."""
    x = np.sort(x)
    f = F(x)
    k = np.arange(1, len(x) + 1)
    return float(np.max(np.maximum(k / len(x) - f, f - (k - 1) / len(x))))


def dkw_halfwidth(n: int) -> float:
    """c / sqrt(n), c = sqrt(log(2 / ALPHA) / 2): the KS distance of n
    independent draws from their own continuous law exceeds it with
    probability at most ALPHA (Dvoretzky-Kiefer-Wolfowitz, with Massart's
    constant)."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


#: Rounding floor of the spread gate, relative to (1 + max |d|)^2: X of a
#: point within 2^-40 (1 + max |d|) of E mu, some 4000 ulp.  It decides only
#: where the law has no spread, such as lam = (1, 1, 1) with i = 1.
LAW_FLOOR = 2.0 ** -80


def verify_singular(lam, classes, n: int, seed: int) -> list[dict]:
    """Sample the stabilizer of w.(weight i) at w.lam for each class (i, w)
    and test its face and law: one row per class, all drawn in one pass.

    By Kostant (1973) the `stabilizer_images` of d = cartan_to_spin_weight(w.lam)
    and q = cartan_to_spin_weight(w.(weight i)) fill the face of conv(W.lam)
    exposed by `normal` = w.(weight i), whose vertices `face` and their
    `face_indices` into the sorted orbit come from one `weyl.singular_faces`
    pass.  `max_violation` is the worst `moment_violations` and scaled
    distance from the plane <w.(weight i), p> = <w.(weight i), w.lam>.
    `law_deviation` is the gap of the mean spread X = |mu - E mu|^2 from its
    exact value (`stabilizer_law`) over its `bernstein_halfwidth`, with Var X
    <= (max X - E X) E X (Bhatia-Davis) and |X - E X| <= max X - E X (as E X
    <= max X / 3), plus the rounding floor LAW_FLOOR (1 + max |d|)^2.  A NaN
    image reads NaN in both.  Draws go in `haar_batches` of 14 words, and the
    spreads are summed once over all n: no row depends on the batch.  Raises
    BadIndex unless each i is 1, 2 or 3, and ValueError for a w outside W."""
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = tuple(float(c) for c in lam)
    _require_chamber(lam)
    orbit, faces = weyl.singular_faces(lam, classes)
    exact = {c: Fraction(c) for c in lam + tuple(-c for c in lam)}  # each orbit coordinate
    orbit = [tuple(map(exact.__getitem__, p)) for p in orbit]
    rows, data = [], []
    for (i, w), face in zip(classes, faces):
        normal, base = weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]), weyl.act(w, lam)
        d, q = cartan_to_spin_weight(base), cartan_to_spin_weight(normal)
        e_mu, expected, top = stabilizer_law(d, q)
        spread = top - expected
        width = (bernstein_halfwidth(n, float(spread * expected), float(spread))
                 + LAW_FLOOR * (1.0 + max(map(abs, d))) ** 2)
        data.append(((d, q), (normal, base), e_mu, width))
        rows.append({"i": i, "w": weyl.element_to_json(w), "normal": normal, "face_indices": face,
                     "face": tuple(map(orbit.__getitem__, face)), "polytope_vertices": len(face),
                     "expected_spread2": float(expected)})
    orbits, planes, e_mu, widths = zip(*data)
    normal, base = np.array(planes, dtype=float).transpose(1, 0, 2)
    offsets = np.einsum("kc,kc->k", normal, base)[:, None]
    lengths = np.linalg.norm(normal, axis=1, keepdims=True)
    e_mu = np.array(e_mu, dtype=float)[:, None, :]
    worst, spreads = np.full(len(rows), -np.inf), np.empty((len(rows), n))
    for lo, hi in haar_batches(n, 14):
        pts = stabilizer_images(orbits, hi - lo, seed, start=lo)
        off_plane = np.abs(np.einsum("knc,kc->kn", pts, normal) - offsets) / lengths
        violations = moment_violations(lam, pts.reshape(-1, 3)).reshape(off_plane.shape)
        # np.maximum and np.max keep a NaN, so a non-finite image fails the gate.
        worst = np.maximum(worst, np.max(np.maximum(violations, off_plane), axis=1))
        spreads[:, lo:hi] = np.sum((pts - e_mu) ** 2, axis=2)
    means = np.sum(spreads, axis=1) / n
    for row, bad, spread2, width in zip(rows, worst.tolist(), means.tolist(), widths):
        row.update(max_violation=bad, mean_spread2=spread2,
                   law_deviation=abs(spread2 - row["expected_spread2"]) / width)
    return rows


def monte_carlo_volume_ratio(inner: polytopes.Polytope,
                             outer: polytopes.Polytope,
                             n: int, seed: int, tol: float = 1e-9) -> float:
    """Volume of inner relative to outer by shared uniform sampling of the
    outer bounding box; sample k is the point of 3 uniforms of stream (seed, k).
    No command calls it: `verify ags` checks vertex reach (`vertex_gaps`)."""
    verts = np.array([[float(c) for c in v] for v in outer.vertices])
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    pts = lo + (hi - lo) * uniforms(stream(seed, n, 3))
    in_outer = polytopes.violations_many(outer, pts) <= tol
    if not np.any(in_outer):
        raise ValueError("no samples landed in the outer polytope")
    in_inner = polytopes.violations_many(inner, pts[in_outer]) <= tol
    return float(np.sum(in_inner)) / float(np.sum(in_outer))
