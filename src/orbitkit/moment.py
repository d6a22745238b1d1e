"""Toric moment map, Haar orbit sampling, moment polytopes and singular values.

Every Monte-Carlo draw comes from one counter-based generator,
Philox-4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), run by numpy's native `np.random.Philox`.  A run with seed s is
keyed (s mod 2^64, 0).  A call site that takes m words per sample (24 for
the three unitary columns of a Haar moment image, 36 for a Haar rotation)
gives sample k the b = ceil(m / 4) counter blocks k b + 1, ..., (k + 1) b,
four words each, of which it keeps the first m.  So sample k's
words depend only on (s, k): it is the same whichever batch it is drawn in,
and a batch split by `start` is bit-identical to the whole.  Uniforms are
(w >> 11) * 2^-53; normals come from Box-Muller on word pairs.  Sample files
carry the tag `stream=philox4x64-10-ctr` in their header.

Haar moment images come from SU(4), not SO(6): the spin cover carries the
orbit of the Cartan form of lam onto the unitary orbit of D = diag(d),
d = cartan_to_spin_weight(lam), whose torus moment map is diag(U D U*)
(Schur-Horn; Atiyah 1982, Guillemin-Sternberg 1982).  So an image needs only
the moduli |U_ij|^2 of a Haar unitary (Mezzadri 2007), never a 6x6 rotation.

By Kostant ("On convexity, the Weyl group and the Iwasawa decomposition",
1973), p lies in the moment polytope conv(W.lam) iff <w.omega_i, p> <=
<omega_i, lam+> for the 14 vectors w.omega_i (omega_i the fundamental
weights, lam+ the chamber point of lam): `moment_violations` tests clouds
against this facet system with no hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polytopes, weyl
from .forms import (_LOWER, CARTAN_QUADRUPLES, E12, E34, E56, TwoForm, cartan_to_spin_weight,
                    endomorphisms)

#: Name of the sampling scheme, written into every sample CSV header.
STREAM = "philox4x64-10-ctr"

_MASK64 = (1 << 64) - 1

#: Haar rotations drawn per batch by the samplers, to bound peak memory.
HAAR_BATCH = 20000


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
    u1 = ((w[:, 0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    phi = (2.0 * np.pi) * uniforms(w[:, 1::2])
    z = np.empty(w.shape)
    z[:, 0::2] = r * np.cos(phi)
    z[:, 1::2] = r * np.sin(phi)
    return z


def normals(seed: int, n: int, m: int, start: int = 0) -> np.ndarray:
    """(n, m) standard normals; sample k takes the first m + m % 2 words of
    its stream (an odd m drops the last normal)."""
    return gaussians(stream(seed, n, m + m % 2, start))[:, :m]


def mu_t(form: TwoForm) -> tuple[float, float, float]:
    """Projection to the Cartan coefficients (e^12, e^34, e^56)."""
    c = form.coeffs
    return (c[E12], c[E34], c[E56])


def cartan_minors(R: np.ndarray) -> np.ndarray:
    """Minors det R[2c:2c+2, 2j:2j+2], (..., 3, m), of a (..., 6, 2m) stack.

    For a rotation R and the Cartan form of lam, (R F R^T)[2c+1, 2c] = sum_j
    lam_j minors[c, j]; for a plane frame (v1, v2) they equal, bit for bit,
    mu_t(TwoForm.from_wedge(v1, v2)).
    """
    return R[..., 1::2, 1::2] * R[..., 0::2, 0::2] - R[..., 1::2, 0::2] * R[..., 0::2, 1::2]


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


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Orthonormal columns of each matrix of a real or complex (n, m, k)
    stack: classical Gram-Schmidt, projecting twice per column with
    conjugated inner products, i.e. the Q of its QR with positive real R
    diagonal.  On a real stack `conj` and `real` return the array itself,
    so real results do not depend on the complex case."""
    q = np.empty_like(g)
    for j in range(g.shape[2]):
        v = g[:, :, j]
        for _ in range(2 if j else 0):
            c = np.einsum("nij,ni->nj", q[:, :, :j].conj(), v)
            v = v - np.einsum("nij,nj->ni", q[:, :, :j], c)
        q[:, :, j] = v / np.sqrt(np.einsum("ni,ni->n", v.conj(), v).real)[:, None]
    return q


@dataclass(frozen=True)
class SampleCloud:
    """Cloud of Cartan points; `source` says how it was drawn, seed included."""

    points: np.ndarray
    source: str

    def to_csv(self) -> str:
        rows = [f"{x!r},{y!r},{z!r}" for x, y, z in self.points.tolist()]
        return "\n".join([f"# {self.source} stream={STREAM}", "x,y,z", *rows]) + "\n"


def orbit_samples(lam, n: int, seed: int) -> SampleCloud:
    """Moment images of n Haar conjugates of the Cartan form of lam.

    Image k is spin_weight_to_cartan(diag(U D U*)), U the Haar unitary of
    `haar_unitary_columns` sample k and D = diag(cartan_to_spin_weight(lam)).
    The header tag `haar=u4` marks these clouds; files without it hold images
    of SO(6) rotations (36 words per sample) and do not match files written
    now.  The exact Weyl-orbit images (the torus-fixed points) are appended,
    so the hull of the cloud coincides with the moment polytope
    deterministically (`vertex_gaps` reads 0).
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
    pts = np.empty((n, 3))
    for lo in range(0, n, HAAR_BATCH):
        hi = min(n, lo + HAAR_BATCH)
        U = haar_unitary_columns(hi - lo, seed, start=lo)
        # einsum, not a BLAS product, so that a row does not depend on its batch.
        pts[lo:hi] = np.einsum("nk,kc->nc", (U.real ** 2 + U.imag ** 2).reshape(-1, 12), weights)
    fixed = np.array([[float(c) for c in p] for p in weyl.weyl_orbit(lam)])
    pts = np.vstack([pts, fixed])
    source = (f"source=orbit_samples lambda=({lam[0]!r},{lam[1]!r},{lam[2]!r}) n={n} "
              f"seed={seed} haar=u4")
    return SampleCloud(pts, source)


def moment_polytope(lam) -> polytopes.Polytope:
    """Convex hull of the Weyl orbit, exact rational backend."""
    return polytopes.hull(weyl.weyl_orbit(tuple(Fraction(c) for c in lam)))


#: The 14 facet normals w.omega_i, and the 24 Weyl elements as matrices.
_NORMALS = np.array(sorted(weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])
                           for i, w in weyl.singular_classes()), dtype=float)
_NORMAL_LENGTHS = np.linalg.norm(_NORMALS, axis=1)
_WEYL = np.array(weyl.weyl_group(), dtype=float)


def moment_violations(lam, points) -> np.ndarray:
    """Scaled violation of each row of points against conv(W.lam), as in
    `polytopes.violations_many` (<= 0 means inside); lam is one triple or one
    per row.  Offsets are max n.(w.lam) over the 24 Weyl images, so lam needs
    no chamber reduction.  For singular lam the extra normals only support
    the polytope: membership is the same, an outside point reads up to 3x."""
    images = np.einsum("wij,...j->...wi", _WEYL, np.asarray(lam, dtype=float))
    offsets = np.max(images @ _NORMALS.T, axis=-2)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.max((pts @ _NORMALS.T - offsets) / _NORMAL_LENGTHS, axis=1)


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
    space, via SVD.
    """
    if ref_form.norm() == 0.0:
        raise ValueError("reference form must be nonzero")
    F = ref_form.endomorphism()
    L = (_SKEW_BASIS @ F - F @ _SKEW_BASIS)[:, _LOWER[0], _LOWER[1]].T
    u, s, vt = np.linalg.svd(L)
    null_mask = s <= tol * max(1.0, s[0])
    coords = vt[len(s) - int(np.sum(null_mask)):]
    basis = np.einsum("nk,kab->nab", coords, _SKEW_BASIS)
    return basis


def singular_value_polytopes(lam) -> tuple[polytopes.Polytope, ...]:
    """Deduplicated family hull(w . (W_i . lam)) over the singular classes."""
    lam = tuple(Fraction(c) for c in lam)
    _require_chamber(lam)
    vertex_sets = dict.fromkeys(weyl.singular_vertex_set(lam, w, i)
                                for i, w in weyl.singular_classes())
    return tuple(polytopes.hull(pts) for pts in vertex_sets)


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
    rounding.
    """
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


def verify_singular(lam, i: int, w, n: int, seed: int, tol: float = 1e-9) -> dict:
    """Sample the stabilizer flow at w.lam and test the singular-value hull.

    Exponentials of the isotropy algebra of the circle direction w.(weight i)
    act on the Cartan form of w.lam; every moment image must land in the
    convex hull of w.(W_i.lam).  Raises BadIndex unless i is 1, 2 or 3, and
    ValueError unless w is in `weyl.weyl_group()`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if w not in weyl.weyl_group():
        raise ValueError("w is not a Weyl group element")
    lam = tuple(float(c) for c in lam)
    _require_chamber(lam)
    poly = polytopes.hull(weyl.singular_vertex_set(tuple(Fraction(c) for c in lam), w, i))
    q = weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])
    base = weyl.act(w, lam)
    basis = stabilizer_algebra(TwoForm.from_cartan(q))
    Fb = TwoForm.from_cartan(base).endomorphism()
    coords = normals(seed, n, len(basis)) * (np.pi / 2)
    R = exp_skew(np.einsum("kn,nab->kab", coords, basis))
    conj = R @ Fb @ np.swapaxes(R, 1, 2)
    pts = conj[:, (1, 3, 5), (0, 2, 4)]
    # NaN propagates through np.max, so a non-finite image fails the gate.
    worst = float(np.max(polytopes.violations_many(poly, pts), initial=0.0))
    return {
        "pass": bool(worst <= tol),
        "max_violation": float(worst),
        "n": n,
        "seed": seed,
        "i": i,
        "w": weyl.element_to_json(w),
        "polytope_vertices": len(poly.vertices),
    }


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
