"""Toric moment map, Haar orbit sampling, moment polytopes and singular values.

Sampling is reproducible and embarrassingly parallel: sample k of a run is
drawn from a counter-based generator keyed by (seed, k), so output order is
by sample index regardless of how batches are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from . import polytopes, weyl
from .errors import ToleranceExceeded
from .forms import E12, E34, E56, PAIRS, TwoForm

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, sample index)."""
    return np.random.Generator(
        np.random.Philox(key=[int(seed) & _MASK64, int(index) & _MASK64])
    )


def mu_t(form: TwoForm) -> tuple[float, float, float]:
    """Projection to the Cartan coefficients (e^12, e^34, e^56)."""
    c = form.coeffs
    return (c[E12], c[E34], c[E56])


def _mu_of_matrix(F: np.ndarray) -> tuple[float, float, float]:
    return (float(F[1, 0]), float(F[3, 2]), float(F[5, 4]))


def haar_rotations(n: int, seed: int, start: int = 0) -> np.ndarray:
    """(n, 6, 6) stack of Haar-distributed special orthogonal matrices.

    Gram-Schmidt of a Gaussian matrix via QR with the R-diagonal sign fix,
    then a fixed column flip to land in the det = +1 component.
    """
    g = np.empty((n, 6, 6))
    for k in range(n):
        g[k] = stream(seed, start + k).standard_normal((6, 6))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("nii->ni", r))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


@dataclass(frozen=True)
class SampleCloud:
    """Reproducible cloud of Cartan points: same seed, same sequence."""

    seed: int
    points: np.ndarray
    source: str

    def to_csv(self) -> str:
        lines = [f"# {self.source}", "x,y,z"]
        for p in self.points:
            lines.append(f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
        return "\n".join(lines) + "\n"


def orbit_samples(lam, n: int, seed: int) -> SampleCloud:
    """Moment images of n Haar conjugates of the Cartan form of lam.

    The exact Weyl-orbit images (the torus-fixed points) are appended, so the
    hull of the cloud coincides with the moment polytope deterministically.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = tuple(float(c) for c in lam)
    F = TwoForm.from_cartan(lam).endomorphism()
    pts = np.empty((n, 3))
    chunk = 20000
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        R = haar_rotations(hi - lo, seed, start=lo)
        conj = np.einsum("nab,bc,ndc->nad", R, F, R)
        pts[lo:hi, 0] = conj[:, 1, 0]
        pts[lo:hi, 1] = conj[:, 3, 2]
        pts[lo:hi, 2] = conj[:, 5, 4]
    fixed = np.array([[float(c) for c in p] for p in weyl.weyl_orbit(lam)])
    pts = np.vstack([pts, fixed])
    source = f"source=orbit_samples lambda=({lam[0]!r},{lam[1]!r},{lam[2]!r}) n={n} seed={seed}"
    return SampleCloud(seed, pts, source)


def moment_polytope(lam) -> polytopes.Polytope:
    """Convex hull of the Weyl orbit, exact rational backend."""
    exact = tuple(Fraction(c) for c in lam)
    chamber, _ = weyl.to_chamber(exact)
    return polytopes.hull(weyl.weyl_orbit(chamber), exact=True)


def _skew_basis() -> np.ndarray:
    out = np.zeros((15, 6, 6))
    for k, (i, j) in enumerate(PAIRS):
        out[k, j - 1, i - 1] = 1.0
        out[k, i - 1, j - 1] = -1.0
    return out


_SKEW_BASIS = _skew_basis()


def _vectorize_skew(M: np.ndarray) -> np.ndarray:
    return np.array([M[j - 1, i - 1] for i, j in PAIRS])


def stabilizer_algebra(ref_form: TwoForm, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (k, 6, 6) of {X skew : [X, F_ref] = 0}.

    Null space of the bracket-with-F map on the 15-dimensional coefficient
    space, via SVD.
    """
    if ref_form.norm() == 0.0:
        raise ValueError("reference form must be nonzero")
    F = ref_form.endomorphism()
    L = np.empty((15, 15))
    for k in range(15):
        B = _SKEW_BASIS[k]
        L[:, k] = _vectorize_skew(B @ F - F @ B)
    u, s, vt = np.linalg.svd(L)
    null_mask = s <= tol * max(1.0, s[0])
    coords = vt[len(s) - int(np.sum(null_mask)):]
    basis = np.einsum("nk,kab->nab", coords, _SKEW_BASIS)
    return basis


def singular_value_polytopes(lam) -> tuple[polytopes.Polytope, ...]:
    """Deduplicated family hull(w . (W_i . lam)) over weights i and all w."""
    lam = tuple(Fraction(c) for c in lam)
    _require_chamber(lam)
    seen = {}
    for i in (1, 2, 3):
        for w in weyl.weyl_group():
            pts = weyl.singular_vertex_set(lam, w, i)
            seen.setdefault(pts, None)
    return tuple(polytopes.hull(pts, exact=True) for pts in seen)


def _require_chamber(lam):
    x, y, z = lam
    if not (z >= x >= abs(y)):
        raise ValueError(f"{lam} is not in the closed chamber z >= x >= |y|")


def exp_skew(X: np.ndarray) -> np.ndarray:
    """Rotation exp(X) of a skew matrix (Pade scaling-and-squaring)."""
    return expm(np.asarray(X, dtype=float))


def verify_singular(lam, i: int, w, n: int, seed: int, tol: float = 1e-9,
                    strict: bool = False) -> dict:
    """Sample the stabilizer flow at w.lam and test the singular-value hull.

    Exponentials of the isotropy algebra of the circle direction w.(weight i)
    act on the Cartan form of w.lam; every moment image must land in the
    convex hull of w.(W_i.lam).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = tuple(float(c) for c in lam)
    _require_chamber(lam)
    q = weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i])
    base = weyl.act(w, lam)
    basis = stabilizer_algebra(TwoForm.from_cartan(q))
    poly = polytopes.hull(
        weyl.singular_vertex_set(tuple(Fraction(c) for c in lam), w, i), exact=True
    )
    Fb = TwoForm.from_cartan(base).endomorphism()
    pts = np.empty((n, 3))
    for k in range(n):
        g = stream(seed, k).standard_normal(len(basis)) * (np.pi / 2)
        R = exp_skew(np.einsum("n,nab->ab", g, basis))
        pts[k] = _mu_of_matrix(R @ Fb @ R.T)
    worst = max(0.0, float(np.max(polytopes.violations_many(poly, pts))))
    report = {
        "pass": bool(worst <= tol),
        "max_violation": float(worst),
        "n": n,
        "seed": seed,
        "i": i,
        "w": weyl.element_to_json(w),
        "polytope_vertices": len(poly.vertices),
    }
    if strict and not report["pass"]:
        raise ToleranceExceeded(f"max violation {worst} exceeds {tol}")
    return report


def monte_carlo_volume_ratio(inner: polytopes.Polytope,
                             outer: polytopes.Polytope,
                             n: int, seed: int, tol: float = 1e-9) -> float:
    """Volume of inner relative to outer by shared uniform sampling of the
    outer bounding box."""
    verts = np.array([[float(c) for c in v] for v in outer.vertices])
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    rng = stream(seed, 0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_outer = polytopes.violations_many(outer, pts) <= tol
    if not np.any(in_outer):
        raise ValueError("no samples landed in the outer polytope")
    in_inner = polytopes.violations_many(inner, pts[in_outer]) <= tol
    return float(np.sum(in_inner)) / float(np.sum(in_outer))
