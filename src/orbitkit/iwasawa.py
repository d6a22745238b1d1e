"""Invariant geometry on the complex Heisenberg nilmanifold.

All structures are left-invariant, so integrability questions reduce to
finite computations with the frame structure constants: the Nijenhuis tensor
of an orthogonal complex structure, and bracket-closure of the two
distributions of an orthogonal product structure.  The scans test whole
stacks of plane frames (n, 6, 2) and structures (n, 6, 6) at once.  The
closed-form doubly-closed frames and stacked products move `scan-kk` and
`mixed` coordinates by up to a few 1e-16 against per-plane eigen-split
frames.

On the U(3) orbit of J0 = `from_cartan((1, 1, 1))` the squared Nijenhuis
norm is a quadratic in the moment image mu = (x, y, z): with s = x + y,
||N||^2 = P(mu) = 4(3 + 2z + s^2 - 4zs - z^2) (`nijenhuis_polynomial`).
On the tetrahedron conv(W.(1, 1, 1)) P vanishes exactly on the integrable
set of Abbena-Garbiero-Salamon (2001), the vertex (1, 1, 1) and the
opposite edge (t, -t, -1).  In s, P/4 = s^2 - 4zs + 3 + 2z - z^2 has
discriminant 4(5z + 3)(z - 1): it is negative for -3/5 < z < 1, and at
z = 1 the double root s = 2 is the vertex.  For z <= -3/5 the minimum
s = 2z lies below the tetrahedron's range |s| <= 1 + z, so there
P >= P(s = -1 - z) = 16(1 + z)^2, which is 0 only on the edge z = -1.

A unit plane (v1, v2) of <e1..e4>, with plane form w = v1 ^ v2 and image
(x, y, 0), has ||[v1, v2]||^2 = 1 - (x + y)^2.  The bracket is
[v1, v2] = (w24 - w13) e5 - (w14 + w23) e6, the coefficients of w on the
self-dual forms e13 - e24 and e14 + e23; e12 + e34 reads x + y.  A unit
simple form has self-dual part of squared norm 1/2, and these three forms
have squared norm 2, so (x + y)^2 + (w13 - w24)^2 + (w14 + w23)^2 = 1.
Every bracket lies in the centre <e5, e6>, orthogonal to such a plane, so
the plane is always horizontally closed, and doubly closed exactly on the
segments x + y = +-1 (`scan_K_intersection`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import moment
from .errors import WrongClass
from .forms import E12, E34, E56, TwoForm, endomorphisms, wedges


def iwasawa_algebra() -> np.ndarray:
    """Structure constants c (6, 6, 6), [e_i, e_j] = sum_k c[k, i, j] e_k, of
    the frame algebra with de5 = e13 + e42, de6 = e14 + e23, other de = 0."""
    c = np.zeros((6, 6, 6))

    def setb(i, j, k, val):
        c[k - 1, i - 1, j - 1] = val
        c[k - 1, j - 1, i - 1] = -val

    # d(alpha)(X, Y) = -alpha([X, Y]) on invariant fields.
    setb(1, 3, 5, -1.0)
    setb(2, 4, 5, 1.0)
    setb(1, 4, 6, -1.0)
    setb(2, 3, 6, -1.0)
    return c


def bracket(c: np.ndarray, X, Y) -> np.ndarray:
    """[X, Y] = (c Y) X of two vectors, or row by row of two (..., 6) stacks."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    cY = (c.reshape(36, 6) @ Y[..., None]).reshape(*Y.shape[:-1], 6, 6)
    return (cY @ X[..., None])[..., 0]


def ocs_matrix(form, tol: float = 1e-8) -> np.ndarray:
    """Endomorphism of a complex-structure form, or a stack (n, 6, 6) of
    them, validated to square to -1."""
    J = form.endomorphism() if isinstance(form, TwoForm) else np.asarray(form, dtype=float)
    if not np.max(np.abs(J @ J + np.eye(6))) <= math.sqrt(tol):
        raise WrongClass("form does not square to -identity")
    return J


def _nijenhuis_norms(c: np.ndarray, Js: np.ndarray) -> np.ndarray:
    """Per J of a stack (n, 6, 6), the norm of N(X,Y) = [JX,JY] - J[JX,Y] -
    J[X,JY] - [X,Y] over the 15 frame pairs i < j (N(X,Y) = -N(Y,X) gives
    the rest); zero exactly on integrable complex structures.

    Slice k of N is J^T c[k] J - sum_m J[k, m] (J^T c[m] + c[m] J) - c[k].
    As c[m] is antisymmetric, J^T c[m] = -(c[m] J)^T, so one product
    CJ = c[m] J per nonzero slice (2 of 6 for the Iwasawa algebra) gives
    CJ - CJ^T and J^T CJ.  Every product is per structure, so no row depends
    on its stack.  Raises ValueError unless c is (6, 6, 6) and antisymmetric
    in its last two indices and Js is (n, 6, 6); n = 0 gives an empty array.
    """
    if c.shape != (6, 6, 6) or not np.array_equal(c, -np.swapaxes(c, 1, 2)):
        raise ValueError("c must be (6, 6, 6) and antisymmetric in its last two indices")
    if Js.ndim != 3 or Js.shape[1:] != (6, 6):
        raise ValueError(f"Js must be an (n, 6, 6) stack, not shape {Js.shape}")
    nz = np.flatnonzero(np.any(c != 0, axis=(1, 2)))
    i, j = np.triu_indices(6, 1)
    CJ = c[nz] @ Js[:, None]
    B = CJ[..., i, j] - CJ[..., j, i]
    A = (np.swapaxes(Js, -1, -2)[:, None] @ CJ)[..., i, j] - c[nz][:, i, j]
    # -N on the pairs: sum_m J[k, m] B_m, less J^T c[k] J - c[k] on slices nz.
    minus_N = Js[:, :, nz] @ B
    minus_N[:, nz] -= A
    return np.sqrt(np.einsum("nkp,nkp->n", minus_N, minus_N))


def _perp(V: np.ndarray) -> np.ndarray:
    """Projector 1 - V V^T off the planes of orthonormal frames V (..., 6, 2)."""
    return np.eye(6) - V @ np.swapaxes(V, -1, -2)


def _per_plane(residual: np.ndarray, V: np.ndarray, tol: float):
    """max |residual| <= tol: a bool for one plane, an array for a stack."""
    ok = np.max(np.abs(residual), axis=tuple(range(V.ndim - 2, residual.ndim))) <= tol
    return bool(ok) if V.ndim == 2 else ok


def horizontal_closed(c: np.ndarray, V, tol: float = 1e-12):
    """Brackets of the 4-plane orthogonal to V stay out of V: the bracket
    forms B_k = sum_m V[m, k] c[m] vanish there, max |P B_k P| <= tol.
    V is an orthonormal frame (6, 2) or a stack (n, 6, 2); one bool per plane."""
    V = np.asarray(V, dtype=float)
    P = _perp(V)[..., None, :, :]
    B = (np.swapaxes(V, -1, -2) @ c.reshape(6, 36)).reshape(*V.shape[:-2], 2, 6, 6)
    return _per_plane(P @ B @ P, V, tol)


def vertical_closed(c: np.ndarray, V, tol: float = 1e-12):
    """Bracket of the two plane vectors stays in the plane: max |P [v1, v2]|
    <= tol, for a frame (6, 2) or a stack (n, 6, 2); one bool per plane."""
    V = np.asarray(V, dtype=float)
    br = bracket(c, V[..., 0], V[..., 1])
    return _per_plane((_perp(V) @ br[..., None])[..., 0], V, tol)


def _plane_images(V: np.ndarray) -> np.ndarray:
    """(n, 3) Cartan coefficients of the plane forms of a frame stack."""
    return wedges(V[..., 0], V[..., 1])[..., (E12, E34, E56)]


#: Coefficients of e12 - e34, e13 - e42 and e14 - e23 (anti-self-dual on
#: <e1..e4>), of e12 + e34, and of e56.
_ASD = np.array([(TwoForm.basis(1, 2) - TwoForm.basis(3, 4)).coeffs,
                 (TwoForm.basis(1, 3) - TwoForm.basis(4, 2)).coeffs,
                 (TwoForm.basis(1, 4) - TwoForm.basis(2, 3)).coeffs])
_SD = (TwoForm.basis(1, 2) + TwoForm.basis(3, 4)).as_array()
_E56 = TwoForm.basis(5, 6).as_array()


def _asd_edge_coeffs(a, b, c) -> np.ndarray:
    """Coefficients (..., 15) of `asd_edge_form` over arrays a, b, c, summed
    in the same order as the TwoForm arithmetic, signed zeros included."""
    a, b, c = (np.asarray(x, dtype=float)[..., None] for x in (a, b, c))
    return ((a * _ASD[0] + b * _ASD[1]) + c * _ASD[2]) - _E56


def asd_edge_form(a: float, b: float, c: float) -> TwoForm:
    """Anti-self-dual unit completion a(e12-e34) + b(e13-e42) + c(e14-e23) - e56."""
    return TwoForm(tuple(_asd_edge_coeffs(a, b, c)))


def asd_edge_grid(m: int = 101):
    """Deterministic family sweeping the integrable anti-self-dual circle."""
    grid = (-1.0 + 2.0 * k / (m - 1) for k in range(m))
    return [(a, math.sqrt(max(0.0, 1.0 - a * a)), 0.0) for a in grid]


def nijenhuis_polynomial(x, y, z):
    """P(mu) = 4(3 + 2z + s^2 - 4zs - z^2), s = x + y: the squared Nijenhuis
    norm of a complex structure on the orbit of J0 with moment image
    (x, y, z).  Exact on Fractions, elementwise on arrays."""
    s = x + y
    return 4 * (3 + 2 * z + s * s - 4 * z * s - z * z)


def _identity_residual(norms: np.ndarray, images: np.ndarray) -> np.ndarray:
    """max |N^2 - P(mu)| over the rows; NaN if any row is NaN."""
    return np.max(np.abs(norms * norms - nijenhuis_polynomial(*images.T)))


#: |mu|^2 of a Haar draw: mu = -B p, B the rows of CARTAN_QUADRUPLES and p =
#: |u|^2 uniform on the 3-simplex (Dirichlet(1, 1, 1, 1)), so mu is uniform on
#: the tetrahedron conv(W.(1, 1, 1)) and, as B^T B = 4 - 1 1^T, |mu|^2 =
#: 4|p|^2 - 1 lies in [0, 3].  From E p_i^2 = 1/10, E p_i^4 = 1/35 and
#: E p_i^2 p_j^2 = 1/210: E|mu|^2 = 3/5 and Var |mu|^2 = 32/175.
_MOMENT_NORM2_MEAN = Fraction(3, 5)
_MOMENT_NORM2_VAR = Fraction(32, 175)
_MOMENT_NORM2_SPREAD = Fraction(12, 5)


def _moment_norm2_bound(n: int) -> float:
    """Half-width t with P(|mean - 3/5| >= t) <= 1e-6 for the mean of n Haar
    draws of |mu|^2: `moment.bernstein_halfwidth` with the exact variance and
    |X - 3/5| <= 12/5."""
    return moment.bernstein_halfwidth(n, float(_MOMENT_NORM2_VAR), float(_MOMENT_NORM2_SPREAD))


def scan_complex(n: int, seed: int, tol: float = 1e-6) -> tuple[moment.SampleCloud, dict]:
    """Haar-scan complex structures for integrability.

    Every structure checked, the n Haar draws of `moment.twistor_structures`
    on the orbit of J0 and the integrable families (J0 itself, image the
    vertex (1, 1, 1), and the anti-self-dual circle, images filling the
    opposite edge), must satisfy ||N||^2 = P(mu) within 1e-10; the largest
    deviation is reported as `max_identity_residual`.  The families must also
    have ||N|| < 1e-10.  The identity holds on the whole orbit, so it says
    nothing of the law of the draws: the mean of |mu|^2 over the Haar draws,
    reported as `mean_moment_norm2` (summed by `math.fsum`, so the same in
    any batches), must lie within `_moment_norm2_bound(n)` of its exact
    value 3/5.  Draws with ||N|| < tol are counted as `accepted_haar` and
    join the family images in the cloud.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    family = np.vstack([TwoForm.from_cartan((1, 1, 1)).as_array(),
                        _asd_edge_coeffs(*np.array(asd_edge_grid()).T)])
    family_J = ocs_matrix(endomorphisms(family))
    family_norms = _nijenhuis_norms(algebra, family_J)
    family_max = float(np.max(family_norms))
    family_images = family[:, (E12, E34, E56)]
    residual = _identity_residual(family_norms, family_images)
    norm2 = []
    accepted = []
    for lo in range(0, n, moment.HAAR_BATCH):
        hi = min(n, lo + moment.HAAR_BATCH)
        Js = moment.twistor_structures(hi - lo, seed, start=lo)
        norms = _nijenhuis_norms(algebra, Js)
        images = Js[:, (1, 3, 5), (0, 2, 4)]
        residual = np.maximum(residual, _identity_residual(norms, images))
        norm2.extend(np.sum(images * images, axis=1).tolist())
        accepted.extend(images[norms < tol])
    mean_norm2 = math.fsum(norm2) / n
    pts = np.vstack(accepted + [family_images])
    cloud = moment.SampleCloud(pts, f"source=scan_complex n={n} seed={seed} tol={tol!r}")
    report = {
        "pass": bool(family_max < 1e-10 and residual <= 1e-10
                     and abs(mean_norm2 - float(_MOMENT_NORM2_MEAN)) <= _moment_norm2_bound(n)),
        "n": n,
        "seed": seed,
        "filter_tol": tol,
        "family_max_nijenhuis": family_max,
        "accepted_haar": len(accepted),
        "max_identity_residual": float(residual),
        "mean_moment_norm2": mean_norm2,
    }
    return cloud, report


def _sample_planes_in(seed: int, n: int, subspace_dim: int = 4,
                      start: int = 0) -> np.ndarray:
    """(n, 6, 2) orthonormal pairs spanning random planes inside <e1..e_k>
    (or all of R^6); plane j is the Gram-Schmidt frame of the k x 2 normals of
    sample start + j, as for `moment.haar_rotations`."""
    g = moment.normals(seed, n, 2 * subspace_dim, start).reshape(n, subspace_dim, 2)
    V = np.zeros((n, 6, 2))
    V[:, :subspace_dim] = moment._gram_schmidt(g)
    return V


def _uniform_cdf(v: np.ndarray) -> np.ndarray:
    """CDF of the uniform law on [-1, 1]."""
    return (v + 1.0) / 2.0


def scan_K(n: int, seed: int) -> tuple[moment.SampleCloud, dict]:
    """Sample product structures with plane inside <e1..e4> and probe closure.

    Every in-subspace plane must pass the horizontal closure test and its
    moment image fills the central square |x| + |y| <= 1 in the z = 0 plane;
    planes leaving the subspace must fail.  The law is gated too: a Haar
    plane's form has self-dual and anti-self-dual parts uniform on two
    spheres, so by Archimedes s = x + y and r = x - y are independent
    uniforms on [-1, 1].  Their KS distances from U(-1, 1), `ks_x_plus_y` and
    `ks_x_minus_y`, must be at most `ks_bound` = `moment.dkw_halfwidth(n)`
    (alpha = 1e-6), and the mean of X = s^2 r^2, `mean_s2r2`, must lie within
    `moment.bernstein_halfwidth` of E X = 1/9 (Var X = 56/2025, |X - E X| <= 8/9).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    V = _sample_planes_in(seed, n, 4)
    closed_ok = bool(np.all(horizontal_closed(algebra, V)))
    pts = _plane_images(V)
    off = _sample_planes_in(seed, min(n, 200), 6, start=n)
    off_failures = int(np.count_nonzero(horizontal_closed(algebra, off)))
    l1 = np.abs(pts[:, 0]) + np.abs(pts[:, 1])
    s, r = pts[:, 0] + pts[:, 1], pts[:, 0] - pts[:, 1]
    ks_s, ks_r = moment.ks_distance(_uniform_cdf, s), moment.ks_distance(_uniform_cdf, r)
    bound = moment.dkw_halfwidth(n)
    s2r2 = float(np.mean((s * r) ** 2))
    report = {
        "pass": bool(
            closed_ok
            and off_failures == 0
            and float(np.max(l1)) <= 1.0 + 1e-9
            and float(np.max(np.abs(pts[:, 2]))) <= 1e-9
            and ks_s <= bound and ks_r <= bound
            and abs(s2r2 - 1 / 9) <= moment.bernstein_halfwidth(n, 56 / 2025, 8 / 9)
        ),
        "n": n,
        "seed": seed,
        "max_l1": float(np.max(l1)),
        "max_abs_z": float(np.max(np.abs(pts[:, 2]))),
        "ks_x_plus_y": ks_s,
        "ks_x_minus_y": ks_r,
        "ks_bound": bound,
        "mean_s2r2": s2r2,
        "all_in_subspace_closed": closed_ok,
        "off_subspace_checked": len(off),
        "off_subspace_closed": off_failures,
    }
    cloud = moment.SampleCloud(pts, f"source=scan_K n={n} seed={seed}")
    return cloud, report


def doubly_closed_plane(sign, u) -> np.ndarray:
    """Plane of the doubly-closed family: self-dual part pinned to
    sign (e12 + e34) / 2, anti-self-dual part chosen by the unit 3-vector u.

    One sign and u (3,) give a frame (6, 2); n signs and u (n, 3) give a
    stack (n, 6, 2).  The form is unit and simple, so its endomorphism F
    maps onto the plane and turns it by a right angle: with a the largest
    column of F, normalised, the frame is (a, F a).
    """
    sign = np.asarray(sign, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(sign) != 1.0):
        raise ValueError("sign must be +1 or -1")
    if not np.all(np.abs(np.sum(u * u, axis=-1) - 1.0) <= 1e-12):
        raise ValueError("u must be a unit 3-vector")
    F = endomorphisms(0.5 * sign[..., None] * _SD + 0.5 * (u @ _ASD))
    lengths = np.linalg.norm(F, axis=-2)
    k = np.argmax(lengths, axis=-1)[..., None]
    a = np.take_along_axis(np.swapaxes(F, -1, -2), k[..., None], axis=-2)[..., 0, :]
    a = a / np.take_along_axis(lengths, k, axis=-1)
    return np.stack([a, (F @ a[..., None])[..., 0]], axis=-1)


def scan_K_intersection(n: int, seed: int) -> tuple[moment.SampleCloud, dict]:
    """Scan planes closed under both distributions.

    Every plane checked, the doubly-closed family and min(n, 500) random
    planes of <e1..e4> (`_sample_planes_in` from sample n on), must satisfy
    ||[v1, v2]||^2 = 1 - (x + y)^2 within 1e-12; the largest deviation is
    reported as `max_identity_residual`.  The family must also pass both
    closure tests, with images on the two segments x + y = +-1, z = 0; they
    are the cloud.  Sample k of the family has sign (-1)^k and direction the
    3 normals of stream (seed, k).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    G = moment.normals(seed, n, 3)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    V = doubly_closed_plane(signs, G / np.linalg.norm(G, axis=1, keepdims=True))
    family_ok = bool(np.all(horizontal_closed(algebra, V) & vertical_closed(algebra, V)))
    planes = np.concatenate([V, _sample_planes_in(seed, min(n, 500), 4, start=n)])
    images = _plane_images(planes)
    br = bracket(algebra, planes[..., 0], planes[..., 1])
    s = images[:, 0] + images[:, 1]
    residual = float(np.max(np.abs(np.sum(br * br, axis=1) - (1.0 - s * s))))
    pts = images[:n]
    seg_dev = float(np.max(np.abs(np.abs(s[:n]) - 1.0)))
    max_z = float(np.max(np.abs(pts[:, 2])))
    report = {
        "pass": bool(family_ok and seg_dev <= 1e-9 and max_z <= 1e-9
                     and residual <= 1e-12),
        "n": n,
        "seed": seed,
        "family_all_doubly_closed": family_ok,
        "max_segment_deviation": seg_dev,
        "max_abs_z": max_z,
        "max_identity_residual": residual,
    }
    cloud = moment.SampleCloud(pts, f"source=scan_K_intersection n={n} seed={seed}")
    return cloud, report


def _invariant(J: np.ndarray, V: np.ndarray, tol: float) -> np.ndarray:
    """Whether J maps the plane V into itself: |P J v| <= sqrt(tol) for both
    frame vectors, for one plane or row by row of a stack."""
    out = _perp(V) @ J @ V
    return np.all(np.linalg.norm(out, axis=-2) <= math.sqrt(tol), axis=-1)


def mixed_images(coeffs: np.ndarray, v: np.ndarray, t: np.ndarray):
    """Lift complex structures to mixed forms J + t (v ^ Jv), row by row.

    coeffs (n, 15) are complex-structure forms J, v (n, 6) unit vectors and
    t (n,) the fibre parameters.  Returns the frames (v, Jv) (n, 6, 2) and the
    Cartan images (n, 3) of the mixed forms, row by row `mu_t` of the TwoForm
    sum J + t * from_wedge(v, Jv).
    """
    J = ocs_matrix(endomorphisms(coeffs))
    V = np.stack([v, (J @ v[..., None])[..., 0]], axis=-1)
    return V, coeffs[:, (E12, E34, E56)] + t[:, None] * _plane_images(V)


def mixed_classes_over(n: int, seed: int, which: str = "K") -> tuple[moment.SampleCloud, dict]:
    """Images of mixed forms built from integrable structures over a scan class.

    For each sample an integrable J (the standard one or a member of the
    anti-self-dual circle) is paired with a J-invariant plane drawn from the
    requested class.  No draw can be rejected: (v, Jv) is J-invariant since J
    is orthogonal with J^2 = -1, and for J0 the plane v ^ J0 v has x + y = 1,
    so by ||[v1, v2]||^2 = 1 - (x + y)^2 it is doubly closed.  A draw a check
    rejects is skipped and counted, and the run passes only when none is
    skipped and every image lies within 1e-9 of conv(W.(1, 1, 1 + t)): the
    mixed form J + t (v ^ Jv) has chamber triple (1, 1, 1 + t).  Sample k is
    `moment.fibre_draws` of sizes (3, 4) whichever branch it takes: the
    anti-self-dual direction, the plane vector in <e1..e4> and t ~ U(0.05, 1).
    """
    if which not in ("K", "K_intersection"):
        raise ValueError("which must be 'K' or 'K_intersection'")
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    abc, v4, T = moment.fibre_draws(n, seed, 0.05, (3, 4))
    # The standard structure, or on the odd draws of K the anti-self-dual circle.
    coeffs = np.tile(TwoForm.from_cartan((1, 1, 1)).as_array(), (n, 1))
    if which == "K":
        coeffs[1::2] = _asd_edge_coeffs(*abc[1::2].T)
    V, images = mixed_images(coeffs, np.pad(v4, ((0, 0), (0, 2))), T)
    keep = _invariant(endomorphisms(coeffs), V, 1e-9)
    if which == "K_intersection":
        keep &= horizontal_closed(algebra, V) & vertical_closed(algebra, V)
    skipped = int(np.count_nonzero(~keep))
    t = T[keep]
    pts = images[keep]
    lams = np.column_stack([np.ones_like(t), np.ones_like(t), 1.0 + t])
    worst = float(np.max(moment.moment_violations(lams, pts), initial=0.0))
    report = {
        "pass": skipped == 0 and worst <= moment.GATE_TOL,
        "n": n,
        "seed": seed,
        "which": which,
        "produced": len(pts),
        "skipped": skipped,
        "max_orbit_containment_violation": worst,
    }
    cloud = moment.SampleCloud(pts, f"source=mixed_classes_over which={which} n={n} seed={seed}")
    return cloud, report
