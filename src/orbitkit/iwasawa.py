"""Invariant geometry on the complex Heisenberg nilmanifold.

All structures are left-invariant, so integrability questions reduce to
finite computations with the frame structure constants: the Nijenhuis tensor
of an orthogonal complex structure, and bracket-closure of the two
distributions of an orthogonal product structure.  The scans test whole
stacks of plane frames (n, 6, 2) and structures (n, 6, 6) at once, and read
plane images off `moment.cartan_minors`.  The closed-form doubly-closed
frames and stacked products move `scan-kk` and `mixed` coordinates by up to
a few 1e-16 against per-plane eigen-split frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moment
from .errors import IncompatiblePair, WrongClass
from .forms import E12, E34, E56, PAIRS, TwoForm, endomorphisms


@dataclass(frozen=True)
class FrameAlgebra:
    """Structure constants c[k, i, j] meaning [e_i, e_j] = sum_k c[k,i,j] e_k."""

    c: np.ndarray

    def jacobi_residual(self) -> float:
        c = self.c
        # [[e_i, e_j], e_k] summed cyclically.
        term = np.einsum("mab,pmc->pabc", c, c)
        total = term + np.einsum("pabc->pbca", term) + np.einsum("pabc->pcab", term)
        return float(np.max(np.abs(total)))


def iwasawa_algebra() -> FrameAlgebra:
    """Frame algebra with de5 = e13 + e42, de6 = e14 + e23, other de = 0."""
    c = np.zeros((6, 6, 6))

    def setb(i, j, k, val):
        c[k - 1, i - 1, j - 1] = val
        c[k - 1, j - 1, i - 1] = -val

    # d(alpha)(X, Y) = -alpha([X, Y]) on invariant fields.
    setb(1, 3, 5, -1.0)
    setb(2, 4, 5, 1.0)
    setb(1, 4, 6, -1.0)
    setb(2, 3, 6, -1.0)
    return FrameAlgebra(c)


def bracket(algebra: FrameAlgebra, X, Y) -> np.ndarray:
    """[X, Y] of two vectors, or row by row of two (..., 6) stacks."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum("kij,...i,...j->...k", algebra.c, X, Y)


def d_one_form(algebra: FrameAlgebra, k: int) -> TwoForm:
    """Exterior derivative of the frame 1-form e^k as a 2-form."""
    return TwoForm(tuple(-algebra.c[k - 1, i - 1, j - 1] for i, j in PAIRS))


def d_two_form(algebra: FrameAlgebra, beta: TwoForm) -> np.ndarray:
    """Exterior derivative of an invariant 2-form as the full values tensor
    (d beta)(e_i, e_j, e_k) = -beta([e_i,e_j], e_k) + beta([e_i,e_k], e_j)
    - beta([e_j,e_k], e_i)."""
    # beta(e_m, e_k) is entry (m, k) of the transposed endomorphism.
    t = np.einsum("mij,mk->ijk", algebra.c, beta.endomorphism().T)
    return -t + np.einsum("ijk->ikj", t) - np.einsum("ijk->jki", t)


def ocs_matrix(form, tol: float = 1e-8) -> np.ndarray:
    """Endomorphism of a complex-structure form, or a stack (n, 6, 6) of
    them, validated to square to -1."""
    J = form.endomorphism() if isinstance(form, TwoForm) else np.asarray(form, dtype=float)
    if np.max(np.abs(J @ J + np.eye(6))) > math.sqrt(tol):
        raise WrongClass("form does not square to -identity")
    return J


def nijenhuis_norm(algebra: FrameAlgebra, J) -> float:
    """Frobenius norm of N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] over
    the frame pairs; zero exactly on integrable complex structures."""
    return float(_nijenhuis_norms(algebra, np.asarray(J, dtype=float)[None])[0])


def _nijenhuis_norms(algebra: FrameAlgebra, Js: np.ndarray) -> np.ndarray:
    c = algebra.c
    jj = np.einsum("kab,nai,nbj->nkij", c, Js, Js, optimize=True)
    # [JX, Y] + [X, JY], contracted with J once.
    mixed = (np.einsum("kaj,nai->nkij", c, Js, optimize=True)
             + np.einsum("kib,nbj->nkij", c, Js, optimize=True))
    N = jj - np.einsum("nkm,nmij->nkij", Js, mixed, optimize=True) - c
    return np.sqrt(0.5 * np.einsum("nkij,nkij->n", N, N))


def _perp(V: np.ndarray) -> np.ndarray:
    """Projector 1 - V V^T off the planes of orthonormal frames V (..., 6, 2)."""
    return np.eye(6) - V @ np.swapaxes(V, -1, -2)


def _per_plane(residual: np.ndarray, V: np.ndarray, tol: float):
    """max |residual| <= tol: a bool for one plane, an array for a stack."""
    ok = np.max(np.abs(residual), axis=tuple(range(V.ndim - 2, residual.ndim))) <= tol
    return bool(ok) if V.ndim == 2 else ok


def horizontal_closed(algebra: FrameAlgebra, V, tol: float = 1e-12):
    """Brackets of the 4-plane orthogonal to V stay out of V: the bracket
    forms B_k = sum_m V[m, k] c[m] vanish there, max |P B_k P| <= tol.
    V is an orthonormal frame (6, 2) or a stack (n, 6, 2); one bool per plane."""
    V = np.asarray(V, dtype=float)
    P = _perp(V)[..., None, :, :]
    B = np.einsum("mij,...mk->...kij", algebra.c, V)
    return _per_plane(P @ B @ P, V, tol)


def vertical_closed(algebra: FrameAlgebra, V, tol: float = 1e-12):
    """Bracket of the two plane vectors stays in the plane: max |P [v1, v2]|
    <= tol, for a frame (6, 2) or a stack (n, 6, 2); one bool per plane."""
    V = np.asarray(V, dtype=float)
    br = bracket(algebra, V[..., 0], V[..., 1])
    return _per_plane((_perp(V) @ br[..., None])[..., 0], V, tol)


def plane_form(V) -> TwoForm:
    """Oriented-plane 2-form v1 ^ v2 of an orthonormal basis pair."""
    V = np.asarray(V, dtype=float)
    return TwoForm.from_wedge(V[:, 0], V[:, 1])


def _plane_images(V: np.ndarray) -> np.ndarray:
    """(n, 3) Cartan coefficients of the plane forms of a frame stack."""
    return moment.cartan_minors(V)[..., 0]


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


def _segment_distance(p, a, b) -> float:
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    t = float(np.dot(p - a, d) / np.dot(d, d))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * d)))


#: Moment images of the deterministic integrable families: the isolated
#: vertex and the endpoints of the opposite edge it does not touch.
INTEGRABLE_VERTEX = (1.0, 1.0, 1.0)
INTEGRABLE_EDGE = ((1.0, -1.0, -1.0), (-1.0, 1.0, -1.0))


def integrable_set_distance(p) -> float:
    """Distance to {vertex} union {opposite edge} of the tetrahedron."""
    dv = float(np.linalg.norm(np.asarray(p, dtype=float) - np.array(INTEGRABLE_VERTEX)))
    de = _segment_distance(p, *INTEGRABLE_EDGE)
    return min(dv, de)


def scan_complex(n: int, seed: int, tol: float = 1e-6,
                 eps: float = 1e-2) -> tuple[moment.SampleCloud, dict]:
    """Haar-scan complex structures for integrability.

    Deterministic checks first: the standard structure is integrable with
    image the vertex (1,1,1); the anti-self-dual circle is integrable with
    images filling the opposite edge.  Haar samples passing the Nijenhuis
    filter must land within eps of that vertex-union-edge set.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    family = [TwoForm.from_cartan((1, 1, 1))] + [asd_edge_form(*g) for g in asd_edge_grid()]
    family_max = max(nijenhuis_norm(algebra, ocs_matrix(f)) for f in family)
    family_points = [moment.mu_t(f) for f in family]
    J0 = family[0].endomorphism()
    accepted = []
    chunk = 20000
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        R = moment.haar_rotations(hi - lo, seed, start=lo)
        Js = np.einsum("nab,bc,ndc->nad", R, J0, R)
        acc = _nijenhuis_norms(algebra, Js) < tol
        accepted.extend(Js[acc][:, (1, 3, 5), (0, 2, 4)])
    max_dist = max((integrable_set_distance(p) for p in accepted), default=0.0)
    pts = np.array(accepted + family_points)
    cloud = moment.SampleCloud(
        seed, pts, f"source=scan_complex n={n} seed={seed} tol={tol!r}"
    )
    report = {
        "pass": bool(family_max < 1e-10 and max_dist <= eps),
        "n": n,
        "seed": seed,
        "filter_tol": tol,
        "eps": eps,
        "family_max_nijenhuis": float(family_max),
        "accepted_haar": len(accepted),
        "max_accepted_distance": float(max_dist),
        "vertex": list(INTEGRABLE_VERTEX),
        "edge": [list(p) for p in INTEGRABLE_EDGE],
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


def scan_K(n: int, seed: int) -> tuple[moment.SampleCloud, dict]:
    """Sample product structures with plane inside <e1..e4> and probe closure.

    Every in-subspace plane must pass the horizontal closure test and its
    moment image fills the central square |x| + |y| <= 1 in the z = 0 plane;
    planes leaving the subspace must fail.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    V = _sample_planes_in(seed, n, 4)
    closed_ok = bool(np.all(horizontal_closed(algebra, V)))
    pts = _plane_images(V)
    off = _sample_planes_in(seed, min(n, 200), 6, start=n)
    # Planes essentially inside the subspace, where closure may hold, are left out.
    off = off[np.max(np.abs(off[:, 4:]), axis=(1, 2)) >= 1e-6]
    off_failures = int(np.count_nonzero(horizontal_closed(algebra, off)))
    l1 = np.abs(pts[:, 0]) + np.abs(pts[:, 1])
    report = {
        "pass": bool(
            closed_ok
            and off_failures == 0
            and float(np.max(l1)) <= 1.0 + 1e-9
            and float(np.max(np.abs(pts[:, 2]))) <= 1e-9
        ),
        "n": n,
        "seed": seed,
        "max_l1": float(np.max(l1)),
        "max_abs_z": float(np.max(np.abs(pts[:, 2]))),
        "all_in_subspace_closed": closed_ok,
        "off_subspace_checked": len(off),
        "off_subspace_closed": off_failures,
    }
    cloud = moment.SampleCloud(seed, pts, f"source=scan_K n={n} seed={seed}")
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
    if np.any(np.abs(np.sum(u * u, axis=-1) - 1.0) > 1e-12):
        raise ValueError("u must be a unit 3-vector")
    F = endomorphisms(0.5 * sign[..., None] * _SD + 0.5 * (u @ _ASD))
    lengths = np.linalg.norm(F, axis=-2)
    k = np.argmax(lengths, axis=-1)[..., None]
    a = np.take_along_axis(np.swapaxes(F, -1, -2), k[..., None], axis=-2)[..., 0, :]
    a = a / np.take_along_axis(lengths, k, axis=-1)
    return np.stack([a, (F @ a[..., None])[..., 0]], axis=-1)


def _segment_gap(pts: np.ndarray) -> np.ndarray:
    """Distance of x + y to the nearer of +1 and -1, row by row."""
    s = pts[:, 0] + pts[:, 1]
    return np.minimum(np.abs(s - 1.0), np.abs(s + 1.0))


def scan_K_intersection(n: int, seed: int) -> tuple[moment.SampleCloud, dict]:
    """Scan planes closed under both distributions.

    The doubly-closed family is swept deterministically (it must pass both
    closure tests, with images on the two segments x + y = +-1, z = 0), and
    random subspace planes are filtered by the vertical test as a control.
    Sample k of the family has sign (-1)^k and direction the 3 normals of
    stream (seed, k).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    G = moment.normals(seed, n, 3)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    V = doubly_closed_plane(signs, G / np.linalg.norm(G, axis=1, keepdims=True))
    family_ok = bool(np.all(horizontal_closed(algebra, V) & vertical_closed(algebra, V)))
    pts = _plane_images(V)
    R = _sample_planes_in(seed, min(n, 500), 4, start=n)
    random_accepted = _plane_images(R[vertical_closed(algebra, R)])
    seg_dev = _segment_gap(pts)
    extra_dev = float(np.max(
        np.maximum(_segment_gap(random_accepted), np.abs(random_accepted[:, 2])),
        initial=0.0))
    report = {
        "pass": bool(
            family_ok
            and float(np.max(seg_dev)) <= 1e-9
            and float(np.max(np.abs(pts[:, 2]))) <= 1e-9
            and extra_dev <= 1e-9
        ),
        "n": n,
        "seed": seed,
        "family_all_doubly_closed": family_ok,
        "max_segment_deviation": float(max(np.max(seg_dev), extra_dev)),
        "max_abs_z": float(np.max(np.abs(pts[:, 2]))),
        "random_planes_doubly_closed": len(random_accepted),
    }
    cloud = moment.SampleCloud(seed, np.vstack([pts, random_accepted]),
                               f"source=scan_K_intersection n={n} seed={seed}")
    return cloud, report


def _invariant(J: np.ndarray, V: np.ndarray, tol: float) -> np.ndarray:
    """Whether J maps the plane V into itself: |P J v| <= sqrt(tol) for both
    frame vectors, for one plane or row by row of a stack."""
    out = _perp(V) @ J @ V
    return np.all(np.linalg.norm(out, axis=-2) <= math.sqrt(tol), axis=-1)


def mixed_pair(J_form: TwoForm, V, t: float, tol: float = 1e-9) -> TwoForm:
    """Mixed form J + t (plane form of V); the plane must be J-invariant."""
    if t <= 0:
        raise ValueError("t must be positive")
    J = ocs_matrix(J_form)
    V = np.asarray(V, dtype=float)
    if not _invariant(J, V, tol):
        raise IncompatiblePair("plane is not invariant under the complex structure")
    return J_form + float(t) * plane_form(V)


def mixed_classes_over(n: int, seed: int, which: str = "K") -> tuple[moment.SampleCloud, dict]:
    """Images of mixed forms built from integrable structures over a scan class.

    For each sample an integrable J (the standard one or a member of the
    anti-self-dual circle) is paired with a J-invariant plane drawn from the
    requested class; incompatible draws are skipped and counted.  The run
    passes when every draw is produced or skipped, at least one is produced,
    and every image lies within 1e-9 of conv(W.(1, 1, 1 + t)): the mixed
    form J + t (v ^ Jv) has chamber triple (1, 1, 1 + t).  Sample k takes 9
    words of stream (seed, k) whichever branch it takes: 8 normals from words
    0-7 (3 for the anti-self-dual direction, 4 for the plane vector, one
    unused) and t ~ U(0.05, 1) from word 8.
    """
    if which not in ("K", "K_intersection"):
        raise ValueError("which must be 'K' or 'K_intersection'")
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    w = moment.stream(seed, n, 9)
    G = moment.gaussians(w[:, :8])
    T = 0.05 + 0.95 * moment.uniforms(w[:, 8])
    # The standard structure, or on the odd draws of K the anti-self-dual circle.
    coeffs = np.tile(TwoForm.from_cartan((1, 1, 1)).as_array(), (n, 1))
    if which == "K":
        abc = G[1::2, :3] / np.linalg.norm(G[1::2, :3], axis=1, keepdims=True)
        coeffs[1::2] = _asd_edge_coeffs(*abc.T)
    J = ocs_matrix(endomorphisms(coeffs))
    v = np.zeros((n, 6))
    v[:, :4] = G[:, 3:7] / np.linalg.norm(G[:, 3:7], axis=1, keepdims=True)
    V = np.stack([v, (J @ v[..., None])[..., 0]], axis=-1)
    keep = _invariant(J, V, 1e-9)
    if which == "K_intersection":
        keep &= horizontal_closed(algebra, V) & vertical_closed(algebra, V)
    skipped = int(np.count_nonzero(~keep))
    t = T[keep]
    pts = coeffs[keep][:, (E12, E34, E56)] + t[:, None] * _plane_images(V[keep])
    lams = np.column_stack([np.ones_like(t), np.ones_like(t), 1.0 + t])
    worst = float(np.max(moment.moment_violations(lams, pts), initial=0.0))
    report = {
        "pass": len(pts) + skipped == n and len(pts) >= 1 and worst <= 1e-9,
        "n": n,
        "seed": seed,
        "which": which,
        "produced": len(pts),
        "skipped": skipped,
        "max_orbit_containment_violation": worst,
    }
    cloud = moment.SampleCloud(
        seed, pts, f"source=mixed_classes_over which={which} n={n} seed={seed}"
    )
    return cloud, report
