"""Invariant geometry on the complex Heisenberg nilmanifold.

All structures are left-invariant, so integrability questions reduce to
finite computations with the frame structure constants: the Nijenhuis tensor
of an orthogonal complex structure, and bracket-closure of the two
distributions of an orthogonal product structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moment
from .errors import IncompatiblePair, WrongClass
from .forms import TwoForm, eigen_split


@dataclass(frozen=True)
class FrameAlgebra:
    """Structure constants c[k, i, j] meaning [e_i, e_j] = sum_k c[k,i,j] e_k."""

    c: np.ndarray

    def jacobi_residual(self) -> float:
        c = self.c
        # [[e_i, e_j], e_k] summed cyclically.
        term = np.einsum("mab,pmc->pabc", c, c)
        total = (
            term
            + np.einsum("pabc->pbca", term)
            + np.einsum("pabc->pcab", term)
        )
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
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum("kij,i,j->k", algebra.c, X, Y)


def d_one_form(algebra: FrameAlgebra, k: int) -> TwoForm:
    """Exterior derivative of the frame 1-form e^k as a 2-form."""
    co = []
    for i, j in ((i, j) for i in range(1, 7) for j in range(i + 1, 7)):
        co.append(-algebra.c[k - 1, i - 1, j - 1])
    return TwoForm(tuple(co))


def d_two_form(algebra: FrameAlgebra, beta: TwoForm) -> np.ndarray:
    """Exterior derivative of an invariant 2-form as the full values tensor
    (d beta)(e_i, e_j, e_k) = -beta([e_i,e_j], e_k) + beta([e_i,e_k], e_j)
    - beta([e_j,e_k], e_i)."""
    c = algebra.c
    bmat = np.zeros((6, 6))
    for a in range(6):
        for b in range(6):
            bmat[a, b] = beta.coefficient(a + 1, b + 1)
    t = np.einsum("mij,mk->ijk", c, bmat)
    return -t + np.einsum("ijk->ikj", t) - np.einsum("ijk->jki", t)


def ocs_matrix(form: TwoForm, tol: float = 1e-8) -> np.ndarray:
    """Endomorphism of a complex-structure form, validated to square to -1."""
    J = form.endomorphism()
    if np.max(np.abs(J @ J + np.eye(6))) > math.sqrt(tol):
        raise WrongClass("form does not square to -identity")
    return J


def nijenhuis_norm(algebra: FrameAlgebra, J) -> float:
    """Frobenius norm of N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] over
    the frame pairs; zero exactly on integrable complex structures."""
    J = np.asarray(J, dtype=float)
    return float(_nijenhuis_norms(algebra, J[None, :, :])[0])


def _nijenhuis_norms(algebra: FrameAlgebra, Js: np.ndarray) -> np.ndarray:
    c = algebra.c
    t1 = np.einsum("kab,nai,nbj->nkij", c, Js, Js)
    u = np.einsum("kaj,nai->nkij", c, Js)
    t2 = np.einsum("nkm,nmij->nkij", Js, u)
    w = np.einsum("kib,nbj->nkij", c, Js)
    t3 = np.einsum("nkm,nmij->nkij", Js, w)
    N = t1 - t2 - t3 - c[None, :, :, :]
    return np.sqrt(0.5 * np.einsum("nkij,nkij->n", N, N))


def _complement(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the plane V (6, 2)."""
    _, _, vt = np.linalg.svd(V.T, full_matrices=True)
    return vt[2:].T


def horizontal_closed(algebra: FrameAlgebra, V, tol: float = 1e-12) -> bool:
    """Brackets of the 4-plane orthogonal to V stay out of V."""
    V = np.asarray(V, dtype=float)
    H = _complement(V)
    for a in range(4):
        for b in range(a + 1, 4):
            br = bracket(algebra, H[:, a], H[:, b])
            if np.max(np.abs(V.T @ br)) > tol:
                return False
    return True


def vertical_closed(algebra: FrameAlgebra, V, tol: float = 1e-12) -> bool:
    """Bracket of the two plane vectors stays in the plane."""
    V = np.asarray(V, dtype=float)
    br = bracket(algebra, V[:, 0], V[:, 1])
    H = _complement(V)
    return bool(np.max(np.abs(H.T @ br)) <= tol)


def plane_form(V) -> TwoForm:
    """Oriented-plane 2-form v1 ^ v2 of an orthonormal basis pair."""
    V = np.asarray(V, dtype=float)
    return TwoForm.from_wedge(V[:, 0], V[:, 1])


def asd_edge_form(a: float, b: float, c: float) -> TwoForm:
    """Anti-self-dual unit completion a(e12-e34) + b(e13-e42) + c(e14-e23) - e56."""
    return (
        a * (TwoForm.basis(1, 2) - TwoForm.basis(3, 4))
        + b * (TwoForm.basis(1, 3) - TwoForm.basis(4, 2))
        + c * (TwoForm.basis(1, 4) - TwoForm.basis(2, 3))
        - TwoForm.basis(5, 6)
    )


def asd_edge_grid(m: int = 101):
    """Deterministic family sweeping the integrable anti-self-dual circle."""
    out = []
    for k in range(m):
        a = -1.0 + 2.0 * k / (m - 1)
        b = math.sqrt(max(0.0, 1.0 - a * a))
        out.append((a, b, 0.0))
    return out


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
    J0_form = TwoForm.from_cartan((1, 1, 1))
    family_points = []
    family_norm = nijenhuis_norm(algebra, ocs_matrix(J0_form))
    family_max = family_norm
    family_points.append(moment.mu_t(J0_form))
    for a, b, c in asd_edge_grid():
        f = asd_edge_form(a, b, c)
        family_max = max(family_max, nijenhuis_norm(algebra, ocs_matrix(f)))
        family_points.append(moment.mu_t(f))
    J0 = J0_form.endomorphism()
    accepted = []
    chunk = 20000
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        R = moment.haar_rotations(hi - lo, seed, start=lo)
        Js = np.einsum("nab,bc,ndc->nad", R, J0, R)
        norms = _nijenhuis_norms(algebra, Js)
        for k in np.nonzero(norms < tol)[0]:
            accepted.append(moment._mu_of_matrix(Js[k]))
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
    (or all of R^6); plane j is the QR of the k x 2 normals of sample start + j."""
    g = moment.normals(seed, n, 2 * subspace_dim, start).reshape(n, subspace_dim, 2)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    V = np.zeros((n, 6, 2))
    V[:, :subspace_dim] = q
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
    pts = np.empty((n, 3))
    closed_ok = True
    for k, V in enumerate(_sample_planes_in(seed, n, 4)):
        if not horizontal_closed(algebra, V):
            closed_ok = False
        pts[k] = moment.mu_t(plane_form(V))
    off_failures = 0
    off_checked = 0
    for V in _sample_planes_in(seed, min(n, 200), 6, start=n):
        if np.max(np.abs(V[4:])) < 1e-6:
            continue  # essentially inside the subspace; closure may hold
        off_checked += 1
        if horizontal_closed(algebra, V):
            off_failures += 1
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
        "off_subspace_checked": off_checked,
        "off_subspace_closed": off_failures,
    }
    cloud = moment.SampleCloud(seed, pts, f"source=scan_K n={n} seed={seed}")
    return cloud, report


def doubly_closed_plane(sign: int, u) -> np.ndarray:
    """Plane of the doubly-closed family: self-dual part pinned to
    sign (e12 + e34) / 2, anti-self-dual part chosen by the unit 3-vector u."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    u = tuple(float(c) for c in u)
    if abs(sum(c * c for c in u) - 1.0) > 1e-12:
        raise ValueError("u must be a unit 3-vector")
    form = 0.5 * sign * (TwoForm.basis(1, 2) + TwoForm.basis(3, 4)) + 0.5 * (
        u[0] * (TwoForm.basis(1, 2) - TwoForm.basis(3, 4))
        + u[1] * (TwoForm.basis(1, 3) + TwoForm.basis(2, 4))
        + u[2] * (TwoForm.basis(1, 4) - TwoForm.basis(2, 3))
    )
    plane = eigen_split(form).planes[2]
    V = np.zeros((6, 2))
    V[:, 0] = plane.u
    V[:, 1] = plane.v
    return V


def scan_K_intersection(n: int, seed: int) -> tuple[moment.SampleCloud, dict]:
    """Scan planes closed under both distributions.

    The doubly-closed family is swept deterministically (it must pass both
    closure tests, with images on the two segments x + y = +-1, z = 0), and
    random subspace planes are filtered by the vertical test as a control.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    algebra = iwasawa_algebra()
    pts = []
    family_ok = True
    G = moment.normals(seed, n, 3)
    for k in range(n):
        sign = 1 if (k % 2 == 0) else -1
        u = G[k] / np.linalg.norm(G[k])
        V = doubly_closed_plane(sign, u)
        if not (horizontal_closed(algebra, V) and vertical_closed(algebra, V)):
            family_ok = False
        pts.append(moment.mu_t(plane_form(V)))
    pts = np.array(pts)
    random_accepted = []
    for V in _sample_planes_in(seed, min(n, 500), 4, start=n):
        if vertical_closed(algebra, V):
            random_accepted.append(moment.mu_t(plane_form(V)))
    seg_dev = np.minimum(
        np.abs(pts[:, 0] + pts[:, 1] - 1.0), np.abs(pts[:, 0] + pts[:, 1] + 1.0)
    )
    all_pts = pts if not random_accepted else np.vstack([pts, random_accepted])
    extra_dev = 0.0
    for p in random_accepted:
        extra_dev = max(
            extra_dev, min(abs(p[0] + p[1] - 1.0), abs(p[0] + p[1] + 1.0)), abs(p[2])
        )
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
    cloud = moment.SampleCloud(
        seed, all_pts, f"source=scan_K_intersection n={n} seed={seed}"
    )
    return cloud, report


def mixed_pair(J_form: TwoForm, V, t: float, tol: float = 1e-9) -> TwoForm:
    """Mixed form J + t (plane form of V); the plane must be J-invariant."""
    if t <= 0:
        raise ValueError("t must be positive")
    J = ocs_matrix(J_form)
    V = np.asarray(V, dtype=float)
    P = V @ V.T
    for col in range(2):
        img = J @ V[:, col]
        if np.linalg.norm(img - P @ img) > math.sqrt(tol):
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
    pts = []
    skipped = 0
    lams = []
    w = moment.stream(seed, n, 9)
    G = moment.gaussians(w[:, :8])
    T = 0.05 + 0.95 * moment.uniforms(w[:, 8])
    for k in range(n):
        t = float(T[k])
        if which == "K_intersection" or (k % 2 == 0):
            J_form = TwoForm.from_cartan((1, 1, 1))
        else:
            a, b, c = G[k, :3] / np.linalg.norm(G[k, :3])
            J_form = asd_edge_form(a, b, c)
        J = ocs_matrix(J_form)
        g = G[k, 3:7]
        v = np.zeros(6)
        v[:4] = g / np.linalg.norm(g)
        V = np.column_stack([v, J @ v])
        if which == "K_intersection":
            if not (horizontal_closed(algebra, V) and vertical_closed(algebra, V)):
                skipped += 1
                continue
        try:
            mixed = mixed_pair(J_form, V, t)
        except IncompatiblePair:
            skipped += 1
            continue
        pts.append(moment.mu_t(mixed))
        lams.append((1.0, 1.0, 1.0 + t))
    pts = np.array(pts)
    worst = max(0.0, float(np.max(moment.moment_violations(lams, pts)))) if lams else 0.0
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
