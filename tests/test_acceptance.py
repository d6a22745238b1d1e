"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime; the stated wall-clock
budgets are asserted.
"""

import time
from fractions import Fraction

import numpy as np

from orbitkit import iwasawa, klein, moment, polytopes, spin, weyl
from orbitkit.cli import AGS_LAMBDAS
from orbitkit.forms import (
    TwoForm,
    canonical_triple,
    classify,
    conjugate,
)


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0
        return False

    def check(self, label):
        print(f"PASS: {label} ({self.elapsed:.2f}s, budget {self.budget}s)")
        assert self.elapsed < self.budget, f"{label} exceeded {self.budget}s"


def test_c01_tetrahedron_facets_exact():
    with Timer(1.0) as t:
        P = moment.moment_polytope((1, 1, 1))
        got = {(f.normal, f.offset) for f in P.facets}
        expected = {
            ((-1, -1, -1), 1),
            ((-1, 1, 1), 1),
            ((1, -1, 1), 1),
            ((1, 1, -1), 1),
        }
        assert got == expected
        assert all(isinstance(f.offset, (int, Fraction)) for f in P.facets)
        minus = moment.moment_polytope((1, -1, 1))
        got_minus = {(f.normal, f.offset) for f in minus.facets}
        assert got_minus == {
            ((1, 1, 1), 1),
            ((1, -1, -1), 1),
            ((-1, 1, -1), 1),
            ((-1, -1, 1), 1),
        }
    t.check("criterion 1: tetrahedron facet systems exact")


def test_c02_octahedron_facets_exact():
    with Timer(1.0) as t:
        P = moment.moment_polytope((0, 0, 1))
        got = {(f.normal, f.offset) for f in P.facets}
        expected = {
            ((sx, sy, sz), 1)
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        }
        assert got == expected
    t.check("criterion 2: octahedron facet system exact")


def test_c03_tetrahedra_intersection_is_octahedron():
    with Timer(1.0) as t:
        plus = moment.moment_polytope((1, 1, 1))
        minus = moment.moment_polytope((1, -1, 1))
        both = polytopes.intersect(plus, minus)
        octa = moment.moment_polytope((0, 0, 1))
        assert both == octa
    t.check("criterion 3: tetrahedra intersect to the octahedron exactly")


def test_c04_ags_containment_and_vertex_reach():
    """Each cloud lies in its moment polytope and comes within 1e-9 of every
    vertex w.lam, so its hull is the polytope; the Haar draws alone, without
    the appended Weyl images, do not reach the vertices."""
    n = 100_000
    seed = 7
    with Timer(60.0) as t:
        worst = 0.0
        gap = 0.0
        for lam in AGS_LAMBDAS:
            cloud = moment.orbit_samples(lam, n, seed)
            P = moment.moment_polytope(lam)
            worst = max(
                worst, float(np.max(polytopes.violations_many(P, cloud.points)))
            )
            gap = max(gap, float(np.max(moment.vertex_gaps(lam, cloud.points))))
            draws_gap = float(np.max(moment.vertex_gaps(lam, cloud.points[:n])))
            assert draws_gap > 1e-9, f"{lam}: draws alone reach every vertex"
        assert worst <= 1e-9, f"containment violation {worst}"
        assert gap <= 1e-9, f"vertex gap {gap}"
    t.check(
        f"criterion 4: containment of 7x{n} samples (max violation {worst:.2e}), "
        f"max vertex gap {gap:.2e}"
    )


def test_c05_singular_values():
    lam = (1.0, 0.5, 2.0)
    n = 10_000
    seed = 13
    with Timer(60.0) as t:
        polys = moment.singular_value_polytopes(lam)
        P = moment.moment_polytope(lam)
        facet_vertex_sets = {
            tuple(sorted(P.vertices[k] for k in tight))
            for tight in P.facet_tight_vertices()
        }
        family = {tuple(sorted(q.vertices)) for q in polys}
        assert facet_vertex_sets <= family, "some facet is not a singular polytope"
        worst = 0.0
        seen = set()
        classes = []
        for i in (1, 2, 3):
            for w in weyl.weyl_group():
                key = (i, weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]))
                if key in seen:
                    continue
                seen.add(key)
                classes.append((i, w))
        runs = 0
        for rep in moment.verify_singular(lam, classes, n, seed):
            assert rep["max_violation"] <= 1e-9 and rep["law_deviation"] <= 1.0, rep
            worst = max(worst, rep["max_violation"])
            runs += 1
        assert runs == 14
    t.check(
        f"criterion 5: {runs} singular classes x {n} samples "
        f"(max violation {worst:.2e}), all facets covered"
    )


def test_c06_edge_prism_identity():
    n = 10_000
    seed = 17
    with Timer(5.0) as t:
        abc, abg, tt = moment.fibre_draws(n, seed, klein.EDGE_PRISM_T_LO, (3, 3))
        x, y, z = klein.edge_prism_points(abc, abg, tt).T
        a = abc[:, 0]
        worst = float(np.max(np.abs(x - y - a * z - a * (3.0 + tt))))
        assert worst <= 1e-12
        assert klein.prism_region_test(np.column_stack([x, y, z]))
    t.check(f"criterion 6: edge-prism identity over {n} draws (residual {worst:.2e})")


def test_c07_spin_double_cover():
    with Timer(1.0) as t:
        worst = 0.0
        for theta in np.linspace(0.0, 4 * np.pi, 100):
            worst = max(worst, spin.spin_cover_check(float(theta)).discrepancy)
        assert worst < 1e-12
        r = spin.spin_cover_check(2 * np.pi)
        assert np.max(np.abs(r.su4_element + np.eye(4))) < 1e-12
        assert np.max(np.abs(r.so6_action - np.eye(6))) < 1e-12
    t.check(f"criterion 7: spin double cover over 100 angles (max discrepancy {worst:.2e})")


def test_c08_integrable_complex_structures():
    n = 100_000
    seed = 23
    with Timer(120.0) as t:
        algebra = iwasawa.iwasawa_algebra()
        grid = iwasawa.asd_edge_grid(101)
        forms = [iwasawa.asd_edge_form(a, b, c) for a, b, c in grid]
        Js = np.array([iwasawa.ocs_matrix(f) for f in forms])
        worst_nijenhuis = float(np.max(iwasawa._nijenhuis_norms(algebra, Js)))
        assert worst_nijenhuis < 1e-10
        images = [moment.mu_t(f) for f in forms]
        # Images sit on the edge z = -1, x + y = 0, |x| <= 1 to 1e-9 ...
        end1, end2 = np.array([1.0, -1.0, -1.0]), np.array([-1.0, 1.0, -1.0])
        for x, y, z in images:
            assert abs(z + 1.0) <= 1e-9 and abs(x + y) <= 1e-9 and abs(x) <= 1.0 + 1e-9
        # ... and fill it at grid resolution (Hausdorff both ways).
        spacing = 2.0 * np.sqrt(2.0) / (len(grid) - 1)
        images_arr = np.array(images)
        for s in np.linspace(0.0, 1.0, 400):
            target = end1 + s * (end2 - end1)
            gap = np.min(np.linalg.norm(images_arr - target, axis=1))
            assert gap <= spacing
        # The standard structure is integrable, at a vertex off that edge.
        J0 = TwoForm.from_cartan((1, 1, 1)).endomorphism()
        assert iwasawa._nijenhuis_norms(algebra, J0[None])[0] < 1e-10
        vertex = moment.mu_t(TwoForm.from_cartan((1, 1, 1)))
        assert np.max(np.abs(np.subtract(vertex, (1.0, 1.0, 1.0)))) <= 1e-12
        # Haar scan: every draw has ||N||^2 = P(mu), which vanishes only
        # on the vertex and the edge.
        cloud, rep = iwasawa.scan_complex(n, seed, tol=1e-6)
        assert rep["pass"], rep
        assert rep["max_identity_residual"] <= 1e-10
    t.check(
        f"criterion 8: integrable family (max Nijenhuis {worst_nijenhuis:.2e}), "
        f"{n} Haar samples with ||N||^2 = P(mu) to {rep['max_identity_residual']:.1e}, "
        f"{rep['accepted_haar']} filter survivors"
    )


def test_c09_product_structure_scans():
    n = 10_000
    seed = 29
    with Timer(30.0) as t:
        cloud, rep = iwasawa.scan_K(n, seed)
        assert rep["pass"], rep
        assert rep["max_l1"] <= 1.0 + 1e-9
        assert rep["max_abs_z"] <= 1e-9
        cloud2, rep2 = iwasawa.scan_K_intersection(n, seed)
        assert rep2["pass"], rep2
        assert rep2["max_segment_deviation"] <= 1e-9
        assert rep2["max_identity_residual"] <= 1e-12
    t.check(
        f"criterion 9: {n} product structures (square excess "
        f"{rep['max_l1'] - 1.0:.2e}, segment deviation "
        f"{rep2['max_segment_deviation']:.2e}, ||[v1, v2]||^2 = 1 - (x + y)^2 to "
        f"{rep2['max_identity_residual']:.1e})"
    )


def test_c10_classification_equivariance_and_weyl():
    n = 1000
    seed = 31
    with Timer(5.0) as t:
        rng = np.random.default_rng(seed)
        for k in range(n):
            f = TwoForm(tuple(rng.standard_normal(15)))
            R = moment.haar_rotations(1, seed, start=k)[0]
            g = conjugate(f, R)
            assert classify(f) is classify(g)
            t_f = canonical_triple(f)
            t_g = canonical_triple(g)
            assert max(abs(a - b) for a, b in zip(t_f, t_g)) <= 1e-8
        assert len(weyl.weyl_group()) == 24
        sizes = set()
        for p in [(0, 0, 0), (1, 1, 1), (0, 0, 1), (1, 1, 2), (1, 0.5, 2)]:
            stab = sum(
                1 for w in weyl.weyl_group() if weyl.act(w, p) == tuple(p)
            )
            orbit = len(weyl.weyl_orbit(p))
            assert stab * orbit == 24
            sizes.add(orbit)
        assert sizes == {1, 4, 6, 12, 24}
    t.check(f"criterion 10: equivariance over {n} pairs, orbit sizes {sorted(sizes)}")
