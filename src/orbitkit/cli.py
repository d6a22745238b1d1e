"""Command-line front end.

Commands: classify, polytope, sample, verify <suite>, klein <sub>,
iwasawa <sub>, export.  Every run prints a JSON report to stdout; exit code 0
means all asserted tolerances were met, 1 is an assertion failure, 2 a
usage or parse error.  The default seed comes from ORBITKIT_SEED (fallback 0;
a non-integer value is a usage error) and an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import iwasawa, klein, moment, polytopes, spin, weyl
from .errors import OrbitkitError, ParseError, UnknownSuite
from .forms import (
    STABILIZER_DIM,
    OrbitClass,
    TwoForm,
    canonical_triple,
    classify,
    classify_full,
)

@dataclass
class RunReport:
    command: str
    parameters: dict
    passed: bool
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "pass": self.passed,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
        }


def _default_seed() -> int:
    text = os.environ.get("ORBITKIT_SEED", "0")
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"ORBITKIT_SEED must be an integer, got {text!r}") from exc


def _sample_count(text: str) -> int:
    """argparse type of --n; a ParseError passes through parse_args to main."""
    try:
        n = int(text)
    except ValueError as exc:
        raise ParseError(f"--n must be an integer, got {text!r}") from exc
    if n < 1:
        raise ParseError(f"--n must be at least 1, got {n}")
    return n


def _parse_lambda(text: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad lambda {text!r}") from exc
    if len(parts) != 3:
        raise ParseError(f"lambda needs 3 components, got {len(parts)}")
    return tuple(parts)


def _load_form(path: str) -> TwoForm:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return TwoForm.from_dict(data)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ParseError(f"cannot read 2-form from {path}: {exc}") from exc


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _write_polytope(P, off_path, facets_path) -> list:
    """Write P as an OFF mesh and/or a facet JSON file; return the paths written."""
    artifacts = []
    if off_path:
        _write(off_path, polytopes.to_off(P))
        artifacts.append(off_path)
    if facets_path:
        _write(facets_path, json.dumps(polytopes.polytope_to_json(P), indent=2))
        artifacts.append(facets_path)
    return artifacts


def _emit(report: RunReport) -> int:
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    form = _load_form(args.form)
    result = classify_full(form, tol=args.tol)
    payload = {
        "class": result.orbit_class.value,
        "canonical": [float(c) for c in result.triple],
        "stabilizer_dim": STABILIZER_DIM[result.orbit_class],
        "ambiguous": result.ambiguous,
    }
    report = RunReport(
        "classify",
        {"form": args.form, "tol": args.tol},
        True,
        metrics=payload,
    )
    return _emit(report)


def cmd_polytope(args) -> int:
    lam = _parse_lambda(args.lam)
    P = moment.moment_polytope(lam)
    report = RunReport(
        "polytope",
        {"lambda": list(lam)},
        True,
        metrics={
            "dim": P.dim,
            "vertices": len(P.vertices),
            "facets": len(P.facets),
        },
        artifacts=_write_polytope(P, args.out_off, args.out_facets),
    )
    return _emit(report)


def cmd_sample(args) -> int:
    lam = _parse_lambda(args.lam)
    cloud = moment.orbit_samples(lam, args.n, args.seed)
    P = moment.moment_polytope(lam)
    worst = float(np.max(polytopes.violations_many(P, cloud.points)))
    artifacts = []
    if args.out:
        _write(args.out, cloud.to_csv())
        artifacts.append(args.out)
    report = RunReport(
        "sample",
        {"lambda": list(lam), "n": args.n, "seed": args.seed, "tol": args.tol},
        worst <= args.tol,
        metrics={"max_violation": worst, "points": int(len(cloud.points))},
        artifacts=artifacts,
    )
    return _emit(report)


def _suite_prop16() -> dict:
    plus = moment.moment_polytope((1, 1, 1))
    expected_plus = {
        ((-1, -1, -1), 1),
        ((-1, 1, 1), 1),
        ((1, -1, 1), 1),
        ((1, 1, -1), 1),
    }
    minus = moment.moment_polytope((1, -1, 1))
    expected_minus = {
        ((1, 1, 1), 1),
        ((1, -1, -1), 1),
        ((-1, 1, -1), 1),
        ((-1, -1, 1), 1),
    }
    got_plus = {(f.normal, f.offset) for f in plus.facets}
    got_minus = {(f.normal, f.offset) for f in minus.facets}
    ok = got_plus == expected_plus and got_minus == expected_minus
    return {"pass": ok, "facets_plus": sorted(map(str, got_plus)),
            "facets_minus": sorted(map(str, got_minus))}


def _suite_octahedron() -> dict:
    P = moment.moment_polytope((0, 0, 1))
    expected = {((sx, sy, sz), 1) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    got = {(f.normal, f.offset) for f in P.facets}
    return {"pass": got == expected, "facets": len(P.facets),
            "vertices": len(P.vertices)}


def _suite_intersection() -> dict:
    plus = moment.moment_polytope((1, 1, 1))
    minus = moment.moment_polytope((1, -1, 1))
    both = polytopes.intersect(plus, minus)
    octa = moment.moment_polytope((0, 0, 1))
    ok = both.vertices == octa.vertices and both.facets == octa.facets
    return {"pass": ok, "vertices": len(both.vertices), "facets": len(both.facets)}


#: Chamber representatives of the singular orbit families plus a generic point.
AGS_LAMBDAS = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, 1.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 2.0),
    (1.0, -1.0, 2.0),
    (2.0, 1.0, 2.0),
    (1.0, 0.5, 2.0),
)


def _suite_ags(n: int, seed: int, tol: float) -> dict:
    worst_overall = 0.0
    per_lambda = {}
    for lam in AGS_LAMBDAS:
        cloud = moment.orbit_samples(lam, n, seed)
        P = moment.moment_polytope(lam)
        worst = float(np.max(polytopes.violations_many(P, cloud.points)))
        per_lambda[str(lam)] = worst
        worst_overall = max(worst_overall, worst)
    generic = (1.0, 0.5, 2.0)
    cloud = moment.orbit_samples(generic, n, seed)
    cloud_hull = polytopes.hull(cloud.points, exact=False)
    ratio = moment.monte_carlo_volume_ratio(
        cloud_hull, moment.moment_polytope(generic), max(n, 10000), seed + 1
    )
    ok = worst_overall <= tol and ratio >= 0.99
    return {
        "pass": ok,
        "max_violation": worst_overall,
        "per_lambda": per_lambda,
        "volume_ratio": ratio,
    }


def _suite_singular(n: int, seed: int, tol: float) -> dict:
    lam = (1.0, 0.5, 2.0)
    poly_family = moment.singular_value_polytopes(lam)
    facets = moment.moment_polytope(lam)
    tight = facets.facet_tight_vertices()
    facet_vertex_sets = [
        tuple(sorted(facets.vertices[k] for k in t)) for t in tight
    ]
    family_vertex_sets = {tuple(sorted(p.vertices)) for p in poly_family}
    all_facets_covered = all(
        fv in family_vertex_sets for fv in facet_vertex_sets
    )
    seen = set()
    worst = 0.0
    runs = 0
    for i in (1, 2, 3):
        for w in weyl.weyl_group():
            key = (i, weyl.act(w, weyl.FUNDAMENTAL_WEIGHTS[i]))
            if key in seen:
                continue
            seen.add(key)
            rep = moment.verify_singular(lam, i, w, n, seed, tol)
            worst = max(worst, rep["max_violation"])
            runs += 1
    ok = worst <= tol and all_facets_covered
    return {
        "pass": ok,
        "max_violation": worst,
        "distinct_classes": runs,
        "polytopes": len(poly_family),
        "all_facets_covered": all_facets_covered,
    }


def _suite_spin_cover(n: int) -> dict:
    thetas = np.linspace(0.0, 4 * np.pi, max(n, 2))
    worst = max(spin.spin_cover_check(float(t)).discrepancy for t in thetas)
    r = spin.spin_cover_check(2 * np.pi)
    at_2pi = float(np.max(np.abs(r.su4_element + np.eye(4))))
    so6_identity = float(np.max(np.abs(r.so6_action - np.eye(6))))
    ok = worst < 1e-12 and at_2pi < 1e-12 and so6_identity < 1e-12
    return {
        "pass": ok,
        "max_discrepancy": float(worst),
        "su4_at_2pi_vs_minus_identity": at_2pi,
        "so6_at_2pi_vs_identity": so6_identity,
        "thetas": int(max(n, 2)),
    }


def _suite_edge_prism(n: int, seed: int) -> dict:
    tol = 1e-12
    worst = 0.0
    all_in_region = True
    for abc, abg, t in klein.fibre_draws(n, seed, klein.EDGE_PRISM_T_LO):
        x, y, z = klein.edge_prism_point(*abc, *abg, t)
        worst = max(worst, abs(x - y - abc[0] * z - abc[0] * (3.0 + t)))
        if not klein.prism_region_test((x, y, z)):
            all_in_region = False
    ok = worst <= tol and all_in_region
    return {"pass": ok, "max_identity_residual": float(worst),
            "all_in_region": all_in_region, "n": n}


def _suite_square(n: int, seed: int, tol: float) -> dict:
    worst_z = 0.0
    worst_limit = 0.0
    worst_contain = 0.0
    for u, v, t in klein.fibre_draws(n, seed, klein.SQUARE_T_LO):
        form = klein.square_fiber_form(u, v, t)
        x, y, z = moment.mu_t(form)
        J = klein.ocs_over_plane(klein.plane_in_span4(v), u)
        worst_z = max(worst_z, abs(z - t * J.coeffs[14]))
        px, py, pz = moment.mu_t(klein.plane_in_span4(v).form)
        worst_limit = max(
            worst_limit, max(abs(px) + abs(py) - 1.0, abs(pz))
        )
        # Containment in the orbit's own moment polytope; float hull is
        # plenty for a 1e-9 check and avoids an exact hull per sample.
        chamber, _ = weyl.to_chamber(canonical_triple(form))
        orbit = np.array(weyl.weyl_orbit(chamber), dtype=float)
        P = polytopes.hull(orbit, exact=False)
        worst_contain = max(worst_contain, polytopes.violation(P, (x, y, z)))
    example = klein.square_fiber_points((1, 0, 0), (1, 0, 0), 1.0)
    example_ok = max(abs(example[0] - 2), abs(example[1] - 1), abs(example[2] - 1)) < 1e-12
    ok = worst_z <= tol and worst_limit <= tol and worst_contain <= tol and example_ok
    return {
        "pass": ok,
        "max_z_identity_residual": float(worst_z),
        "max_square_limit_violation": float(worst_limit),
        "max_orbit_containment_violation": float(worst_contain),
        "n": n,
    }


def _suite_f3_segments() -> dict:
    e12 = TwoForm.basis(1, 2)
    e34 = TwoForm.basis(3, 4)
    e56 = TwoForm.basis(5, 6)
    cases_plus = [(-1) * e12 + e56, e12 - e56]
    cases_minus = [e12 + e56, (-1) * e12 - e56]
    ok = True
    results = {}
    for b in (0.25, 0.5, 0.75):
        for base in cases_plus:
            got = classify(base - b * e34)
            ok = ok and got is OrbitClass.F3_PLUS
        for base in cases_minus:
            got = classify(base - b * e34)
            ok = ok and got is OrbitClass.F3_MINUS
    degenerate = TwoForm.basis(1, 4) + TwoForm.basis(2, 3)
    mu0 = moment.mu_t(degenerate)
    mu1 = moment.mu_t(degenerate + e56)
    ok = ok and mu0 == (0.0, 0.0, 0.0) and mu1 == (0.0, 0.0, 1.0)
    results["degenerate_images"] = [list(mu0), list(mu1)]
    return {"pass": ok, **results}


#: verify suite name -> (suite function, the command-line args it takes).
SUITES = {
    "ags": (_suite_ags, ("n", "seed", "tol")),
    "prop16": (_suite_prop16, ()),
    "octahedron": (_suite_octahedron, ()),
    "intersection": (_suite_intersection, ()),
    "singular": (_suite_singular, ("n", "seed", "tol")),
    "spin-cover": (_suite_spin_cover, ("n",)),
    "edge-prism": (_suite_edge_prism, ("n", "seed")),
    "square": (_suite_square, ("n", "seed", "tol")),
    "f3-segments": (_suite_f3_segments, ()),
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {args.suite!r}")
    fn, used = SUITES[args.suite]
    parameters = {k: getattr(args, k) for k in used}
    t0 = time.time()
    metrics = fn(**parameters)
    metrics["elapsed_seconds"] = time.time() - t0
    passed = bool(metrics.pop("pass"))
    report = RunReport(
        f"verify {args.suite}",
        parameters,
        passed,
        metrics=metrics,
    )
    return _emit(report)


def cmd_klein(args) -> int:
    if args.sub == "edge-prism":
        draws = klein.fibre_draws(args.n, args.seed, klein.EDGE_PRISM_T_LO)
        pts = [klein.edge_prism_point(*abc, *abg, t) for abc, abg, t in draws]
        region = klein.prism_region()
        inside = all(klein.prism_region_test(p) for p in pts)
    else:
        draws = klein.fibre_draws(args.n, args.seed, klein.SQUARE_T_LO)
        pts = [klein.square_fiber_points(u, v, t) for u, v, t in draws]
        region = polytopes.hull(np.array(pts), exact=False)
        inside = True
    cloud = moment.SampleCloud(
        args.seed, np.array(pts),
        f"source=klein_{args.sub.replace('-', '_')} n={args.n} seed={args.seed}",
    )
    artifacts = []
    if args.out:
        _write(args.out, cloud.to_csv())
        artifacts.append(args.out)
        artifacts += _write_polytope(region, None, args.out + ".facets.json")
    report = RunReport(
        f"klein {args.sub}",
        {"n": args.n, "seed": args.seed},
        inside,
        metrics={"points": len(pts)},
        artifacts=artifacts,
    )
    return _emit(report)


def cmd_iwasawa(args) -> int:
    if args.sub == "scan-complex":
        cloud, rep = iwasawa.scan_complex(args.n, args.seed, args.tol)
    elif args.sub == "scan-k":
        cloud, rep = iwasawa.scan_K(args.n, args.seed)
    elif args.sub == "scan-kk":
        cloud, rep = iwasawa.scan_K_intersection(args.n, args.seed)
    else:
        cloud, rep = iwasawa.mixed_classes_over(args.n, args.seed, args.which)
    artifacts = []
    if args.out:
        _write(args.out, cloud.to_csv())
        artifacts.append(args.out)
    passed = bool(rep.pop("pass"))
    report = RunReport(
        f"iwasawa {args.sub}",
        {"n": args.n, "seed": args.seed, "tol": args.tol},
        passed,
        metrics=rep,
        artifacts=artifacts,
    )
    return _emit(report)


def cmd_export(args) -> int:
    form = _load_form(args.form)
    result = classify_full(form, tol=args.tol)
    P = moment.moment_polytope(result.triple)
    report = RunReport(
        "export",
        {"form": args.form, "tol": args.tol},
        True,
        metrics={
            "class": result.orbit_class.value,
            "canonical": [float(c) for c in result.triple],
            "stabilizer_dim": STABILIZER_DIM[result.orbit_class],
            "facets": len(P.facets),
            "vertices": len(P.vertices),
        },
        artifacts=_write_polytope(P, args.out_off, args.out_facets),
    )
    return _emit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Orbit classification and moment-polytope toolkit for 2-forms in six dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("classify", help="classify a 2-form JSON file")
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polytope", help="moment polytope of a Cartan point")
    p.add_argument("--lambda", dest="lam", required=True, help='e.g. "1,0.5,2"')
    p.add_argument("--out-off", default=None)
    p.add_argument("--out-facets", default=None)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("sample", help="Haar-sample an orbit and project")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--n", type=_sample_count, default=10000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("klein", help="emit inverse-image clouds")
    p.add_argument("sub", choices=("edge-prism", "square"))
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_klein)

    p = sub.add_parser("iwasawa", help="integrability scans on the nilmanifold")
    p.add_argument("sub", choices=("scan-complex", "scan-k", "scan-kk", "mixed"))
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--which", choices=("K", "K_intersection"), default="K")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_iwasawa)

    p = sub.add_parser("export", help="classify a form and export its moment polytope")
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-off", default=None)
    p.add_argument("--out-facets", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrbitkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
