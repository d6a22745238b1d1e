"""Command-line front end.

Commands: classify, polytope, sample, verify <suite>, klein <sub>,
iwasawa <sub>, export.  Every command is one entry of RUNS, started by
cmd_run, which writes the run's artifacts and prints a JSON report to stdout;
every report's metrics carry the run's `elapsed_seconds`, and a non-finite
metric is written as null.  Exit code 0 means all asserted tolerances were
met, 1 is an assertion failure, 2 a usage or parse error.  The default seed
comes from ORBITKIT_SEED (fallback 0; a non-integer value is a usage error)
and an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import iwasawa, klein, moment, polytopes, spin, weyl
from .errors import OrbitkitError, ParseError, UnknownSuite
from .forms import (
    E12,
    E34,
    E56,
    STABILIZER_DIM,
    OrbitClass,
    TwoForm,
    canonical_triple,  # unused here; perfbench's alias test traces cli.canonical_triple
    class_point,
    classify,
    classify_full,
)


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


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError as exc:
        raise ParseError(f"--tol must be a number, got {text!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise ParseError(f"--tol must be finite and >= 0, got {text!r}")
    return tol


def _positive_tolerance(text: str) -> float:
    """argparse type of the classification --tol: a finite number > 0."""
    if _tolerance(text) == 0:
        raise ParseError(f"--tol must be positive, got {text!r}")
    return float(text)


def _parse_lambda(text: str):
    """argparse type of --lambda, with exact components: "0.1" is 1/10 and
    "1/3" is accepted; nan, inf and |c| > 2**1020 are refused, so a sum of
    three stays below the float max."""
    try:
        parts = [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad lambda {text!r}") from exc
    if len(parts) != 3:
        raise ParseError(f"lambda needs 3 components, got {len(parts)}")
    if any(abs(c) > 2 ** 1020 for c in parts):
        raise ParseError(f"bad lambda {text!r}: components must not exceed 2**1020")
    return tuple(parts)


def _load_form(path: str) -> TwoForm:
    """The 2-form of a JSON file; |c| > 2**1020 is refused as for --lambda, so
    a sum of three chamber values (each at most sqrt(15) 2**1020) is finite."""
    try:
        with open(path) as fh:
            form = TwoForm.from_dict(json.load(fh))
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"cannot read 2-form from {path}: {exc}") from exc
    if any(abs(c) > 2 ** 1020 for c in form.coeffs):
        raise ParseError(f"cannot read 2-form from {path}: coefficients must not exceed 2**1020")
    return form


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _class_metrics(result) -> dict:
    return {
        "class": result.orbit_class.value,
        "canonical": [float(c) for c in result.triple],
        "stabilizer_dim": STABILIZER_DIM[result.orbit_class],
    }


def _run_classify(form: str, tol: float) -> dict:
    result = classify_full(_load_form(form), tol=tol)
    return {"pass": True, **_class_metrics(result), "ambiguous": result.ambiguous}


def _run_polytope(lam):
    P = moment.moment_polytope(lam)
    return P, {"pass": True, "dim": P.dim, "vertices": len(P.vertices),
               "facets": len(P.facets)}


def _run_sample(lam, n: int, seed: int, tol: float):
    cloud = moment.orbit_samples(lam, n, seed)
    worst = float(np.max(moment.moment_violations(lam, cloud.points)))
    return cloud, {"pass": worst <= tol, "max_violation": worst,
                   "points": int(len(cloud.points))}


def _run_export(form: str, tol: float):
    result = classify_full(_load_form(form), tol=tol)
    P = moment.moment_polytope(class_point(result.orbit_class, result.triple))
    return P, {"pass": True, **_class_metrics(result), "facets": len(P.facets),
               "vertices": len(P.vertices)}


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
    """Each cloud lies in its moment polytope and reaches every vertex; the
    maxima are np.max, so a NaN image reads NaN and fails."""
    per_lambda = {}
    gaps = []
    for lam in AGS_LAMBDAS:
        cloud = moment.orbit_samples(lam, n, seed)
        per_lambda[str(lam)] = float(np.max(moment.moment_violations(lam, cloud.points)))
        gaps.append(float(np.max(moment.vertex_gaps(lam, cloud.points))))
    worst_overall = float(np.max(list(per_lambda.values()), initial=0.0))
    gap_overall = float(np.max(gaps, initial=0.0))
    return {
        "pass": worst_overall <= tol and gap_overall <= tol,
        "max_violation": worst_overall,
        "per_lambda": per_lambda,
        "max_vertex_gap": gap_overall,
    }


def _suite_singular(n: int, seed: int, tol: float) -> dict:
    """Each class's stabilizer flow stays in its face and every facet is a face;
    face points are orbit points, so vertices, and faces compare as vertex sets."""
    lam = (1.0, 0.5, 2.0)
    exact = tuple(Fraction(c) for c in lam)
    P = moment.moment_polytope(lam)
    faces = set()
    worsts = []
    for i, w in weyl.singular_classes():
        faces.add(weyl.singular_vertex_set(exact, w, i))
        worsts.append(moment.verify_singular(lam, i, w, n, seed, tol)["max_violation"])
    worst = float(np.max(worsts))
    all_facets_covered = all(tuple(sorted(P.vertices[k] for k in t)) in faces
                             for t in P.facet_tight_vertices())
    return {
        "pass": worst <= tol and all_facets_covered,
        "max_violation": worst,
        "distinct_classes": len(weyl.singular_classes()),
        "polytopes": len(faces),
        "all_facets_covered": all_facets_covered,
    }


def _suite_spin_cover(n: int) -> dict:
    thetas = np.linspace(0.0, 4 * np.pi, n)
    worst = float(np.max([spin.spin_cover_check(float(t)).discrepancy for t in thetas]))
    r = spin.spin_cover_check(2 * np.pi)
    at_2pi = float(np.max(np.abs(r.su4_element + np.eye(4))))
    so6_identity = float(np.max(np.abs(r.so6_action - np.eye(6))))
    ok = worst < 1e-12 and at_2pi < 1e-12 and so6_identity < 1e-12
    return {
        "pass": ok,
        "max_discrepancy": float(worst),
        "su4_at_2pi_vs_minus_identity": at_2pi,
        "so6_at_2pi_vs_identity": so6_identity,
        "thetas": n,
    }


def _suite_edge_prism(n: int, seed: int):
    abc, abg, t = klein.fibre_draws(n, seed, klein.EDGE_PRISM_T_LO)
    pts = klein.edge_prism_points(abc, abg, t)
    a = abc[:, 0]
    worst = np.max(np.abs(pts[:, 0] - pts[:, 1] - a * pts[:, 2] - a * (3.0 + t)))
    all_in_region = klein.prism_region_test(pts)
    cloud = moment.SampleCloud(seed, pts, f"source=klein_edge_prism n={n} seed={seed}")
    return cloud, {"pass": worst <= 1e-12 and all_in_region,
                   "max_identity_residual": float(worst),
                   "all_in_region": all_in_region, "n": n, "points": len(pts)}


def _suite_square(n: int, seed: int, tol: float = 1e-9):
    """Each fibre image p + t J lies in conv(W.(t, t, 1 + t)), the polytope of
    its own orbit, and in the exported square region."""
    u, v, t = klein.fibre_draws(n, seed, klein.SQUARE_T_LO)
    p, J = klein.square_forms(u, v)
    # The t -> 0 limit, the Cartan image of p, lies on the central square.
    limit = p[:, [E12, E34, E56]]
    pts = limit + t[:, None] * J[:, [E12, E34, E56]]
    worst_z = np.max(np.abs(pts[:, 2] - t * J[:, E56]))
    worst_limit = np.max(np.maximum(np.abs(limit[:, 0]) + np.abs(limit[:, 1]) - 1.0,
                                    np.abs(limit[:, 2])), initial=0.0)
    triples = np.column_stack([t, t, 1.0 + t])
    worst_contain = float(np.max(moment.moment_violations(triples, pts), initial=0.0))
    example = klein.square_fiber_points((1, 0, 0), (1, 0, 0), 1.0)
    example_ok = max(abs(example[0] - 2), abs(example[1] - 1), abs(example[2] - 1)) < 1e-12
    all_in_region = bool(np.max(polytopes.violations_many(klein.square_region(), pts)) <= tol)
    ok = (worst_z <= tol and worst_limit <= tol and worst_contain <= tol and example_ok
          and all_in_region)
    cloud = moment.SampleCloud(seed, pts, f"source=klein_square n={n} seed={seed}")
    return cloud, {
        "pass": ok,
        "max_z_identity_residual": float(worst_z),
        "max_square_limit_violation": float(worst_limit),
        "max_orbit_containment_violation": worst_contain,
        "all_in_region": all_in_region,
        "n": n,
        "points": len(pts),
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


@dataclass(frozen=True)
class Run:
    """One command: fn(**{a: args.a for a in used}) returns the metrics with a
    "pass" key, or (artifact, metrics).  A SampleCloud artifact goes to --out
    as CSV, with region(), if given, as facet JSON next to it; a Polytope goes
    to --out-off and --out-facets."""

    fn: object
    used: tuple = ()
    region: object = None


#: (command, sub) -> the run it starts; sub is None for a command without
#: one.  iwasawa functions and klein regions are looked up when they run, so
#: a wrapper set on the module later is the one called.
RUNS = {
    ("classify", None): Run(_run_classify, ("form", "tol")),
    ("polytope", None): Run(_run_polytope, ("lam",)),
    ("sample", None): Run(_run_sample, ("lam", "n", "seed", "tol")),
    ("verify", "ags"): Run(_suite_ags, ("n", "seed", "tol")),
    ("verify", "prop16"): Run(_suite_prop16),
    ("verify", "octahedron"): Run(_suite_octahedron),
    ("verify", "intersection"): Run(_suite_intersection),
    ("verify", "singular"): Run(_suite_singular, ("n", "seed", "tol")),
    ("verify", "spin-cover"): Run(_suite_spin_cover, ("n",)),
    ("verify", "edge-prism"): Run(_suite_edge_prism, ("n", "seed")),
    ("verify", "square"): Run(_suite_square, ("n", "seed", "tol")),
    ("verify", "f3-segments"): Run(_suite_f3_segments),
    ("klein", "edge-prism"): Run(_suite_edge_prism, ("n", "seed"),
                                 lambda: klein.prism_region()),
    ("klein", "square"): Run(_suite_square, ("n", "seed"), lambda: klein.square_region()),
    ("iwasawa", "scan-complex"): Run(lambda **kw: iwasawa.scan_complex(**kw),
                                     ("n", "seed", "tol")),
    ("iwasawa", "scan-k"): Run(lambda **kw: iwasawa.scan_K(**kw), ("n", "seed")),
    ("iwasawa", "scan-kk"): Run(lambda **kw: iwasawa.scan_K_intersection(**kw),
                                ("n", "seed")),
    ("iwasawa", "mixed"): Run(lambda **kw: iwasawa.mixed_classes_over(**kw),
                              ("n", "seed", "which")),
    ("export", None): Run(_run_export, ("form", "tol")),
}


def _strict_json(value):
    """value with each non-finite float, at any depth, written as None, so
    the report is strict JSON (no NaN or Infinity tokens)."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _subs(command: str) -> tuple:
    return tuple(sub for cmd, sub in RUNS if cmd == command)


def cmd_run(args) -> int:
    sub = getattr(args, "sub", None)
    run = RUNS.get((args.command, sub))
    if run is None:
        raise UnknownSuite(f"unknown suite {sub!r}")
    parameters = {k: getattr(args, k) for k in run.used}
    t0 = time.perf_counter()
    out = run.fn(**parameters)
    artifact, metrics = out if isinstance(out, tuple) else (None, out)
    metrics["elapsed_seconds"] = time.perf_counter() - t0
    passed = bool(metrics.pop("pass"))
    artifacts = []
    path = getattr(args, "out", None)
    if isinstance(artifact, polytopes.Polytope):
        artifacts = _write_polytope(artifact, args.out_off, args.out_facets)
    elif artifact is not None and path:
        _write(path, artifact.to_csv())
        artifacts.append(path)
        if run.region is not None:
            artifacts += _write_polytope(run.region(), None, path + ".facets.json")
    if "lam" in parameters:  # echoed under its flag name, as floats
        parameters["lambda"] = [float(c) for c in parameters.pop("lam")]
    report = {"command": args.command if sub is None else f"{args.command} {sub}",
              "parameters": parameters, "pass": passed, "metrics": metrics,
              "artifacts": artifacts}
    print(json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Orbit classification and moment-polytope toolkit for 2-forms in six dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("classify", help="classify a 2-form JSON file")
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=_positive_tolerance, default=1e-8)

    p = sub.add_parser("polytope", help="moment polytope of a Cartan point")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True,
                   help='e.g. "1,0.5,2"')
    p.add_argument("--out-off", default=None)
    p.add_argument("--out-facets", default=None)

    p = sub.add_parser("sample", help="Haar-sample an orbit and project")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("sub", metavar="suite", help=", ".join(_subs("verify")))
    p.add_argument("--n", type=_sample_count, default=10000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = sub.add_parser("klein", help="emit inverse-image clouds")
    p.add_argument("sub", choices=_subs("klein"))
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)

    p = sub.add_parser("iwasawa", help="integrability scans on the nilmanifold")
    p.add_argument("sub", choices=_subs("iwasawa"))
    p.add_argument("--n", type=_sample_count, default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--which", choices=("K", "K_intersection"), default="K")
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="classify a form and export its moment polytope")
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=_positive_tolerance, default=1e-8)
    p.add_argument("--out-off", default=None)
    p.add_argument("--out-facets", default=None)

    for p in sub.choices.values():
        p.set_defaults(func=cmd_run)
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
