"""Command-line front end.

Commands: classify, polytope, sample, verify <suite>, klein <sub>,
iwasawa <sub>, export.  RUNS is both the registry and the parser: a call is
parsed against the one run its argv names, which takes exactly the flags of
its `used` parameters and its command's ARTIFACT_FLAGS; each run's parser is
built from RUNS once per process, on first use.  `--help` after
`orbitkit`, a command or a run lists the commands, the subs or the flags.
cmd_run writes the run's artifacts and prints a JSON report to stdout; every
report's metrics carry the run's `elapsed_seconds`, and a non-finite metric
is written as null.  Exit code 0 means all asserted tolerances were met, 1 is
an assertion failure or a reader that closed stdout early, 2 a usage or parse
error.  --seed defaults to 0 and must lie in [0, 2**64).  The sampled gates
(sample, verify ags|singular|square, the klein fibres) read the fixed bound
moment.GATE_TOL; only classify, export and iwasawa scan-complex take --tol.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import iwasawa, klein, moment, polytopes, spin, weyl
from .errors import OrbitkitError, ParseError
from .forms import (
    E12,
    E34,
    E56,
    STABILIZER_DIM,
    OrbitClass,
    TwoForm,
    canonical_triple,  # unused here; perfbench's alias test traces cli.canonical_triple
    class_point,
    classify_full,
    classify_many,
)


def _seed(text: str) -> int:
    """argparse type of --seed: an integer in [0, 2**64), the Philox key
    (a larger seed would alias seed mod 2**64 under another name)."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise ParseError(f"--seed must be an integer, got {text!r}") from exc
    if not 0 <= seed < 2 ** 64:
        raise ParseError(f"--seed must lie in [0, 2**64), got {seed}")
    return seed


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


def _write(path: str, text: str, written: list):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    written.append(path)


def _write_polytope(P, off_path, facets_path, written: list):
    """Write P as an OFF mesh and/or a facet JSON file."""
    if off_path:
        _write(off_path, polytopes.to_off(P), written)
    if facets_path:
        _write(facets_path, json.dumps(polytopes.polytope_to_json(P), indent=2), written)


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


def _run_sample(lam, n: int, seed: int):
    cloud = moment.orbit_samples(lam, n, seed)
    worst = float(np.max(moment.moment_violations(lam, cloud.points)))
    return cloud, {"pass": worst <= moment.GATE_TOL, "max_violation": worst,
                   "points": int(len(cloud.points))}


def _run_export(form: str, tol: float):
    result = classify_full(_load_form(form), tol=tol)
    P = moment.moment_polytope(class_point(result.orbit_class, result.triple))
    return P, {"pass": True, **_class_metrics(result), "facets": len(P.facets),
               "vertices": len(P.vertices)}


#: Facets (normal, 1) of the 8 sign vectors, by the product of the signs: the
#: octahedron conv(W.(0, 0, 1)) has all 8, the tetrahedra conv(W.(1, 1, 1))
#: and conv(W.(1, -1, 1)) those of product -1 and +1.
_SIGN_FACETS = {p: {((x, y, z), 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
                    if x * y * z == p} for p in (-1, 1)}


def _suite_prop16() -> dict:
    got_plus = {(f.normal, f.offset) for f in moment.moment_polytope((1, 1, 1)).facets}
    got_minus = {(f.normal, f.offset) for f in moment.moment_polytope((1, -1, 1)).facets}
    ok = got_plus == _SIGN_FACETS[-1] and got_minus == _SIGN_FACETS[1]
    return {"pass": ok, "facets_plus": sorted(map(str, got_plus)),
            "facets_minus": sorted(map(str, got_minus))}


def _suite_octahedron() -> dict:
    P = moment.moment_polytope((0, 0, 1))
    got = {(f.normal, f.offset) for f in P.facets}
    return {"pass": got == _SIGN_FACETS[-1] | _SIGN_FACETS[1], "facets": len(P.facets),
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


def _suite_ags(n: int, seed: int) -> dict:
    """Each cloud lies in its moment polytope and reaches every vertex; the
    maxima are np.max, so a NaN image reads NaN and fails.  `orbit_samples`
    appends the 24 fixed-point images, so `max_vertex_gap` reads 0 by
    construction: it checks that append, not that the Haar draws approach
    the vertices."""
    per_lambda = {}
    gaps = []
    for lam in AGS_LAMBDAS:
        cloud = moment.orbit_samples(lam, n, seed)
        per_lambda[str(lam)] = float(np.max(moment.moment_violations(lam, cloud.points)))
        gaps.append(float(np.max(moment.vertex_gaps(lam, cloud.points))))
    worst_overall = float(np.max(list(per_lambda.values()), initial=0.0))
    gap_overall = float(np.max(gaps, initial=0.0))
    return {
        "pass": worst_overall <= moment.GATE_TOL and gap_overall <= moment.GATE_TOL,
        "max_violation": worst_overall,
        "per_lambda": per_lambda,
        "max_vertex_gap": gap_overall,
    }


def _suite_singular(n: int, seed: int) -> dict:
    """Each class's stabilizer images stay on its face and follow their law,
    and each facet is the face of the class with its normal, compared as
    indices into the sorted orbit, which is the hull's vertex list."""
    lam = (1.0, 0.5, 2.0)
    P = moment.moment_polytope(lam)
    rows = moment.verify_singular(lam, weyl.singular_classes(), n, seed)
    faces = {row["normal"]: row["face_indices"] for row in rows}
    worst = float(np.max([row["max_violation"] for row in rows]))
    law = float(np.max([row["law_deviation"] for row in rows]))
    all_facets_covered = all(faces.get(f.normal) == t
                             for f, t in zip(P.facets, P.facet_tight_vertices()))
    return {
        "pass": worst <= moment.GATE_TOL and law <= 1.0 and all_facets_covered,
        "max_violation": worst,
        "max_law_deviation": law,
        "distinct_classes": len(rows),
        "polytopes": len(set(faces.values())),
        "all_facets_covered": all_facets_covered,
    }


def _suite_spin_cover(n: int) -> dict:
    worst = float(np.max(spin.spin_cover_check(np.linspace(0.0, 4 * np.pi, n)).discrepancy))
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
    abc, abg, t = moment.fibre_draws(n, seed, klein.EDGE_PRISM_T_LO, (3, 3))
    pts = klein.edge_prism_points(abc, abg, t)
    a = abc[:, 0]
    worst = np.max(np.abs(pts[:, 0] - pts[:, 1] - a * pts[:, 2] - a * (3.0 + t)))
    all_in_region = klein.prism_region_test(pts)
    cloud = moment.SampleCloud(pts, f"source=klein_edge_prism n={n} seed={seed}")
    return cloud, {"pass": worst <= 1e-12 and all_in_region,
                   "max_identity_residual": float(worst),
                   "all_in_region": all_in_region, "n": n, "points": len(pts)}, klein.prism_region


def _suite_square(n: int, seed: int):
    """Each fibre image p + t J is ((1 + t) v1, t u1 v1, t u1), the closed
    form of `klein.square_forms`, and lies in conv(W.(t, t, 1 + t)), the
    polytope of its own orbit, and in the square region, which is built once
    for this gate and for the facet JSON of `klein square`."""
    u, v, t = moment.fibre_draws(n, seed, klein.SQUARE_T_LO, (3, 3))
    p, J = klein.square_forms(u, v)
    pts = p[:, [E12, E34, E56]] + t[:, None] * J[:, [E12, E34, E56]]
    closed = np.column_stack([(1.0 + t) * v[:, 0], t * u[:, 0] * v[:, 0], t * u[:, 0]])
    worst = np.max(np.abs(pts - closed))
    triples = np.column_stack([t, t, 1.0 + t])
    worst_contain = float(np.max(moment.moment_violations(triples, pts), initial=0.0))
    region = klein.square_region()
    all_in_region = bool(np.max(polytopes.violations_many(region, pts)) <= moment.GATE_TOL)
    cloud = moment.SampleCloud(pts, f"source=klein_square n={n} seed={seed}")
    return cloud, {
        "pass": worst <= 1e-12 and worst_contain <= moment.GATE_TOL and all_in_region,
        "max_identity_residual": float(worst),
        "max_orbit_containment_violation": worst_contain,
        "all_in_region": all_in_region,
        "n": n,
        "points": len(pts),
    }, lambda: region


def _suite_f3_segments() -> dict:
    e12, e34, e56 = np.eye(15)[[E12, E34, E56]]
    # For each b two forms of the F3Plus family, then two of the F3Minus one.
    bases = (-e12 + e56, e12 - e56, e12 + e56, -e12 - e56)
    got = classify_many([base - b * e34 for b in (0.25, 0.5, 0.75) for base in bases])
    expected = ([OrbitClass.F3_PLUS] * 2 + [OrbitClass.F3_MINUS] * 2) * 3
    degenerate = TwoForm.basis(1, 4) + TwoForm.basis(2, 3)
    mu0, mu1 = moment.mu_t(degenerate), moment.mu_t(degenerate + TwoForm.basis(5, 6))
    ok = ([c.orbit_class for c in got] == expected
          and mu0 == (0.0, 0.0, 0.0) and mu1 == (0.0, 0.0, 1.0))
    return {"pass": ok, "degenerate_images": [list(mu0), list(mu1)]}


@dataclass(frozen=True)
class Run:
    """One command: fn(**{a: args.a for a in used}) returns the metrics with a
    "pass" key, (artifact, metrics) or (cloud, metrics, region).  A SampleCloud
    artifact goes to --out as CSV, with region(), if returned, as facet JSON
    next to it; a Polytope goes to --out-off and --out-facets."""

    fn: object
    used: tuple = ()


#: (command, sub) -> the run it starts; sub is None for a command without
#: one.  iwasawa functions are looked up when they run, so a wrapper set on
#: the module later is the one called.
RUNS = {
    ("classify", None): Run(_run_classify, ("form", "tol")),
    ("polytope", None): Run(_run_polytope, ("lam",)),
    ("sample", None): Run(_run_sample, ("lam", "n", "seed")),
    ("verify", "ags"): Run(_suite_ags, ("n", "seed")),
    ("verify", "prop16"): Run(_suite_prop16),
    ("verify", "octahedron"): Run(_suite_octahedron),
    ("verify", "intersection"): Run(_suite_intersection),
    ("verify", "singular"): Run(_suite_singular, ("n", "seed")),
    ("verify", "spin-cover"): Run(_suite_spin_cover, ("n",)),
    ("verify", "edge-prism"): Run(_suite_edge_prism, ("n", "seed")),
    ("verify", "square"): Run(_suite_square, ("n", "seed")),
    ("verify", "f3-segments"): Run(_suite_f3_segments),
    ("klein", "edge-prism"): Run(_suite_edge_prism, ("n", "seed")),
    ("klein", "square"): Run(_suite_square, ("n", "seed")),
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


#: command -> the artifact paths its runs take besides their `used` parameters.
ARTIFACT_FLAGS = {"polytope": ("out_off", "out_facets"), "sample": ("out",), "klein": ("out",),
                  "iwasawa": ("out",), "export": ("out_off", "out_facets")}


def cmd_run(args) -> int:
    run = RUNS[args.command, args.sub]
    parameters = {k: getattr(args, k) for k in run.used}
    t0 = time.perf_counter()
    out = run.fn(**parameters)
    artifact, metrics, *region = out if isinstance(out, tuple) else (None, out)
    metrics["elapsed_seconds"] = time.perf_counter() - t0
    passed = bool(metrics.pop("pass"))
    artifacts = []
    path = getattr(args, "out", None)
    try:  # a call that fails to write one artifact leaves none of its set
        if isinstance(artifact, polytopes.Polytope):
            _write_polytope(artifact, args.out_off, args.out_facets, artifacts)
        elif artifact is not None and path:
            _write(path, artifact.to_csv(), artifacts)
            if region:
                _write_polytope(region[0](), None, path + ".facets.json", artifacts)
    except BaseException:
        for written in artifacts:
            os.remove(written)
        raise
    if "lam" in parameters:  # echoed under its flag name, as floats
        parameters["lambda"] = [float(c) for c in parameters.pop("lam")]
    report = {"command": args.command if args.sub is None else f"{args.command} {args.sub}",
              "parameters": parameters, "pass": passed, "metrics": metrics,
              "artifacts": artifacts}
    print(json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


def _flags(command: str) -> dict:
    """Parameter -> (flag, add_argument keywords) of every flag a run of
    command can take; the defaults of --n and --tol depend on the command."""
    positive = command in ("classify", "export")  # they match patterns within --tol
    return {
        "form": ("--form", {"required": True}),
        "lam": ("--lambda", {"type": _parse_lambda, "required": True, "help": 'e.g. "1,0.5,2"'}),
        "n": ("--n", {"type": _sample_count, "default": 10000 if command == "verify" else 1000}),
        "seed": ("--seed", {"type": _seed, "default": 0}),
        "tol": ("--tol", {"type": _positive_tolerance if positive else _tolerance,
                          "default": 1e-8 if positive else 1e-6}),
        "which": ("--which", {"choices": ("K", "K_intersection"), "default": "K"}),
        "out": ("--out", {}),
        "out_off": ("--out-off", {}),
        "out_facets": ("--out-facets", {}),
    }


def _pick(prog: str, choices: dict, argv: list) -> str:
    """argv[0], a key of choices: --help prints each key with its text and
    exits 0, and a missing or unknown word is a ParseError naming the keys."""
    if argv[:1] in (["-h"], ["--help"]):
        width = max(map(len, choices))
        print(f"usage: {prog} {{{','.join(choices)}}} ...\n",
              *(f"  {c:<{width}}  {text}".rstrip() for c, text in choices.items()), sep="\n")
        raise SystemExit(0)
    if not argv or argv[0] not in choices:
        got = f", not {argv[0]!r}" if argv else ""
        raise ParseError(f"{prog}: choose one of {', '.join(choices)}{got}")
    return argv[0]


#: (command, sub) -> the parameters its flags set, and the menus _pick lists:
#: the commands with their subs, and each command's subs with their flags.
_DESTS = {(c, s): run.used + ARTIFACT_FLAGS.get(c, ()) for (c, s), run in RUNS.items()}
_COMMANDS = {c: " ".join(s for k, s in RUNS if k == c and s) for c, _ in RUNS}
_SUB_MENUS = {c: {s: " ".join(_flags(c)[d][0] for d in _DESTS[c, s]) for k, s in RUNS if k == c}
              for c, subs in _COMMANDS.items() if subs}


@functools.cache
def _parser(command: str, sub) -> argparse.ArgumentParser:
    """The parser of the run (command, sub), built on its first call: its
    flags alone, each spelled in full (a prefix such as --se is unrecognized)."""
    flags = _flags(command)
    parser = argparse.ArgumentParser(prog=f"orbitkit {command} {sub or ''}".rstrip(),
                                     allow_abbrev=False)
    parser.set_defaults(command=command, sub=sub)
    for dest in _DESTS[command, sub]:
        flag, keywords = flags[dest]
        parser.add_argument(flag, dest=dest, **keywords)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The arguments of the run argv names, parsed by that run's parser;
    argparse exits 0 after --help and 2 on a usage error."""
    command = _pick("orbitkit", _COMMANDS, argv)
    sub = (_pick(f"orbitkit {command}", _SUB_MENUS[command], argv[1:])
           if command in _SUB_MENUS else None)
    return _parser(command, sub).parse_args(argv[1 if sub is None else 2:])


def main(argv=None) -> int:
    try:
        try:
            code = cmd_run(_parse(sys.argv[1:] if argv is None else list(argv)))
        except SystemExit as exc:  # argparse after --help (0) or on a usage error (2)
            code = exc.code
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except OrbitkitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()  # a reader that closed the pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit cannot fail again
        # (the recipe of Python's signal module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
