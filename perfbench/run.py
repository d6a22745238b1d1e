"""Benchmark of orbitkit's command-line paths.

    python3 perfbench/run.py --workload haar_sample --seed 1 --seconds 20 --trace 0

Runs one workload in this process.  Set-up imports orbitkit from `src/`,
generates the workload's inputs and runs one untimed warm-up op of each kind;
then a single client runs whole cycles of timed ops, one after another (a
closed loop), until --seconds have passed and at least MIN_OPS ops ran.
Each op is an in-process call of `orbitkit.cli.main(argv)` with stdout
captured, and each op's output is checked.

--trace 0 reports the end-to-end metrics, with every timing scaled to a
reference host speed (see hostspeed.py).  --trace 1 runs every op twice,
untraced and then traced, and reports the per-layer metrics from the spans.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only if every op passed its check.
A detailed report with provenance and per-op artifact digests is written to
`.perfbench/` in the repository root.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (START must be taken before any import)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench")

#: Fewest timed ops in an end-to-end run, so that p90 has ten ops beyond it.
MIN_OPS = 100
#: Set-ups per end-to-end run (this process plus fresh child processes).
SETUP_RUNS = 3
#: The op loop stops after this many seconds even mid-cycle, so that a run
#: always ends well inside three minutes.
LOOP_LIMIT_S = 100.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = ("moment", "polytopes", "forms", "weyl", "klein", "iwasawa", "spin", "cli")

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: `<span>.calls`, `<span>.self_s`, `<layer>.self_s` and
#: `<layer>.self_share` are derived from the spans by name; the rest are
#: computed in `layer_metrics`.
PER_LAYER = (
    "moment.stream.calls", "moment.stream.self_s",
    "moment.haar_rotations.self_s", "moment.orbit_samples.self_s",
    "iwasawa.nijenhuis_norms.self_s", "iwasawa.doubly_closed_plane.self_s",
    "iwasawa.horizontal_closed.calls", "iwasawa.horizontal_closed.self_s",
    "iwasawa.vertical_closed.calls", "iwasawa.vertical_closed.self_s",
    "forms.eigen_split.calls", "forms.eigen_split.self_s",
    "forms.canonical_triple.self_s", "forms.classify_full.self_s",
    "forms.TwoForm.new.calls",
    "moment.exp_skew.calls", "moment.exp_skew.self_s",
    "moment.verify_singular.self_s", "moment.stabilizer_algebra.self_s",
    "polytopes.violation.calls", "polytopes.violation.self_s",
    "klein.edge_prism_point.calls", "klein.edge_prism_point.self_s",
    "klein.prism_region_test.self_s", "klein.prism_region.self_s",
    "klein.square_fiber_form.self_s", "klein.ocs_over_plane.self_s",
    "klein.plane_in_span4.self_s",
    "polytopes.hull.float.calls", "polytopes.hull.float.self_s",
    "polytopes.hull.exact.calls", "polytopes.hull.exact.self_s",
    "polytopes.intersect.self_s", "moment.singular_value_polytopes.self_s",
    "weyl.act.calls", "weyl.weyl_orbit.self_s", "weyl.singular_vertex_set.self_s",
    "moment.moment_polytope.calls", "moment.moment_polytope.distinct_ratio",
    "polytopes.violations_many.self_s", "moment.monte_carlo_volume_ratio.self_s",
    "moment.SampleCloud.to_csv.self_s", "polytopes.to_off.self_s",
    "polytopes.polytope_to_json.self_s", "cli.write.self_s", "cli.bytes_written",
    "spin.spin_cover_check.self_s",
    "iwasawa.scan_complex.accept_ratio", "iwasawa.mixed_classes_over.yield_ratio",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"{layer}.self_share" for layer in LAYERS),
    "trace.overhead_s", "trace.coverage",
)


def metric_unit(name: str) -> str:
    stat = name.rpartition(".")[2]
    return {"calls": "count", "self_s": "s", "overhead_s": "s",
            "bytes_written": "B"}.get(stat, "ratio")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def pin_blas_threads() -> dict:
    """Pin every BLAS thread variable to one thread; call before numpy is
    imported.  orbitkit's matrices are 6x6, so BLAS threads add no speed,
    but idle ones spin on the other cores and make timings noisier."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"nproc": len(os.sched_getaffinity(0)), **{var: os.environ[var] for var in BLAS_VARS}}


def import_orbitkit():
    """Import orbitkit from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "orbitkit" / "__init__.py").is_file():
        sys.exit(f"error: orbitkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import orbitkit
    import orbitkit.cli

    if Path(orbitkit.__file__).resolve().parent != (src / "orbitkit").resolve():
        sys.exit(f"error: imported orbitkit from {orbitkit.__file__}, not from {src}")
    return orbitkit


def provenance(blas_threads: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_configuration": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(report: dict) -> dict:
    """sha256 of every artifact file, by file name, and of the report itself
    without its wall-clock field."""
    metrics = {k: v for k, v in report["metrics"].items() if k != "elapsed_seconds"}
    canonical = json.dumps({**report, "metrics": metrics}, sort_keys=True)
    out = {"report": hashlib.sha256(canonical.encode()).hexdigest()}
    for path in report["artifacts"]:
        out[Path(path).name] = sha256_file(path)
    return out


def run_op(cli, op) -> dict:
    """Call `cli.main(op.argv)` with output captured and time it; then check
    the outcome.  `cli.main` is looked up at call time, so a traced run goes
    through its wrapper."""
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            rc = exc.code
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t) * 1e3
    record = {"i": op.index, "kind": op.kind.name, "argv": op.argv, "ms": ms,
              "draws": op.kind.draws, "failure": error, "digests": {}}
    if error is None and rc != 0:
        record["failure"] = f"exit code {rc}: {stderr.getvalue().strip()[-500:]}"
    if record["failure"] is None:
        try:
            report = json.loads(stdout.getvalue())
            record["digests"] = digests(report)
            if report["pass"] is not True:
                record["failure"] = "report says pass: false"
            else:
                record["failure"] = op.check(report)
        except Exception as exc:  # a malformed report or artifact fails the op
            record["failure"] = f"output check raised {type(exc).__name__}: {exc}"
    return record


def compare_digests(record: dict, reference: dict, what: str) -> None:
    if record["failure"] is None and record["digests"] != reference:
        record["failure"] = f"artifact digests differ from the {what}"


def warm_up(cli, workload) -> list:
    """One untimed op of each kind, with the arguments of the first timed op of
    that kind; returns their records."""
    return [run_op(cli, workload.op(k)) for k in range(len(workload.kinds))]


def keep_going(i: int, cycle: int, elapsed: float, seconds: float, min_ops: int) -> bool:
    if elapsed >= LOOP_LIMIT_S:
        return False
    return not (i % cycle == 0 and i >= min_ops and elapsed >= seconds)


def check_against_warm_up(record: dict, warm: list) -> None:
    i = record["i"]
    if i < len(warm):
        if warm[i]["failure"] is not None:
            record["failure"] = record["failure"] or f"warm-up op failed: {warm[i]['failure']}"
        compare_digests(record, warm[i]["digests"], "warm-up call with the same arguments")


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def run_plain(cli, workload, warm, seconds) -> list:
    """Run the timed loop; after each op, outside its timing, time one pass of
    the host-speed reference kernel."""
    from hostspeed import reference_ms   # imports numpy, so only after BLAS pinning

    records = []
    cycle = len(workload.kinds)
    t0 = time.perf_counter()
    while keep_going(len(records), cycle, time.perf_counter() - t0, seconds, MIN_OPS):
        record = run_op(cli, workload.op(len(records)))
        check_against_warm_up(record, warm)
        record["ref_ms"] = reference_ms()
        records.append(record)
    return records


def setup_timing(raw_s: float) -> dict:
    """A set-up time, scaled by the median of reference passes run right after
    the set-up."""
    from hostspeed import SETUP_PASSES, factor, reference_ms

    refs = [reference_ms() for _ in range(SETUP_PASSES)]
    return {"setup_s": raw_s * factor(refs), "raw_setup_s": raw_s}


def child_setup(args) -> dict:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up in a fresh process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(records, setup_runs, scales) -> dict:
    """Latency percentiles over all ops; throughput from each kind's median
    latency, so that a few ops slowed by the machine do not move it.  Op i's
    time is multiplied by `scales[i]`; `setup_runs` are set-up times."""
    ms = [r["ms"] * s for r, s in zip(records, scales)]
    by_kind: dict = {}
    for r, t in zip(records, ms):
        by_kind.setdefault(r["kind"], (r["draws"], []))[1].append(t)
    cycle_draws = sum(draws for draws, _ in by_kind.values())
    cycle_s = sum(statistics.median(t) for _, t in by_kind.values()) / 1e3
    return {
        "setup_s": statistics.median(setup_runs),
        "samples_per_s": cycle_draws / cycle_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(cli, modules, workload, warm, seconds):
    """Run each op untraced and then traced; the two must write identical bytes."""
    from tracer import Tracer, traced   # imports numpy, so only after BLAS pinning

    tracer = Tracer()
    records = []
    cycle = len(workload.kinds)
    t0 = time.perf_counter()
    while keep_going(len(records), cycle, time.perf_counter() - t0, seconds, cycle):
        op = workload.op(len(records))
        record = run_op(cli, op)
        tracer.op_id = op.index
        with traced(tracer, modules):
            traced_record = run_op(cli, op)
        check_against_warm_up(record, warm)
        record["failure"] = record["failure"] or traced_record["failure"]
        compare_digests(record, traced_record["digests"], "traced call")
        record["traced_ms"] = traced_record["ms"]
        records.append(record)
    return records, tracer


def layer_metrics(summary, tracer, records) -> dict:
    plain_s = sum(r["ms"] for r in records) / 1e3
    traced_s = sum(r["traced_ms"] for r in records) / 1e3
    total_self = sum(summary.self_s.values())
    counters = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "moment.moment_polytope.distinct_ratio": ratio(
            len(tracer.distinct_lambdas), summary.calls.get("moment.moment_polytope", 0)),
        "iwasawa.scan_complex.accept_ratio": ratio(
            counters["iwasawa.scan_complex.accepted"], counters["iwasawa.scan_complex.n"]),
        "iwasawa.mixed_classes_over.yield_ratio": ratio(
            counters["iwasawa.mixed_classes_over.produced"],
            counters["iwasawa.mixed_classes_over.n"]),
        "cli.bytes_written": counters["cli.bytes_written"],
        "trace.overhead_s": traced_s - plain_s,
        "trace.coverage": ratio(summary.root_s, traced_s),
    }
    out = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in special:
            value = special[name]
        elif stat == "calls":
            value = counters.get(base, summary.calls.get(base, 0))
        elif base in LAYERS and stat == "self_s":
            value = summary.layer_self_s(base)
        elif base in LAYERS and stat == "self_share":
            value = ratio(summary.layer_self_s(base), total_self)
        else:
            value = summary.self_s.get(base, 0.0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for repeat set-ups)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    orbitkit = import_orbitkit()
    import hostspeed   # imports numpy, so only after BLAS pinning
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.chdir(ROOT)
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = orbitkit.cli
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        warm = warm_up(cli, workload)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps(setup_timing(setup_s)))
            return 0
        modules = [orbitkit] + [getattr(orbitkit, layer) for layer in LAYERS]
        if args.trace:
            records, tracer = run_traced(cli, modules, workload, warm, args.seconds)
            metrics = layer_metrics(tracer.summarize(), tracer, records)
            tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
            extra = {}
        else:
            setups = [setup_timing(setup_s)]
            records = run_plain(cli, workload, warm, args.seconds)
            setups += [child_setup(args) for _ in range(SETUP_RUNS - 1)]
            scales = hostspeed.scales([r["ref_ms"] for r in records])
            for r, s in zip(records, scales):
                r["scale"] = s
            metrics = end_to_end_metrics(records, [s["setup_s"] for s in setups], scales)
            raw = end_to_end_metrics(records, [s["raw_setup_s"] for s in setups],
                                     [1.0] * len(records))
            extra = {"setup_runs": setups, "raw_metrics": raw}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["failure"] is not None]
    units = {**END_TO_END} if not args.trace else {m: metric_unit(m) for m in PER_LAYER}
    prov = provenance(blas_threads)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(records),
        "client": "closed loop, 1 client",
        "provenance": prov,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        **extra,
        "warm_up": warm,
        "records": records,
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  ops {len(records)} "
          f"(closed loop, 1 client, BLAS threads {blas_threads['OPENBLAS_NUM_THREADS']} "
          f"of nproc {blas_threads['nproc']})")
    print(f"  commit {prov['git_commit']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"scipy {prov['scipy']}, {prov['blas']} {prov['blas_version']}")
    for m in units:
        print(f"  {m:44s} {metrics[m]:.6g} {units[m]}")
    if not args.trace:
        print(f"  host-speed scale {statistics.median(r['scale'] for r in records):.4g} "
              "(median); unscaled: " + ", ".join(
            f"{m} {extra['raw_metrics'][m]:.6g}" for m in units if m != "peak_rss_mb"))
        ms = [r["ms"] * r["scale"] for r in records]
        beyond = sum(1 for x in ms if x > metrics["op_p90_ms"])
        print(f"  ops beyond p90: {beyond} of {len(ms)}")
    print(f"  fail_ratio {len(failed) / len(records):.6g} ({len(failed)} of {len(records)})")
    for r in failed[:10]:
        print(f"  FAILED op {r['i']} {r['kind']}: {r['failure']}")
    print(f"  details: {report_path}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
