"""Tests of the benchmark's tracer, op runner and output checks.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import itertools
import json
from pathlib import Path

import pytest

import hostspeed
import orbitkit
import run
import tracer
import workloads
from orbitkit import cli, forms, iwasawa, klein

MODULES = [orbitkit] + [getattr(orbitkit, layer) for layer in run.LAYERS]


def attribute_snapshot():
    """Every attribute of the layer modules and of the classes the tracer
    patches, by identity."""
    snap = {}
    for module in MODULES:
        for attr, obj in vars(module).items():
            snap[(module.__name__, attr)] = obj
    for (module_name, cls_name), _ in tracer.METHOD_SPANS.items():
        cls = getattr(orbitkit, module_name.partition(".")[2]).__dict__[cls_name]
        for attr, obj in vars(cls).items():
            snap[(module_name, cls_name, attr)] = obj
    return snap


def make_op(argv, check=None, draws=1):
    kind = workloads.Kind(argv[0], lambda i, r: argv, draws, check)
    return workloads.Op(0, 0, kind, argv)


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

def test_self_times_of_nested_spans_add_up_to_the_root_duration():
    ticks = itertools.count(0.0, 1.5)
    t = tracer.Tracer(clock=lambda: next(ticks))
    with t.span("cli.main"):
        with t.span("moment.orbit_samples"):
            with t.span("moment.haar_rotations"):
                pass
            with t.span("moment.stream"):
                pass
        with t.span("polytopes.hull"):
            with t.span("polytopes.hull.exact"):
                pass
    summary = t.summarize()
    root = t.end[0] - t.start[0]
    assert summary.root_s == root
    assert sum(summary.self_s.values()) == pytest.approx(root, abs=1e-12)
    assert all(s > 0 for s in summary.self_s.values())
    assert summary.calls == {name: 1 for name in t.names}
    assert list(t.parent) == [-1, 0, 1, 1, 0, 4]


def test_span_of_a_raising_call_is_closed_and_unwound():
    t = tracer.Tracer()
    with pytest.raises(ValueError):
        with t.span("outer"):
            with t.span("inner"):
                raise ValueError("boom")
    assert all(e >= s for s, e in zip(t.start, t.end))
    with t.span("after"):
        pass
    assert t.parent[-1] == -1


# ---------------------------------------------------------------------------
# Wrapping and restoring
# ---------------------------------------------------------------------------

def test_wrapped_module_attributes_are_restored_after_a_traced_run(tmp_path):
    before = attribute_snapshot()
    t = tracer.Tracer()
    with tracer.traced(t, MODULES):
        assert cli.main is not before[("orbitkit.cli", "main")]
        assert forms.TwoForm.__dict__["basis"] is not before[("orbitkit.forms", "TwoForm", "basis")]
        run.run_op(cli, make_op(["klein", "square", "--n", "3", "--out", str(tmp_path / "s.csv")]))
    assert attribute_snapshot() == before
    assert all(attribute_snapshot()[key] is obj for key, obj in before.items())


def test_attributes_are_restored_when_the_traced_block_raises():
    before = attribute_snapshot()
    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer(), MODULES):
            raise RuntimeError("stop")
    assert all(attribute_snapshot()[key] is obj for key, obj in before.items())


def test_aliases_share_the_span_of_the_function_they_name():
    t = tracer.Tracer()
    with tracer.traced(t, MODULES):
        assert cli.canonical_triple is forms.canonical_triple
        assert klein.canonical_triple is forms.canonical_triple
        cli.canonical_triple(forms.TwoForm.from_cartan((1.0, 0.5, 2.0)))
        iwasawa._nijenhuis_norms(iwasawa.iwasawa_algebra(),
                                 forms.TwoForm.from_cartan((1, 1, 1)).endomorphism()[None])
    summary = t.summarize()
    assert summary.calls["forms.canonical_triple"] == 1
    assert summary.calls["forms.eigen_split"] == 1
    assert summary.calls["iwasawa.nijenhuis_norms"] == 1
    assert summary.calls["forms.TwoForm.new"] >= 2
    assert t.counters["weyl.act"] > 0


def test_observers_count_bytes_and_distinct_lambdas(tmp_path):
    t = tracer.Tracer()
    off = tmp_path / "p.off"
    with tracer.traced(t, MODULES):
        for _ in range(2):
            cli.main(["polytope", "--lambda", "1,0.5,2", "--out-off", str(off)])
    assert t.counters["cli.bytes_written"] == 2 * len(off.read_bytes())
    assert t.summarize().calls["moment.moment_polytope"] == 2
    assert len(t.distinct_lambdas) == 1


# ---------------------------------------------------------------------------
# Ops, digests and checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["sample", "--lambda", "1,0.5,2", "--n", "50", "--seed", "3", "--out", "{tmp}/c.csv"],
    ["klein", "edge-prism", "--n", "20", "--seed", "3", "--out", "{tmp}/p.csv"],
    ["iwasawa", "scan-complex", "--n", "50", "--seed", "3", "--out", "{tmp}/s.csv"],
    ["polytope", "--lambda", "1,0.25,2", "--out-off", "{tmp}/p.off",
     "--out-facets", "{tmp}/p.json"],
])
def test_traced_and_untraced_runs_produce_identical_artifact_digests(tmp_path, argv):
    op = make_op([a.format(tmp=tmp_path) for a in argv])
    plain = run.run_op(cli, op)
    with tracer.traced(tracer.Tracer(), MODULES):
        traced = run.run_op(cli, op)
    assert plain["failure"] is None and traced["failure"] is None
    assert len(plain["digests"]) == 1 + sum(1 for a in argv if "{tmp}" in a) + (argv[0] == "klein")
    assert plain["digests"] == traced["digests"]


def test_an_op_fails_on_a_bad_exit_code_and_on_a_failed_check(tmp_path):
    usage = run.run_op(cli, make_op(["verify", "no-such-suite"]))
    assert usage["failure"].startswith("exit code 2")
    wrong = run.run_op(cli, make_op(
        ["polytope", "--lambda", "1,1,1"],
        check=lambda argv, report, r: workloads.check_class({"metrics": {"class": "F1"}}, "PPlus")))
    assert wrong["failure"] == "class F1, generator built PPlus"


def test_klein_checks_read_the_artifacts(tmp_path):
    out = tmp_path / "q.csv"
    argv = ["klein", "square", "--n", "7", "--seed", "1", "--out", str(out)]
    record = run.run_op(cli, make_op(argv, workloads.check_klein_square))
    assert record["failure"] is None
    out.write_text(out.read_text() + "nan,0,0\n")
    assert "rows" in workloads.check_klein_square(argv, {}, 0)
    prism = tmp_path / "p.csv"
    argv = ["klein", "edge-prism", "--n", "7", "--seed", "1", "--out", str(prism)]
    assert run.run_op(cli, make_op(argv, workloads.check_klein_edge_prism))["failure"] is None
    prism.write_text(prism.read_text() + "0.0,0.0,5.0\n")
    assert "outside region facet" in workloads.check_klein_edge_prism(argv, {}, 0)


def test_exact_query_inputs_have_the_class_they_were_built_to_have(tmp_path):
    """The first ten rounds cover every orbit type, each with exact-in-binary
    lambda values, and classify/export return the class the generator built."""
    wl = workloads.exact_query(5, tmp_path)
    cycle = len(wl.kinds)
    for r in range(len(workloads.ORBIT_TYPES)):
        for k in range(3):   # polytope, classify, export
            op = wl.op(r * cycle + k)
            record = run.run_op(cli, op)
            assert record["failure"] is None, (op.argv, record["failure"])
        lam = [float(c) for c in wl.op(r * cycle).argv[2].split(",")]
        assert all(c * 4 == int(c * 4) for c in lam)


def test_weyl_orbit_sizes_match_orbitkit():
    for lam in [(1, 1, 1), (1, -1, 1), (0, 0, 1), (1, 1, 2), (2, 1, 2), (1, 0.5, 2), (0, 0, 0)]:
        assert workloads.weyl_orbit_size(lam) == len(orbitkit.weyl.weyl_orbit(lam))


# ---------------------------------------------------------------------------
# Host-speed scaling
# ---------------------------------------------------------------------------

def test_host_speed_scaling_cancels_a_slowdown_of_ops_and_reference_alike():
    # Sixty ops of one kind; the host runs at half speed for the second half.
    slowdown = [1.0] * 30 + [2.0] * 30
    records = [{"kind": "k", "draws": 10, "ms": 50.0 * f} for f in slowdown]
    scales = hostspeed.scales([hostspeed.REF_MS * f for f in slowdown])
    assert scales == [1.0] * 30 + [0.5] * 30
    metrics = run.end_to_end_metrics(records, [1.0], scales)
    assert metrics["op_p50_ms"] == metrics["op_p90_ms"] == 50.0
    assert metrics["samples_per_s"] == pytest.approx(10 / 0.050)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the metrics run.py reports
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: run.metric_unit(m) for m in run.PER_LAYER}
    assert len(set(run.PER_LAYER)) == len(run.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_span_named_in_the_metrics_exists():
    """A per-layer metric that names a span the tracer never creates would
    read 0 for ever; every span-derived metric must name a wrapped function."""
    t = tracer.Tracer()
    with tracer.traced(t, MODULES):
        pass
    names = set(t.names) | tracer.COUNT_ONLY
    for metric in run.PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s") and base not in run.LAYERS:
            assert base in names, metric
