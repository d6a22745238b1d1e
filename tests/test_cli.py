"""Command-line interface: exit codes, report schema, artifact determinism."""

import argparse
import ast
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from orbitkit import cli, iwasawa, klein, moment, polytopes, spin, weyl
from orbitkit.forms import OrbitClass, TwoForm, canonical_triple, class_point, conjugate

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs",
                           "runreport.schema.json")
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


@pytest.fixture()
def form_file(tmp_path):
    path = tmp_path / "w0.json"
    coeffs = [0.0] * 15
    coeffs[0] = coeffs[9] = coeffs[14] = 1.0
    path.write_text(json.dumps({"coeffs": coeffs}))
    return str(path)


def test_classify_report(capsys, form_file):
    code, report = run_cli(capsys, "classify", "--form", form_file)
    assert code == 0
    assert report["metrics"]["class"] == "PPlus"
    assert report["metrics"]["canonical"] == [1.0, 1.0, 1.0]
    assert report["metrics"]["stabilizer_dim"] == 9


def test_classify_near_degenerate_pplus(capsys, tmp_path):
    R = moment.haar_rotations(1, 77, start=1388)[0]
    form = conjugate(TwoForm.from_cartan((1, 1.000000003, 1)), R)
    path = tmp_path / "pplus.json"
    path.write_text(json.dumps(form.to_dict()))
    code, report = run_cli(capsys, "classify", "--form", str(path))
    assert code == 0
    assert report["metrics"]["class"] == "PPlus"


def test_classify_zero_form(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"coeffs": [0.0] * 15}))
    code, report = run_cli(capsys, "classify", "--form", str(path))
    assert code == 0
    assert report["metrics"]["class"] == "Zero"


def test_classify_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _ = run_cli(capsys, "classify", "--form", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "export"])
@pytest.mark.parametrize("sign", [1, -1])
def test_form_coefficient_above_the_bound_exits_2(capsys, tmp_path, command, sign):
    # PPlus (sign 1) or PMinus (-1) at 1e308: the class point sums three tied
    # slots, which would overflow the float max.
    path = tmp_path / "huge.json"
    coeffs = [0.0] * 15
    coeffs[0], coeffs[9], coeffs[14] = 1e308, sign * 1e308, 1e308
    path.write_text(json.dumps({"coeffs": coeffs}))
    code = cli.main([command, "--form", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "coefficients must not exceed 2**1020" in captured.err


@pytest.mark.parametrize("command", ["classify", "export"])
def test_form_integer_beyond_the_float_range_exits_2(capsys, tmp_path, command):
    path = tmp_path / "huge_int.json"
    path.write_text('{"coeffs": [1' + "0" * 400 + ", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}")
    code = cli.main([command, "--form", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: cannot read 2-form from {path}" in captured.err


@pytest.mark.parametrize("command", ["classify", "export"])
@pytest.mark.parametrize("slot", ['"2"', "true"])
def test_form_coefficient_that_is_not_a_json_number_exits_2(capsys, tmp_path, command, slot):
    path = tmp_path / "typed.json"
    path.write_text('{"coeffs": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ' + slot + "]}")
    code = cli.main([command, "--form", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'coeffs' must be a list of JSON numbers" in captured.err


@pytest.mark.parametrize("cartan,name,vertices", [
    ((1, 1, 1), "PPlus", 4), ((1, -1, 1), "PMinus", 4), ((1, 0.5, 0.75), "Generic", 24),
])
def test_form_coefficients_at_the_bound_export(capsys, tmp_path, cartan, name, vertices):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(TwoForm.from_cartan([c * 2 ** 1020 for c in cartan]).to_dict()))
    code, report = run_cli(capsys, "export", "--form", str(path))
    assert code == 0
    assert (report["metrics"]["class"], report["metrics"]["vertices"]) == (name, vertices)


def test_unknown_suite_exits_2(capsys):
    code, _ = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2


def test_fast_verify_suites(capsys):
    for suite in ("prop16", "octahedron", "intersection", "f3-segments"):
        code, report = run_cli(capsys, "verify", suite)
        assert code == 0, suite
        assert report["pass"], suite


def test_verify_spin_cover(capsys):
    code, report = run_cli(capsys, "verify", "spin-cover", "--n", "100")
    assert code == 0
    assert report["metrics"]["max_discrepancy"] < 1e-12


def test_verify_spin_cover_samples_the_n_it_echoes(capsys, monkeypatch):
    thetas = []
    check = spin.spin_cover_check
    monkeypatch.setattr(spin, "spin_cover_check",
                        lambda theta: thetas.append(np.array(theta)) or check(theta))
    for n in (1, 2, 100):
        thetas.clear()
        code, report = run_cli(capsys, "verify", "spin-cover", "--n", str(n))
        assert code == 0 and report["pass"], n
        assert report["parameters"] == {"n": n} and report["metrics"]["thetas"] == n
        # One stacked check on exactly the n sampled angles, then one at 2 pi.
        assert len(thetas) == 2, n
        assert thetas[0].shape == (n,)
        assert np.array_equal(thetas[0], np.linspace(0.0, 4 * math.pi, n))
        assert thetas[1].shape == () and thetas[1] == 2 * math.pi


@pytest.mark.parametrize("name, mutate, metric", [
    ("_PAIR_WEIGHTS", lambda w: -w, "max_discrepancy"),
    ("_PAIR_WEIGHTS", lambda w: 2 * w, "max_discrepancy"),
    ("NU1_QUADRUPLE", lambda w: tuple(2 * x for x in w), "su4_at_2pi_vs_minus_identity"),
], ids=["wedge-weights-negated", "wedge-theta-not-halved", "su4-theta-not-halved"])
def test_verify_spin_cover_fails_on_a_wrong_phase_table(capsys, monkeypatch, name, mutate,
                                                        metric):
    monkeypatch.setattr(spin, name, mutate(getattr(spin, name)))
    code, report = run_cli(capsys, "verify", "spin-cover", "--n", "100")
    assert code == 1 and report["pass"] is False
    assert report["metrics"][metric] > 0.1


def test_verify_edge_prism_small(capsys):
    code, report = run_cli(capsys, "verify", "edge-prism", "--n", "300")
    assert code == 0


def test_verify_singular_builds_each_face_once(capsys, monkeypatch):
    # One exact hull, of the moment polytope: a class's face test needs no
    # hull of its own.  The faces come from one orbit pass: one Weyl action
    # per group element for the faces, plus each class's normal and base
    # point, and no singular_vertex_set call.  The hull's orbit is one
    # weyl_orbit call, which ranks coordinates instead of calling act.
    calls = {"hull": 0, "vertex_set": 0, "orbit": 0, "act": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for i in (1, 2, 3):  # the parabolic subgroups are built once per process
        weyl.parabolic(i)
    monkeypatch.setattr(polytopes, "_hull_exact", counted("hull", polytopes._hull_exact))
    monkeypatch.setattr(weyl, "singular_vertex_set",
                        counted("vertex_set", weyl.singular_vertex_set))
    monkeypatch.setattr(weyl, "weyl_orbit", counted("orbit", weyl.weyl_orbit))
    monkeypatch.setattr(weyl, "act", counted("act", weyl.act))
    code, report = run_cli(capsys, "verify", "singular", "--n", "10")
    assert code == 0
    assert report["metrics"]["distinct_classes"] == 14
    assert report["metrics"]["polytopes"] == 14
    assert report["metrics"]["all_facets_covered"]
    assert calls == {"hull": 1, "vertex_set": 0, "orbit": 1, "act": 24 + 2 * 14}


@pytest.mark.parametrize("n", [10, moment.HAAR_BATCH_WORDS // 14 + 1])
def test_verify_singular_draws_each_block_shape_once_per_batch(capsys, monkeypatch, n):
    # All 14 classes read the same U(3) columns (12 words a sample) and U(2)
    # moduli (2 words): one normals(., ., 12) and one stream(., ., 2) call per
    # batch of at most HAAR_BATCH_WORDS // 14 samples, however many classes
    # there are.
    calls = []
    normals, stream = moment.normals, moment.stream

    def counted_normals(seed, count, m, start=0):
        calls.append(("normals", m, count, start))
        return normals(seed, count, m, start)

    def counted_stream(seed, count, m, start=0):
        if m == 2:
            calls.append(("stream", m, count, start))
        return stream(seed, count, m, start)

    monkeypatch.setattr(moment, "normals", counted_normals)
    monkeypatch.setattr(moment, "stream", counted_stream)
    code, report = run_cli(capsys, "verify", "singular", "--n", str(n))
    assert code == 0 and report["metrics"]["distinct_classes"] == 14
    batch = moment.HAAR_BATCH_WORDS // 14
    batches = [(min(n - lo, batch), lo) for lo in range(0, n, batch)]
    assert calls == [(kind, m, count, lo) for count, lo in batches
                     for kind, m in (("normals", 12), ("stream", 2))]


def test_polytope_writes_artifacts(capsys, tmp_path):
    off = tmp_path / "p.off"
    facets = tmp_path / "p.json"
    code, report = run_cli(
        capsys, "polytope", "--lambda", "1,1,2",
        "--out-off", str(off), "--out-facets", str(facets),
    )
    assert code == 0
    assert report["metrics"].pop("elapsed_seconds") >= 0.0
    assert report["metrics"] == {"dim": 3, "vertices": 12, "facets": 8}
    assert off.read_text().startswith("OFF")
    data = json.loads(facets.read_text())
    assert len(data["facets"]) == 8


def test_sample_deterministic_csv(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, report = run_cli(
            capsys, "sample", "--lambda", "1,0.5,2", "--n", "200",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert report["pass"]
    assert out1.read_bytes() == out2.read_bytes()


def test_non_integer_seed_env_is_ignored(capsys, monkeypatch):
    # ORBITKIT_SEED was once parsed on every call, so prop16 exited 2 on it.
    monkeypatch.setenv("ORBITKIT_SEED", "abc")
    code, report = run_cli(capsys, "verify", "prop16")
    assert code == 0 and report["pass"]


def test_seed_env_var_no_longer_sets_the_default(capsys, tmp_path, monkeypatch):
    # ORBITKIT_SEED once set the default seed; --seed now defaults to 0.
    monkeypatch.setenv("ORBITKIT_SEED", "123")
    out1 = tmp_path / "a.csv"
    code, _ = run_cli(capsys, "sample", "--lambda", "1,1,1", "--n", "50",
                      "--out", str(out1))
    assert code == 0
    out2 = tmp_path / "b.csv"
    code, _ = run_cli(capsys, "sample", "--lambda", "1,1,1", "--n", "50",
                      "--seed", "0", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_lambda_exits_2(capsys):
    code, _ = run_cli(capsys, "polytope", "--lambda", "1,2")
    assert code == 2
    code, _ = run_cli(capsys, "polytope", "--lambda", "a,b,c")
    assert code == 2


@pytest.mark.parametrize("lam", [
    "nan,1,2", "inf,1,2", "1,-inf,2", "1/0,1,2",
    # Finite but past 2**1020: floats of the coordinates or of their sums overflow.
    "1e400,1,2", "1e308,1e308,1.5e308", pytest.param(f"1,1,{2 ** 1020 + 1}", id="2**1020+1"),
])
@pytest.mark.parametrize("command", ["polytope", "sample"])
def test_non_finite_lambda_exits_2(capsys, command, lam):
    code = cli.main([command, "--lambda", lam])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad lambda" in captured.err


def test_lambda_at_the_bound_runs_without_overflow(capsys, tmp_path):
    top = 2 ** 1020
    code, report = run_cli(capsys, "sample", "--lambda", f"{top},{top},{top}", "--n", "5")
    assert code == 0
    assert report["metrics"]["max_violation"] == 0.0
    code, report = run_cli(capsys, "polytope", "--lambda", f"{top},0,{top}",
                           "--out-off", str(tmp_path / "p.off"))
    assert code == 0
    assert report["metrics"]["facets"] == 14


def test_lambda_is_parsed_exactly(capsys, tmp_path):
    off = tmp_path / "p.off"
    code, report = run_cli(capsys, "polytope", "--lambda", "0.1,0,1",
                           "--out-off", str(off))
    assert code == 0
    assert report["parameters"]["lambda"] == [0.1, 0.0, 1.0]
    assert "# rational vertices scaled by common denominator 10\n" in off.read_text()
    code, report = run_cli(capsys, "polytope", "--lambda", "1/3,0,1")
    assert code == 0
    assert report["parameters"]["lambda"] == [1 / 3, 0.0, 1.0]


@pytest.mark.parametrize("command, tol", [
    # iwasawa scan-complex is the one run whose --tol may be 0: it picks the
    # rows the CSV holds.
    *(pytest.param(["iwasawa", "scan-complex", "--n", "5"], tol, id=tol)
      for tol in ("-1", "nan", "inf", "abc")),
    # classify and export match eigenvalue patterns within --tol: it must be positive.
    *(pytest.param([cmd, "--form", "form.json"], tol, id=f"{cmd}-{tol}")
      for cmd in ("classify", "export") for tol in ("0", "-0.0", "-1", "nan")),
])
def test_sample_tol_must_be_finite_and_nonnegative(capsys, command, tol):
    code = cli.main([*command, "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tol" in captured.err


def test_iwasawa_echoes_only_used_parameters(capsys):
    for sub in ("scan-k", "scan-kk"):
        code, report = run_cli(capsys, "iwasawa", sub, "--n", "5", "--seed", "2")
        assert code == 0
        assert report["parameters"] == {"n": 5, "seed": 2}
        # scan-k and scan-kk read no tolerance, so --tol is a usage error.
        code, report = run_cli(capsys, "iwasawa", sub, "--n", "5", "--seed", "2",
                               "--tol", "1e-300")
        assert code == 2 and report is None
    code, report = run_cli(capsys, "iwasawa", "mixed", "--n", "5", "--seed", "2")
    assert report["parameters"] == {"n": 5, "seed": 2, "which": "K"}
    code, report = run_cli(capsys, "iwasawa", "scan-complex", "--n", "5",
                           "--seed", "2", "--tol", "1e-7")
    assert report["parameters"] == {"n": 5, "seed": 2, "tol": 1e-7}


def test_iwasawa_scans(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, report = run_cli(
        capsys, "iwasawa", "scan-k", "--n", "300", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    assert report["pass"]
    text = out.read_text()
    assert text.splitlines()[1] == "x,y,z"
    code, report = run_cli(capsys, "iwasawa", "scan-kk", "--n", "200")
    assert code == 0
    code, report = run_cli(capsys, "iwasawa", "mixed", "--n", "100",
                           "--which", "K_intersection")
    assert code == 0


def test_klein_commands(capsys, tmp_path):
    out = tmp_path / "prism.csv"
    code, report = run_cli(
        capsys, "klein", "edge-prism", "--n", "150", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    assert report["pass"]
    assert os.path.exists(str(out) + ".facets.json")
    out = tmp_path / "square.csv"
    code, report = run_cli(capsys, "klein", "square", "--n", "100",
                           "--out", str(out))
    assert code == 0
    region = json.loads((tmp_path / "square.csv.facets.json").read_text())
    assert region["exact"] is True
    rows = [[float(c) for c in ln.split(",")] for ln in out.read_text().splitlines()[2:]]
    assert len(rows) == 100
    assert max(sum(a * b for a, b in zip(f["normal"], row)) - f["offset"]
               for f in region["facets"] for row in rows) <= 1e-9


def test_klein_square_builds_its_region_once(capsys, monkeypatch, tmp_path):
    # One square_region per run serves the region gate and the facet JSON.
    calls = []
    square_region = klein.square_region

    def counted():
        calls.append(1)
        return square_region()

    monkeypatch.setattr(klein, "square_region", counted)
    out = tmp_path / "square.csv"
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--out", str(out))
    assert code == 0 and report["metrics"]["all_in_region"] and len(calls) == 1
    facets = json.loads((tmp_path / "square.csv.facets.json").read_text())
    assert facets == polytopes.polytope_to_json(square_region())
    code, report = run_cli(capsys, "verify", "square", "--n", "20")
    assert code == 0 and len(calls) == 2


def test_klein_square_fails_on_a_row_outside_its_region(capsys, monkeypatch):
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "5")
    assert code == 0 and report["metrics"]["all_in_region"]
    # t = 3 lies beyond the fibre's range (0, 1]: the image (4, 3, 3) is still
    # a moment image of its own orbit, but it is outside the exported region.
    u, v, t = moment.fibre_draws(20, 5, klein.SQUARE_T_LO, (3, 3))
    u[0], v[0], t[0] = (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 3.0
    monkeypatch.setattr(moment, "fibre_draws", lambda n, seed, t_lo, sizes: (u, v, t))
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "5")
    metrics = report["metrics"]
    assert code != 0 and not report["pass"] and not metrics["all_in_region"]
    assert metrics["max_orbit_containment_violation"] <= 1e-9
    assert metrics["max_identity_residual"] <= 1e-12


def test_verify_ags_passes_on_containment_and_vertex_reach(capsys):
    code, report = run_cli(capsys, "verify", "ags", "--n", "2000", "--seed", "7")
    metrics, tol = report["metrics"], moment.GATE_TOL
    assert code == 0 and report["pass"] and report["parameters"] == {"n": 2000, "seed": 7}
    assert metrics["max_violation"] <= tol and metrics["max_vertex_gap"] <= tol
    assert set(metrics["per_lambda"]) == {str(lam) for lam in cli.AGS_LAMBDAS}


def test_verify_ags_fails_on_clouds_without_their_weyl_images(capsys, monkeypatch):
    draw = moment.orbit_samples
    monkeypatch.setattr(moment, "orbit_samples", lambda lam, n, seed: moment.SampleCloud(
        draw(lam, n, seed).points[:n], "Haar draws only"))
    code, report = run_cli(capsys, "verify", "ags", "--n", "2000", "--seed", "7")
    metrics = report["metrics"]
    assert code == 1 and not report["pass"]
    assert metrics["max_violation"] <= 1e-9 and metrics["max_vertex_gap"] > 1e-9


def test_importing_the_cli_loads_no_qhull():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    check = "import sys, orbitkit.cli; assert 'scipy.spatial' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_importing_orbitkit_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    check = ("import sys, orbitkit, orbitkit.cli; "
             "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_classify_exits_1_when_the_eigensolver_fails(capsys, form_file, monkeypatch):
    def fail(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["classify", "--form", form_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_export(capsys, form_file, tmp_path):
    facets = tmp_path / "f.json"
    code, report = run_cli(capsys, "export", "--form", form_file,
                           "--out-facets", str(facets))
    assert code == 0
    assert report["metrics"]["class"] == "PPlus"
    assert report["metrics"]["facets"] == 4


def test_polytope_near_a_wall_has_the_whole_orbit(capsys):
    # lam is 1e-13 off the F1 wall, so |W.lam| = 24: no two images merge.
    code, report = run_cli(capsys, "polytope", "--lambda", "1,1.0000000000001,2")
    assert code == 0
    assert (report["metrics"]["vertices"], report["metrics"]["facets"]) == (24, 14)


def test_sample_near_a_wall_appends_the_whole_orbit(capsys):
    code, report = run_cli(capsys, "sample", "--lambda", "1,1.0000000000001,2", "--n", "10")
    assert code == 0
    assert report["metrics"]["points"] == 10 + 24


#: class -> (chamber point, vertices and facets of its moment polytope).
CLASS_POLYTOPES = {
    "Zero": ((0, 0, 0), 1, 0),
    "Generic": ((1, 0.5, 2), 24, 14),
    "PPlus": ((1, 1, 1), 4, 4),
    "PMinus": ((1, -1, 1), 4, 4),
    "Grassmannian": ((0, 0, 1), 6, 8),
    "F1": ((1, 1, 2), 12, 8),
    "F2": ((1, -1, 2), 12, 8),
    "F3Plus": ((2, 1, 2), 12, 14),
    "F3Zero": ((1, 0, 1), 12, 14),
    "F3Minus": ((2, -1, 2), 12, 14),
}


def closed_form_class_point(orbit_class, triple):
    """Reference projection onto the class pattern, one closed form per
    class: m the mean of the entries the pattern ties."""
    x, y, z = triple
    plus, minus, f3 = (x + y + z) / 3, (x - y + z) / 3, (x + z) / 2
    return {
        OrbitClass.ZERO: (0.0, 0.0, 0.0),
        OrbitClass.P_PLUS: (plus, plus, plus),
        OrbitClass.P_MINUS: (minus, -minus, minus),
        OrbitClass.GRASSMANNIAN: (0.0, 0.0, z),
        OrbitClass.F1: ((x + y) / 2, (x + y) / 2, z),
        OrbitClass.F2: ((x - y) / 2, (y - x) / 2, z),
        OrbitClass.F3_ZERO: (f3, 0.0, f3),
        OrbitClass.F3_PLUS: (f3, y, f3),
        OrbitClass.F3_MINUS: (f3, y, f3),
    }.get(orbit_class, triple)


@pytest.mark.parametrize("name", sorted(CLASS_POLYTOPES))
def test_class_point_matches_the_closed_forms(name):
    """On the chamber triples of Haar conjugates, class_point of every class
    equals the closed form exactly, on floats and on their Fractions."""
    lam = CLASS_POLYTOPES[name][0]
    for R in moment.haar_rotations(4, 11):
        triple = canonical_triple(conjugate(TwoForm.from_cartan(lam), R))
        exact = tuple(Fraction(c) for c in triple)
        for c in OrbitClass:
            got = class_point(c, triple)
            assert tuple(map(Fraction, got)) == tuple(
                map(Fraction, closed_form_class_point(c, triple)))
            assert tuple(map(Fraction, class_point(c, exact))) == tuple(
                map(Fraction, closed_form_class_point(c, exact)))


@pytest.mark.parametrize("name", sorted(CLASS_POLYTOPES))
def test_export_of_a_conjugate_writes_its_class_polytope(capsys, tmp_path, name):
    """A Haar conjugate's triple is off its class pattern by rounding; the
    export is still the polytope of the class, with the class's facet normals."""
    lam, vertices, facets = CLASS_POLYTOPES[name]
    form = conjugate(TwoForm.from_cartan(lam), moment.haar_rotations(1, 3)[0])
    path, out = tmp_path / "form.json", tmp_path / "facets.json"
    path.write_text(json.dumps(form.to_dict()))
    code, report = run_cli(capsys, "export", "--form", str(path), "--out-facets", str(out))
    assert code == 0
    m = report["metrics"]
    assert (m["class"], m["vertices"], m["facets"]) == (name, vertices, facets)
    exact = moment.moment_polytope(lam)
    assert [f["normal"] for f in json.loads(out.read_text())["facets"]] == [
        list(f.normal) for f in exact.facets]


@pytest.mark.parametrize("argv", [
    ("sample", "--lambda", "1,0.5,2"),
    ("verify", "singular"),
    ("verify", "edge-prism"),
    ("verify", "square"),
    ("verify", "ags"),
    ("klein", "edge-prism"),
    ("klein", "square"),
    ("iwasawa", "scan-k"),
    ("iwasawa", "mixed"),
])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_sample_count_below_one_exits_2(capsys, argv, n):
    code = cli.main([*argv, "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--n must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [
    ("polytope", "--lambda", "1,0.5,2", "--out-off", "{missing}"),
    ("polytope", "--lambda", "1,0.5,2", "--out-facets", "{missing}"),
    ("sample", "--lambda", "1,0.5,2", "--n", "5", "--out", "{missing}"),
    ("klein", "square", "--n", "5", "--out", "{missing}"),
    ("iwasawa", "scan-k", "--n", "5", "--out", "{directory}"),
])
def test_unwritable_artifact_path_exits_2(capsys, tmp_path, argv):
    paths = {"missing": str(tmp_path / "missing" / "x"), "directory": str(tmp_path)}
    code = cli.main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: cannot write" in captured.err


@pytest.mark.parametrize("argv, written", [
    (("polytope", "--lambda", "1,0.5,2", "--out-off", "ok.off", "--out-facets", "{missing}"),
     "ok.off"),
    (("export", "--form", "{form}", "--out-off", "ok.off", "--out-facets", "{missing}"),
     "ok.off"),
    (("klein", "square", "--n", "5", "--out", "ok.csv"), "ok.csv"),
    (("klein", "edge-prism", "--n", "5", "--out", "ok.csv"), "ok.csv"),
])
def test_a_failed_artifact_write_removes_the_artifacts_written_before_it(
        capsys, tmp_path, form_file, argv, written):
    # The OFF mesh or the CSV is written first; then the facet JSON fails, at
    # a missing directory or, for klein, at a directory named like the file.
    (tmp_path / "ok.csv.facets.json").mkdir()
    paths = {"missing": str(tmp_path / "missing" / "x.json"), "form": form_file}
    argv = [str(tmp_path / a) if a == written else a.format(**paths) for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: cannot write" in captured.err
    assert not (tmp_path / written).exists()


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1", str(2 ** 64 + 1)])
def test_seed_outside_the_philox_key_range_exits_2(capsys, seed):
    # Philox takes the seed mod 2**64: 2**64 + 1 drew the rows of seed 1.
    code = cli.main(["sample", "--lambda", "1,0.5,2", "--n", "2", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--seed must lie in [0, 2**64)" in captured.err


def test_largest_seed_is_accepted(capsys):
    top = 2 ** 64 - 1
    for argv in (("sample", "--lambda", "1,0.5,2"), ("verify", "square")):
        code, report = run_cli(capsys, *argv, "--n", "2", "--seed", str(top))
        assert code == 0 and report["parameters"]["seed"] == top


def test_single_run_commands_echo_their_parameters(capsys, form_file):
    cases = [
        (["classify", "--form", form_file, "--tol", "1e-7"], {"form": form_file, "tol": 1e-7}),
        (["export", "--form", form_file], {"form": form_file, "tol": 1e-8}),
        (["polytope", "--lambda", "1,1/2,2"], {"lambda": [1.0, 0.5, 2.0]}),
        (["sample", "--lambda", "1,0.5,2", "--n", "5", "--seed", "3"],
         {"lambda": [1.0, 0.5, 2.0], "n": 5, "seed": 3}),
    ]
    for argv, parameters in cases:
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["command"] == argv[0]
        assert report["parameters"] == parameters


def test_verify_echoes_only_used_parameters(capsys):
    code, report = run_cli(capsys, "verify", "prop16")
    assert code == 0
    assert report["parameters"] == {}
    code, report = run_cli(capsys, "verify", "edge-prism", "--n", "20", "--seed", "4")
    assert code == 0
    assert report["parameters"] == {"n": 20, "seed": 4}
    code, report = run_cli(capsys, "verify", "spin-cover", "--n", "10")
    assert report["parameters"] == {"n": 10}
    # A flag the suite does not read is a usage error.
    for argv in (("prop16", "--n", "5"),
                 ("edge-prism", "--n", "20", "--seed", "4", "--tol", "1e-30"),
                 ("spin-cover", "--n", "10", "--seed", "4")):
        code, report = run_cli(capsys, "verify", *argv)
        assert code == 2 and report is None


def test_facet_json_is_exact(capsys, tmp_path):
    off = tmp_path / "p.off"
    facets = tmp_path / "p.json"
    code, _ = run_cli(capsys, "polytope", "--lambda", "1/3,0,1",
                      "--out-off", str(off), "--out-facets", str(facets))
    assert code == 0
    lines = [ln for ln in off.read_text().splitlines() if not ln.startswith("#")]
    denom = int(off.read_text().split("common denominator ")[1].split()[0])
    nv = int(lines[1].split()[0])
    off_vertices = {tuple(Fraction(int(c), denom) for c in ln.split())
                    for ln in lines[2:2 + nv]}
    data = json.loads(facets.read_text())
    json_vertices = {tuple(Fraction(str(c)) for c in v) for v in data["vertices"]}
    assert json_vertices == off_vertices
    assert ["-1", "-1/3", "0"] in [[str(c) for c in v] for v in data["vertices"]]
    offsets = {str(f["offset"]) for f in data["facets"]}
    assert "4/3" in offsets
    for f in data["facets"]:
        normal = [Fraction(str(c)) for c in f["normal"]]
        offset = Fraction(str(f["offset"]))
        dots = [sum(a * b for a, b in zip(normal, v)) for v in json_vertices]
        assert max(dots) == offset


def test_klein_square_fails_when_an_image_leaves_its_polytope(capsys, monkeypatch):
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "3")
    assert code == 0 and report["pass"]
    assert report["metrics"]["max_orbit_containment_violation"] <= 1e-9
    # Stretching J moves each image p + t J out of conv(W.(t, t, 1 + t)).
    square_forms = klein.square_forms

    def stretched(u, v):
        p, J = square_forms(u, v)
        return p, 1.2 * J

    monkeypatch.setattr(klein, "square_forms", stretched)
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "3")
    assert code == 1
    assert report["pass"] is False
    assert report["metrics"]["max_orbit_containment_violation"] > 1e-9
    assert report["metrics"]["max_identity_residual"] > 1e-12


def test_verify_square_fails_when_an_image_leaves_the_closed_form(capsys, monkeypatch):
    code, report = run_cli(capsys, "verify", "square", "--n", "10000")
    assert code == 0 and report["metrics"]["max_identity_residual"] <= 1e-12
    # Swapping u1 and u2 where v's smallest |entry| is on axis 0 keeps every
    # image in its orbit's polytope and in the region, but off
    # ((1 + t) v1, t u1 v1, t u1).
    square_forms = klein.square_forms

    def swapped(u, v):
        u = np.array(u)
        rows = np.argmin(np.abs(v), axis=1) == 0
        u[rows] = u[rows][:, [1, 0, 2]]
        return square_forms(u, v)

    monkeypatch.setattr(klein, "square_forms", swapped)
    code, report = run_cli(capsys, "verify", "square", "--n", "10000")
    metrics = report["metrics"]
    assert code == 1 and report["pass"] is False
    assert metrics["max_identity_residual"] > 1.0
    assert metrics["max_orbit_containment_violation"] <= 1e-9 and metrics["all_in_region"]


def test_klein_reports_carry_the_fibre_suite(capsys):
    for sub in ("edge-prism", "square"):
        assert cli.RUNS["verify", sub].used == cli.RUNS["klein", sub].used
        _, verify = run_cli(capsys, "verify", sub, "--n", "30", "--seed", "8")
        _, klein = run_cli(capsys, "klein", sub, "--n", "30", "--seed", "8")
        assert klein["parameters"] == {"n": 30, "seed": 8}
        for m in (verify["metrics"], klein["metrics"]):
            m.pop("elapsed_seconds")
        assert klein["metrics"] == verify["metrics"]
        assert klein["metrics"]["points"] == 30


def test_mixed_pass_checks_every_draw(capsys):
    for which in ("K", "K_intersection"):
        code, report = run_cli(capsys, "iwasawa", "mixed", "--n", "40",
                               "--which", which)
        m = report["metrics"]
        assert code == 0 and report["pass"]
        assert (m["produced"], m["skipped"]) == (40, 0)
        assert 0.0 <= m["max_orbit_containment_violation"] <= 1e-9
        assert m["elapsed_seconds"] >= 0.0


#: command -> the flags its parser took when one parser served all its runs.
OLD_FLAGS = {
    "classify": ("--form", "--tol"),
    "polytope": ("--lambda", "--out-off", "--out-facets"),
    "sample": ("--lambda", "--n", "--seed", "--tol", "--out"),
    "verify": ("--n", "--seed", "--tol"),
    "klein": ("--n", "--seed", "--out"),
    "iwasawa": ("--n", "--seed", "--tol", "--which", "--out"),
    "export": ("--form", "--tol", "--out-off", "--out-facets"),
}

#: command -> its artifact path flags, taken by each of its runs.
ARTIFACTS = {"polytope": ("out_off", "out_facets"), "sample": ("out",), "klein": ("out",),
             "iwasawa": ("out",), "export": ("out_off", "out_facets")}

#: The flags of the required parameters, with a value that parses.
REQUIRED = {"form": ["--form", "w.json"], "lam": ["--lambda", "1,1,1"]}

#: Parameter -> its default; (command, parameter) -> a command's own default.
DEFAULTS = {"n": 1000, "seed": 0, "tol": 1e-6, "which": "K", "out": None,
            "out_off": None, "out_facets": None, ("verify", "n"): 10000,
            ("classify", "tol"): 1e-8, ("export", "tol"): 1e-8}


def flag(dest):
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def run_argv(command, sub, extra=()):
    """argv of the run (command, sub) with its required flags and extra."""
    used = cli.RUNS[command, sub].used
    return [command, *filter(None, [sub]),
            *(a for d in used if d in REQUIRED for a in REQUIRED[d]), *extra]


@pytest.mark.parametrize("command, sub", list(cli.RUNS), ids=str)
def test_each_run_takes_exactly_the_flags_it_reads(capsys, command, sub):
    dests = set(cli.RUNS[command, sub].used) | set(ARTIFACTS.get(command, ()))
    args = vars(cli._parse(run_argv(command, sub)))
    assert (args.pop("command"), args.pop("sub")) == (command, sub)
    assert set(args) == dests
    for dest, value in args.items():
        if dest not in REQUIRED:
            assert value == DEFAULTS.get((command, dest), DEFAULTS[dest]), dest
    # The run's --help shows exactly its flags.
    assert cli.main([*run_argv(command, sub)[:1 + bool(sub)], "--help"]) == 0
    shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert shown == {"--help"} | {flag(d) for d in dests}
    # Every flag of the command's old parser that the run does not read exits 2.
    for unread in sorted(set(OLD_FLAGS[command]) - {flag(d) for d in dests}):
        code = cli.main(run_argv(command, sub, [unread, "1"]))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", unread
        assert unread in captured.err


#: Parameter -> a value its flag parses.
VALUES = {"form": "w.json", "lam": "1,1,1", "n": "5", "seed": "3", "tol": "1e-9",
          "which": "K", "out": "x.csv", "out_off": "x.off", "out_facets": "x.json"}


@pytest.mark.parametrize("command, sub", list(cli.RUNS), ids=str)
def test_no_flag_of_a_run_may_be_abbreviated(capsys, command, sub):
    # argparse would read a unique prefix as its flag: verify edge-prism
    # --se 3 used to run with seed 3.
    flags = {flag(d): d for d in cli.RUNS[command, sub].used + ARTIFACTS.get(command, ())}
    prefixes = {f[:k]: d for f, d in flags.items() for k in range(3, len(f))
                if sum(g.startswith(f[:k]) for g in flags) == 1}
    for prefix, dest in prefixes.items():
        code = cli.main(run_argv(command, sub, [prefix, VALUES[dest]]))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", prefix
        assert f"unrecognized arguments: {prefix}" in captured.err, prefix
        assert "Traceback" not in captured.err
    assert command != "verify" or sub != "edge-prism" or "--se" in prefixes


def help_choices(capsys, argv):
    """The first word of each listed line of a command-level --help."""
    assert cli.main([*argv, "--help"]) == 0
    return [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]


def test_every_run_choice_has_one_registry_entry(capsys):
    commands = list(dict.fromkeys(c for c, _ in cli.RUNS))
    assert help_choices(capsys, []) == commands
    for command in commands:
        subs = [s for c, s in cli.RUNS if c == command]
        if subs != [None]:
            assert help_choices(capsys, [command]) == subs
        for sub in subs:
            args = cli._parse(run_argv(command, sub))
            assert (args.command, args.sub) == (command, sub)


@pytest.mark.parametrize("argv, listed", [
    ([], "classify, polytope, sample, verify, klein, iwasawa, export"),
    (["nosuch"], "classify, polytope, sample, verify, klein, iwasawa, export, not 'nosuch'"),
    (["klein"], "edge-prism, square"),
    (["klein", "nosuch"], "edge-prism, square, not 'nosuch'"),
    (["iwasawa", "--n", "5", "scan-k"], "scan-complex, scan-k, scan-kk, mixed, not '--n'"),
])
def test_an_unknown_command_or_sub_exits_2_listing_the_choices(capsys, argv, listed):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.rstrip().endswith(listed)


@pytest.mark.parametrize("argv, message", [
    (["classify"], "the following arguments are required: --form"),
    (["polytope", "--lambda"], "argument --lambda: expected one argument"),
    (["iwasawa", "mixed", "--which", "L"], "argument --which: invalid choice"),
])
def test_argparse_usage_errors_return_2(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(capsys, monkeypatch):
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now raises BrokenPipeError
    with os.fdopen(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["verify", "prop16"])
        # The report left in the buffer goes to devnull when the file closes.
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""


def _figures(values, spec):
    """A quoted figure: one value, or the range "lo to hi" of several."""
    lo, hi = format(min(values), spec), format(max(values), spec)
    return lo if lo == hi else f"{lo} to {hi}"


def test_readme_quotes_the_verify_singular_figures(monkeypatch):
    # The figures the README's verify singular paragraph quotes, re-derived
    # on seeds 0-3: the face gate at --n 100 and at the default --n, the law
    # gate at the default --n, and the law gate of real U(3) blocks.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = " ".join(fh.read().split())
    suite = cli.RUNS["verify", "singular"].fn
    small = [suite(n=100, seed=seed) for seed in range(4)]
    default = [suite(n=10000, seed=seed) for seed in range(4)]
    assert all(r["pass"] for r in small + default)
    violations = _figures([r["max_violation"] for r in small], ".1e")
    violations_default = _figures([r["max_violation"] for r in default], ".1e")
    assert (f"it reads {violations} at `--n 100` and {violations_default} at the default "
            f"`--n 10000` on seeds 0-3") in text
    law = _figures([r["max_law_deviation"] for r in default], ".2f")
    assert f"it reads {law} at the default `--n` on seeds 0-3" in text
    normals = moment.normals

    def real_normals(seed, n, m, start=0):
        z = normals(seed, n, m, start)
        z[:, 1::2] = 0.0
        return z

    monkeypatch.setattr(moment, "normals", real_normals)
    real = [suite(n=10000, seed=seed) for seed in range(4)]
    assert not any(r["pass"] for r in real)
    law = _figures([r["max_law_deviation"] for r in real], ".1f")
    assert f"read {law} at the default `--n` on seeds 0-3 and fail" in text


def test_readme_quotes_the_scan_complex_figures():
    # The figures the README's scan-complex paragraph quotes, re-derived at
    # the README's --n 100000 on seeds 0-3.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = " ".join(fh.read().split())
    reports = [iwasawa.scan_complex(100000, seed)[1] for seed in range(4)]
    assert all(r["pass"] for r in reports)
    residual = _figures([r["max_identity_residual"] for r in reports], ".1e")
    assert (f"reported as `max_identity_residual` ({residual} at `--n 100000` "
            f"on seeds 0-3)") in text
    family = _figures([r["family_max_nijenhuis"] for r in reports], ".1e")
    assert f"a rounding residue reported as {family}." in text


def test_readme_command_block_parses_to_every_run():
    # Each line parses to the same namespace again later in the process.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        argvs = [shlex.split(line, comments=True)[1:] for line in fh
                 if line.startswith("orbitkit ")]
    first = [dict(vars(cli._parse(argv))) for argv in argvs]
    assert [vars(cli._parse(argv)) for argv in argvs] == first
    documented = [(args["command"], args["sub"]) for args in first]
    assert sorted(documented, key=str) == sorted(cli.RUNS, key=str)


@pytest.fixture()
def fresh_parsers():
    """No run's parser is built yet, and none built here outlives the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_each_runs_parser_is_built_once(monkeypatch, fresh_parsers):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for command, sub in cli.RUNS:
        cli._parse(run_argv(command, sub))
    assert len(built) == len(set(built)) == len(cli.RUNS)
    for command, sub in cli.RUNS:
        cli._parse(run_argv(command, sub))
        assert cli._parser(command, sub) is cli._parser(command, sub)
    assert len(built) == len(cli.RUNS)


def test_a_reused_parser_keeps_no_values_of_an_earlier_call():
    args = cli._parse(["verify", "singular", "--n", "5", "--seed", "3"])
    assert (args.n, args.seed) == (5, 3)
    args = cli._parse(["verify", "singular"])
    assert (args.n, args.seed) == (10000, 0)


def test_a_usage_error_does_not_spoil_the_next_call_of_its_run(capsys):
    assert cli.main(["iwasawa", "scan-k", "--tol", "1"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    args = cli._parse(["iwasawa", "scan-k", "--n", "7"])
    assert (args.command, args.sub, args.n, args.seed, args.out) == (
        "iwasawa", "scan-k", 7, 0, None)


@pytest.mark.parametrize("command, sub", list(cli.RUNS), ids=str)
def test_a_runs_help_is_the_same_on_every_call(capsys, fresh_parsers, command, sub):
    def shown():
        assert cli.main([command, *filter(None, [sub]), "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    first = shown()
    assert shown() == first
    cli._parser.cache_clear()
    assert shown() == first


def test_every_cited_module_name_exists():
    # Each `module.name` that README.md or a src/ file cites, for a module of
    # orbitkit or np/numpy/math, must be an attribute of that module, so a
    # deletion cannot leave a stale citation.
    root = os.path.join(os.path.dirname(__file__), "..")
    package = os.path.join(root, "src", "orbitkit")
    files = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    citable = {"np": np, "numpy": np, "math": math,
               **{f[:-3]: importlib.import_module(f"orbitkit.{f[:-3]}")
                  for f in files if f != "__init__.py"}}
    cited = 0
    for path in [os.path.join(root, "README.md")] + [os.path.join(package, f) for f in files]:
        with open(path) as fh:
            text = fh.read()
        for module, name in set(re.findall(r"`(\w+)\.([A-Za-z_]\w*)", text)):
            if module in citable:
                cited += 1
                assert hasattr(citable[module], name), (path, f"{module}.{name}")
    assert cited >= 30


def test_readme_library_example_does_what_its_comments_say():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Library example", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    orbit_class, triple, complex_part, plane_part = shown
    assert orbit_class is OrbitClass.F1
    assert triple == (1.0, 1.0, 2.0)
    for part, expected in ((complex_part, TwoForm.from_cartan((1, 1, 1))),
                           (plane_part, TwoForm.basis(5, 6))):
        assert np.max(np.abs(part.as_array() - expected.as_array())) <= 1e-12
    P = namespace["P"]
    assert len(P.vertices) == 24 and len(P.facets) == 14


def run_cli_strict(capsys, *argv):
    """run_cli, but the report must be strict JSON: no NaN or Infinity tokens."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    report = json.loads(out, parse_constant=refuse)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_verify_singular_fails_on_nan_rotations(capsys, monkeypatch):
    monkeypatch.setattr(moment, "stabilizer_images",
                        lambda orbits, n, seed, start=0: np.full((len(orbits), n, 3), np.nan))
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "verify", "singular", "--n", "10")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_violation"] is None
    assert report["metrics"]["max_law_deviation"] is None


def test_verify_singular_fails_on_an_uncovered_facet(capsys, monkeypatch):
    # At the generic point all 14 faces are facets; dropping a class leaves one uncovered.
    classes = weyl.singular_classes()
    monkeypatch.setattr(weyl, "singular_classes", lambda: classes[1:])
    code, report = run_cli(capsys, "verify", "singular", "--n", "10")
    metrics = report["metrics"]
    assert code == 1 and not report["pass"]
    assert not metrics["all_facets_covered"] and metrics["polytopes"] == 13
    assert metrics["max_violation"] <= 1e-9 and metrics["max_law_deviation"] <= 1.0


def test_verify_singular_fails_when_two_classes_trade_faces(capsys, monkeypatch):
    # Each facet must be the face of the class with its normal: two classes
    # that trade faces leave the set of faces as it was but fail the check.
    verify = moment.verify_singular

    def swapped(*args):
        rows = verify(*args)
        rows[0]["face_indices"], rows[5]["face_indices"] = (rows[5]["face_indices"],
                                                            rows[0]["face_indices"])
        return rows

    monkeypatch.setattr(moment, "verify_singular", swapped)
    code, report = run_cli(capsys, "verify", "singular", "--n", "10")
    metrics = report["metrics"]
    assert code == 1 and not report["pass"] and not metrics["all_facets_covered"]
    assert metrics["polytopes"] == 14
    assert metrics["max_violation"] <= 1e-9 and metrics["max_law_deviation"] <= 1.0


def test_verify_singular_fails_real_u3_blocks_on_their_law(capsys, monkeypatch):
    # Real Gaussian entries make the U(3) blocks O(3) blocks: the images stay
    # on their faces, but Var theta_j is S / (m (m / 2 + 1)), 1.6 times S /
    # (m (m + 1)), so the (1, 3) and (3, 1) classes fail the law gate.
    normals = moment.normals

    def real_normals(seed, n, m, start=0):
        z = normals(seed, n, m, start)
        z[:, 1::2] = 0.0
        return z

    monkeypatch.setattr(moment, "normals", real_normals)
    code, report = run_cli(capsys, "verify", "singular")
    metrics = report["metrics"]
    assert code == 1 and not report["pass"]
    assert metrics["max_violation"] <= 1e-9 and metrics["all_facets_covered"]
    assert metrics["max_law_deviation"] > 3.0


def test_law_gates_pass_on_every_seed_of_a_sweep():
    # Correct draws never trip the law gates of verify singular (Bernstein on
    # the spread) and iwasawa scan-k (KS of x + y and x - y): seeds 0-49.
    singular = cli.RUNS["verify", "singular"].fn
    scan_k = cli.RUNS["iwasawa", "scan-k"].fn
    for seed in range(50):
        report = singular(n=2000, seed=seed)
        assert report["pass"] and report["max_law_deviation"] <= 1.0, (seed, report)
        _, report = scan_k(n=2000, seed=seed)
        assert report["pass"], (seed, report)
        assert max(report["ks_x_plus_y"], report["ks_x_minus_y"]) <= report["ks_bound"]


def nan_unitary_columns(n, seed, start=0):
    return np.full((n, 4, 3), np.nan, dtype=complex)


def test_verify_ags_fails_on_nan_rotations(capsys, monkeypatch):
    monkeypatch.setattr(moment, "haar_unitary_columns", nan_unitary_columns)
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "verify", "ags", "--n", "50")
    metrics = report["metrics"]
    assert code == 1 and not report["pass"]
    assert metrics["max_violation"] is None and metrics["max_vertex_gap"] is None
    assert all(v is None for v in metrics["per_lambda"].values())


def test_sample_fails_on_nan_rotations(capsys, monkeypatch):
    monkeypatch.setattr(moment, "haar_unitary_columns", nan_unitary_columns)
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "sample", "--lambda", "1,0.5,2", "--n", "50")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_violation"] is None


def test_scan_complex_fails_on_nan_rotations(capsys, monkeypatch):
    monkeypatch.setattr(moment, "twistor_structures",
                        lambda n, seed, start=0: np.full((n, 6, 6), np.nan))
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "iwasawa", "scan-complex", "--n", "50")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_identity_residual"] is None


def test_verify_square_reports_nan_images_as_uncontained(capsys, monkeypatch):
    fibre_draws = moment.fibre_draws

    def poisoned(n, seed, t_lo, sizes):
        u, v, t = fibre_draws(n, seed, t_lo, sizes)
        t = t.copy()
        t[0] = np.nan
        return u, v, t

    monkeypatch.setattr(moment, "fibre_draws", poisoned)
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "verify", "square", "--n", "30")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_orbit_containment_violation"] is None
