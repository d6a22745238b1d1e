"""Command-line interface: exit codes, report schema, artifact determinism."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from orbitkit import cli, klein, moment, polytopes, spin, weyl
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
                        lambda theta: thetas.append(theta) or check(theta))
    code, report = run_cli(capsys, "verify", "spin-cover", "--n", "1")
    assert code == 0 and report["pass"]
    assert report["parameters"] == {"n": 1} and report["metrics"]["thetas"] == 1
    # One sampled angle, then the check at 2 pi.
    assert thetas == [0.0, 2 * math.pi]


def test_verify_edge_prism_small(capsys):
    code, report = run_cli(capsys, "verify", "edge-prism", "--n", "300")
    assert code == 0


def test_verify_singular_builds_each_face_once(capsys, monkeypatch):
    # One hull for the moment polytope and one per singular class; each
    # class's vertex set is made once for the facet check and once by
    # verify_singular.
    calls = {"hull": 0, "vertex_set": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(polytopes, "_hull_exact", counted("hull", polytopes._hull_exact))
    monkeypatch.setattr(weyl, "singular_vertex_set",
                        counted("vertex_set", weyl.singular_vertex_set))
    code, report = run_cli(capsys, "verify", "singular", "--n", "10")
    assert code == 0
    assert report["metrics"]["distinct_classes"] == 14
    assert report["metrics"]["polytopes"] == 14
    assert report["metrics"]["all_facets_covered"]
    assert calls == {"hull": 15, "vertex_set": 28}


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


def test_seed_env_var_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITKIT_SEED", "123")
    out1 = tmp_path / "a.csv"
    code, _ = run_cli(capsys, "sample", "--lambda", "1,1,1", "--n", "50",
                      "--out", str(out1))
    assert code == 0
    out2 = tmp_path / "b.csv"
    monkeypatch.delenv("ORBITKIT_SEED")
    code, _ = run_cli(capsys, "sample", "--lambda", "1,1,1", "--n", "50",
                      "--seed", "123", "--out", str(out2))
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
    *(pytest.param(["sample", "--lambda", "1,1,1", "--n", "5"], tol, id=tol)
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
        code, report = run_cli(capsys, "iwasawa", sub, "--n", "5", "--seed", "2",
                               "--tol", "1e-300")
        assert code == 0
        assert report["parameters"] == {"n": 5, "seed": 2}
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


def test_klein_square_fails_on_a_row_outside_its_region(capsys, monkeypatch):
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "5")
    assert code == 0 and report["metrics"]["all_in_region"]
    # t = 3 lies beyond the fibre's range (0, 1]: the image (4, 3, 3) is still
    # a moment image of its own orbit, but it is outside the exported region.
    u, v, t = klein.fibre_draws(20, 5, klein.SQUARE_T_LO)
    u[0], v[0], t[0] = (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 3.0
    monkeypatch.setattr(klein, "fibre_draws", lambda n, seed, t_lo: (u, v, t))
    code, report = run_cli(capsys, "klein", "square", "--n", "20", "--seed", "5")
    metrics = report["metrics"]
    assert code != 0 and not report["pass"] and not metrics["all_in_region"]
    assert metrics["max_orbit_containment_violation"] <= 1e-9
    assert metrics["max_z_identity_residual"] <= 1e-9


def test_verify_ags_passes_on_containment_and_vertex_reach(capsys):
    code, report = run_cli(capsys, "verify", "ags", "--n", "2000", "--seed", "7")
    metrics, tol = report["metrics"], report["parameters"]["tol"]
    assert code == 0 and report["pass"]
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


def test_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ORBITKIT_SEED", "abc")
    code = cli.main(["verify", "prop16"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ORBITKIT_SEED" in captured.err


def test_single_run_commands_echo_their_parameters(capsys, form_file):
    cases = [
        (["classify", "--form", form_file, "--tol", "1e-7"], {"form": form_file, "tol": 1e-7}),
        (["export", "--form", form_file], {"form": form_file, "tol": 1e-8}),
        (["polytope", "--lambda", "1,1/2,2"], {"lambda": [1.0, 0.5, 2.0]}),
        (["sample", "--lambda", "1,0.5,2", "--n", "5", "--seed", "3", "--tol", "1e-6"],
         {"lambda": [1.0, 0.5, 2.0], "n": 5, "seed": 3, "tol": 1e-6}),
    ]
    for argv, parameters in cases:
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["command"] == argv[0]
        assert report["parameters"] == parameters


def test_verify_echoes_only_used_parameters(capsys):
    code, report = run_cli(capsys, "verify", "prop16", "--n", "5")
    assert code == 0
    assert report["parameters"] == {}
    code, report = run_cli(capsys, "verify", "edge-prism", "--n", "20",
                           "--seed", "4", "--tol", "1e-30")
    assert code == 0
    assert report["parameters"] == {"n": 20, "seed": 4}
    code, report = run_cli(capsys, "verify", "spin-cover", "--n", "10",
                           "--seed", "4")
    assert report["parameters"] == {"n": 10}


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
    assert report["metrics"]["max_z_identity_residual"] <= 1e-9


def test_klein_reports_carry_the_fibre_suite(capsys):
    for sub in ("edge-prism", "square"):
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


def test_every_run_choice_has_one_registry_entry():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {c for c, _ in cli.RUNS}
    for command, sub in commands.items():
        assert sub.get_default("func") is cli.cmd_run, command
        positional = next((a for a in sub._actions if a.dest == "sub"), None)
        subs = [s for c, s in cli.RUNS if c == command]
        if positional is None:
            assert subs == [None], command
        elif command == "verify":
            assert positional.help.split(", ") == subs
        else:
            assert list(positional.choices) == subs
        dests = {a.dest for a in sub._actions}
        for s in subs:
            assert set(cli.RUNS[command, s].used) <= dests, (command, s)


def test_readme_command_block_parses_to_every_run():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        lines = [line for line in fh if line.startswith("orbitkit ")]
    parser = cli.build_parser()
    documented = []
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        key = (args.command, getattr(args, "sub", None))
        assert key in cli.RUNS, line
        documented.append(key)
    assert sorted(documented, key=str) == sorted(cli.RUNS, key=str)


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
    monkeypatch.setattr(moment, "exp_skew", lambda X: np.full(np.shape(X), np.nan))
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "verify", "singular", "--n", "10")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_violation"] is None


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
    fibre_draws = klein.fibre_draws

    def poisoned(n, seed, t_lo):
        u, v, t = fibre_draws(n, seed, t_lo)
        t = t.copy()
        t[0] = np.nan
        return u, v, t

    monkeypatch.setattr(klein, "fibre_draws", poisoned)
    with np.errstate(invalid="ignore"):
        code, report = run_cli_strict(capsys, "verify", "square", "--n", "30")
    assert code == 1 and not report["pass"]
    assert report["metrics"]["max_orbit_containment_violation"] is None
