"""Command-line interface: exit codes, report schema, artifact determinism."""

import json
import os

import jsonschema
import pytest

from orbitkit import cli

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


def test_verify_edge_prism_small(capsys):
    code, report = run_cli(capsys, "verify", "edge-prism", "--n", "300")
    assert code == 0


def test_polytope_writes_artifacts(capsys, tmp_path):
    off = tmp_path / "p.off"
    facets = tmp_path / "p.json"
    code, report = run_cli(
        capsys, "polytope", "--lambda", "1,1,2",
        "--out-off", str(off), "--out-facets", str(facets),
    )
    assert code == 0
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


@pytest.mark.parametrize("lam", ["nan,1,2", "inf,1,2", "1,-inf,2", "1/0,1,2"])
@pytest.mark.parametrize("command", ["polytope", "sample"])
def test_non_finite_lambda_exits_2(capsys, command, lam):
    code = cli.main([command, "--lambda", lam])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad lambda" in captured.err


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


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
def test_sample_tol_must_be_finite_and_nonnegative(capsys, tol):
    code = cli.main(["sample", "--lambda", "1,1,1", "--n", "5", "--tol", tol])
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
    code, report = run_cli(capsys, "klein", "square", "--n", "100")
    assert code == 0


def test_export(capsys, form_file, tmp_path):
    facets = tmp_path / "f.json"
    code, report = run_cli(capsys, "export", "--form", form_file,
                           "--out-facets", str(facets))
    assert code == 0
    assert report["metrics"]["class"] == "PPlus"
    assert report["metrics"]["facets"] == 4


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


def test_non_integer_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ORBITKIT_SEED", "abc")
    code = cli.main(["verify", "prop16"])
    captured = capsys.readouterr()
    assert code == 2
    assert "ORBITKIT_SEED" in captured.err


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
