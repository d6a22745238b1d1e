"""Golden fixtures: the CLI's artifacts must match pinned files byte for byte.

The files under tests/golden/ pin the promise that identical parameters
reproduce byte-identical CSV, OFF and facet-JSON files.  They were written
with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (Python 3.11).  The
samplers go through libm's log, cos and sin (Box-Muller) and numpy's einsum
sums, and the y and z columns of `klein square` follow the kernel frame of
the form's invariant planes, i.e. LAPACK's real Schur vectors, so another
numpy/scipy/OpenBLAS build may legitimately differ in the last bits.  A change that alters the bytes on purpose (a new stream
scheme, say) re-pins them with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the fixtures whose bytes changed and prints `changed` or
`unchanged` for each; the change says in CHANGES.md which moved and why.
"""

import json
import os
from contextlib import redirect_stdout
from io import StringIO

import pytest

from orbitkit import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: The PPlus form of test_cli.py: e12 + e34 + e56.
PPLUS_COEFFS = [1.0 if k in (0, 9, 14) else 0.0 for k in range(15)]

#: name -> (argv with {csv}/{off}/{json}/{form} placeholders, {output: fixture file}).
CASES = {
    "sample": (
        ["sample", "--lambda", "1,0.5,2", "--n", "50", "--seed", "7", "--out", "{csv}"],
        {"csv": "sample_generic_n50_s7.csv"},
    ),
    "klein-edge-prism": (
        ["klein", "edge-prism", "--n", "40", "--seed", "5", "--out", "{csv}"],
        {"csv": "klein_edge_prism_n40_s5.csv",
         "csv.facets.json": "klein_edge_prism_n40_s5.csv.facets.json"},
    ),
    "klein-square": (
        ["klein", "square", "--n", "40", "--seed", "5", "--out", "{csv}"],
        {"csv": "klein_square_n40_s5.csv",
         "csv.facets.json": "klein_square_n40_s5.csv.facets.json"},
    ),
    "iwasawa-scan-k": (
        ["iwasawa", "scan-k", "--n", "40", "--seed", "3", "--out", "{csv}"],
        {"csv": "iwasawa_scan_k_n40_s3.csv"},
    ),
    "polytope": (
        ["polytope", "--lambda", "1,0.5,2", "--out-off", "{off}", "--out-facets", "{json}"],
        {"off": "polytope_generic.off", "json": "polytope_generic.json"},
    ),
    "export": (
        ["export", "--form", "{form}", "--out-off", "{off}", "--out-facets", "{json}"],
        {"off": "export_pplus.off", "json": "export_pplus.json"},
    ),
}


def run_case(name, workdir):
    """Run one case with its outputs in workdir; return {fixture file: bytes}."""
    argv, outputs = CASES[name]
    form = os.path.join(workdir, "pplus.json")
    with open(form, "w") as fh:
        json.dump({"coeffs": PPLUS_COEFFS}, fh)
    paths = {key: os.path.join(workdir, key) for key in ("csv", "off", "json")}
    argv = [a.format(form=form, **paths) for a in argv]
    with redirect_stdout(StringIO()):
        code = cli.main(argv)
    assert code == 0, name
    out = {}
    for key, fixture in outputs.items():
        with open(os.path.join(workdir, key), "rb") as fh:
            out[fixture] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for fixture, got in run_case(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, fixture), "rb") as fh:
            assert got == fh.read(), fixture


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fixture, data in run_case(case, tmp).items():
                path = os.path.join(GOLDEN, fixture)
                old = None
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        old = fh.read()
                if data != old:
                    with open(path, "wb") as fh:
                        fh.write(data)
                print(fixture, "unchanged" if data == old else "changed")
