"""Golden fixtures: the CLI's artifacts must match pinned files byte for byte.

The files under tests/golden/ pin the promise that identical parameters
reproduce byte-identical CSV, OFF and facet-JSON files.  They were written
with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (Python 3.11).  The
samplers go through libm's log, cos and sin (Box-Muller) and numpy's einsum
sums, so another numpy/scipy/OpenBLAS build may legitimately differ in the
last bits.
`exact_layer.json` pins the exact polytope layer with no CLI and no floats
in between: the facet JSON of moment polytopes, singular-value faces, set
operations, the klein regions and seeded random hulls.  A change that alters
the bytes on purpose (a new stream scheme, say) re-pins them with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the fixtures whose bytes changed and prints `changed` or
`unchanged` for each; the change says in CHANGES.md which moved and why.
"""

import json
import os
import random
from contextlib import redirect_stdout
from io import StringIO

import pytest

from fractions import Fraction

from orbitkit import cli, klein, moment, polytopes

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


#: One exact chamber point per orbit type.
ORBIT_TYPE_LAMBDAS = {
    "Zero": (0, 0, 0),
    "Generic": (1, Fraction(1, 2), 2),
    "PPlus": (1, 1, 1),
    "PMinus": (1, -1, 1),
    "Grassmannian": (0, 0, 1),
    "F1": (1, 1, 2),
    "F2": (1, -1, 2),
    "F3Plus": (2, 1, 2),
    "F3Zero": (1, 0, 1),
    "F3Minus": (2, -1, 2),
}

#: Three planes (normal, offset) through the octahedron and the (1, 1, 2)
#: polytope, used as clip halfspaces and as section planes.
CUTS = (((1, 0, 0), Fraction(1, 2)), ((1, 1, 1), Fraction(1, 3)), ((1, -2, 3), 0))

EXACT_LAYER = "exact_layer.json"


def random_points(rng, dim):
    """dim + 1 to 12 exact points p0 + sum c_k d_k over dim random
    directions d_k, so their hull has dimension at most dim."""
    def vec():
        return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))

    p0, dirs = vec(), [vec() for _ in range(dim)]
    pts = []
    for _ in range(rng.randint(dim + 1, 12)):
        cs = [rng.randint(-3, 3) for _ in dirs]
        pts.append(tuple(p0[i] + sum(c * d[i] for c, d in zip(cs, dirs)) for i in range(3)))
    return pts


def exact_layer_polytopes() -> dict:
    """name -> polytope, in the order pinned in golden/exact_layer.json."""
    out = {}
    for name, lam in ORBIT_TYPE_LAMBDAS.items():
        out[f"moment {name}"] = moment.moment_polytope(lam)
    for lam in ((1, Fraction(1, 2), 2), (1, 1, 1)):
        for k, P in enumerate(moment.singular_value_polytopes(lam)):
            out[f"singular {','.join(map(str, lam))} {k}"] = P
    plus, minus = moment.moment_polytope((1, 1, 1)), moment.moment_polytope((1, -1, 1))
    out["intersect PPlus PMinus"] = polytopes.intersect(plus, minus)
    for name in ("Grassmannian", "F1"):
        P = out[f"moment {name}"]
        for normal, offset in CUTS:
            cut = f"{','.join(map(str, normal))} {offset}"
            out[f"clip {name} {cut}"] = polytopes.clip(P, normal, offset)
            out[f"section {name} {cut}"] = polytopes.section(P, normal, offset)
    out["klein prism_region"] = klein.prism_region()
    out["klein square_region"] = klein.square_region()
    rng = random.Random(9)
    for k in range(50):
        out[f"random {k}"] = polytopes.hull(random_points(rng, k % 4))
    return out


def exact_layer_json() -> bytes:
    data = {name: polytopes.polytope_to_json(P) for name, P in exact_layer_polytopes().items()}
    return (json.dumps(data, indent=1) + "\n").encode()


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


def test_exact_layer_golden():
    with open(os.path.join(GOLDEN, EXACT_LAYER), "rb") as fh:
        assert exact_layer_json() == fh.read()


def _repin(fixture, data):
    path = os.path.join(GOLDEN, fixture)
    old = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            old = fh.read()
    if data != old:
        with open(path, "wb") as fh:
            fh.write(data)
    print(fixture, "unchanged" if data == old else "changed")


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fixture, data in run_case(case, tmp).items():
                _repin(fixture, data)
    _repin(EXACT_LAYER, exact_layer_json())
