"""The four benchmark workloads: their ops, generated inputs and output checks.

A workload is a cycle of op *kinds*.  Op i has kind i mod (cycle length) and,
where the command takes one, seed `base + i`.  Every op is an argv for
`orbitkit.cli.main`; its draw count comes from the arguments alone, and its
check looks at the report and the files the op wrote, not only at the
report's pass flag.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

#: Chamber representatives cycled by `haar_sample` (the CLI's AGS set).
AGS_LAMBDAS = ("1,1,1", "1,-1,1", "0,0,1", "1,1,2", "1,-1,2", "2,1,2", "1,0.5,2")

#: Orbit types, by the class name `orbitkit classify` reports.
ORBIT_TYPES = (
    "Zero", "PPlus", "PMinus", "Grassmannian", "F3Zero",
    "F1", "F2", "F3Plus", "F3Minus", "Generic",
)

#: Tolerance of the benchmark's own geometric checks.
TOL = 1e-9


@dataclass(frozen=True)
class Kind:
    """One slot of a workload cycle.

    `argv(i, r)` builds the arguments of op i, which is in round r of the
    cycle; `check(argv, report, r)` returns None when the output is right,
    else the reason it is not.
    """

    name: str
    argv: Callable[[int, int], list]
    draws: int                       # samples (or forms + polytopes) per op
    check: Callable[[list, dict, int], str | None] | None = None


@dataclass(frozen=True)
class Op:
    index: int
    round: int
    kind: Kind
    argv: list

    def check(self, report: dict) -> str | None:
        if self.kind.check is None:
            return None
        return self.kind.check(self.argv, report, self.round)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple

    def op(self, i: int) -> Op:
        r, k = divmod(i, len(self.kinds))
        kind = self.kinds[k]
        return Op(i, r, kind, kind.argv(i, r))


# ---------------------------------------------------------------------------
# Reading what an op wrote
# ---------------------------------------------------------------------------

def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def read_csv_rows(path) -> list:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if rows[0] != ["x", "y", "z"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [[float(c) for c in row] for row in rows[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def weyl_orbit_size(lam) -> int:
    """|W . lam| for the order-24 group of signed permutations with an even
    number of sign flips, computed independently of orbitkit."""
    points = set()
    for perm in itertools.permutations(lam):
        for signs in itertools.product((1, -1), repeat=3):
            if signs[0] * signs[1] * signs[2] == 1:
                points.add(tuple(s * c for s, c in zip(signs, perm)))
    return len(points)


# ---------------------------------------------------------------------------
# Checks: (argv, report, round) -> None when the output is right, else a reason
# ---------------------------------------------------------------------------

def check_sample(argv, report, _round):
    lam = tuple(Fraction(c) for c in _arg(argv, "--lambda").split(","))
    n = int(_arg(argv, "--n"))
    m = report["metrics"]
    expected = n + weyl_orbit_size(lam)
    if not m["max_violation"] <= TOL:
        return f"max_violation {m['max_violation']} > {TOL}"
    if m["points"] != expected:
        return f"points {m['points']} != n + |W.lambda| = {expected}"
    rows = read_csv_rows(_arg(argv, "--out"))
    if len(rows) != expected:
        return f"csv has {len(rows)} rows, expected {expected}"
    return None


def check_edge_prism_identity(argv, report, _round):
    residual = report["metrics"]["max_identity_residual"]
    return None if residual <= 1e-12 else f"max_identity_residual {residual} > 1e-12"


def check_klein_edge_prism(argv, report, _round):
    out = _arg(argv, "--out")
    rows = np.array(read_csv_rows(out))
    region = _read_json(out + ".facets.json")
    for facets, two_sided in ((region["facets"], False), (region["equalities"], True)):
        for facet in facets:
            normal = np.array(facet["normal"], dtype=float)
            slack = (rows @ normal - float(facet["offset"])) / np.linalg.norm(normal)
            worst = float(np.max(np.abs(slack) if two_sided else slack))
            if worst > TOL:
                return f"a row lies {worst} outside region facet {facet}"
    return None


def check_klein_square(argv, report, _round):
    n = int(_arg(argv, "--n"))
    rows = read_csv_rows(_arg(argv, "--out"))
    if len(rows) != n:
        return f"csv has {len(rows)} rows, expected n = {n}"
    if not all(math.isfinite(c) for row in rows for c in row):
        return "csv has a non-finite value"
    return None


def check_mixed(argv, report, _round):
    n = int(_arg(argv, "--n"))
    m = report["metrics"]
    if m["produced"] + m["skipped"] != n:
        return f"produced {m['produced']} + skipped {m['skipped']} != n = {n}"
    if m["produced"] < 1:
        return "produced nothing"
    return None


def check_generic_polytope(argv, report):
    m = report["metrics"]
    facets = _read_json(_arg(argv, "--out-facets"))
    counts = (m["vertices"], m["facets"], len(facets["vertices"]), len(facets["facets"]))
    if counts != (24, 14, 24, 14):
        return f"generic polytope: vertices/facets {counts}, expected 24 and 14"
    return None


def check_class(report, expected):
    got = report["metrics"]["class"]
    return None if got == expected else f"class {got}, generator built {expected}"


# ---------------------------------------------------------------------------
# Generated inputs for exact_query
# ---------------------------------------------------------------------------

def chamber_point(orbit_type: str, rng: np.random.Generator) -> tuple:
    """A chamber point z >= x >= |y| of the given orbit type with coordinates
    in quarters, so every value is exact in binary."""
    def q(lo, hi):
        return Fraction(int(rng.integers(lo, hi + 1)), 4)

    a = q(2, 8)
    c = a + q(1, 4)
    b = Fraction(int(rng.integers(1, 4 * a)), 4)          # 0 < b < a
    y = Fraction(int(rng.integers(1 - 4 * a, 4 * a)), 4)  # |y| < a
    return {
        "Zero": (0, 0, 0),
        "PPlus": (a, a, a),
        "PMinus": (a, -a, a),
        "Grassmannian": (0, 0, c),
        "F3Zero": (a, 0, a),
        "F1": (a, a, c),
        "F2": (a, -a, c),
        "F3Plus": (a, b, a),
        "F3Minus": (a, -b, a),
        "Generic": (a, y, c),
    }[orbit_type]


def lambda_text(lam) -> str:
    return ",".join(repr(float(c)) for c in lam)


def rotated_form(lam, rng: np.random.Generator) -> list:
    """Coefficients (pairs (1,2), (1,3), ..., (5,6)) of R . (x e12 + y e34 +
    z e56) for a Haar rotation R drawn from rng."""
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    F = np.zeros((6, 6))
    for k, value in enumerate(lam):
        F[2 * k + 1, 2 * k] = float(value)
        F[2 * k, 2 * k + 1] = -float(value)
    G = q @ F @ q.T
    return [float(G[j, i]) for i in range(6) for j in range(i + 1, 6)]


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _seeded(seed, *argv):
    return lambda i, _round: [*argv, "--seed", str(seed + i)]


def haar_sample(seed: int, work: Path) -> Workload:
    n = 5000

    def kind(k, lam):
        out = str(work / f"sample{k}.csv")
        return Kind(f"sample {lam}",
                    _seeded(seed, "sample", "--lambda", lam, "--n", str(n), "--out", out),
                    n, check_sample)

    return Workload("haar_sample", tuple(kind(k, lam) for k, lam in enumerate(AGS_LAMBDAS)))


def loop_verify(seed: int, work: Path) -> Workload:
    prism, square = str(work / "prism.csv"), str(work / "square.csv")
    return Workload("loop_verify", (
        # One run per distinct class: 14 stabilizer classes of n samples each.
        Kind("verify singular", _seeded(seed, "verify", "singular", "--n", "100"), 14 * 100),
        Kind("verify edge-prism", _seeded(seed, "verify", "edge-prism", "--n", "300"), 300,
             check_edge_prism_identity),
        Kind("verify square", _seeded(seed, "verify", "square", "--n", "30"), 30),
        Kind("klein edge-prism",
             _seeded(seed, "klein", "edge-prism", "--n", "300", "--out", prism), 300,
             check_klein_edge_prism),
        Kind("klein square", _seeded(seed, "klein", "square", "--n", "100", "--out", square),
             100, check_klein_square),
    ))


def iwasawa_scan(seed: int, work: Path) -> Workload:
    scan = str(work / "complex.csv")
    return Workload("iwasawa_scan", (
        Kind("iwasawa scan-complex",
             _seeded(seed, "iwasawa", "scan-complex", "--n", "2000", "--out", scan), 2000),
        # scan-k and scan-kk also draw min(n, 200) and min(n, 500) control planes.
        Kind("iwasawa scan-k", _seeded(seed, "iwasawa", "scan-k", "--n", "300"), 300 + 200),
        Kind("iwasawa scan-kk", _seeded(seed, "iwasawa", "scan-kk", "--n", "150"), 150 + 150),
        Kind("iwasawa mixed K", _seeded(seed, "iwasawa", "mixed", "--which", "K", "--n", "300"),
             300, check_mixed),
        Kind("iwasawa mixed K_intersection",
             _seeded(seed, "iwasawa", "mixed", "--which", "K_intersection", "--n", "300"),
             300, check_mixed),
    ))


def exact_query(seed: int, work: Path) -> Workload:
    """Exact hulls, classification and export: no Monte-Carlo stream at all.

    Set-up draws two chamber points per orbit type and one rotated form per
    point, and writes the forms as JSON files.  In round r of the cycle the
    polytope, classify and export ops take pool entry r (mod the pool size),
    so the first ten rounds cover all ten orbit types.
    """
    rng = np.random.default_rng(seed)
    pool = [(t, chamber_point(t, rng)) for _ in range(2) for t in ORBIT_TYPES]
    forms = []
    for j, (orbit_type, lam) in enumerate(pool):
        path = work / f"form{j}.json"
        path.write_text(json.dumps({"coeffs": rotated_form(lam, rng)}))
        forms.append(str(path))

    def entry(r):
        return r % len(pool)

    def polytope_argv(i, r):
        return ["polytope", "--lambda", lambda_text(pool[entry(r)][1]),
                "--out-off", str(work / "polytope.off"),
                "--out-facets", str(work / "polytope.json")]

    def check_polytope(argv, report, r):
        return check_generic_polytope(argv, report) if pool[entry(r)][0] == "Generic" else None

    def check_pool_class(argv, report, r):
        return check_class(report, pool[entry(r)][0])

    def export_argv(i, r):
        return ["export", "--form", forms[entry(r)],
                "--out-off", str(work / "export.off"),
                "--out-facets", str(work / "export.json")]

    return Workload("exact_query", (
        Kind("polytope", polytope_argv, 1, check_polytope),
        Kind("classify", lambda i, r: ["classify", "--form", forms[entry(r)]], 1,
             check_pool_class),
        Kind("export", export_argv, 2, check_pool_class),   # one form, one polytope
        Kind("verify prop16", lambda i, r: ["verify", "prop16"], 2),
        Kind("verify octahedron", lambda i, r: ["verify", "octahedron"], 1),
        # Three moment polytopes and their intersection.
        Kind("verify intersection", lambda i, r: ["verify", "intersection"], 4),
        Kind("verify f3-segments", lambda i, r: ["verify", "f3-segments"], 12),
        # Neither a form classified nor a polytope built.
        Kind("verify spin-cover", lambda i, r: ["verify", "spin-cover", "--n", "100"], 0),
    ))


WORKLOADS = {
    "haar_sample": haar_sample,
    "loop_verify": loop_verify,
    "iwasawa_scan": iwasawa_scan,
    "exact_query": exact_query,
}
