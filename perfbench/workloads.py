"""Frozen workload lists and the seeded input generator.

Each workload is a fixed, ordered list of CLI invocations (argv tuples for
``carnot.cli.main``).  The lists are frozen here rather than imported from
the test suite, so that editing a test cannot change what is measured;
``selftest.py`` checks that every entry of the acceptance ``CLI_CORPUS``
appears in exactly one workload.

Paths in argv are relative to the repository root.  Files named in
``SEEDED`` are regenerated from the workload seed on every run; the other
generated files are the same for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

INPUTS = "perfbench/inputs"
DEFAULT_SEED = 0


def _in(name: str) -> str:
    return "%s/%s" % (INPUTS, name)


USER_ALGEBRA = _in("free2step-4.json")
BAD_ROW_LENGTH = _in("bad-row-length.json")
DEFECT_STRING_ROW = _in("defect-string-row.json")
DEFECT_NOT_STRATIFIED = _in("defect-ab-equals-a.json")

# seeded dense-rational subspaces: (file, catalog id, number of rows)
SUBSPACE_FILES = (
    (_in("line-heisenberg_h-6.json"), "heisenberg_h:6", 1),
    (_in("line-heisenberg_o-3.json"), "heisenberg_o:3", 1),
    (_in("line-unipotent-8.json"), "unipotent:8", 1),
    (_in("plane-heisenberg_h-4.json"), "heisenberg_h:4", 2),
    (_in("plane-heisenberg_o-2.json"), "heisenberg_o:2", 2),
    (_in("plane-unipotent-9.json"), "unipotent:9", 2),
)

# seeded random forms: (file, catalog id, degree, number of terms)
FORM_FILES = (
    (_in("form-unipotent-7-d2.json"), "unipotent:7", 2, 16),
    (_in("form-unipotent-8-d3.json"), "unipotent:8", 3, 16),
    (_in("form-unipotent-9-d2.json"), "unipotent:9", 2, 24),
    (_in("form-unipotent-9-d3.json"), "unipotent:9", 3, 24),
    (_in("form-heisenberg_h-4-d2.json"), "heisenberg_h:4", 2, 12),
    (_in("form-heisenberg_o-2-d3.json"), "heisenberg_o:2", 3, 12),
)

SEEDED = frozenset(f for f, *_ in SUBSPACE_FILES + FORM_FILES)

(LINE_H6, LINE_O3, LINE_U8, PLANE_H4, PLANE_O2, PLANE_U9) = (
    f for f, *_ in SUBSPACE_FILES
)
(FORM_U7, FORM_U8, FORM_U9_D2, FORM_U9_D3, FORM_H4, FORM_O2) = (
    f for f, *_ in FORM_FILES
)

# Structure: Jacobi, stratification, the lower central series, the
# regularity-matrix build and many small eliminations block every verdict;
# nothing here reaches `group` or `forms`.  The deep ladder unipotent:6..9
# (up to 8 layers) and the wide 2-step ladders heisenberg_h:2..8 and
# heisenberg_o:1..4 each go through at least one of check, certify and
# predict, in text and --json form.
STRUCTURE = (
    ("catalog",),
    ("catalog", "--json"),
    ("check", "unipotent:6", "--json"),
    ("check", "unipotent:7"),
    ("check", "unipotent:9"),
    ("check", "heisenberg_h:2"),
    ("check", "heisenberg_h:3", "--json"),
    ("check", "heisenberg_h:4", "--json"),
    ("check", "heisenberg_h:5"),
    ("check", "heisenberg_h:6"),
    ("check", "heisenberg_o:1", "--json"),
    ("check", "heisenberg_o:3"),
    ("certify", "unipotent:6"),
    ("certify", "unipotent:7", "--json"),
    ("certify", "unipotent:8"),
    ("certify", "unipotent:9", "--json"),
    ("certify", "heisenberg_h:2", "--subspace", "h1,i1"),
    ("certify", "heisenberg_h:3"),
    ("certify", "heisenberg_h:5", "--json"),
    ("certify", "heisenberg_h:7", "--json"),
    ("certify", "heisenberg_h:8"),
    ("certify", "heisenberg_o:1"),
    ("certify", "heisenberg_o:2", "--json"),
    ("certify", "heisenberg_o:3", "--subspace", "d1,e1"),
    ("certify", "heisenberg_o:4"),
    ("certify", "unipotent:7", "--subspace", "E12,E34,E56", "--json"),
    ("predict", "unipotent:4", "--subspace", "E12,E34"),
    ("predict", "unipotent:6", "--json"),
    ("predict", "unipotent:8"),
    ("predict", "heisenberg_h:2"),
    ("predict", "heisenberg_h:3", "--json"),
    ("predict", "heisenberg_h:4", "--json"),
    ("predict", "heisenberg_h:5"),
    ("predict", "heisenberg_h:7"),
    ("predict", "heisenberg_o:1", "--max-isotropic", "1", "--json"),
    ("predict", "heisenberg_o:2", "--json"),
    ("predict", "heisenberg_o:3"),
    ("predict", "abelian:5", "--json"),
    # seeded dense-rational subspaces
    ("certify", "heisenberg_h:6", "--subspace-file", LINE_H6),
    ("predict", "heisenberg_h:6", "--subspace-file", LINE_H6, "--json"),
    ("certify", "heisenberg_o:3", "--subspace-file", LINE_O3, "--json"),
    ("predict", "heisenberg_o:3", "--subspace-file", LINE_O3),
    ("certify", "unipotent:8", "--subspace-file", LINE_U8),
    ("predict", "unipotent:8", "--subspace-file", LINE_U8, "--json"),
    ("certify", "heisenberg_h:4", "--subspace-file", PLANE_H4),
    ("certify", "heisenberg_o:2", "--subspace-file", PLANE_O2, "--json"),
    ("certify", "unipotent:9", "--subspace-file", PLANE_U9),
    # a user-defined algebra file
    ("check", USER_ALGEBRA),
    ("certify", USER_ALGEBRA, "--subspace", "x1,x2", "--json"),
    ("predict", USER_ALGEBRA, "--subspace", "x1"),
    # malformed or inapplicable input: each must exit 2
    ("check", "nosuch:3"),
    ("check", "unipotent:12"),
    ("certify", "heisenberg_h:2", "--subspace", "h1,zz"),
    ("certify", "heisenberg_h:3", "--subspace-file", BAD_ROW_LENGTH),
    ("predict", "heisenberg_o:2", "--subspace", "d1,e1"),
    ("predict", "heisenberg_h:4", "--subspace-file", PLANE_H4),
    ("predict", USER_ALGEBRA),
)

# Geometry: one large, very sparse nullspace (pittet), the differential and
# Milnor curvature; no lattice and almost no dense bracket.  pittet
# heisenberg_o:3 is the heavy end.
GEOMETRY = (
    ("curvature", "heisenberg_h:2", "--assert-maximal"),
    ("curvature", "heisenberg_c:1", "--subspace", "j1", "--json"),
    ("pittet", "heisenberg_o:1"),
    ("pittet", "heisenberg_c:1", "--json"),
    ("pittet", "heisenberg_o:2", "--json"),
    ("pittet", "heisenberg_o:3"),
    ("pittet", "heisenberg_h:2"),
    ("pittet", "heisenberg_h:4", "--json"),
    ("pittet", "heisenberg_h:6"),
    ("pittet", "heisenberg_c:8", "--json"),
    ("curvature", "heisenberg_o:1", "--assert-maximal"),
    ("curvature", "heisenberg_o:2"),
    ("curvature", "heisenberg_o:3", "--json"),
    ("curvature", "heisenberg_h:4", "--assert-maximal", "--json"),
    ("curvature", "heisenberg_h:6"),
    ("curvature", "heisenberg_c:2", "--subspace", "j1,j2", "--assert-maximal"),
    ("curvature", "heisenberg_c:4", "--subspace", "j1,j2,j3,j4", "--json"),
    ("curvature", "heisenberg_c:8", "--subspace", "j1,k2"),
    ("forms-d", "unipotent:7", FORM_U7),
    ("forms-d", "unipotent:8", FORM_U8, "--json"),
    ("forms-d", "unipotent:9", FORM_U9_D2),
    ("forms-d", "unipotent:9", FORM_U9_D3, "--json"),
    ("forms-d", "heisenberg_h:4", FORM_H4),
    ("forms-d", "heisenberg_o:2", FORM_O2, "--json"),
    # inapplicable input: each must exit 2
    ("pittet", "unipotent:4"),
    ("curvature", "unipotent:4"),
    ("curvature", "heisenberg_c:2"),
)

# Lattice: n^2 membership queries, each re-eliminating a small dense square
# matrix, so linalg runs as many small solves.  The five anchors are
# heisenberg_h:1, heisenberg_h:4, heisenberg_o:1, heisenberg_o:2 and
# heisenberg_c:10; the small rungs and the exit-2 cases add cheap
# invocations so that a run holds enough latency samples for its 90th
# percentile, and the rungs above 20 ms put the median among invocations of
# nearly equal cost (heisenberg_c:3 and heisenberg_h:1).
LATTICE = (
    ("lattice", "heisenberg_h:1"),
    ("lattice", "heisenberg_o:2", "--json"),
    ("lattice", "heisenberg_h:4"),
    ("lattice", "heisenberg_o:1", "--json"),
    ("lattice", "heisenberg_c:10"),
    ("lattice", "heisenberg_h:2", "--json"),
    ("lattice", "heisenberg_h:3"),
    ("lattice", "heisenberg_c:1"),
    ("lattice", "heisenberg_c:2", "--json"),
    ("lattice", "heisenberg_c:3"),
    ("lattice", "heisenberg_c:4", "--json"),
    ("lattice", "heisenberg_c:6"),
    ("lattice", "heisenberg_h:1", "--json"),
    ("lattice", "heisenberg_c:1", "--json"),
    ("lattice", "heisenberg_c:2"),
    ("lattice", "heisenberg_c:3", "--json"),
    ("lattice", "heisenberg_c:4"),
    ("lattice", "heisenberg_c:5", "--json"),
    ("lattice", "abelian:1"),
    ("lattice", "abelian:3", "--json"),
    ("lattice", "abelian:6"),
    ("lattice", "unipotent:4"),
    ("lattice", "unipotent:6", "--json"),
    ("lattice", "heisenberg_c:0"),
    ("lattice", "nosuch:1"),
    ("lattice", "heisenberg_c:5"),
    ("lattice", "heisenberg_h:2"),
    ("lattice", "abelian:1", "--json"),
    ("lattice", "abelian:2"),
    ("lattice", "abelian:4", "--json"),
    ("lattice", "abelian:5"),
    ("lattice", "abelian:8", "--json"),
    ("lattice", "unipotent:3"),
    ("lattice", "unipotent:5", "--json"),
    ("lattice", "heisenberg_h:0"),
    ("lattice", "heisenberg_o:0", "--json"),
    ("lattice", "abelian:0"),
    ("lattice", "abelian:8"),
    ("lattice", "abelian:9"),
    ("lattice", "abelian:9", "--json"),
    ("lattice", "abelian:10"),
    ("lattice", "abelian:10", "--json"),
    ("lattice", "heisenberg_c:6", "--json"),
    ("lattice", "heisenberg_c:7"),
    ("lattice", "heisenberg_h:3", "--json"),
)

WORKLOADS = {"structure": STRUCTURE, "geometry": GEOMETRY, "lattice": LATTICE}

# ROADMAP item-5 defects: each input must be rejected with exit 2 and empty
# stdout.  They run once per run, outside the timed passes, and are
# reported on their own until the validity gate fixes them.
DEFECT_PROBES = (
    ("certify", "heisenberg_c:1", "--subspace-file", DEFECT_STRING_ROW),
    ("predict", DEFECT_NOT_STRATIFIED, "--subspace", "a"),
)


def is_seeded(argv) -> bool:
    return any(arg in SEEDED for arg in argv)


def sources(argv) -> list[str]:
    """Algebra sources (catalog ids or files) an invocation names."""
    if argv[0] == "catalog":
        return []
    return [argv[1]]


# -- input generation --------------------------------------------------------


def _rational(rng: random.Random) -> str:
    numerator = rng.choice([n for n in range(-9, 10) if n])
    return str(Fraction(numerator, rng.randint(1, 7)))


def _shape(key: str) -> tuple[int, list[int]]:
    """Dimension and first-layer positions of a catalog algebra."""
    family, _, param = key.partition(":")
    n = int(param)
    if family == "heisenberg_h":
        return 4 * n + 3, list(range(4 * n))
    if family == "heisenberg_o":
        return 8 * n + 7, list(range(8 * n))
    if family == "unipotent":
        return n * (n - 1) // 2, list(range(n - 1))
    raise ValueError(key)


def _dense_rows(rng: random.Random, key: str, count: int) -> list[list[str]]:
    # row r is zero before first-layer position r and 1 there, so the rows
    # are independent; the other first-layer entries are dense rationals
    dim, first = _shape(key)
    rows = []
    for r in range(count):
        row = ["0"] * dim
        row[first[r]] = "1"
        for i in first[r + 1:]:
            row[i] = _rational(rng)
        rows.append(row)
    return rows


def _form(rng: random.Random, key: str, degree: int, terms: int) -> dict:
    dim, _ = _shape(key)
    monomials = set()
    while len(monomials) < terms:
        monomials.add(tuple(sorted(rng.sample(range(dim), degree))))
    return {
        "degree": degree,
        "terms": [
            {"indices": list(m), "coeff": _rational(rng)} for m in sorted(monomials)
        ],
    }


def _free_two_step(generators: int) -> dict:
    xs = ["x%d" % i for i in range(1, generators + 1)]
    pairs = [(a, b) for a in range(1, generators + 1) for b in range(a + 1, generators + 1)]
    ys = ["y%d%d" % p for p in pairs]
    return {
        "name": "free2step:%d" % generators,
        "basis": xs + ys,
        "layers": [xs, ys],
        "brackets": [
            {
                "left": "x%d" % a,
                "right": "x%d" % b,
                "result": [{"basis": "y%d%d" % (a, b), "coeff": "1"}],
            }
            for a, b in pairs
        ],
    }


def generate(root: Path, seed: int) -> None:
    """Write every input file under ``root``; seeded ones come from ``seed``."""
    rng = random.Random(seed)
    files = {
        USER_ALGEBRA: _free_two_step(4),
        BAD_ROW_LENGTH: {"rows": [["1", "0", "0"]]},
        DEFECT_STRING_ROW: {"rows": ["100"]},
        DEFECT_NOT_STRATIFIED: {
            "name": "ab-equals-a",
            "basis": ["a", "b"],
            "layers": [["a", "b"]],
            "brackets": [
                {"left": "a", "right": "b", "result": [{"basis": "a", "coeff": "1"}]}
            ],
        },
    }
    for path, key, count in SUBSPACE_FILES:
        files[path] = {"rows": _dense_rows(rng, key, count)}
    for path, key, degree, terms in FORM_FILES:
        files[path] = _form(rng, key, degree, terms)
    (root / INPUTS).mkdir(parents=True, exist_ok=True)
    for path, data in files.items():
        (root / path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
