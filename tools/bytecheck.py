"""Byte check: the CLI of this tree against the CLI of a git revision.

Runs every invocation below once under each tree, one child process at a
time, and compares exit code, stdout and stderr byte for byte.  The
invocations are read, not copied:
- every invocation of ``perfbench/workloads.py``'s ``WORKLOADS``, with the
  inputs that its ``generate`` writes for the default seed, and its
  ``DEFECT_PROBES``;
- the acceptance ``CLI_CORPUS``, read through ``ast`` by
  ``perfbench/selftest.py``'s ``read_corpus``;
- ``--help`` of the program and of each subcommand the workloads name, and
  the usage errors of no arguments, an unknown subcommand, a missing source
  and an option value that is not an integer;
- the free 2-step algebras N(n, 2) for n = 4, 12 and 31 under every
  subcommand but ``catalog`` and ``forms-d``, text and ``--json``, leaving
  out ``pittet --json`` at n = 31 (about 1.6 GB of output), and the same
  list on N(4, 2) with distinct non-unit rational constants, so that the
  common denominator D is not 1;
- ``check`` on the catalog ids at and just over the dimension budget.

Each child runs ``python -I -S`` on one tree's ``src`` with the inputs'
directory as its working directory, so both trees print the same paths, and
sets its own CPU-time and address-space limits with ``resource.setrlimit``
before it starts; nothing else is limited.  Stdlib only, outside the test
suite.

Usage, from anywhere in the repository:

    python3 tools/bytecheck.py [--against REV] [--python EXE ...]

``--against`` names the revision to export with ``git archive`` (default
HEAD); ``--python`` may be repeated (default: the interpreter running this
script).  Prints one line per difference and a summary, and exits 1 if there
is any difference.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import selftest  # noqa: E402
import workloads as wl  # noqa: E402

CPU_SECONDS = 120
ADDRESS_SPACE_BYTES = 3 << 30
FREE_RANKS = (4, 12, 31)
RATIONAL = "rational2step-4.json"
# the largest id of each family within MAX_DIMENSION = 512, and the next one
BUDGET_IDS = (
    "heisenberg_h:127", "heisenberg_h:128", "heisenberg_c:255", "heisenberg_c:256",
    "heisenberg_o:63", "heisenberg_o:64", "abelian:512", "abelian:513",
)
# the child reads the tree's src from argv[1], then runs the CLI on the rest
RUNNER = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "import carnot.cli; sys.exit(carnot.cli.main())"
)


def _free_invocations(name: str, pittet_json: bool = True) -> list[tuple[str, ...]]:
    path = "%s/%s" % (wl.INPUTS, name)
    on_x1 = ("--subspace", "x1")
    text = [
        ("check", path),
        ("certify", path, *on_x1),
        ("predict", path, *on_x1),
        ("curvature", path, *on_x1),
        ("curvature", path, *on_x1, "--assert-maximal"),
        ("pittet", path),
        ("lattice", path),
    ]
    return text + [(*a, "--json") for a in text if pittet_json or a[0] != "pittet"]


def invocations() -> list[tuple[str, ...]]:
    """Every invocation, in a fixed order, each once."""
    workload = [a for name in sorted(wl.WORKLOADS) for a in wl.WORKLOADS[name]]
    commands = sorted({a[0] for a in workload})
    usage = [
        ("--help",),
        *((c, "--help") for c in commands),
        (),
        ("nosuch",),
        ("check",),
        ("predict", "heisenberg_h:1", "--max-isotropic", "one"),
    ]
    listed = [
        *workload,
        *wl.DEFECT_PROBES,
        *selftest.read_corpus(),
        *usage,
        *(
            a
            for n in FREE_RANKS
            for a in _free_invocations("free2step-%d.json" % n, pittet_json=n != 31)
        ),
        *_free_invocations(RATIONAL),
        *(("check", key) for key in BUDGET_IDS),
    ]
    return list(dict.fromkeys(tuple(a) for a in listed))


def write_inputs(root: Path) -> None:
    wl.generate(root, wl.DEFAULT_SEED)
    for n in FREE_RANKS:
        path = root / wl.INPUTS / ("free2step-%d.json" % n)
        path.write_text(
            json.dumps(wl._free_two_step(n), indent=1) + "\n", encoding="utf-8"
        )
    # [x_a, x_b] = c_p y_ab for the p-th pair, c_p = +-(p + 2) / (2 p + 3)
    rational = wl._free_two_step(4)
    rational["name"] = "rational2step:4"
    for p, item in enumerate(rational["brackets"]):
        item["result"][0]["coeff"] = "%d/%d" % ((-1) ** p * (p + 2), 2 * p + 3)
    (root / wl.INPUTS / RATIONAL).write_text(
        json.dumps(rational, indent=1) + "\n", encoding="utf-8"
    )


def export(rev: str, into: Path) -> Path:
    """``src`` of ``rev``, extracted under ``into`` by ``git archive``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run(python: str, src: Path, argv: tuple[str, ...], cwd: Path):
    done = subprocess.run(
        [python, "-I", "-S", "-c", RUNNER, str(src), *argv],
        cwd=cwd,
        capture_output=True,
        preexec_fn=_limit,
    )
    return done.returncode, done.stdout, done.stderr


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a[:at].count(b"\n") + 1
    return "differs from line %d (%d vs %d bytes)" % (line, len(a), len(b))


def compare(python: str, theirs: Path, ours: Path, argv, cwd: Path):
    """This tree's exit code and one line per difference from ``theirs``."""
    before, after = run(python, theirs, argv, cwd), run(python, ours, argv, cwd)
    where = "%s: carnot %s:" % (python, " ".join(argv))
    out = []
    for side, result in (("against", before), ("this tree", after)):
        if result[0] < 0:
            out.append("%s %s killed by signal %d" % (where, side, -result[0]))
    if before[0] != after[0]:
        out.append("%s exit %d != %d" % (where, before[0], after[0]))
    for name, a, b in (("stdout", before[1], after[1]), ("stderr", before[2], after[2])):
        if a != b:
            out.append("%s %s %s" % (where, name, _first_difference(a, b)))
    return after[0], out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument(
        "--python", action="append", help="interpreter to run; may be repeated"
    )
    args = parser.parse_args(argv)
    pythons = args.python or [sys.executable]
    listed = invocations()
    differences, exits = 0, Counter()
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        theirs = export(args.against, tmp / "against")
        cwd = tmp / "run"
        write_inputs(cwd)
        for python in pythons:
            for a in listed:
                code, lines = compare(python, theirs, ROOT / "src", a, cwd)
                exits[code] += 1
                for line in lines:
                    print(line, flush=True)
                    differences += 1
    print(
        "%d invocations x %d interpreters against %s: %d differences (exit codes %s)"
        % (len(listed), len(pythons), args.against, differences,
           ", ".join("%d: %d" % item for item in sorted(exits.items())))
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
