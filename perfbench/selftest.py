"""Benchmark self-test.

Checks, without running any workload:
- every entry of the acceptance ``CLI_CORPUS`` (read from
  tests/test_acceptance.py, not imported) appears in exactly one workload;
- every workload invocation has a golden, and no golden is stale;
- BENCHMARK.json names exactly the metrics run.py reports;
- at BENCHMARK.json's run_seconds, the latency percentiles of each workload
  fall inside one invocation's group of samples.

Usage, from the repository root: python3 perfbench/selftest.py
Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

import workloads as wl  # noqa: E402


def read_corpus(path: Path = ACCEPTANCE) -> list[tuple[str, ...]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CLI_CORPUS" for t in node.targets
        ):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise ValueError("no CLI_CORPUS in %s" % path)


def corpus_problems() -> list[str]:
    try:
        corpus = read_corpus()
    except (OSError, ValueError, SyntaxError) as exc:
        return ["cannot read CLI_CORPUS: %s" % exc]
    problems = []
    for entry in corpus:
        homes = [
            name
            for name, invocations in sorted(wl.WORKLOADS.items())
            for argv in invocations
            if argv == entry
        ]
        if len(homes) != 1:
            problems.append(
                "corpus entry %s appears %d times (%s)"
                % (" ".join(entry), len(homes), ", ".join(homes) or "nowhere")
            )
    return problems


def golden_problems() -> list[str]:
    problems = []
    for name, invocations in sorted(wl.WORKLOADS.items()):
        path = HERE / "goldens" / ("%s.json" % name)
        if not path.is_file():
            problems.append("missing %s" % path.relative_to(ROOT))
            continue
        frozen = [tuple(e["argv"]) for e in json.loads(path.read_text(encoding="utf-8"))]
        if frozen != list(invocations):
            problems.append("%s does not match the %s list" % (path.name, name))
    return problems


def metric_problems() -> list[str]:
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(reported):
            problems.append("BENCHMARK.json %s differs from run.py" % key)
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def percentile_problems() -> list[str]:
    """Percentile ranks must interpolate between two samples of one
    invocation, and the 90th must leave enough samples beyond it."""
    import math

    import run

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "run_seconds"
    ]
    problems = []
    for name, invocations in sorted(wl.WORKLOADS.items()):
        per_pass = len(invocations)
        passes = run.pass_count(name, seconds, per_pass)
        samples = passes * per_pass
        # sorted samples of one invocation occupy ranks k*passes+1 .. (k+1)*passes
        for q in (0.5, 0.9):
            rank = math.floor(q * (samples + 1))
            if rank % passes == 0:
                problems.append(
                    "%s: the %d%% percentile falls between two invocations "
                    "(%d passes of %d)" % (name, q * 100, passes, per_pass)
                )
        beyond = samples - math.floor(0.9 * (samples + 1))
        if beyond < run.TAIL_SAMPLES:
            problems.append("%s: only %d samples beyond the 90%% percentile"
                            % (name, beyond))
    return problems


def main() -> int:
    problems = (corpus_problems() + golden_problems() + metric_problems()
                + percentile_problems())
    for problem in problems:
        print("FAIL %s" % problem)
    if not problems:
        print("ok: corpus coverage, goldens, metric names and percentile ranks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
