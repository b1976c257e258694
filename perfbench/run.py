"""carnot benchmark: time-to-verdict over frozen CLI workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload structure --seed 0 --seconds 20 --trace 0

``--workload`` is ``structure``, ``geometry``, ``lattice`` or ``all``.

Each workload (see ``workloads.py``) is a fixed, ordered list of CLI
invocations, run as a closed loop with one client: sequential in-process
calls to ``carnot.cli.main`` with stdout and stderr captured, one process,
no threads.  A run makes a fixed number of passes over the list, sized so
that the passes take about ``--seconds`` at the pass time recorded in
``NOMINAL_PASS_S``; both sides of a comparison therefore do the same work.

With ``--trace 0`` the run reports the end-to-end metrics of
``END_TO_END``.  Their times are in seconds at the reference machine speed
of ``speed.py``: the host's speed is sampled during the passes, and each time
is divided by the slowdown measured over it.  The raw times are printed under
``facts``.  With ``--trace 1`` the run alternates untraced and traced passes,
reports the per-layer metrics of ``PER_LAYER`` (summed per pass, median over
traced passes, raw seconds) and writes every span to ``perfbench/out``.

Every invocation is checked: an exception escaping ``cli.main``, stdout
that differs between passes of one run, or an exit code and stdout that
differ from the goldens in ``perfbench/goldens`` (frozen by
``freeze_goldens.py`` for the default seed) count as failures.  Seeded
inputs are checked against goldens only for the default seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens"

import speed  # noqa: E402  (this directory is on sys.path)
import workloads as wl  # noqa: E402

# About one pass at the commit the goldens were frozen at, in seconds; sets
# the number of passes a run makes (see the module docstring).  Each sample
# of a workload's latency is one invocation, so the pooled samples come in
# groups, one per invocation; list lengths and pass counts are chosen so
# that the 50th and 90th percentiles fall inside a group rather than between
# two invocations of different cost (selftest.py checks this).
NOMINAL_PASS_S = {"structure": 7.0, "geometry": 4.0, "lattice": 6.5}
MIN_PASSES = 2
TAIL_SAMPLES = 10  # samples that must lie beyond the reported percentile
SETUP_REPEATS = 21

END_TO_END = (
    ("pass_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("group.membership.calls", "count"),
    ("group.membership.self_s", "s"),
    ("group.membership.hit_ratio", "ratio"),
    ("group.check_group_closure.s", "s"),
    ("group.build_scalable_lattice.s", "s"),
    ("algebra.jacobi_check.s", "s"),
    ("algebra.stratification_check.s", "s"),
    ("algebra.lower_central_series.s", "s"),
    ("algebra.bracket.calls", "count"),
    ("algebra.bracket.self_s", "s"),
    ("algebra.bracket_basis.calls", "count"),
    ("algebra.subspace.calls", "count"),
    ("horizontal.regularity_matrix.s", "s"),
    ("horizontal.regularity_matrix.cells", "count"),
    ("horizontal.is_regular.s", "s"),
    ("horizontal.is_isotropic.s", "s"),
    ("predictor.bundle.s", "s"),
    ("predictor.coverage_table.s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.max_bits", "bits"),
    ("linalg.solve.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.nullspace.cells", "count"),
    ("forms.differential.calls", "count"),
    ("forms.differential.self_s", "s"),
    ("forms.pittet_kernel.s", "s"),
    ("curvature.sectional_curvature.calls", "count"),
    ("curvature.sectional_curvature.self_s", "s"),
    ("curvature.trichotomy_report.s", "s"),
    ("catalog.build.s", "s"),
    ("catalog.load_algebra.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, or no goldens)."""


def import_cli():
    """Import carnot.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "carnot" / "__init__.py").is_file():
        raise SetupError("no carnot sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import carnot.cli

    where = Path(carnot.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError("carnot was imported from %s, not %s" % (where, SRC))
    return carnot.cli


def invoke(main, argv) -> tuple[int | None, str, str | None]:
    """One CLI call: (exit code, stdout, escaped exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), None
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), None


def load_goldens(workload: str) -> dict[tuple, dict]:
    path = GOLDENS / ("%s.json" % workload)
    if not path.is_file():
        raise SetupError("missing goldens %s" % path)
    entries = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(e["argv"]): e for e in entries}


def golden_mismatch(argv, code, stdout, golden) -> str | None:
    """Why an output differs from its golden, or None when it matches.

    Text output must match byte for byte.  A --json document must hold every
    golden top-level key with an equal value; added keys are allowed.
    """
    if code != golden["exit"]:
        return "exit %r, golden %r" % (code, golden["exit"])
    if "--json" in argv and golden["stdout"]:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        want = json.loads(golden["stdout"])
        if not isinstance(doc, dict):
            return "stdout is not a JSON object"
        missing = [k for k, v in want.items() if k not in doc or doc[k] != v]
        return "keys differ: %s" % ", ".join(missing) if missing else None
    return None if stdout == golden["stdout"] else "stdout differs"


# -- provenance ---------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout; do not ask an enclosing repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC.rglob("*.py"))
    )


def provenance() -> dict:
    import selftest

    problems = selftest.corpus_problems()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "corpus_guard": "; ".join(problems) if problems else "ok",
    }


# -- measurement ----------------------------------------------------------------


def measure_setup(workload: str) -> tuple[float, float]:
    """Seconds to import carnot.cli and build every algebra the workload
    names, in a fresh interpreter, and the slowdown sampled around it."""
    sources = sorted({s for argv in wl.WORKLOADS[workload] for s in wl.sources(argv)})
    command = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)] + sources
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = done.stdout.split("\n")
    if done.returncode != 0 or len(lines) < 3:
        raise SetupError("set-up probe failed: %s" % done.stderr.strip())
    if SRC.resolve() not in Path(lines[2]).resolve().parents:
        raise SetupError("set-up probe imported carnot from %s" % lines[2])
    return float(lines[0]), float(lines[1])


class Checker:
    """Counts attempted and failed invocations across the passes of a run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.goldens = load_goldens(workload)
        self.seed = seed
        self.first: dict[tuple, tuple] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, argv: tuple, code, stdout: str, error: str | None) -> None:
        self.attempted += 1
        reason = None
        if error is not None:
            reason = "exception escaped cli.main: %s" % error.strip().splitlines()[-1]
        elif self.first.setdefault(argv, (code, stdout)) != (code, stdout):
            reason = "output differs between passes"
        elif self.seed == wl.DEFAULT_SEED or not wl.is_seeded(argv):
            golden = self.goldens.get(argv)
            if golden is None:
                reason = "no golden"
            else:
                reason = golden_mismatch(argv, code, stdout, golden)
        if reason is not None:
            self.failures.append("%s: %s" % (" ".join(argv), reason))


def run_pass(cli, invocations, tracer=None, sampler=None):
    """One pass: the per-invocation (start, end, seconds), and the results.

    With a ``SpeedSampler`` running, the time its probes took is left out of
    each invocation's seconds.  ``cli.main`` is looked up at each call, so
    that a traced pass calls the wrapper the tracer installed.
    """
    gc.collect()
    clock = time.perf_counter
    timings, results = [], []
    for argv in invocations:
        if tracer is not None:
            tracer.invocation += 1
        before = sampler.spent if sampler else 0.0
        t0 = clock()
        result = invoke(cli.main, argv)
        t1 = clock()
        probed = (sampler.spent if sampler else 0.0) - before
        timings.append((t0, t1, t1 - t0 - probed))
        results.append(result)
    return timings, results


def pass_count(workload: str, seconds: float, per_pass: int) -> int:
    for_tail = math.ceil((TAIL_SAMPLES + 1) * 10 / per_pass)
    return max(MIN_PASSES, for_tail, round(seconds / NOMINAL_PASS_S[workload]))


def run_untraced(cli, workload, seconds, checker) -> tuple[dict, dict]:
    """End-to-end metrics, in seconds at the reference speed (see speed.py):
    each invocation's and each set-up's time is divided by the slowdown
    sampled around it."""
    invocations = wl.WORKLOADS[workload]
    passes = pass_count(workload, seconds, len(invocations))
    # set-up probes are spread over the run, between the passes; the first
    # one is a warm-up
    measure_setup(workload)
    setup_raw, setup_times = [], []
    pass_raw, pass_times, samples, slowdowns = [], [], [], []
    limit = 2 * passes * NOMINAL_PASS_S[workload]
    began = time.perf_counter()
    for _ in range(passes):
        with speed.SpeedSampler() as sampler:
            timings, results = run_pass(cli, invocations, sampler=sampler)
        latencies = [raw / sampler.slowdown(t0, t1) for t0, t1, raw in timings]
        pass_raw.append(sum(raw for _, _, raw in timings))
        pass_times.append(sum(latencies))
        samples.extend(latencies)
        slowdowns.append(sampler.slowdown())
        for argv, result in zip(invocations, results):
            checker.check(argv, *result)
        for _ in range(math.ceil(SETUP_REPEATS / passes)):
            raw, slowdown = measure_setup(workload)
            setup_raw.append(raw)
            setup_times.append(raw / slowdown)
        if time.perf_counter() - began > limit:
            break  # far slower than nominal: keep the run inside its time limit
    ms = [s * 1000 for s in samples]
    p90 = statistics.quantiles(ms, n=10)[-1]
    per_invocation = {
        " ".join(argv): statistics.median(ms[i::len(invocations)])
        for i, argv in enumerate(invocations)
    }
    metrics = {
        "pass_s": statistics.median(pass_times),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {
        "passes": len(pass_times),
        "invocations_per_pass": len(invocations),
        "latency_samples": len(ms),
        "samples_beyond_p90": sum(1 for x in ms if x > p90),
        "pass_s_samples": pass_times,
        "raw_pass_s_samples": pass_raw,
        "slowdown_per_pass": slowdowns,
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": setup_raw,
        "invocation_median_ms": per_invocation,
    }
    return metrics, facts


def run_traced(cli, workload, seconds, checker, seed) -> tuple[dict, dict]:
    from layertrace import Tracer

    invocations = wl.WORKLOADS[workload]
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        timings, results = run_pass(cli, invocations)
        untraced.append(sum(raw for _, _, raw in timings))
        for argv, result in zip(invocations, results):
            checker.check(argv, *result)
        since = tracer.snapshot()
        tracer.install()
        try:
            timings, results = run_pass(cli, invocations, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(raw for _, _, raw in timings))
        per_pass.append(tracer.totals(since))
        for argv, result in zip(invocations, results):
            checker.check(argv, *result)
    metrics = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(untraced)
        elif name == "group.membership.hit_ratio":
            calls = statistics.median(p.get("group.membership.calls", 0) for p in per_pass)
            hits = statistics.median(p.get("group.membership.hits", 0) for p in per_pass)
            metrics[name] = hits / calls if calls else 0.0
        else:
            metrics[name] = statistics.median(p.get(name, 0) for p in per_pass)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("%s-seed%d-spans.jsonl" % (workload, seed))
    tracer.write_spans(spans_path)
    facts = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, facts


def run_defect_probes(main) -> list[str]:
    """The ROADMAP item-5 defects still open: each should exit 2, silently."""
    still_open = []
    for argv in wl.DEFECT_PROBES:
        code, stdout, error = invoke(main, argv)
        if error is not None or code != 2 or stdout:
            still_open.append("%s: exit %r, %d bytes of stdout"
                              % (" ".join(argv), code, len(stdout)))
    return still_open


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl.generate(ROOT, seed)
    checker = Checker(workload, seed)
    if trace:
        metrics, facts = run_traced(cli, workload, seconds, checker, seed)
        units = dict(PER_LAYER)
    else:
        metrics, facts = run_untraced(cli, workload, seconds, checker)
        units = dict(END_TO_END)
    if workload == "structure":
        facts["defect_probes_open"] = run_defect_probes(cli.main)
    failed = len(checker.failures)
    facts["failed_frac"] = failed / checker.attempted
    facts["failures"] = checker.failures[:20]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "facts": facts,
        "result": {
            "correct": failed == 0,
            "attempted": checker.attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }


def report(run: dict, prov: dict) -> None:
    result, facts = run["result"], run["facts"]
    print("workload %s, seed %d, trace %d" % (run["workload"], run["seed"], run["trace"]))
    for name, metric in result["metrics"].items():
        print("  %-38s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print("  %-38s %14.6f share (%d of %d invocations)" % (
        "failed_frac", facts["failed_frac"], result["failed"], result["attempted"]))
    for failure in facts["failures"]:
        print("    failed: %s" % failure)
    for probe in facts.get("defect_probes_open", ()):
        print("  known defect still open (ROADMAP item 5): %s" % probe)
    shown = {k: v for k, v in facts.items()
             if k not in ("failures", "defect_probes_open", "failed_frac",
                          "invocation_median_ms")}
    print("facts " + json.dumps(shown, sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (run["workload"], run["seed"], run["trace"]))
    path.write_text(json.dumps(dict(run, provenance=prov), indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        cli = import_cli()
        for name in names:
            load_goldens(name)
        prov = provenance()
        for name in names:
            report(run_workload(cli, name, args.seed, args.seconds, bool(args.trace)), prov)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
