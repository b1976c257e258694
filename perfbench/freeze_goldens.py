"""Freeze the goldens: exit code and stdout of every workload invocation
for the default seed, written to perfbench/goldens/<workload>.json.

Usage, from the repository root: python3 perfbench/freeze_goldens.py

Each invocation runs twice and must give the same result both times.  Run
this only at a commit whose outputs are the reference; the benchmark then
counts every later difference as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.import_cli()
    wl.generate(run.ROOT, wl.DEFAULT_SEED)
    run.GOLDENS.mkdir(exist_ok=True)
    for name, invocations in wl.WORKLOADS.items():
        entries = []
        for argv in invocations:
            code, stdout, error = run.invoke(cli.main, argv)
            again = run.invoke(cli.main, argv)
            if error is not None or again != (code, stdout, error):
                print("error: %s is not reproducible: %s" % (" ".join(argv), error),
                      file=sys.stderr)
                return 1
            entries.append({"argv": list(argv), "exit": code, "stdout": stdout})
        path = run.GOLDENS / ("%s.json" % name)
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
        print("%s: %d invocations" % (path.relative_to(run.ROOT), len(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
