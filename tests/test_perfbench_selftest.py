"""The benchmark's static self-test runs with the tests.

``perfbench/selftest.py`` checks that every acceptance ``CLI_CORPUS`` entry
sits in exactly one workload, that every invocation has a golden and that the
metric names agree, without running a workload.  Running it here makes drift
in the corpus or the goldens fail the test suite, not only a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok:")
