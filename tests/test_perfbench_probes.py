"""The benchmark's defect probes end in exit 2 with one error line.

``perfbench/workloads.py`` lists in ``DEFECT_PROBES`` malformed inputs that a
``structure`` run reports as open defects until each exits 2 with empty
stdout.  Running them here, on inputs generated into a temporary directory,
makes a reopened defect fail the test suite and not only a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from carnot.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


def probe_id(argv):
    return "%s-%s" % (argv[0], Path(argv[1]).stem)


@pytest.mark.parametrize("argv", WORKLOADS.DEFECT_PROBES, ids=probe_id)
def test_defect_probe_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, argv):
    # probe paths are relative to the root the inputs are generated under
    WORKLOADS.generate(tmp_path, WORKLOADS.DEFAULT_SEED)
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
