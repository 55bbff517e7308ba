"""The benchmark's workloads run clean on this tree.

The benchmark driver (``perfbench/run.py``) fails when a worker exits
non-zero, when a traced worker cannot install its layer tracer, or when
``perfbench/checks.py`` cannot read a report field.  This runs each
workload once in process, seed 1, holds its report to the same checks,
and runs one traced worker.
"""

import json
import os
import subprocess
import sys

import pytest

from hypwalk import parse_config, run_experiment

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_passes_its_checks(tmp_path, workload):
    cfg = run.make_config(workload, 1, str(tmp_path / "out"))
    bundle = run_experiment(parse_config(cfg))
    outcomes = checks.check_report(cfg, bundle.report)
    assert set(outcomes) == set(cfg["experiments"])
    assert {name: out.problems for name, out in outcomes.items()} == {
        name: [] for name in cfg["experiments"]
    }
    assert set(bundle.report["verdicts"].values()) == {"pass"}


def test_traced_worker_runs(tmp_path):
    # The tracer resolves hypwalk names through sys.modules; a missing
    # class on a dotted target stops the worker before the run.
    cfg = run.make_config("z23-classify", 1, str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--config", str(path),
         "--out", str(tmp_path / "out"), "--result", str(result), "--mode", "trace"],
        check=True, timeout=120,
    )
    res = json.loads(result.read_text())
    assert res["error"] is None and res["passed"]

