"""The benchmark's workloads run clean on this tree.

The benchmark driver (``perfbench/run.py``) fails when a worker exits
non-zero, when a traced worker cannot install its layer tracer, or when
``perfbench/checks.py`` cannot read a report field.  This runs each
workload once in process, seed 1, holds its report to the same checks,
and runs it once more in a traced worker.

The seed-1 run of each workload is also held to SHA-256 digests of its
results, its verdicts and the bytes of every CSV, so a change that claims
byte-identical reports is checked.  ``generated_at``, ``versions`` and
``config_echo`` (which holds the output directory) are left out.  A
change that moves a digit on purpose updates the digest here and lists
the change in CHANGES.md.
"""

import hashlib
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

GOLDEN = {
    "f2-asym-kernels": {
        "results": "97c71861bc0096ef2c18fd7ecae403e7d0038b5107512684670bcd6f675c7d65",
        "verdicts": "09df1768c7824108aa9737c958eca36fee71456a1102421cb5b8fcedb3f975b1",
        "green.csv": "8ede061785d7a488f8d3a25eae3acee394270656e074aa952d24e1499eeb4b83",
        "martin.csv": "0ce4c7c8b353805d8a7ccfdeb91e68875ea27befe1bbe65bfb5f1557d154f3c7",
        "rg.csv": "6c62c7c405c8c2109bc5f4a536ec7958031141488fa203011e32ce5b01e21e55",
        "simulate.csv": "9cb0aa43392f02fb597ebb2cb3a5ebc8bac3cd1b073d895b3ec275077f58ac0a",
    },
    "f2-boundary": {
        "results": "9f3fade86580514682e2c6e8255642a87fdc4555b5f71be57b30883fe9fa9160",
        "verdicts": "e625d389b8a99aefd1262e0eb3ebacd6f9f1c88f08ae21ac46df9f50dd11200a",
        "gibbs.csv": "2948d77cee533327846803d0d7c15fa75928a4befbd53c72191685d093261f71",
        "rn_check.csv": "a394429a97521557a6cac1895d20f9f71b9d2b9bf888c5d9f0c60a8f2a63a6e3",
    },
    "z23-classify": {
        "results": "63f448f28c70b4049e20a03e166a031fb45ae1181c2dfff27f176f92d1f3c679",
        "verdicts": "e9b0a1541ea8cfa2fa76b1a7b4ff447b63480e0e5d442e8a48dcaed7be36cc60",
        "classify.csv": "a46014250e6c9448179e5c0fd29511d27b9367b42d5891f054bb61d878b68647",
    },
}


def _digests(bundle) -> dict:
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {key: sha(json.dumps(bundle.report[key], sort_keys=True).encode())
           for key in ("results", "verdicts")}
    for path in bundle.files:
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = sha(fh.read())
    return out


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
    assert _digests(bundle) == GOLDEN[workload]


# The tracer targets that no longer exist, with the run going on without
# them.  A target renamed or moved by a refactor joins this list, and the
# traced test below fails until the tracer's list is mended.
ABSENT = sorted([
    "hypwalk.classify.lattice_test",
    "hypwalk.green._green_word",
    "hypwalk.green.green",
    "hypwalk.green.green_decay_slope",
    "hypwalk.green.green_z",
    "hypwalk.green.restricted_green",
    "hypwalk.groups.estimate_delta",
    "hypwalk.martin._green_value",
    "hypwalk.martin._green_value.cache_info",
    "hypwalk.measure.cylinder_membership",
    "hypwalk.walks.n_step_distributions",
    "hypwalk.walks.sample_boundary_point",
])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_worker_runs(tmp_path, workload):
    # The tracer resolves hypwalk names through sys.modules; a missing
    # class on a dotted target stops the worker before the run, and a
    # missing function or method is listed as absent.
    cfg = run.make_config(workload, 1, str(tmp_path / "out"))
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
    assert sorted(res["trace"]["absent"]) == ABSENT
    if workload == "f2-boundary":
        # gibbs and rn-check read one sample set, drawn once per run.
        assert res["trace"]["spans"]["measure.sample_set"]["calls"] == 1

