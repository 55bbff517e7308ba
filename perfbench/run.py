"""hypwalk benchmark: cold runs of fixed workloads, checked against exact
references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hypwalk is imported from its ``src``
tree.  Closed loop with one client: every run is a fresh, single-threaded
worker process (``worker.py``) doing the work of one ``hypwalk --config``
call, one process at a time.  The seed becomes ``walk.seed``.

With ``--trace 0`` the driver makes as many cold runs as fit in
``--seconds`` (at least two, so that reports can be compared), then two
set-up-only runs, and prints the end-to-end metrics as medians.  With
``--trace 1`` it makes one plain and one traced run and prints the
per-layer metrics of the traced one; the full span table goes to
``.perfbench/trace-<workload>-seed<N>.json``.

Every experiment of every run is one operation.  It fails when it
raises (the run then writes no report, so all of its experiments fail),
when its verdict is ``fail``, when a check of ``checks.py`` fails, or
when its part of ``report.json`` differs from the first run's (the
report is compared byte for byte apart from ``generated_at``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402

# Sizes: see NOTES.md.  Each workload's config is the JSON a user would
# pass to ``hypwalk --config``, minus the seed and the output directory.
WORKLOADS = {
    "z23-classify": {
        "model": {"kind": "free_product", "orders": [2, 3]},
        "walk": {"support": "uniform"},
        "budgets": {"maxlen": 3},
        "experiments": ["classify"],
    },
    "f2-asym-kernels": {
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": [["a", 0.35], ["A", 0.15], ["b", 0.30], ["B", 0.20]]},
        "experiments": ["green", "martin", "rg", "simulate"],
    },
    "f2-boundary": {
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform"},
        "budgets": {"n_samples": 20000, "max_radius": 9},
        "experiments": ["gibbs", "rn-check"],
    },
}

MIN_RUNS = 2
MAX_RUNS = 25
SETUP_RUNS = 2
DEADLINE_S = 170.0
# Relative errors below this are float rounding; they read as this value.
REL_ERR_FLOOR = 1e-12
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def make_config(workload: str, seed: int, out: str) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[workload]))
    cfg["schema_version"] = 1
    cfg["walk"]["seed"] = seed
    cfg["output"] = {"dir": out}
    return cfg


def cold_run(workdir: str, cfg_path: str, mode: str, tag: str, deadline: float) -> dict:
    """One worker process; returns its result with setup_s and run_s."""
    out = os.path.join(workdir, tag)
    result_path = out + ".json"
    cmd = [sys.executable, WORKER, "--config", cfg_path, "--out", out,
           "--result", result_path, "--mode", mode]
    env = dict(os.environ, **THREAD_ENV)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - t_spawn))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{tag} ({mode}) passed the {DEADLINE_S:.0f} s deadline") from None
        raise
    if code != 0 or not os.path.exists(result_path):
        raise BenchError(f"{tag} ({mode}) worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_parsed"] - t_spawn if "t_parsed" in res else None
    res["run_s"] = res["t_done"] - res["t_parsed"] if "t_parsed" in res else None
    res["out"] = out
    return res


def _report_text(run: dict) -> str | None:
    path = os.path.join(run["out"], "report.json")
    if run["error"] is not None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return "".join(line for line in fh if not line.lstrip().startswith('"generated_at"'))


def evaluate(cfg: dict, runs: list[dict]) -> tuple[int, int, list[tuple[float, str]], list[str]]:
    """Operations attempted and failed, relative errors, and problems."""
    experiments = cfg["experiments"]
    attempted = failed = 0
    errors: list[tuple[float, str]] = []
    problems: list[str] = []
    first = None
    for i, run in enumerate(runs):
        attempted += len(experiments)
        text = _report_text(run)
        if text is None:
            failed += len(experiments)
            problems.append(f"run {i}: {run['error'] or 'no report written'}")
            continue
        report = json.loads(text)
        bad = set()
        for name, outcome in checks.check_report(cfg, report).items():
            errors.extend(outcome.errors)
            if outcome.problems:
                bad.add(name)
                problems.extend(f"run {i} {name}: {p}" for p in outcome.problems)
        if first is None:
            first = (text, report)
        elif text != first[0]:
            changed = {name for name in experiments
                       if report["results"].get(name) != first[1]["results"].get(name)
                       or report["verdicts"].get(name) != first[1]["verdicts"].get(name)}
            bad |= changed or set(experiments)
            problems.append(f"run {i}: report differs from run 0 in {sorted(changed) or 'header'}")
        failed += len(bad)
    return attempted, failed, errors, problems


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    cfg = make_config(workload, seed, os.path.join(workdir, "out"))
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    # Untimed: byte-compiles hypwalk and pages numpy and scipy in, so that
    # the first timed run does not differ from the others.
    cold_run(workdir, cfg_path, "setup", "warmup", deadline)
    runs: list[dict] = []
    setups: list[dict] = []
    if trace:
        runs.append(cold_run(workdir, cfg_path, "run", "run0", deadline))
        runs.append(cold_run(workdir, cfg_path, "trace", "trace", deadline))
    else:
        # A further run starts only if, taking as long as the last one, it
        # ends within --seconds, so the invocation's length does not depend
        # on how fast the machine happens to be.
        budget = min(seconds, DEADLINE_S - 40.0)
        start = time.monotonic()
        while True:
            began = time.monotonic()
            runs.append(cold_run(workdir, cfg_path, "run", f"run{len(runs)}", deadline))
            ended = time.monotonic()
            if len(runs) >= MAX_RUNS or (
                len(runs) >= MIN_RUNS and 2 * ended - began - start > budget
            ):
                break
        for i in range(SETUP_RUNS):
            setups.append(cold_run(workdir, cfg_path, "setup", f"setup{i}", deadline))
    attempted, failed, errors, problems = evaluate(cfg, runs)
    for p in problems:
        print(f"[{workload}] {p}", file=sys.stderr)
    worst = max(errors, default=(0.0, "none"))
    print(f"[{workload}] largest relative error {worst[0]:.3g} at {worst[1]}", file=sys.stderr)

    if trace:
        plain, traced = runs
        if plain["run_s"] is None or traced["run_s"] is None:
            raise BenchError("a run stopped before its config was parsed")
        layer = traced["trace"]
        metrics = dict(layer["metrics"])
        metrics["trace.run_s"] = (traced["run_s"], "s")
        metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
        detail = dict(layer, workload=workload, seed=seed,
                      plain_run_s=plain["run_s"], traced_run_s=traced["run_s"])
        detail_path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}.json")
        with open(detail_path, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
        print(f"[{workload}] trace detail: {os.path.relpath(detail_path, ROOT)}", file=sys.stderr)
    else:
        done = [r for r in runs if r["error"] is None]
        if not done:
            raise BenchError("no run completed")
        setup_samples = [r["setup_s"] for r in runs + setups if r["setup_s"] is not None]
        metrics = {
            "run_s": (statistics.median(r["run_s"] for r in done), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in done), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
            "max_rel_err": (max(worst[0], REL_ERR_FLOOR), "ratio"),
        }
        print(f"[{workload}] {len(runs)} cold runs, {len(setup_samples)} set-ups", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name:36s} {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "hypwalk")):
        print(f"no hypwalk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
