"""One cold hypwalk run in a fresh process: the work of one
``hypwalk --config`` call, through the public API.

    python3 perfbench/worker.py --config CFG --out DIR --result FILE [--mode run|setup|trace]

``setup`` stops once the config is parsed; ``trace`` runs under the
layer recorder of ``tracer.py``.  The result file holds CLOCK_MONOTONIC
instants (shared by all processes on Linux), so the parent can time the
interpreter start as well.  hypwalk is imported from the ``src`` tree
next to this directory, never from an installed copy.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import hypwalk
    from hypwalk.config import load_config
    from hypwalk.report import run_experiment

    origin = os.path.dirname(os.path.abspath(hypwalk.__file__))
    if origin != os.path.join(SRC, "hypwalk"):
        print(f"hypwalk imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    rec = None
    if args.mode == "trace":
        sys.path.insert(0, HERE)
        import tracer

        rec = tracer.Recorder()
        rec.install()
    result = {"mode": args.mode, "error": None}
    traced_start = time.monotonic()
    try:
        if rec is None:
            cfg = load_config(args.config)
        else:
            with rec.span("setup", "setup"):
                cfg = load_config(args.config)
        result["t_parsed"] = time.monotonic()
        if args.mode != "setup":
            bundle = run_experiment(cfg, out_dir=args.out)
            result["passed"] = bundle.passed
    except Exception as exc:  # the run's outcome, reported as failed operations
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["t_done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if rec is not None:
        rec.read_caches()
        rec.uninstall()
        result["trace"] = {
            "wall_s": result["t_done"] - traced_start,
            "metrics": {k: list(vu) for k, vu in rec.metrics().items()},
            "spans": rec.spans(),
            "layer_self_s": rec.layer_self(),
            "caches": rec.caches,
            "absent": rec.absent,
            "hook_errors": dict(rec.hook_errors),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
