"""``src/hypwalk`` is what the experiments run.

All nine experiments run through ``cli.main`` on asymmetric F_2 and on
uniform Z/3*Z/7 under ``sys.setprofile``, and every function defined in
the package's source is either entered or pinned in ``NOT_RUN`` with the
reason it stays.  A function that no experiment reaches and that nothing
needs fails the test until it is deleted or pinned; a pinned function
that starts to run fails it too, so the list stays exact.

Functions are matched on their code objects' ``co_firstlineno``, the
line of the first decorator, which the AST gives as well.  Every module
is loaded and every cache cleared before the scan, so the set does not
depend on the tests that ran before.  Verdicts are not asserted: at 2,000
samples ``gibbs`` can fail on a small cylinder.
"""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import hypwalk
from hypwalk.cli import EXIT_OK, EXIT_VERIFICATION_FAILED, main

SRC = Path(hypwalk.__file__).resolve().parent

_IMPORT = "runs while the package loads, before any experiment"
_BALL = "ball oracle of the tests; perfbench's tracer cannot install without it"

NOT_RUN = {
    "hypwalk._exact.green": "the bitwise reference of green.green_table",
    "hypwalk._record._eq": _IMPORT,
    "hypwalk._record._eq.__eq__": "no experiment compares two records of one class",
    "hypwalk._record._hash": _IMPORT,
    "hypwalk._record._init": _IMPORT,
    "hypwalk._record._no_delattr": "refuses deleting a field of a frozen record",
    "hypwalk._record._no_setattr": "refuses assigning a field of a frozen record",
    "hypwalk._record._repr": _IMPORT,
    "hypwalk._record._repr.__repr__": "reports spell records field by field, not by repr",
    "hypwalk._record._values": _IMPORT,
    "hypwalk._record.record": _IMPORT,
    "hypwalk._solver.RestrictedSolver.__init__": _BALL,
    "hypwalk._solver.RestrictedSolver._series": _BALL,
    "hypwalk._solver.RestrictedSolver._solve": _BALL,
    "hypwalk._solver.RestrictedSolver.col": _BALL,
    "hypwalk._solver.RestrictedSolver.row": _BALL,
    "hypwalk._solver.RestrictedSolver.row_residual": _BALL,
    "hypwalk._solver.transition_matrix": _BALL,
    "hypwalk.config.apply_overrides": "cli --override and --subcommands, not passed here",
    "hypwalk.config.load_config": "perfbench/worker.py reads its configs with it",
    "hypwalk.errors.BoundaryTimeout.__init__": "a boundary walk that runs out of steps",
    "hypwalk.groups.Ball.__init__": _BALL,
    "hypwalk.groups.Ball.__len__": _BALL,
    "hypwalk.groups.Ball.element": _BALL,
    "hypwalk.groups.Ball.elements": _BALL,
    "hypwalk.groups.Ball.index_of": _BALL,
    "hypwalk.groups.Ball.sphere_indices": _BALL,
    "hypwalk.groups.Ball.step_tables": _BALL,
    "hypwalk.groups.GroupElement.__repr__": "debugging output; reports spell words by str",
    "hypwalk.groups._cached_ball": _BALL,
    "hypwalk.groups.ball": _BALL,
    "hypwalk.measure.estimate_measure": "Monte Carlo oracle of exact cylinder masses",
    "hypwalk.walks.reversed_walk": "its harmonic measure gives the exact drift",
}

RUNS = [
    ({"kind": "free", "rank": 2}, [["a", 0.35], ["A", 0.15], ["b", 0.30], ["B", 0.20]]),
    ({"kind": "free_product", "orders": [3, 7]}, "uniform"),
]


def _functions() -> dict:
    """(file name, first line) -> qualified name of every function
    defined in the package's source, nested ones included."""
    found = {}

    def visit(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(name, first)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", name)
            else:
                visit(child, prefix, name)

    for path in sorted(SRC.glob("*.py")):
        module = "hypwalk" if path.stem == "__init__" else f"hypwalk.{path.stem}"
        visit(ast.parse(path.read_text()), module, path.name)
    return found


def test_every_function_runs_or_is_pinned(tmp_path):
    for info in pkgutil.iter_modules(hypwalk.__path__):
        module = importlib.import_module(f"hypwalk.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sys.setprofile(hook)
    try:
        for i, (model, support) in enumerate(RUNS):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps({
                "schema_version": 1, "model": model, "walk": {"support": support, "seed": 1},
                "experiments": list(hypwalk.config.EXPERIMENTS),
                "budgets": {"n_samples": 2000, "gibbs_radii": [1, 2, 3]},
            }))
            codes.append(main(["--config", str(path), "--out", str(tmp_path / f"out{i}")]))
    finally:
        sys.setprofile(None)
    assert set(codes) <= {EXIT_OK, EXIT_VERIFICATION_FAILED}
    ran = {(Path(name).name, line)
           for name, line in entered if Path(name).resolve().parent == SRC}
    never = {name for key, name in _functions().items() if key not in ran}
    assert never == set(NOT_RUN)
