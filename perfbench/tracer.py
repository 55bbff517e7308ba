"""Outside-in layer trace of one hypwalk run.

The recorder wraps public (and a few private) functions of each hypwalk
layer, from outside the package, and keeps every figure in memory:
per key the call count, the time of its outermost calls, its self time
(duration minus the time of wrapped calls it made) and its longest call.
Each wrapped function belongs to one layer; a layer's self time is the
sum of its keys' self times, so the layers partition the traced wall
time.

A name is patched in every loaded hypwalk module that holds it (for
example ``sample_boundary_point`` in ``walks``, ``measure`` and
``report``), including values of module-level dicts such as the report's
experiment table.  A name that no longer exists is recorded in
``absent`` and its figures read 0.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("setup", "report", "groups", "solver", "green", "martin", "walks", "measure", "classify")

# -- hooks: called after a wrapped call as hook(recorder, args, result, exc)

def _on_ball_build(rec, args, result, exc):
    if exc is None:
        rec.values["groups.ball.states"] += len(args[0])


def _on_solver_build(rec, args, result, exc):
    if exc is None:
        rec.values[f"solver.{args[0].method}"] += 1


def _on_solve(rec, args, result, exc):
    solver = args[0]
    residuals = getattr(solver, "residuals", None)
    if residuals is None:
        return
    grown = len(residuals) - rec._seen_residuals.get(solver, 0)
    if grown > 0:
        rec._seen_residuals[solver] = len(residuals)
        rec.values["solver.solves"] += grown
        rec.maxima["solver.max_residual"] = max(
            rec.maxima.get("solver.max_residual", 0.0), max(residuals.values())
        )


def _on_green_word(rec, args, result, exc):
    est = result if exc is None else getattr(exc, "estimate", None)
    if exc is not None and type(exc).__name__ == "GreenBudgetError":
        rec.values["green.unconverged"] += 1
    if est is None:
        return
    if est.radii:
        rec.maxima["green.max_radius"] = max(rec.maxima.get("green.max_radius", 0), est.radii[-1])
    if est.value > 0:
        width = (est.upper - est.lower) / est.value
        rec.maxima["green.max_bracket_rel_width"] = max(
            rec.maxima.get("green.max_bracket_rel_width", 0.0), width
        )


def _on_ratio(rec, args, result, exc):
    if exc is None:
        rec.values["martin.ratio.powers"] += result.n_used


def _on_boundary(rec, args, result, exc):
    if exc is None:
        rec.values["walks.boundary.steps"] += result.steps_used
        rec.values["walks.boundary.accepted"] += 1
    elif type(exc).__name__ == "BoundaryTimeout":
        rec.values["walks.boundary.steps"] += getattr(exc, "steps", 0)
        rec.values["walks.boundary.timeouts"] += 1


def _on_sample_set(rec, args, result, exc):
    if exc is None:
        rec.values["measure.retries"] += result[1]


def _on_membership(rec, args, result, exc):
    if exc is not None and type(exc).__name__ == "IndeterminateMembership":
        rec.values["measure.membership.indeterminate"] += 1


def _on_classify(rec, args, result, exc):
    if exc is None:
        rec.values["classify.reps"] += len(result.values) + len(result.skipped)


# (module, attribute path, key, layer, hook)
TARGETS = [
    ("hypwalk.groups", "ball", "groups.ball", "groups", None),
    ("hypwalk.groups", "Ball.__init__", "groups.ball.build", "groups", _on_ball_build),
    ("hypwalk.groups", "Ball.step_tables", "groups.step_tables", "groups", None),
    ("hypwalk.groups", "GroupModel.from_letters", "groups.from_letters", "groups", None),
    ("hypwalk.groups", "estimate_delta", "groups.delta", "groups", None),
    ("hypwalk.groups", "conjugacy_representatives", "groups.conjugacy", "groups", None),
    ("hypwalk._solver", "RestrictedSolver.__init__", "solver.build", "solver", _on_solver_build),
    ("hypwalk._solver", "transition_matrix", "solver.transition_matrix", "solver", None),
    ("hypwalk._solver", "RestrictedSolver.row", "solver.solve", "solver", _on_solve),
    ("hypwalk._solver", "RestrictedSolver.col", "solver.solve", "solver", _on_solve),
    ("hypwalk.green", "green", "green.green", "green", None),
    ("hypwalk.green", "green_z", "green.green", "green", None),
    ("hypwalk.green", "_green_word", "green.word", "green", _on_green_word),
    ("hypwalk.green", "first_passage", "green.first_passage", "green", None),
    ("hypwalk.green", "restricted_green", "green.restricted", "green", None),
    ("hypwalk.green", "harnack_constant", "green.harnack", "green", None),
    ("hypwalk.green", "green_decay_slope", "green.decay", "green", None),
    ("hypwalk.martin", "_green_value", "martin.green_value", "martin", None),
    ("hypwalk.martin", "martin_kernel_at", "martin.kernel", "martin", None),
    ("hypwalk.martin", "martin_kernel", "martin.ray", "martin", None),
    ("hypwalk.martin", "ratio_invariant", "martin.ratio", "martin", _on_ratio),
    ("hypwalk.walks", "sample_boundary_point", "walks.boundary", "walks", _on_boundary),
    ("hypwalk.walks", "sample_path", "walks.path", "walks", None),
    ("hypwalk.walks", "n_step_distributions", "walks.n_step", "walks", None),
    ("hypwalk.walks", "spectral_radius_estimate", "walks.spectral", "walks", None),
    ("hypwalk.measure", "boundary_sample_set", "measure.sample_set", "measure", _on_sample_set),
    ("hypwalk.measure", "cylinder_membership", "measure.membership", "measure", _on_membership),
    ("hypwalk.measure", "gibbs_ratio", "measure.gibbs", "measure", None),
    ("hypwalk.measure", "radon_nikodym_check", "measure.rn", "measure", None),
    ("hypwalk.classify", "classify", "classify.classify", "classify", _on_classify),
    ("hypwalk.classify", "lattice_test", "classify.lattice", "classify", None),
    ("hypwalk.report", "run_experiment", "report.run", "report", None),
]

# The experiments the workloads run, each timed as ``report.exp.<name>``.
EXPERIMENTS = ("classify", "green", "martin", "rg", "simulate", "gibbs", "rn-check")
TARGETS += [
    ("hypwalk.report", "_exp_" + name.replace("-", "_"), f"report.exp.{name}", "report", None)
    for name in EXPERIMENTS
]

# lru caches whose hit counts are read at the end of the run.
CACHES = [
    ("hypwalk.groups", "_cached_ball", "groups.ball"),
    ("hypwalk.martin", "_green_value", "martin.green_value"),
]


class _Stat:
    """Figures of one key or one layer."""

    __slots__ = ("calls", "total", "self_s", "max_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0
        self.max_s = 0.0
        self.depth = 0


class Recorder:
    """Span and counter store for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.keys: defaultdict = defaultdict(_Stat)
        self.layers: defaultdict = defaultdict(_Stat)
        self.values: Counter = Counter()
        self.maxima: dict = {}
        self.absent: list[str] = []
        self.caches: dict = {}
        self.hook_errors: Counter = Counter()
        self._stack: list[list] = []
        self._seen_residuals = weakref.WeakKeyDictionary()
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self, stat: _Stat, lstat: _Stat) -> None:
        stat.depth += 1
        lstat.depth += 1
        self._stack.append([stat, lstat, self.clock(), 0.0])

    def _exit(self) -> None:
        end = self.clock()
        stat, lstat, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        stat.calls += 1
        stat.self_s += own
        lstat.self_s += own
        stat.depth -= 1
        if not stat.depth:
            stat.total += dur
        lstat.depth -= 1
        if not lstat.depth:
            lstat.total += dur
        if dur > stat.max_s:
            stat.max_s = dur
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, key: str, layer: str):
        self._enter(self.keys[key], self.layers[layer])
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn, key: str, layer: str, hook=None):
        enter, exit_ = self._enter, self._exit
        stat, lstat = self.keys[key], self.layers[layer]
        run_hook = self._run_hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(stat, lstat)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_()
                if hook is not None:
                    run_hook(hook, key, args, None, exc)
                raise
            exit_()
            if hook is not None:
                run_hook(hook, key, args, result, None)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def _run_hook(self, hook, key, args, result, exc) -> None:
        # A hook reads fields of hypwalk's results; when a refactor renames
        # one, the run goes on and the key is listed in ``hook_errors``.
        try:
            hook(self, args, result, exc)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            self.hook_errors[key] += 1

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hypwalk" or name.startswith("hypwalk."))]
        for modname, path, key, layer, hook in targets:
            owner, obj = None, sys.modules.get(modname)
            parts = path.split(".")
            for part in parts:
                owner, obj = obj, getattr(obj, part, None)
            if not callable(obj):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self.wrap(obj, key, layer, hook)
            if len(parts) > 1:
                self._set(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is obj:
                        self._set(mod, attr, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is obj:
                                self._set_item(val, k, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, attr, value = self._undo.pop()
            setter(owner, attr, value)

    def read_caches(self, caches=CACHES) -> None:
        for modname, attr, key in caches:
            fn = getattr(sys.modules.get(modname), attr, None)
            fn = getattr(fn, "__wrapped_by_tracer__", fn)
            info = getattr(fn, "cache_info", None)
            if info is None:
                self.absent.append(f"{modname}.{attr}.cache_info")
                continue
            stats = info()
            self.caches[key] = {"hits": stats.hits, "misses": stats.misses}

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        return {
            key: {"calls": st.calls, "total_s": st.total, "self_s": st.self_s, "max_s": st.max_s}
            for key, st in sorted(self.keys.items()) if st.calls
        }

    def layer_self(self) -> dict:
        return {layer: self.layers[layer].self_s for layer in LAYERS}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures by name, as (value, unit)."""
        keys, v, mx = self.keys, self.values, self.maxima
        c = Counter({k: st.calls for k, st in keys.items()})
        t = defaultdict(float, {k: st.total for k, st in keys.items()})

        def ratio(num, den):
            return num / den if den else 0.0

        gv = self.caches.get("martin.green_value", {"hits": 0, "misses": 0})
        out = {
            "groups.ball.calls": (c["groups.ball"], "count"),
            "groups.ball.builds": (c["groups.ball.build"], "count"),
            "groups.ball.hit_ratio": (ratio(c["groups.ball"] - c["groups.ball.build"], c["groups.ball"]), "ratio"),
            "groups.ball.states": (v["groups.ball.states"], "count"),
            "groups.ball.s": (t["groups.ball"], "s"),
            "groups.step_tables.s": (t["groups.step_tables"], "s"),
            "groups.from_letters.calls": (c["groups.from_letters"], "count"),
            "groups.from_letters.s": (t["groups.from_letters"], "s"),
            "solver.builds": (c["solver.build"], "count"),
            "solver.lu": (v["solver.lu"], "count"),
            "solver.series": (v["solver.series"], "count"),
            "solver.transition_matrix.s": (t["solver.transition_matrix"], "s"),
            "solver.factor.s": (keys["solver.build"].self_s, "s"),
            "solver.solves": (v["solver.solves"], "count"),
            "solver.solve.s": (t["solver.solve"], "s"),
            "solver.max_residual": (mx.get("solver.max_residual", 0.0), "abs"),
            "green.calls": (c["green.green"], "count"),
            "green.word.calls": (c["green.word"], "count"),
            "green.s": (self.layers["green"].total, "s"),
            "green.max_radius": (mx.get("green.max_radius", 0), "radius"),
            "green.max_bracket_rel_width": (mx.get("green.max_bracket_rel_width", 0.0), "ratio"),
            "green.unconverged": (v["green.unconverged"], "count"),
            "martin.kernel.calls": (c["martin.kernel"], "count"),
            "martin.kernel.s": (t["martin.kernel"], "s"),
            "martin.ratio.calls": (c["martin.ratio"], "count"),
            "martin.ratio.s": (t["martin.ratio"], "s"),
            "martin.ratio.powers": (v["martin.ratio.powers"], "count"),
            "martin.green_value.calls": (c["martin.green_value"], "count"),
            "martin.green_value.hit_ratio": (ratio(gv["hits"], gv["hits"] + gv["misses"]), "ratio"),
            "walks.boundary.calls": (c["walks.boundary"], "count"),
            "walks.boundary.s": (t["walks.boundary"], "s"),
            "walks.boundary.steps": (v["walks.boundary.steps"], "count"),
            "walks.boundary.timeouts": (v["walks.boundary.timeouts"], "count"),
            "walks.boundary.accept_ratio": (ratio(v["walks.boundary.accepted"], c["walks.boundary"]), "ratio"),
            "walks.spectral.s": (t["walks.spectral"], "s"),
            "measure.sample_set.s": (t["measure.sample_set"], "s"),
            "measure.retries": (v["measure.retries"], "count"),
            "measure.membership.calls": (c["measure.membership"], "count"),
            "measure.membership.s": (t["measure.membership"], "s"),
            "measure.membership.indeterminate": (v["measure.membership.indeterminate"], "count"),
            "measure.gibbs.s": (t["measure.gibbs"], "s"),
            "measure.rn.s": (t["measure.rn"], "s"),
            "classify.s": (keys["classify.classify"].self_s, "s"),
            "classify.reps": (v["classify.reps"], "count"),
            "classify.lattice.calls": (c["classify.lattice"], "count"),
            "classify.lattice.s": (t["classify.lattice"], "s"),
        }
        for name in EXPERIMENTS:
            out[f"report.exp.{name}.s"] = (t[f"report.exp.{name}"], "s")
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (self.layers[layer].self_s, "s")
        out["trace.absent"] = (len(self.absent), "count")
        return out
