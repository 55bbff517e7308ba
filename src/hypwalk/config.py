"""Experiment configuration: schema, defaults, validation, overrides.

Configs are JSON with a ``schema_version`` field.  All randomness flows
from the single required ``walk.seed``; there is no wall-clock default
anywhere.

numpy is the dependency of boundary sample sets, not of sampling:
``_sampler``, which draws sample sets, is the one module that imports it
at load time.  ``parse_config`` loads the plain-Python draws of
``_streams`` when the config names an experiment that samples
(``SAMPLING``), and ``_sampler`` when it names one that draws sample sets
(``SAMPLE_SETS``), so each config pays its imports during set-up, before
any experiment runs.  A config whose only sampling experiment is
``simulate`` never loads numpy, nor does one that computes exact values
only.
"""

from __future__ import annotations

import json
import math
from typing import Any

from ._record import record
from .errors import ConfigError, ValidationError
from .groups import FREE, FREE_PRODUCT, GroupModel
from .walks import BOUNDARY_MAX_STEPS, WalkSpec, make_walk, uniform_walk, validate_walk

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "green",
    "martin",
    "rg",
    "gibbs",
    "ancona",
    "hoelder",
    "rn-check",
    "classify",
    "simulate",
)

# The experiments that draw boundary or path samples, and those of them
# that draw boundary sample sets.
SAMPLING = frozenset({"simulate", "gibbs", "rn-check"})
SAMPLE_SETS = frozenset({"gibbs", "rn-check"})

_BUDGET_DEFAULTS = {
    "max_radius": None,  # green: word list radius min(4, R), 4 when None
    "n_samples": 100_000,  # the one boundary sample set that gibbs and rn-check share
    "maxlen": 3,  # longest conjugacy representative that rg lists
    "spectral_steps": 24,  # return probabilities that simulate lists
    "boundary_patience": 20,  # sampler: steps a prefix must stay untouched
    "boundary_max_steps": 20_000,  # sampler: steps per stream before a timeout
    "gibbs_radii": [1, 2, 3, 4, 5],
}

@record(hide=("raw",))
class ExperimentConfig:
    model: GroupModel
    walk: WalkSpec
    budgets: dict
    experiments: tuple[str, ...]
    output_dir: str
    raw: dict

    def echo(self) -> dict:
        return self.raw

    @property
    def sample_sets(self) -> bool:
        """Whether an experiment draws boundary sample sets, and so needs
        numpy."""
        return not SAMPLE_SETS.isdisjoint(self.experiments)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    """An integer, and not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value: int | float) -> bool:
    """Finite as a float: JSON admits NaN and Infinity, and integers past
    the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _parse_model(section: Any) -> GroupModel:
    _require(isinstance(section, dict), "model must be an object")
    _check_keys(section, {"kind", "rank", "orders"}, "model")
    kind = section.get("kind")
    _require(kind in (FREE, FREE_PRODUCT), f"model.kind must be '{FREE}' or '{FREE_PRODUCT}'")
    if kind == FREE:
        _require("orders" not in section, "free model takes no orders")
        rank = section.get("rank")
        _require(_is_int(rank), f"model.rank must be an integer, not {rank!r}")
        args = (rank,)
    else:
        _require("rank" not in section, "free_product model takes no rank")
        orders = section.get("orders")
        _require(
            isinstance(orders, (list, tuple)) and len(orders) == 2
            and all(_is_int(m) for m in orders),
            f"model.orders must be a pair of integers [m, n], not {orders!r}",
        )
        args = tuple(orders)
    try:
        return GroupModel.free(*args) if kind == FREE else GroupModel.free_product(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _parse_walk(section: Any, model: GroupModel) -> WalkSpec:
    _require(isinstance(section, dict), "walk must be an object")
    _check_keys(section, {"support", "seed"}, "walk")
    _require("seed" in section, "walk.seed is required (no wall-clock default)")
    seed = section["seed"]
    _require(_is_int(seed), "walk.seed must be an integer")
    support = section.get("support", "uniform")
    if support == "uniform":
        return uniform_walk(model, seed)
    _require(isinstance(support, list) and support, "walk.support must be 'uniform' or a list")
    items = []
    for entry in support:
        _require(
            isinstance(entry, (list, tuple)) and len(entry) == 2,
            "support entries are [word, probability] pairs",
        )
        word, prob = entry
        _require(
            isinstance(prob, (int, float)) and not isinstance(prob, bool) and _finite(prob),
            f"walk.support probabilities must be finite numbers, not {prob!r}",
        )
        try:
            g = model.word(str(word))
        except ValueError as exc:
            raise ConfigError(f"bad support entry {entry}: {exc}") from exc
        _require(
            g.word_length() == 1,
            f"walk.support word {word!r} is not a letter: walks step by single generators",
        )
        items.append((g, float(prob)))
    walk = make_walk(model, items, seed)
    try:
        report = validate_walk(walk)
    except ValidationError as exc:
        raise ConfigError(f"walk.support: {exc}") from exc
    _require(report.nondegenerate, "walk.support is degenerate: it does not generate the group")
    return walk


def _merged(defaults: dict, user: Any, where: str) -> dict:
    if user is None:
        return dict(defaults)
    _require(isinstance(user, dict), f"{where} must be an object")
    _check_keys(user, defaults, where)
    out = dict(defaults)
    out.update(user)
    return out


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError on schema violations."""
    _require(isinstance(data, dict), "config must be a JSON object")
    _check_keys(
        data,
        {"schema_version", "model", "walk", "budgets", "tolerances", "experiments", "output"},
        "top-level",
    )
    _require("schema_version" in data, "schema_version is required")
    _require(data["schema_version"] == SCHEMA_VERSION, f"schema_version must be {SCHEMA_VERSION}")
    _require("model" in data, "model section is required")
    _require("walk" in data, "walk section is required")
    model = _parse_model(data["model"])
    walk = _parse_walk(data["walk"], model)
    budgets = _merged(_BUDGET_DEFAULTS, data.get("budgets"), "budgets")
    # Every verdict is judged on enclosures: no tolerance is left, and a
    # config that names a removed one is refused.
    _merged({}, data.get("tolerances"), "tolerances")
    for key, value in budgets.items():
        if key in ("max_radius",) and value is None:
            continue
        if key == "gibbs_radii":
            _require(
                isinstance(value, list) and value and all(_is_int(r) and r >= 1 for r in value),
                "budgets.gibbs_radii must be a nonempty list of positive integer radii",
            )
            continue
        _require(_is_int(value) and value > 0, f"budgets.{key} must be a positive integer")
    _require(budgets["n_samples"] >= 2, "budgets.n_samples must be at least 2")
    _require(
        budgets["boundary_max_steps"] <= BOUNDARY_MAX_STEPS,
        f"budgets.boundary_max_steps must be at most {BOUNDARY_MAX_STEPS}: the sampler "
        "counts steps in 32 bits",
    )
    _require(
        budgets["spectral_steps"] >= 4 and budgets["spectral_steps"] % 2 == 0,
        "budgets.spectral_steps must be an even integer of at least 4",
    )
    experiments = data.get("experiments", ["classify"])
    _require(
        isinstance(experiments, list) and experiments, "experiments must be a nonempty list"
    )
    for i, name in enumerate(experiments):
        _require(name in EXPERIMENTS, f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
        _require(name not in experiments[:i], f"experiment {name!r} is listed twice")
    output = data.get("output")
    output = {} if output is None else output
    _require(isinstance(output, dict), f"output must be an object, not {output!r}")
    _check_keys(output, {"dir"}, "output")
    out_dir = output.get("dir", "out")
    _require(
        isinstance(out_dir, str) and out_dir, f"output.dir must be a nonempty string, not {out_dir!r}"
    )
    cfg = ExperimentConfig(
        model=model,
        walk=walk,
        budgets=budgets,
        experiments=tuple(experiments),
        output_dir=out_dir,
        raw=data,
    )
    if not SAMPLING.isdisjoint(cfg.experiments):
        from . import _streams  # noqa: F401  the draws' import, paid during set-up
    if cfg.sample_sets:
        from . import _sampler  # noqa: F401  numpy's import, paid during set-up
    return cfg


def read_config(path: str) -> Any:
    """The raw config of a JSON file, before any validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return parse_config(read_config(path))


def apply_overrides(data: Any, overrides: list[str]) -> dict:
    """Apply ``key.path=value`` overrides to a raw config dict."""
    _require(isinstance(data, dict), "config must be a JSON object")
    out = json.loads(json.dumps(data))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = parsed
    return out
