"""Experiment orchestration and report emission.

Each experiment computes a result object, a pass/fail verdict against
its generic bands, and an optional CSV series.  Reports are
deterministic: same config and seed give byte-identical output up to the
``generated_at`` timestamp field.

Results are plain rows of built-in types and records (the ``green``
table is one row per word), which ``_plain`` matches by exact type, and
``report.json`` is streamed to its file by ``json.dump``: one string of
a large table would double the peak memory.  The ``green`` table is
refused above ``_MAX_WORDS`` words before any value is computed, and
``rg`` on a ball above it before any class is listed.

A run draws at most one boundary sample set, under one purpose tag,
before its first experiment, when it selects ``gibbs`` or ``rn-check``,
and passes it to both.  Its margin is the larger of the two experiments'
needs, read from the model's probe points and ``budgets.gibbs_radii``
alone, so each block is the same whether its experiment runs alone or
with the other; both blocks name the set's size, margin, retries and
steps.

``versions`` records the numpy version if and only if the config draws
boundary sample sets (``ExperimentConfig.sample_sets``): only such a
config loads numpy, and the rule reads the config alone, so reports stay
deterministic in it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

from . import __version__ as _pkg_version
from ._exact import _EPS
from ._record import fields, record
from .classify import classify
from .config import SAMPLE_SETS, ExperimentConfig
from .errors import BudgetExceededError
from .green import ancona_check, green_decay_rate, green_table, harnack_constant
from .groups import (
    FREE,
    GroupElement,
    GroupModel,
    conjugacy_representatives,
    word_count,
)
from .martin import (
    BoundaryPoint,
    hoelder_probe,
    martin_kernel,
    martin_kernel_at,
    ratio_invariant,
)
from .measure import (
    Cylinder,
    SampleSet,
    gibbs_margin,
    gibbs_ratio,
    radon_nikodym_check,
    rn_check_margin,
)
from .walks import (
    require_valid,
    sample_path,
    spectral_radius_estimate,
    validate_walk,
)


_SCALARS = frozenset({str, int, bool, type(None)})


def _plain(obj):
    """Convert report objects to JSON-serializable plain data.

    Reports hold built-in scalars, dicts, lists, tuples and records, each
    matched by exact ``type()``; a non-finite float becomes its repr.
    Any other type raises TypeError."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind in _SCALARS:
        return obj
    if kind is dict:
        return {str(k): _plain(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_plain(x) for x in obj]
    names = fields(kind)
    if names is None:
        raise TypeError(f"report value of type {kind.__name__} has no plain form")
    return {name: _plain(getattr(obj, name)) for name in names}


def _probe_points(model: GroupModel) -> tuple[list[GroupElement], list[BoundaryPoint]]:
    """Infinite-order probe elements and distinct boundary points."""
    if model.kind == FREE:
        a, b = model.word("a"), model.word("b")
        return [a, a * b], [BoundaryPoint.periodic(a), BoundaryPoint.periodic(b)]
    s, t = model.word("s"), model.word("t")
    return [s * t, t * s], [BoundaryPoint.periodic(s * t), BoundaryPoint.periodic(t * s)]


# ---------------------------------------------------------------------------
# individual experiments: each returns (result, passed, csv_or_None)

# The longest word list the green experiment tabulates.  Through cli.main
# (2-core x86_64, Python 3.11), uniform F_8 at radius 4 (57,857 words)
# takes 2.2 s and 67 MB peak RSS, uniform F_12 (305,281 words) 12.1 s and
# 223 MB: on the line through both, 40 us and 0.63 kB per word.  That line
# reaches 30 s at 750,600 words and 1 GB at 1.58 M, so time sets the cap.
# B(e, 4) fits up to F_14 (572,725 words, about 23 s); F_15 has 757,801.
# rg lists the classes that meet a ball no larger.
_MAX_WORDS = 750_000
_GREEN_FIELDS = ("word", "length", "value", "lower", "upper")


def _exp_green(cfg: ExperimentConfig):
    walk = cfg.walk
    radius = min(4, cfg.budgets["max_radius"] or 4)
    size = word_count(cfg.model, radius)
    if size > _MAX_WORDS:
        raise BudgetExceededError(
            f"green: B(e,{radius}) on {cfg.model} holds {size} words, above {_MAX_WORDS}; "
            "a smaller budgets.max_radius gives a smaller table"
        )
    rows = green_table(walk, radius)
    ok = all(lo <= v <= hi for _, _, v, lo, hi in rows)
    rate = green_decay_rate(walk)
    c1 = harnack_constant(walk)
    ok = ok and rate.upper < 1.0
    result = {
        "entries": [dict(zip(_GREEN_FIELDS, row)) for row in rows],
        "decay_rate": rate.value,
        "decay_rate_upper": rate.upper,
        "harnack_constant": c1,
    }
    return result, ok, (_GREEN_FIELDS, rows)


def _exp_simulate(cfg: ExperimentConfig):
    from . import _streams  # loaded by parse_config, as simulate samples

    walk = cfg.walk
    report = require_valid(walk)  # parse_config refuses degenerate walks
    path = sample_path(walk, cfg.model.identity(), 64, stream=0)
    sr = spectral_radius_estimate(walk, cfg.budgets["spectral_steps"])
    drawn = _streams.boundary_prefixes(
        walk, range(1000, 1064), 10, cfg.budgets["boundary_patience"],
        cfg.budgets["boundary_max_steps"],
    )
    depths = [len(letters) for letters, _ in drawn if letters is not None]
    steps = [used for letters, used in drawn if letters is not None]
    failures = 64 - len(steps)
    ok = sr.lower <= sr.upper < 1.0 and failures == 0
    result = {
        "validation": _plain(report),
        "first_positions": [str(x) for x in path.positions[:8]],
        "spectral_lower": sr.lower,
        "spectral_upper": sr.upper,
        # The integer sums stay below 2^53, so each mean is one rounding.
        "boundary_mean_steps": sum(steps) / len(steps) if steps else None,
        "boundary_mean_depth": sum(depths) / len(depths) if depths else None,
        "boundary_failures": failures,
    }
    csv_rows = [(2 * k, p) for k, p in enumerate(sr.even_returns)]
    return result, ok, (("steps", "return_probability"), csv_rows)


def _exp_martin(cfg: ExperimentConfig):
    walk = cfg.walk
    probes, points = _probe_points(cfg.model)
    rows = []
    ok = True
    for g in probes:
        for xi in points:
            est = martin_kernel(walk, g, xi)
            rows.append({"g": str(g), "xi": str(xi), "value": est.value, "depth": est.depth})
            ok = ok and est.value > 0
    g1, g2 = probes[0], probes[0].inverse()
    depth = g1.word_length() + g2.word_length() + 8
    y = points[1].prefix(depth)
    # g1 g2 = e, so K(g1 g2, y) = 1: its enclosure must meet the outward
    # rounded product of those of K(g1, y) and K(g2, g1^-1 y).
    lhs = martin_kernel_at(walk, g1 * g2, y)
    k1 = martin_kernel_at(walk, g1, y)
    k2 = martin_kernel_at(walk, g2, g1.inverse() * y)
    rhs = k1.value * k2.value
    low = k1.lower * k2.lower * (1.0 - _EPS)
    high = k1.upper * k2.upper * (1.0 + _EPS)
    cocycle_residual = abs(lhs.value / rhs - 1.0) if rhs else float("inf")
    ok = ok and lhs.lower <= high and low <= lhs.upper
    result = {"kernels": rows, "cocycle_residual": cocycle_residual, "cocycle_depth": depth}
    csv_rows = [(r["g"], r["xi"], r["value"], r["depth"]) for r in rows]
    return result, ok, (("g", "xi", "value", "depth"), csv_rows)


def _ratio_row(rv) -> dict:
    return {"rep": str(rv.element), "length": rv.element.word_length(), "r": rv.value,
            "lower": rv.lower, "upper": rv.upper, "finite_order": rv.finite_order}


def _exp_rg(cfg: ExperimentConfig):
    maxlen = cfg.budgets["maxlen"]
    size = word_count(cfg.model, maxlen)
    if size > _MAX_WORDS:
        raise BudgetExceededError(
            f"rg: B(e,{maxlen}) on {cfg.model} holds {size} words, above {_MAX_WORDS}; "
            "a smaller budgets.maxlen lists fewer classes"
        )
    reps = conjugacy_representatives(cfg.model, maxlen)
    rows = [_ratio_row(ratio_invariant(cfg.walk, g)) for g, _ in reps]
    ok = all(r["finite_order"] or 0 < r["r"] < 1 for r in rows)
    csv_rows = [(r["rep"], r["length"], r["r"], r["lower"], r["upper"]) for r in rows]
    return {"ratios": rows}, ok, (("rep", "length", "r", "lower", "upper"), csv_rows)


def _exp_ancona(cfg: ExperimentConfig):
    rep = ancona_check(cfg.walk)
    result = {
        "rho_max": rep.value,
        "rho_max_lower": rep.lower,
        "rho_max_upper": rep.upper,
        "argmax": [str(g) for g in rep.argmax],
        "n_triples": len(rep.triples),
    }
    csv_rows = [(*map(str, triple), *rho) for triple, rho in rep.triples]
    return result, rep.holds(), (("c1", "v", "c2", "rho", "lower", "upper"), csv_rows)


def _exp_hoelder(cfg: ExperimentConfig):
    g = _probe_points(cfg.model)[0][0]
    rep = hoelder_probe(cfg.walk, g)
    result = {
        "g": str(g),
        "cones": [
            {"head": str(h), "value": v, "lower": lo, "upper": hi} for h, (v, lo, hi) in rep.cones
        ],
        "n_cones": rep.n_cones,
        "value_min": rep.value_min,
        "value_max": rep.value_max,
        "depth": rep.depth,
        "local": rep.local,
    }
    csv_rows = [(str(h), *enclosure) for h, enclosure in rep.cones]
    return result, rep.holds(), (("head", "value", "lower", "upper"), csv_rows)


# The purpose tag of the run's one boundary sample set.
_SAMPLE_PURPOSE = "boundary"


def _rn_probe(model: GroupModel) -> tuple[GroupElement, Cylinder]:
    """rn-check's element g and cylinder U."""
    probes, points = _probe_points(model)
    g = probes[0] if model.kind == FREE else model.word("s")
    return g, Cylinder.around(points[1], 0)


def _sample_set(cfg: ExperimentConfig) -> SampleSet:
    """The run's boundary sample set, at the larger of the margins that
    gibbs and rn-check need on this model, whichever of them is selected."""
    _, points = _probe_points(cfg.model)
    margin = max(
        gibbs_margin(points[0], cfg.budgets["gibbs_radii"]), rn_check_margin(*_rn_probe(cfg.model))
    )
    return SampleSet.draw(
        cfg.walk, cfg.budgets["n_samples"], margin, cfg.budgets["boundary_patience"],
        cfg.budgets["boundary_max_steps"], _SAMPLE_PURPOSE,
    )


def _exp_gibbs(cfg: ExperimentConfig, samples: SampleSet):
    _, points = _probe_points(cfg.model)
    rep = gibbs_ratio(cfg.walk, points[0], cfg.budgets["gibbs_radii"], samples)
    ok = rep.ratio_min > 0 and all(math.isfinite(r.ratio) for r in rep.rows)
    result = {
        "base_point": str(points[0]),
        **_plain(rep),
        "envelope": rep.ratio_max / rep.ratio_min if rep.ratio_min > 0 else float("inf"),
    }
    csv_rows = [
        (r.radius, r.nu, r.nu_half, r.f_value, r.ratio, r.ratio_lower, r.ratio_upper)
        for r in rep.rows
    ]
    header = ("radius", "nu", "nu_half", "first_passage", "ratio", "ratio_lower", "ratio_upper")
    return result, ok, (header, csv_rows)


def _exp_rn_check(cfg: ExperimentConfig, samples: SampleSet):
    g, cyl = _rn_probe(cfg.model)
    rep = radon_nikodym_check(cfg.walk, g, cyl, samples)
    result = {
        "g": str(g),
        "cylinder_base": str(cyl.base),
        "cylinder_radius": cyl.radius,
        **_plain(rep),
    }
    csv_rows = [(rep.pulled_mass, rep.pulled_half, rep.kernel_integral, rep.kernel_half)]
    header = ("pulled_mass", "pulled_half", "kernel_integral", "kernel_half")
    return result, rep.agree, (header, csv_rows)


def _exp_classify(cfg: ExperimentConfig):
    rep = classify(cfg.walk)
    ok = all(0 < v.value < 1 for v in rep.values)
    result = {
        "classification": rep.classification,
        "lattice": rep.lattice,
        "lambda": rep.lam,
        "lambda_lower": rep.lam_lower,
        "lambda_upper": rep.lam_upper,
        "label": rep.label,
        "relation": rep.relation,
        "height": rep.height,
        "lambda_floor": rep.lam_floor,
        "ratios": [_ratio_row(v) for v in rep.values],
    }
    csv_rows = [(r["rep"], r["length"], r["r"]) for r in result["ratios"]]
    return result, ok, (("rep", "length", "r"), csv_rows)


_EXPERIMENTS = {
    "green": _exp_green,
    "simulate": _exp_simulate,
    "martin": _exp_martin,
    "rg": _exp_rg,
    "ancona": _exp_ancona,
    "hoelder": _exp_hoelder,
    "gibbs": _exp_gibbs,
    "rn-check": _exp_rn_check,
    "classify": _exp_classify,
}


@record
class ReportBundle:
    report: dict
    passed: bool
    files: tuple[str, ...]


def _utc_isoformat(ns: int) -> str:
    """The instant ``ns`` nanoseconds after the epoch as
    ``datetime.isoformat`` writes it in UTC, microseconds truncated:
    ``YYYY-MM-DDTHH:MM:SS.ffffff+00:00``, without the fraction when it is
    0.  ``time`` is loaded at start anyway; ``datetime`` is not."""
    seconds, micros = divmod(ns // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ReportBundle:
    """Run the selected experiments and write report.json plus CSV series."""
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    validation = validate_walk(cfg.walk)
    samples = _sample_set(cfg) if cfg.sample_sets else None
    results = {}
    verdicts = {}
    files = []
    for name in cfg.experiments:
        run = _EXPERIMENTS[name]
        result, passed, series = run(cfg, samples) if name in SAMPLE_SETS else run(cfg)
        results[name] = _plain(result)
        verdicts[name] = "pass" if passed else "fail"
        if series is not None:
            header, rows = series
            path = os.path.join(out_dir, f"{name.replace('-', '_')}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            files.append(path)
    passed = all(v == "pass" for v in verdicts.values())
    versions = {"hypwalk": _pkg_version}
    if cfg.sample_sets:
        import numpy as np

        versions["numpy"] = np.__version__
    report = {
        "schema_version": 1,
        "generated_at": _utc_isoformat(time.time_ns()),
        "versions": versions,
        "config_echo": cfg.echo(),
        "model": {"kind": cfg.model.kind, "name": str(cfg.model)},
        "seed": cfg.walk.seed,
        "walk_validation": _plain(validation),
        "results": results,
        "verdicts": verdicts,
        "passed": passed,
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    files.append(path)
    return ReportBundle(report=report, passed=passed, files=tuple(files))
