"""Check a hypwalk ``report.json`` against the exact references of
``oracle.py``.

Deterministic outputs (Green, kernel, first-passage and ratio values)
add their relative error to the run's error list; a reported
``[lower, upper]`` bracket that excludes the exact value fails the
experiment.  Monte Carlo masses must lie within ``MC_SIGMAS`` standard
deviations of the exact mass, the deviation taken at the exact value, so
a correct sampler fails with negligible probability on any seed.
Experiments with nothing exact to compare pass on their verdict alone.
"""

from __future__ import annotations

import math

import oracle

MC_SIGMAS = 5.0


class Outcome:
    """Check results of one experiment."""

    def __init__(self):
        self.errors: list[tuple[float, str]] = []
        self.problems: list[str] = []

    def value(self, what: str, got: float, exact: float) -> None:
        self.errors.append((abs(got - exact) / abs(exact), what))

    def bracket(self, what: str, lower: float, upper: float, exact: float) -> None:
        if not lower <= exact <= upper:
            self.problems.append(f"{what}: bracket [{lower!r}, {upper!r}] excludes exact {exact!r}")

    def sampled(self, what: str, got: float, exact: float, sigma: float) -> None:
        if abs(got - exact) > MC_SIGMAS * sigma:
            self.problems.append(
                f"{what}: {got!r} is {abs(got - exact) / sigma:.1f} sigma from exact {exact!r}"
            )

    def require(self, what: str, cond: bool) -> None:
        if not cond:
            self.problems.append(what)


def _green(walk, res, out):
    for row in res["entries"]:
        exact = walk.green(row["word"])
        what = f"G(e,{row['word']})"
        out.value(what, row["value"], exact)
        out.bracket(what, row["lower"], row["upper"], exact)


def _martin(walk, res, out):
    for row in res["kernels"]:
        out.value(f"K({row['g']},{row['xi']})", row["value"], walk.kernel(row["g"], row["xi"]))


def _ratios(walk, rows, out):
    for row in rows:
        if not row["finite_order"]:
            out.value(f"r({row['rep']})", row["r"], walk.ratio(row["rep"]))


def _rg(walk, res, out):
    _ratios(walk, res["ratios"], out)


def _classify(walk, res, out):
    _ratios(walk, res["ratios"], out)
    label = oracle.lattice_label(walk.ratio(row["rep"]) for row in res["ratios"]
                                 if not row["finite_order"])
    if label is not None:
        out.require(f"classification {res['classification']} != exact {label}",
                    res["classification"] == label)


def _uniform_free_rank(walk) -> int | None:
    """Rank of F_N when the walk is the simple walk, else None."""
    model = walk.model
    if model.orders is not None:
        return None
    p = 1.0 / (2 * model.rank)
    if len(walk.mu) != 2 * model.rank or any(abs(q - p) > 1e-15 for q in walk.mu.values()):
        return None
    return model.rank


def _gibbs(walk, res, out):
    base = res["base_point"]
    rank = _uniform_free_rank(walk)
    for row in res["rows"]:
        R = row["radius"]
        x = walk.ray(base, R)
        f_exact = walk.first_passage(x)
        out.value(f"F(e,x({R}))", row["f_value"], f_exact)
        out.bracket(f"F(e,x({R}))", row["f_lower"], row["f_upper"], f_exact)
        if rank is not None:
            # U(xi, R) is the cone of the ray's first R + 1 letters.
            p = oracle.uniform_cone_mass(rank, R + 1)
            n = res["n_samples"]
            out.sampled(f"nu(U(xi,{R}))", row["nu"], p, math.sqrt(p * (1 - p) / n))


def _rn_check(walk, res, out):
    rank = _uniform_free_rank(walk)
    model = walk.model
    g = model.word(res["g"])
    cone = walk.ray(res["cylinder_base"], res["cylinder_radius"] + 1)
    pulled = model.mul(model.inverse(g), cone)
    if rank is None or model.length(pulled) != model.length(g) + model.length(cone):
        return  # exact masses below cover cones that g^-1 maps without cancellation
    n = res["n_samples"]
    exact = oracle.uniform_cone_mass(rank, model.length(pulled))
    out.sampled("nu(g^-1 U)", res["pulled_mass"], exact, math.sqrt(exact * (1 - exact) / n))
    # K(g, .) is constant on U here: the ray leaves the geodesic to g at e.
    k = walk.first_passage(model.inverse(g))
    p = oracle.uniform_cone_mass(rank, model.length(cone))
    out.sampled("integral of K(g,.) over U", res["kernel_integral"], exact,
                k * math.sqrt(p * (1 - p) / n))


CHECKS = {
    "green": _green,
    "martin": _martin,
    "rg": _rg,
    "classify": _classify,
    "gibbs": _gibbs,
    "rn-check": _rn_check,
}


def check_report(cfg: dict, report: dict) -> dict[str, Outcome]:
    """Outcome per experiment of the config; verdict ``fail`` is a problem."""
    walk = oracle.Walk.from_config(cfg)
    outcomes = {}
    for name in cfg["experiments"]:
        out = Outcome()
        verdict = report["verdicts"].get(name)
        out.require(f"verdict {verdict}", verdict == "pass")
        if name in CHECKS and name in report["results"]:
            CHECKS[name](walk, report["results"][name], out)
        outcomes[name] = out
    return outcomes
