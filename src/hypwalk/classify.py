"""Ratio-set classification of the boundary equivalence relation.

The multiplicative group generated by the computed r(g) values is either
a lattice {lambda^n} or dense in (0, inf); the verdict comes from a
tolerant real GCD of the logarithms.  A dense verdict can only ever mean
"no lattice was detectable at the tested tolerance", and the report says
exactly which tolerances were tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .groups import GroupModel, conjugacy_representatives
from .martin import RatioValue, ratio_invariant
from .walks import WalkSpec, require_valid

_EPS_GRID = tuple(float(x) for x in np.geomspace(1e-7, 0.2, 45))


def real_log_gcd(values: Sequence[float], eps_rel: float) -> float:
    """Tolerant GCD of positive reals; 0.0 signals collapse (no lattice).

    Euclid with nearest-multiple remainders: a remainder below
    ``eps_rel * b`` counts as zero, and a candidate below
    ``eps_rel * max(values)`` counts as collapsed.  Nearest-multiple
    rounding keeps estimator noise from masquerading as a tiny generator.
    """
    vals = sorted({float(v) for v in values})
    if not vals or vals[0] <= 0:
        raise ValidationError("log-lattice input must be positive")
    eps_abs = eps_rel * max(vals)
    g = vals[0]
    for v in vals[1:]:
        g = _gcd2(g, v, eps_rel, eps_abs)
        if g == 0.0:
            return 0.0
    return g


def _gcd2(a: float, b: float, eps_rel: float, eps_abs: float) -> float:
    a, b = max(a, b), min(a, b)
    while True:
        if b < eps_abs:
            return 0.0
        k = round(a / b)
        r = abs(a - k * b)
        if r <= eps_rel * b:
            return b
        a, b = b, r


@dataclass(frozen=True)
class LatticeResult:
    """Outcome of the lattice test on a set of ratio values."""

    lattice: bool
    lam: float  # generator when lattice, nan otherwise
    log_gcd: float
    eps: float
    stability_lo: float  # eps interval with an unchanged verdict
    stability_hi: float
    caveat: bool
    multiples_ok: bool


def lattice_test(r_values: Sequence[float], eps_rel: float = 1e-3) -> LatticeResult:
    """Decide lattice vs dense for the group generated by the r values.

    Values equal to 1 carry no information and are dropped.  The verdict
    is rechecked across a tolerance grid; a dense verdict that flips
    within a decade of ``eps_rel`` is downgraded to the lattice verdict
    with the caveat flag set.
    """
    logs = [-math.log(v) for v in r_values if 0 < v < 1.0]
    if not logs:
        raise ValidationError("no nontrivial ratio values to classify")
    for v in r_values:
        if v <= 0 or v > 1:
            raise ValidationError(f"ratio value {v} outside (0, 1]")

    def gcd_at(eps: float) -> float:
        return real_log_gcd(logs, eps)

    g0 = gcd_at(eps_rel)
    is_lattice = g0 > 0.0
    # Maximal contiguous tolerance interval (on the scan grid) keeping
    # the verdict: its endpoints bracket the verdict flip points.
    scan = sorted(set(_EPS_GRID) | {eps_rel, eps_rel / 10, eps_rel * 10})
    agrees = {eps: (gcd_at(eps) > 0.0) == is_lattice for eps in scan}
    i = scan.index(eps_rel)
    lo = hi = eps_rel
    j = i
    while j - 1 >= 0 and agrees[scan[j - 1]]:
        j -= 1
        lo = scan[j]
    j = i
    while j + 1 < len(scan) and agrees[scan[j + 1]]:
        j += 1
        hi = scan[j]
    caveat = False
    lam = float("nan")
    if not is_lattice:
        near = [
            (eps, gcd_at(eps)) for eps in scan
            if eps_rel / 10 <= eps <= eps_rel * 10 and gcd_at(eps) > 0.0
        ]
        if near:
            # Collapse is not stable across the tolerance decade: report
            # the lattice seen at the nearest working tolerance instead.
            _, g0 = min(near)
            is_lattice = True
            caveat = True
    multiples_ok = True
    if is_lattice:
        lam = math.exp(-g0)
        for x in logs:
            k = round(x / g0)
            if abs(x - k * g0) > max(eps_rel, 1e-9) * max(x, g0):
                multiples_ok = False
    return LatticeResult(
        lattice=is_lattice,
        lam=lam,
        log_gcd=g0 if is_lattice else 0.0,
        eps=eps_rel,
        stability_lo=lo,
        stability_hi=hi,
        caveat=caveat,
        multiples_ok=multiples_ok,
    )


def _rational_label(lam: float, rel_tol: float = 0.01) -> str:
    frac = Fraction(lam).limit_denominator(64)
    if frac.numerator >= 1 and abs(float(frac) - lam) <= rel_tol * lam:
        return f"{frac.numerator}/{frac.denominator}"
    return f"{lam:.6g}"


@dataclass(frozen=True)
class RatioSetReport:
    """Computed ratio values plus the lattice verdict and its stability."""

    model: GroupModel
    maxlen: int
    values: tuple[RatioValue, ...]
    classification: str
    lattice: bool
    lam: float
    label: str
    eps: float
    stability: tuple[float, float]
    caveat: bool
    stable_in_maxlen: bool

    def summary(self) -> str:
        return self.classification


def classify(walk: WalkSpec, maxlen: int, tol: float = 1e-3) -> RatioSetReport:
    """Classify the boundary type from ratio values up to a length budget.

    ``tol`` is the relative GCD tolerance.  The type is III_lambda when
    the log-ratios form a lattice and III_1 otherwise; III_0 cannot
    occur.  The verdict agreement between maxlen-1 and maxlen is
    reported as a stability signal.
    """
    require_valid(walk)
    reps = conjugacy_representatives(walk.model, maxlen)
    values = [ratio_invariant(walk, g) for g, finite in reps if not finite]
    if not values:
        raise ValidationError(f"no infinite-order representatives up to length {maxlen}")
    result = lattice_test([v.value for v in values], tol)
    stable = True
    if maxlen > 1:
        shorter = [v.value for v in values if v.element.word_length() <= maxlen - 1]
        if shorter:
            prev = lattice_test(shorter, tol)
            stable = prev.lattice == result.lattice and (
                not result.lattice or abs(prev.lam - result.lam) <= 0.05 * result.lam
            )
    if result.lattice:
        label = _rational_label(result.lam)
        classification = f"III_{label}"
    else:
        label = "1"
        classification = "III_1"
    return RatioSetReport(
        model=walk.model,
        maxlen=maxlen,
        values=tuple(values),
        classification=classification,
        lattice=result.lattice,
        lam=result.lam,
        label=label,
        eps=tol,
        stability=(result.stability_lo, result.stability_hi),
        caveat=result.caveat,
        stable_in_maxlen=stable,
    )
