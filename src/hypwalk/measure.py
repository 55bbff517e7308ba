"""Boundary cylinders, Monte Carlo harmonic measure, the measure-to-
first-passage ratio series, and the change-of-variables check.

Monte Carlo estimates are sharded over counter-based streams keyed by a
purpose tag, aggregated in a fixed order, and always carry a 3-sigma
binomial band.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryTimeout,
    IndeterminateMembership,
    IndeterminateRateError,
    ValidationError,
)
from .green import first_passage
from .groups import GroupElement, GroupModel, gromov_product
from .martin import BoundaryPoint, limit_gromov, martin_kernel_at
from .walks import WalkSpec, require_valid, sample_boundary_point


def default_cylinder_margin(model: GroupModel) -> int:
    """Membership margin: 1 on trees, growing with the hyperbolicity constant."""
    return 13 * model.delta_hint + 1


@dataclass(frozen=True)
class Cylinder:
    """The boundary cylinder U(xi, R): points whose rays have limiting
    Gromov product with xi's ray above R.

    R = 0 gives the first-letter cones used by cone calculus; the
    measure-ratio series is probed for R >= 1.
    """

    base: BoundaryPoint
    radius: int
    margin: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValidationError("cylinder radius must be nonnegative")
        floor = default_cylinder_margin(self.base.model)
        if self.margin < floor:
            raise ValidationError(f"margin {self.margin} below model floor {floor}")

    @staticmethod
    def around(base: BoundaryPoint, radius: int, margin: int | None = None) -> "Cylinder":
        if margin is None:
            margin = default_cylinder_margin(base.model)
        return Cylinder(base=base, radius=radius, margin=margin)


def cylinder_membership(
    eta: BoundaryPoint,
    cyl: Cylinder,
    probe_depth: int | None = None,
    max_depth: int | None = None,
) -> bool:
    """Decide eta in U(xi, R) along canonical rays.

    The ray product is nondecreasing, so product > R certifies
    membership at any depth; exclusion needs the product to stabilize
    with 2*delta of slack.  Decisions inside the slack zone deepen and,
    if persistent, raise :class:`IndeterminateMembership` (empty zone on
    tree-like models where delta = 0).
    """
    model = eta.model
    R = cyl.radius
    delta2 = 2 * model.delta_hint
    if probe_depth is None:
        probe_depth = R + cyl.margin + 1
    if max_depth is None:
        max_depth = max(4 * probe_depth, 128)
    value, stabilized = limit_gromov(eta, cyl.base, cap=probe_depth)
    while True:
        if value > R:
            return True
        if stabilized and value + delta2 <= R:
            return False
        if probe_depth >= max_depth or (
            eta.max_depth() is not None and probe_depth >= eta.max_depth()
        ):
            break
        probe_depth = min(max_depth, probe_depth * 2)
        value, stabilized = limit_gromov(eta, cyl.base, cap=probe_depth)
    raise IndeterminateMembership(
        f"product {value} vs R={R} undecidable within depth {probe_depth}"
    )


# ---------------------------------------------------------------------------
# shared boundary sampling


def _stream_base(purpose: str) -> int:
    return zlib.crc32(purpose.encode()) << 32


_RETRY_CAP = 20


def _draw_one(spec, margin, patience, max_steps, stream, retry_base):
    for attempt in range(_RETRY_CAP):
        try:
            s = sample_boundary_point(
                spec, margin=margin, patience=patience, max_steps=max_steps,
                stream=stream if attempt == 0 else retry_base + attempt,
            )
            return s.prefix_letters, attempt
        except BoundaryTimeout:
            continue
    raise BoundaryTimeout(f"sample stream {stream} failed {_RETRY_CAP} times", stream=stream)


@lru_cache(maxsize=8)
def boundary_sample_set(
    spec: WalkSpec,
    n_samples: int,
    margin: int,
    patience: int,
    max_steps: int,
    purpose: str,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """n stabilized prefix words, deterministic in (spec.seed, purpose).

    Sample i uses stream base+i; retries use a disjoint per-sample range,
    so each sample is a pure function of its index.  Returns the
    prefixes and the total retry count.
    """
    base = _stream_base(purpose)
    results = [
        _draw_one(spec, margin, patience, max_steps, base + i, base + n_samples + i * _RETRY_CAP)
        for i in range(n_samples)
    ]
    prefixes = tuple(r[0] for r in results)
    retries = sum(r[1] for r in results)
    return prefixes, retries


def _prefix_membership(
    letters: tuple[int, ...], cyl: Cylinder, model: GroupModel
) -> bool:
    eta = BoundaryPoint(head=model.from_letters(letters), cycle=model.identity())
    return cylinder_membership(eta, cyl, probe_depth=len(letters))


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte Carlo cylinder mass with its 3-sigma binomial half-width."""

    value: float
    n_samples: int
    half_width: float
    n_indeterminate: int
    n_retries: int
    purpose: str
    seed: int

    def band(self) -> tuple[float, float]:
        return (self.value - self.half_width, self.value + self.half_width)


def _measure_from_prefixes(
    prefixes, cyl: Cylinder, model: GroupModel, purpose: str, seed: int,
    retries: int, max_indeterminate: float,
) -> MeasureEstimate:
    hits = 0
    bad = 0
    for letters in prefixes:
        try:
            hits += _prefix_membership(letters, cyl, model)
        except IndeterminateMembership:
            bad += 1
    n_eff = len(prefixes) - bad
    if bad > max_indeterminate * len(prefixes):
        raise IndeterminateRateError(
            f"{bad}/{len(prefixes)} indeterminate memberships (> {max_indeterminate:.0%})"
        )
    nu = hits / n_eff if n_eff else 0.0
    half = 3.0 * np.sqrt(nu * (1.0 - nu) / n_eff) if n_eff else 1.0
    return MeasureEstimate(
        value=nu, n_samples=n_eff, half_width=float(half),
        n_indeterminate=bad, n_retries=retries, purpose=purpose, seed=seed,
    )


def estimate_measure(
    walk: WalkSpec,
    cyl: Cylinder,
    n_samples: int = 100_000,
    *,
    patience: int = 20,
    max_steps: int = 20_000,
    purpose: str = "measure",
    max_indeterminate: float = 0.01,
) -> MeasureEstimate:
    """Harmonic measure of a cylinder from stabilized boundary samples."""
    require_valid(walk)
    margin = max(10, cyl.radius + cyl.margin + 2)
    prefixes, retries = boundary_sample_set(walk, n_samples, margin, patience, max_steps, purpose)
    return _measure_from_prefixes(
        prefixes, cyl, walk.model, purpose, walk.seed, retries, max_indeterminate
    )


# ---------------------------------------------------------------------------
# measure-to-first-passage ratio series


@dataclass(frozen=True)
class GibbsRow:
    radius: int
    nu: float
    nu_half: float
    f_value: float
    f_lower: float
    f_upper: float
    ratio: float
    ratio_lower: float
    ratio_upper: float


@dataclass(frozen=True)
class GibbsReport:
    """nu(U(xi, R)) / F(e, x(R)) over a radius list, with error bands."""

    rows: tuple[GibbsRow, ...]
    ratio_min: float
    ratio_max: float
    n_samples: int
    n_indeterminate: int


def gibbs_ratio(
    walk: WalkSpec,
    xi: BoundaryPoint,
    radii: Sequence[int],
    n_samples: int = 100_000,
    *,
    patience: int = 20,
    max_steps: int = 20_000,
    purpose: str = "gibbs",
    max_indeterminate: float = 0.01,
) -> GibbsReport:
    """Ratio series over R; one shared sample set serves every radius."""
    require_valid(walk)
    if not radii or min(radii) < 1:
        raise ValidationError("gibbs radii must be positive")
    cm = default_cylinder_margin(walk.model)
    margin = max(10, max(radii) + cm + 2)
    prefixes, retries = boundary_sample_set(walk, n_samples, margin, patience, max_steps, purpose)
    e = walk.model.identity()
    rows = []
    bad_total = 0
    for R in radii:
        cyl = Cylinder.around(xi, R)
        est = _measure_from_prefixes(
            prefixes, cyl, walk.model, purpose, walk.seed, retries, max_indeterminate
        )
        bad_total += est.n_indeterminate
        f = first_passage(walk, e, xi.prefix(R))
        lo = max(est.value - est.half_width, 0.0) / f.upper
        hi = (est.value + est.half_width) / max(f.lower, 1e-300)
        rows.append(GibbsRow(
            radius=R, nu=est.value, nu_half=est.half_width,
            f_value=f.value, f_lower=f.lower, f_upper=f.upper,
            ratio=est.value / f.value, ratio_lower=lo, ratio_upper=hi,
        ))
    ratios = [r.ratio for r in rows]
    return GibbsReport(
        rows=tuple(rows),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
        n_samples=n_samples,
        n_indeterminate=bad_total,
    )


# ---------------------------------------------------------------------------
# change of variables


def _translated_membership(
    g: GroupElement,
    letters: tuple[int, ...],
    cyl: Cylinder,
    model: GroupModel,
) -> bool:
    """Decide g . eta in cyl for a sampled prefix of eta.

    The probe sequence g * eta(n) converges to the translated point; the
    product against the base ray stabilizes (exactly on tree-like models)
    once both sequences pass their branch points.
    """
    R = cyl.radius
    delta2 = 2 * model.delta_hint
    window = max(3, 2 * model.delta_hint + 2)
    start = min(len(letters), R + cyl.margin + g.word_length() + 2)
    base_cap = cyl.base.max_depth()
    prev = None
    depth = start
    while True:
        z = g * model.from_letters(letters[:depth])
        x_depth = depth if base_cap is None else min(depth, base_cap)
        x = cyl.base.prefix(x_depth)
        q = gromov_product(z, x)
        if q > R + delta2:
            return True
        if prev is not None and q == prev:
            if q > R:
                return True
            if q + delta2 <= R:
                return False
            raise IndeterminateMembership(f"translated product {q} at threshold R={R}")
        prev = q
        if depth >= len(letters):
            raise IndeterminateMembership(
                f"translated product did not stabilize within {len(letters)} letters"
            )
        depth = min(len(letters), depth + window)


@dataclass(frozen=True)
class RadonNikodymReport:
    """Two-sided change-of-variables comparison.

    ``pulled_mass`` is the sampled measure of g^-1 U; ``kernel_integral``
    is the Monte Carlo integral of the kernel over U.  Agreement is
    judged against the combined bands.
    """

    pulled_mass: float
    pulled_half: float
    kernel_integral: float
    kernel_half: float
    agree: bool
    n_samples: int
    n_indeterminate: int
    kernel_depth: int


def radon_nikodym_check(
    walk: WalkSpec,
    g: GroupElement,
    cyl: Cylinder,
    n_samples: int = 100_000,
    depth: int | None = None,
    *,
    patience: int = 20,
    max_steps: int = 20_000,
    purpose: str = "rn-check",
    max_indeterminate: float = 0.01,
) -> RadonNikodymReport:
    """Compare nu(g^-1 U) with the integral of K(g, .) over U.

    The kernel is evaluated at the sample prefix of length ``depth``
    (default: the sampling margin, past every branch point of g).
    """
    require_valid(walk)
    model = walk.model
    margin = max(10, cyl.radius + cyl.margin + g.word_length() + 4)
    prefixes, _ = boundary_sample_set(walk, n_samples, margin, patience, max_steps, purpose)
    if depth is None:
        depth = margin
    if depth < 1:
        raise ValidationError(f"kernel depth must be positive, got {depth}")
    pulled_hits = 0
    bad = 0
    kernel_vals = []
    for letters in prefixes:
        try:
            inside = _prefix_membership(letters, cyl, model)
            pulled_in = _translated_membership(g, letters, cyl, model)
        except IndeterminateMembership:
            bad += 1
            continue
        if inside:
            y = model.from_letters(letters[:depth])
            kernel_vals.append(martin_kernel_at(walk, g, y).value)
        else:
            kernel_vals.append(0.0)
        pulled_hits += pulled_in
    n_eff = len(prefixes) - bad
    if bad > max_indeterminate * len(prefixes):
        raise IndeterminateRateError(f"{bad}/{len(prefixes)} indeterminate memberships")
    pulled = pulled_hits / n_eff
    pulled_half = 3.0 * float(np.sqrt(pulled * (1 - pulled) / n_eff))
    vals = np.asarray(kernel_vals)
    integral = float(vals.mean())
    kernel_half = 3.0 * float(vals.std(ddof=1) / np.sqrt(len(vals)))
    return RadonNikodymReport(
        pulled_mass=pulled,
        pulled_half=pulled_half,
        kernel_integral=integral,
        kernel_half=kernel_half,
        agree=abs(pulled - integral) <= pulled_half + kernel_half,
        n_samples=n_eff,
        n_indeterminate=bad,
        kernel_depth=depth,
    )
