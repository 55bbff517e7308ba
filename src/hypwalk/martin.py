"""Martin kernel along boundary rays, the ratio invariant r(g), kernel
regularity probes, and the circle-valued coboundary limit.

Kernel and ratio values are exact products of one-syllable first-passage
values from the cut-vertex engine, so the cocycle identity
K(gh, .) = K(g, .) K(h, g^-1 .) holds to float rounding at every finite
evaluation depth, and the kernel along a ray is constant once the ray has
left the geodesic to g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import stats

from . import _exact
from .errors import GreenBudgetError, ValidationError
from .green import GreenEstimate
from .groups import FREE, GroupElement, GroupModel, gromov_product
from .walks import WalkSpec, require_valid


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point given by an eventually periodic geodesic ray.

    ``prefix(n)`` returns the ray's n-th vertex; ``head`` is the aperiodic
    initial part and ``cycle`` the repeating part.  A trivial cycle means
    a frozen finite approximant (e.g. a stabilized boundary sample),
    usable only up to its recorded depth.
    """

    head: GroupElement
    cycle: GroupElement

    def __post_init__(self):
        if not self.cycle.is_identity():
            if self.cycle.has_finite_order():
                raise ValidationError("cycle must have infinite order")
            cc = self.cycle * self.cycle
            if cc.letters() != self.cycle.letters() * 2:
                raise ValidationError("cycle is not cyclically reduced")
            hc = self.head * self.cycle
            if hc.letters() != self.head.letters() + self.cycle.letters():
                raise ValidationError("head does not extend to the cycle without cancellation")

    @staticmethod
    def periodic(g: GroupElement) -> "BoundaryPoint":
        """The attracting fixed point of an infinite-order element."""
        if g.has_finite_order():
            raise ValidationError(f"{g} has finite order, no axis")
        u, c = g.cyclic_reduction()
        return BoundaryPoint(head=u, cycle=c)

    @staticmethod
    def from_word(model: GroupModel, head: str | GroupElement, cycle: str | GroupElement) -> "BoundaryPoint":
        if isinstance(head, str):
            head = model.word(head)
        if isinstance(cycle, str):
            cycle = model.word(cycle)
        return BoundaryPoint(head=head, cycle=cycle)

    @staticmethod
    def from_sample(sample) -> "BoundaryPoint":
        return BoundaryPoint(head=sample.prefix, cycle=sample.prefix.model.identity())

    @property
    def model(self) -> GroupModel:
        return self.head.model

    def max_depth(self) -> int | None:
        if self.cycle.is_identity():
            return len(self.head.letters())
        return None

    def prefix_letters(self, n: int) -> tuple[int, ...]:
        head = self.head.letters()
        if n <= len(head):
            return head[:n]
        cyc = self.cycle.letters()
        if not cyc:
            raise ValidationError(f"frozen boundary prefix has only {len(head)} letters, asked {n}")
        need = n - len(head)
        reps = -(-need // len(cyc))
        return (head + cyc * reps)[:n]

    def prefix(self, n: int) -> GroupElement:
        return self.model.from_letters(self.prefix_letters(n))

    def __str__(self):
        if self.cycle.is_identity():
            return f"{self.head}(frozen)"
        return f"{self.head}({self.cycle})^inf"


def limit_gromov(
    a: BoundaryPoint,
    b: BoundaryPoint,
    cap: int = 256,
    window: int | None = None,
) -> tuple[Fraction, bool]:
    """Limiting Gromov product of two canonical rays, with a stabilized flag.

    The depth-n product is nondecreasing; on tree models it is exact once
    the rays diverge.  Returns the best computed value (a lower bound of
    the limit) and whether it stabilized within the depth cap.
    """
    model = a.model
    if model != b.model:
        raise ValidationError("boundary points from different models")
    avail = min(x for x in (a.max_depth(), b.max_depth(), cap) if x is not None)
    la = a.prefix_letters(avail)
    lb = b.prefix_letters(avail)
    k = 0
    while k < avail and la[k] == lb[k]:
        k += 1
    if k >= avail:
        # No divergence seen: the product is at least the scanned depth.
        return Fraction(avail), False
    if model.kind == FREE:
        return Fraction(k), True
    if window is None:
        window = max(3, 4 * model.delta_hint + 2)
    depth = min(k + 1, avail)
    value = gromov_product(a.prefix(depth), b.prefix(depth))
    while True:
        nxt = min(depth + window, avail)
        if nxt == depth:
            return value, False
        new = gromov_product(a.prefix(nxt), b.prefix(nxt))
        if new == value and nxt >= value + window:
            return new, True
        value, depth = new, nxt


# ---------------------------------------------------------------------------
# kernel evaluation


def martin_kernel_at(walk: WalkSpec, g: GroupElement, y: GroupElement) -> GreenEstimate:
    """Finite-stage Martin kernel G(g, y) / G(e, y), exact with an enclosure."""
    require_valid(walk)
    return GreenEstimate.exact(_exact.kernel(walk, g, y))


@dataclass(frozen=True)
class MartinEstimate:
    """Kernel estimate along a ray with a depth-stability diagnostic."""

    value: float
    depth: int
    deviation: float
    lower: float
    upper: float
    converged: bool
    series: tuple[tuple[int, float], ...]


def _depth_schedule(g_len: int, depth: int | None, depth_cap: int) -> list[int]:
    if depth is not None:
        ds = sorted({max(1, depth - 4), max(1, depth - 2), depth})
    else:
        ds = [g_len + s for s in (8, 12, 16, 24) if g_len + s <= depth_cap]
        if len(ds) < 3:
            ds = sorted({d for d in (depth_cap - 4, depth_cap - 2, depth_cap) if d >= 1})
    if not ds or ds[-1] > depth_cap:
        raise GreenBudgetError(
            f"no usable kernel depth: cap {depth_cap} for |g|={g_len}"
        )
    return ds


def martin_kernel(
    walk: WalkSpec,
    g: GroupElement,
    xi: BoundaryPoint,
    depth: int | None = None,
    *,
    dev_threshold: float = 1e-3,
) -> MartinEstimate:
    """Martin kernel K(g, xi) evaluated along the canonical ray.

    The deviation field is the relative spread over the last three depths
    of the schedule; a non-converged estimate is returned with
    diagnostics rather than raised.
    """
    require_valid(walk)
    md = xi.max_depth()
    depth_cap = md if md is not None else g.word_length() + 24
    ds = _depth_schedule(g.word_length(), depth, depth_cap)
    series = [(d, martin_kernel_at(walk, g, xi.prefix(d))) for d in ds]
    last = series[-1][1]
    tail_vals = [e.value for _, e in series[-3:]]
    deviation = max(abs(v / last.value - 1.0) for v in tail_vals)
    return MartinEstimate(
        value=last.value,
        depth=series[-1][0],
        deviation=deviation,
        lower=last.lower,
        upper=last.upper,
        converged=deviation <= dev_threshold,
        series=tuple((d, e.value) for d, e in series),
    )


def radon_nikodym(
    walk: WalkSpec,
    g: GroupElement,
    xi: BoundaryPoint,
    depth: int | None = None,
    **kwargs,
) -> float:
    """dnu_g/dnu at xi: the Martin kernel packaged as a density value."""
    return martin_kernel(walk, g, xi, depth, **kwargs).value


# ---------------------------------------------------------------------------
# the ratio invariant


@dataclass(frozen=True)
class RatioValue:
    """r(g) = lim F(e, g^(n+1)) / F(e, g^n) with its enclosure.

    On these models r(g) is the product of one-syllable first-passage
    values over the cyclically reduced core of g; finite-order elements
    have r = 1.
    """

    element: GroupElement
    value: float
    lower: float
    upper: float
    finite_order: bool


def ratio_invariant(walk: WalkSpec, g: GroupElement) -> RatioValue:
    """The ratio invariant r(g), exact with a float-rounding enclosure."""
    require_valid(walk)
    value, lower, upper = _exact.ratio(walk, g)
    return RatioValue(
        element=g, value=value, lower=lower, upper=upper, finite_order=g.has_finite_order()
    )


# ---------------------------------------------------------------------------
# regularity probes


@dataclass(frozen=True)
class HoelderPair:
    product: float
    difference: float
    exact_zero: bool


@dataclass(frozen=True)
class HoelderReport:
    """Kernel differences against boundary separation.

    ``slope`` fits log |K(g,xi) - K(g,eta)| on the Gromov product over
    pairs with a nonzero difference; on tree models differences past the
    locality threshold vanish outright and land in ``n_zero``.
    """

    pairs: tuple[HoelderPair, ...]
    slope: float
    stderr: float
    p_value_negative: float
    n_zero: int
    depth: int


_ZERO_FLOOR = 1e-12


def hoelder_probe(
    walk: WalkSpec,
    g: GroupElement,
    pairs: Sequence[tuple[BoundaryPoint, BoundaryPoint]],
    depth: int | None = None,
    **kernel_kwargs,
) -> HoelderReport:
    rows = []
    used_depth = 0
    for xi, eta in pairs:
        k1 = martin_kernel(walk, g, xi, depth, **kernel_kwargs)
        k2 = martin_kernel(walk, g, eta, depth, **kernel_kwargs)
        used_depth = max(used_depth, k1.depth, k2.depth)
        prod, _ = limit_gromov(xi, eta)
        diff = abs(k1.value - k2.value)
        scale = max(abs(k1.value), abs(k2.value), 1.0)
        rows.append(HoelderPair(
            product=float(prod),
            difference=diff,
            exact_zero=diff <= _ZERO_FLOOR * scale,
        ))
    live = [(r.product, math.log(r.difference)) for r in rows if not r.exact_zero]
    if len({p for p, _ in live}) >= 3:
        xs = np.array([p for p, _ in live])
        ys = np.array([d for _, d in live])
        fit = stats.linregress(xs, ys)
        slope, stderr = float(fit.slope), float(fit.stderr)
        p_two = float(fit.pvalue)
        p_neg = p_two / 2 if slope < 0 else 1.0 - p_two / 2
    else:
        slope, stderr, p_neg = 0.0, float("nan"), float("nan")
    return HoelderReport(
        pairs=tuple(rows),
        slope=slope,
        stderr=stderr,
        p_value_negative=p_neg,
        n_zero=sum(r.exact_zero for r in rows),
        depth=used_depth,
    )


# ---------------------------------------------------------------------------
# circle-valued coboundary limit


@dataclass(frozen=True)
class LivschitzReport:
    """Convergence record of the angles of K(g^-n, xi)^(iT).

    ``thetas`` are T log K(g^-n, xi) mod 2pi; stepwise circle distances
    should shrink geometrically in |g^-n| when T matches a lattice.
    """

    thetas: tuple[float, ...]
    power_lengths: tuple[int, ...]
    step_distances: tuple[float, ...]
    slope: float
    converged: bool
    limit_angle: float


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def livschitz_coboundary(
    walk: WalkSpec,
    g: GroupElement,
    xi: BoundaryPoint,
    T: float,
    n_max: int | None = None,
    *,
    far_product: float | None = None,
    converge_tol: float = 1e-2,
    **kernel_kwargs,
) -> LivschitzReport:
    """Numerically follow b_n(xi) = angle of K(g^-n, xi)^(iT).

    Requires an infinite-order g and xi bounded away from the repelling
    fixed point of g.
    """
    if g.has_finite_order():
        raise ValidationError(f"{g} has finite order: no contracting dynamics")
    require_valid(walk)
    g_minus = BoundaryPoint.periodic(g.inverse())
    prod, _ = limit_gromov(xi, g_minus)
    if far_product is None:
        far_product = g.word_length() + 2 * walk.model.delta_hint + 4
    if prod > far_product:
        raise ValidationError(
            f"xi is too close to the repelling point: product {prod} > {far_product}"
        )
    thetas = []
    lengths = []
    ginv = g.inverse()
    cur = walk.model.identity()
    hard_cap = n_max if n_max is not None else 24
    for _ in range(hard_cap):
        cur = cur * ginv
        est = martin_kernel(walk, cur, xi, **kernel_kwargs)
        thetas.append((T * math.log(est.value)) % (2 * math.pi))
        lengths.append(cur.word_length())
    if len(thetas) < 2:
        raise ValidationError("the coboundary limit needs at least two powers")
    steps = tuple(_circle_dist(thetas[i + 1], thetas[i]) for i in range(len(thetas) - 1))
    live = [(lengths[i], math.log(s)) for i, s in enumerate(steps) if s > 1e-13]
    if len(live) >= 3:
        slope = float(stats.linregress([x for x, _ in live], [y for _, y in live]).slope)
    else:
        slope = float("-inf") if len(live) < len(steps) else 0.0
    converged = steps[-1] <= converge_tol
    return LivschitzReport(
        thetas=tuple(thetas),
        power_lengths=tuple(lengths),
        step_distances=steps,
        slope=slope,
        converged=converged,
        limit_angle=thetas[-1],
    )
