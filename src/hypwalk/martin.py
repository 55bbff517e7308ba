"""Martin kernel along boundary rays, the ratio invariant r(g), kernel
regularity probes, and the circle-valued coboundary limit.

Kernel and ratio values are exact products of one-syllable first-passage
values from the cut-vertex engine, so the cocycle identity
K(gh, .) = K(g, .) K(h, g^-1 .) holds to float rounding at every finite
evaluation depth, and the kernel along a ray is constant once the ray has
left the geodesic to g.  Limiting Gromov products of canonical rays are
exact as well: one product evaluation just past the first differing letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _exact
from .errors import ValidationError
from .green import GreenEstimate
from .groups import GroupElement, GroupModel, gromov_product
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


def _prefix_product(
    model: GroupModel, la: Sequence[int], lb: Sequence[int]
) -> tuple[Fraction, bool]:
    """Gromov product of the rays that begin with two canonical letter
    prefixes, and whether it is exact.

    With k the first differing letter the rays share k letters, so the
    product is at least k.  On F_N they then split at a cut vertex and the
    product is k.  On Z/m*Z/n they may still run through one cycle, which
    both leave within s = ``model.split_span`` letters; every later vertex
    hangs off a cut vertex of that cycle, so the product is that of the
    prefixes at depth k + s + 1.  Prefixes ending earlier give a lower
    bound, flagged inexact.
    """
    n = min(len(la), len(lb))
    k = 0
    while k < n and la[k] == lb[k]:
        k += 1
    if k == n:
        return Fraction(n), False
    span = model.split_span
    if not span:
        return Fraction(k), True
    depth = min(k + span + 1, n)
    value = gromov_product(model.from_letters(la[:depth]), model.from_letters(lb[:depth]))
    return value, depth == k + span + 1


def limit_gromov(a: BoundaryPoint, b: BoundaryPoint, cap: int = 256) -> tuple[Fraction, bool]:
    """Limiting Gromov product of two canonical rays, with an exactness flag.

    One product evaluation on at most ``cap`` letters of each ray (see
    :func:`_prefix_product`).  When the letters run out first, for a
    frozen point or a short cap, the value is a lower bound and the flag
    is False.
    """
    model = a.model
    if model != b.model:
        raise ValidationError("boundary points from different models")
    avail = min(x for x in (a.max_depth(), b.max_depth(), cap) if x is not None)
    return _prefix_product(model, a.prefix_letters(avail), b.prefix_letters(avail))


# ---------------------------------------------------------------------------
# kernel evaluation


def martin_kernel_at(walk: WalkSpec, g: GroupElement, y: GroupElement) -> GreenEstimate:
    """Finite-stage Martin kernel G(g, y) / G(e, y), exact with an enclosure."""
    require_valid(walk)
    return GreenEstimate(*_exact.kernel(walk, g, y))


@dataclass(frozen=True)
class MartinEstimate:
    """Kernel value along a ray, with its enclosure and evaluation depth.

    The kernel is constant along the ray once the ray has left the
    geodesic to g, which happens by depth |g| + s + 2 (s =
    ``GroupModel.split_span``); one evaluation there is the limit.
    """

    value: float
    depth: int
    lower: float
    upper: float


def martin_kernel(
    walk: WalkSpec,
    g: GroupElement,
    xi: BoundaryPoint,
    depth: int | None = None,
) -> MartinEstimate:
    """Martin kernel K(g, xi): one exact evaluation at the ray's vertex of
    the given depth, by default |g| + s + 2."""
    require_valid(walk)
    if depth is None:
        depth = g.word_length() + walk.model.split_span + 2
    est = martin_kernel_at(walk, g, xi.prefix(depth))
    return MartinEstimate(value=est.value, depth=depth, lower=est.lower, upper=est.upper)


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
) -> HoelderReport:
    from scipy import stats  # costly to import; only the probes fit lines

    rows = []
    used_depth = 0
    for xi, eta in pairs:
        k1 = martin_kernel(walk, g, xi, depth)
        k2 = martin_kernel(walk, g, eta, depth)
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
) -> LivschitzReport:
    """Numerically follow b_n(xi) = angle of K(g^-n, xi)^(iT).

    Requires an infinite-order g and xi bounded away from the repelling
    fixed point of g.
    """
    from scipy import stats

    if g.has_finite_order():
        raise ValidationError(f"{g} has finite order: no contracting dynamics")
    require_valid(walk)
    g_minus = BoundaryPoint.periodic(g.inverse())
    prod, _ = limit_gromov(xi, g_minus)
    if far_product is None:
        far_product = g.word_length() + 2 * walk.model.split_span + 4
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
        est = martin_kernel(walk, cur, xi)
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
