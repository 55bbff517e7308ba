"""Martin kernel along boundary rays, the ratio invariant r(g), and the
kernel as a finite table over the departure cones of g.

Kernel and ratio values are exact products of one-syllable first-passage
values from the cut-vertex engine, so the cocycle identity
K(gh, .) = K(g, .) K(h, g^-1 .) holds to float rounding at every finite
evaluation depth, and the kernel along a ray is constant once the ray has
left the geodesic to g.  Limiting Gromov products of canonical rays are
exact as well: one product evaluation just past the first differing letter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import _exact
from ._record import record
from .errors import ValidationError
from .green import GreenEstimate
from .groups import GroupElement, GroupModel, factors, gromov_product
from .walks import WalkSpec, require_valid


@record
class BoundaryPoint:
    """A boundary point given by an eventually periodic geodesic ray.

    ``prefix(n)`` returns the ray's n-th vertex; ``head`` is the aperiodic
    initial part and ``cycle`` the repeating part, of infinite order.
    """

    head: GroupElement
    cycle: GroupElement

    def __post_init__(self):
        if self.cycle.has_finite_order():  # the identity too
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

    @property
    def model(self) -> GroupModel:
        return self.head.model

    def prefix_letters(self, n: int) -> tuple[int, ...]:
        head, cyc = self.head.letters(), self.cycle.letters()
        reps = -(-(n - len(head)) // len(cyc))  # ceil; none if the head is long enough
        return (head + cyc * reps)[:n]

    def prefix(self, n: int) -> GroupElement:
        return self.model.from_letters(self.prefix_letters(n))

    def __str__(self):
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


# ---------------------------------------------------------------------------
# kernel evaluation


def martin_kernel_at(walk: WalkSpec, g: GroupElement, y: GroupElement) -> GreenEstimate:
    """Finite-stage Martin kernel G(g, y) / G(e, y), exact with an enclosure."""
    require_valid(walk)
    return GreenEstimate(*_exact.kernel(walk, g, y))


@record
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


def martin_kernel(walk: WalkSpec, g: GroupElement, xi: BoundaryPoint) -> MartinEstimate:
    """Martin kernel K(g, xi): one exact evaluation at the ray's vertex of
    depth |g| + s + 2."""
    require_valid(walk)
    depth = g.word_length() + walk.model.split_span + 2
    est = martin_kernel_at(walk, g, xi.prefix(depth))
    return MartinEstimate(value=est.value, depth=depth, lower=est.lower, upper=est.upper)


# ---------------------------------------------------------------------------
# the ratio invariant


@record
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
# the kernel over departure cones


@record
class HoelderReport:
    """K(g, .) as a finite table over the departure cones of g.

    With sigma_1 ... sigma_k the factors of g (``groups.factors``: letters
    on F_N, syllables on Z/m*Z/n), the cone of head sigma_1 ... sigma_j tau,
    tau != sigma_(j+1), holds the rays that follow g for j factors and then
    leave it by tau; the cone of head g holds the rays through g.  Past
    the head the factors that g^-1 y and y share cancel in K(g, y) =
    F(e, g^-1 y) / F(e, y), so ``cones`` holds one (head, enclosure) per
    cone.  Two rays that share ``depth`` = |g| + s + 2 letters lie in one
    cone, so every kernel difference past that depth is exactly 0, and a
    Hoelder constant at any exponent is a maximum over pairs of cones.
    ``local`` records that each cone's enclosure is bitwise unchanged when
    its head is extended by any one factor.
    """

    cones: tuple[tuple[GroupElement, tuple[float, float, float]], ...]
    n_cones: int
    value_min: float
    value_max: float
    depth: int
    local: bool

    def holds(self) -> bool:
        """Locality checked, and every enclosure inside (0, inf)."""
        return self.local and all(0.0 < lo and hi < math.inf for _, (_, lo, hi) in self.cones)


def hoelder_probe(walk: WalkSpec, g: GroupElement) -> HoelderReport:
    """The table of K(g, .) over the departure cones of g, each value the
    exact kernel at the cone's head."""
    require_valid(walk)
    model = walk.model
    steps = {key: GroupElement(model, (key,)) for key in model.factors}

    def extensions(h: GroupElement) -> list[GroupElement]:
        """h tau over the one-factor keys tau that may follow h's last factor."""
        last = factors(h)[-1:]
        return [h * s for key, s in steps.items() if not last or model.follows(last[0], key)]

    heads, prefix = [], model.identity()
    for key in factors(g):
        step = steps[key]
        heads += [h for h in extensions(prefix) if h != prefix * step]
        prefix = prefix * step
    heads.append(g)
    cones = tuple((h, _exact.kernel(walk, g, h)) for h in heads)
    local = all(_exact.kernel(walk, g, x) == value for h, value in cones for x in extensions(h))
    values = [value for _, (value, _, _) in cones]
    return HoelderReport(
        cones=cones,
        n_cones=len(cones),
        value_min=min(values),
        value_max=max(values),
        depth=g.word_length() + model.split_span + 2,
        local=local,
    )
