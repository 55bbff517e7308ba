"""Ratio-set classification of the boundary equivalence relation.

The ratio set is generated by the ratio invariants r(g) of the elements
of infinite order, and r(g) = F(e, c) is a product over the cut vertices
of the cyclically reduced core c of g.  So the group the r(g) generate
has a finite generator set: on F_N the 2N letters x, r(x) = F_x; on
Z/m*Z/n, where a core of infinite order alternates syllables, the
s^i t^j for 1 <= i < m, 1 <= j < n, r(s^i t^j) = F(e, s^i) F(e, t^j).
An alphabet map that preserves mu fixes every first-passage value, so
the generators of one orbit have equal r exactly; one is evaluated.

The verdict is exact arithmetic in ``fractions.Fraction``.  With
l = -log r rounded outward and l_1 that of the least r, each other orbit
has q_i = l_i / l_1 in an interval of width w_i, whose simplest rational
s_i (continued fractions, a Stern-Brocot descent) has the least
denominator in it.

* III_lambda when every den(s_i) <= floor(w_i^(-1/3)): lambda =
  exp(-l_1 c), c = gcd(1, s_2, ...), with an outward-rounded enclosure.
  The relation is proven by symmetry with one orbit; otherwise it is one
  of small height that the enclosures cannot tell from the truth.
* III_1 otherwise.  Certified: were the ratio set a lattice lambda^Z,
  k = l_1 / -log lambda would be an integer that every den(q_i) >=
  den(s_i) divides, so lambda >= exp(-l_1 / D), D = max den(s_i).

Not w^(-1/2): by Dirichlet's theorem every real q has rationals p/d with
|q - p/d| < 1/d^2, so an interval of width w around an irrational q
typically holds one of denominator about w^(-1/2); closer ones,
|q - p/d| < 1/d^3, occur only finitely often for almost every q
(Khinchin).  III_0 cannot occur, as the paper proves: every r(g) lies in
(0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._record import record, replace
from .errors import ValidationError
from .groups import FREE, GroupElement, GroupModel
from .martin import RatioValue, ratio_invariant
from .walks import WalkSpec, require_valid


def generators(model: GroupModel) -> list[GroupElement]:
    """The finite generator set: the letters of F_N, s^i t^j on Z/m*Z/n."""
    if model.kind == FREE:
        return list(model.generators())
    m, n = model.orders
    return [GroupElement(model, ((1, i), (2, j))) for i in range(1, m) for j in range(1, n)]


def _orbit_keys(walk: WalkSpec, gens: Sequence[GroupElement]) -> list[tuple]:
    """A key per generator, equal for generators in one orbit of the
    mu-preserving alphabet maps.  Weights are compared with ``==``: only
    equal weights prove equal values.

    Such a map permutes factors of equal order and inverts within a
    factor, and only where that keeps mu: x -> x^-1 on Z, s^k -> s^(m-k)
    on Z/m.  So a syllable (lid, k) of order m, with p = mu(x) and
    q = mu(x^-1) for its letter x, keys as (0, p, q) or (0, q, p) on Z by
    the sign of k, and as (m, min((k, p, q), (m - k, q, p))) on Z/m; r
    is a class function, so a generator keys as its sorted syllable keys.
    """
    mu = dict(walk.support)
    model = walk.model

    def key(lid: int, k: int) -> tuple:
        x = GroupElement(model, ((lid, 1),))
        p, q = mu.get(x, 0.0), mu.get(x.inverse(), 0.0)
        m = model.letter_order(lid)
        if not m:
            return (0, p, q) if k > 0 else (0, q, p)
        return (m, min((k, p, q), (m - k, q, p)))

    return [tuple(sorted(key(*syllable) for syllable in g.syllables)) for g in gens]


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in [lo, hi], 0 < lo <= hi.

    Continued-fraction descent: the common partial quotients of the two
    ends, then the least integer the last step admits.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = math.ceil(lo)
        if a <= hi:
            return Fraction(a * p1 + p0, a * q1 + q0)
        a -= 1
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def _height_bound(width: Fraction | float) -> int:
    """The largest denominator accepted in an interval of this width."""
    return math.floor(float(width) ** (-1 / 3))


def _exp_bounds(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """[exp(-hi), exp(-lo)], rounded outward."""
    return (
        math.nextafter(math.exp(-math.nextafter(float(hi), math.inf)), 0.0),
        math.nextafter(math.exp(-math.nextafter(float(lo), 0.0)), math.inf),
    )


def _log_enclosure(rv: RatioValue) -> tuple[Fraction, Fraction]:
    """[lo, hi] holding -log r, from the enclosure of r rounded outward."""
    if not 0.0 < rv.lower <= rv.upper < 1.0:
        raise ValidationError(f"r({rv.element}) enclosure [{rv.lower}, {rv.upper}] outside (0, 1)")
    lo = math.nextafter(-math.log(rv.upper), 0.0)
    hi = math.nextafter(-math.log(rv.lower), math.inf)
    return Fraction(lo), Fraction(hi)


@record
class RatioSetReport:
    """The generator values of the ratio set and its certified type.

    ``values``: r at every generator (the letters of F_N, s^i t^j on
    Z/m*Z/n).  ``orbits``: the one value evaluated per symmetry orbit,
    least r first.  ``quotients``: exact enclosures of log r_i / log r_1
    for ``orbits[1:]``, and ``height`` the largest denominator of their
    simplest rationals.  III_lambda (``lam`` set; ``relation`` "symmetry"
    with one orbit, else "height") needs each at most width^(-1/3), not
    width^(-1/2), which Dirichlet's theorem lets irrational ratios pass.
    III_1 sets the certified ``lam_floor``: a lattice lambda^Z would need
    lambda >= lam_floor.  III_0 cannot occur.
    """

    model: GroupModel
    values: tuple[RatioValue, ...]
    orbits: tuple[RatioValue, ...]
    quotients: tuple[tuple[Fraction, Fraction], ...]
    classification: str
    label: str
    height: int
    relation: str | None = None
    lam: float | None = None
    lam_lower: float | None = None
    lam_upper: float | None = None
    lam_floor: float | None = None

    @property
    def lattice(self) -> bool:
        return self.lam is not None


def _verdict(
    model: GroupModel, values: Sequence[RatioValue], orbits: Sequence[RatioValue]
) -> RatioSetReport:
    """The certified type from one enclosure of r per orbit."""
    orbits = sorted(orbits, key=lambda rv: rv.value)
    (l_lo, l_hi), *rest = [_log_enclosure(rv) for rv in orbits]
    quotients = [(lo / l_hi, hi / l_lo) for lo, hi in rest]
    simplest = [Fraction(1)] + [_simplest(lo, hi) for lo, hi in quotients]
    height = max(s.denominator for s in simplest)
    common = dict(
        model=model, values=tuple(values), orbits=tuple(orbits),
        quotients=tuple(quotients), height=height,
    )
    if any(s.denominator > _height_bound(hi - lo) for s, (lo, hi) in zip(simplest[1:], quotients)):
        floor = _exp_bounds(l_lo / height, l_hi / height)[0]
        return RatioSetReport(classification="III_1", label="1", lam_floor=floor, **common)
    c = Fraction(
        math.gcd(*(s.numerator for s in simplest)), math.lcm(*(s.denominator for s in simplest))
    )
    lam = orbits[0].value ** float(c)
    lower, upper = _exp_bounds(l_lo * c, l_hi * c)
    nearest = _simplest(Fraction(lower), Fraction(upper))
    label = str(nearest) if nearest.denominator <= _height_bound(upper - lower) else f"{lam:.6g}"
    return RatioSetReport(
        classification=f"III_{label}", label=label,
        relation="symmetry" if len(orbits) == 1 else "height",
        lam=lam, lam_lower=lower, lam_upper=upper, **common,
    )


def classify(walk: WalkSpec) -> RatioSetReport:
    """Classify the boundary type from the generator values of the ratio set."""
    require_valid(walk)
    gens = generators(walk.model)
    evaluated: dict[tuple, RatioValue] = {}
    values = []
    for g, key in zip(gens, _orbit_keys(walk, gens)):
        if key not in evaluated:
            evaluated[key] = ratio_invariant(walk, g)
        values.append(replace(evaluated[key], element=g))
    return _verdict(walk.model, values, list(evaluated.values()))
