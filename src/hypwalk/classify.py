"""Ratio-set classification of the boundary equivalence relation.

The ratio set is generated by the r(g) of the elements g of infinite
order, r(g) the product of the one-factor values F(e, x) over the
cyclically reduced core of g.  The verdict reads one generator per
syllable class: F_x = r(x) per key x of a factor Z, the product of the
finite factors' base values, and F(e, x) / F(e, base) per other syllable
x of a finite factor, whose base is its syllable of least symmetry key.
On Z/m*Z/n, with a_i = F(e, s^i), b_j = F(e, t^j) and say bases s and t,
cores alternate syllables, so the r(s^i t^j) = a_i b_j generate, and so
do these m + n - 3 values: a_i b_j = (a_i / a_1)(b_j / b_1)(a_1 b_1)
and a_i / a_1 = (a_i b_1) / (a_1 b_1).  A mu-preserving alphabet map
fixes every value: one generator is kept per key of a Z factor and per
pair of keys of a quotient; a quotient of equal keys, 1, is dropped.

The verdict is exact arithmetic in ``fractions.Fraction``.  With
l = -log r rounded outward and l_1 that of the least generator, positive
as every F_x and the bases' product lie in (0, 1), each other one has
the signed q_i = l_i / l_1 (a quotient can exceed 1) in an interval of
width w_i, whose simplest rational s_i (continued fractions, a
Stern-Brocot descent) has the least denominator in it.

* III_lambda when every den(s_i) <= floor(w_i^(-1/3)): lambda =
  exp(-l_1 c), c = gcd(1, s_2, ...) = 1 / lcm(den(s_i)), with an
  outward-rounded enclosure.  The relation is proven by symmetry with
  one generator; otherwise it is one of small height that the
  enclosures cannot tell from the truth.
* III_1 otherwise.  Certified: were the ratio set a lattice lambda^Z,
  each q_i would be an integer over k = l_1 / -log lambda, so den(s_i)
  <= den(q_i) would divide k, and lambda >= exp(-l_1 / D), D = max den(s_i).

Not w^(-1/2): by Dirichlet's theorem every real q has rationals p/d with
|q - p/d| < 1/d^2, so an interval of width w around an irrational q
typically holds one of denominator about w^(-1/2); closer ones,
|q - p/d| < 1/d^3, occur only finitely often for almost every q
(Khinchin).  III_0 cannot occur: every r(g) lies in (0, 1) (the paper).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._exact import _EPS, _factor_weights, _solution
from ._record import record
from .errors import ValidationError
from .green import GreenEstimate
from .groups import FREE, GroupElement, GroupModel, factors
from .martin import RatioValue
from .walks import WalkSpec, require_valid


def generators(model: GroupModel) -> list[GroupElement]:
    """The elements whose r the report lists: letters on F_N, s^i t^j on Z/m*Z/n."""
    if model.kind == FREE:
        return list(model.generators())
    m, n = model.orders
    return [GroupElement(model, ((1, i), (2, j))) for i in range(1, m) for j in range(1, n)]


def _orbit_keys(walk: WalkSpec) -> dict[tuple[int, int], tuple]:
    """A key per one-factor key, equal for syllables in one orbit of the
    mu-preserving alphabet maps; weights are compared with ``==``, as only
    equal weights prove equal values.  Such a map permutes factors of
    equal order and inverts within a factor where that keeps mu: x^k ->
    x^(m-k) on Z/m, x -> x^-1 on Z (m = 0).  So a syllable (lid, k), with
    p = mu(x) and q = mu(x^-1) for its letter x, keys as
    (m, min((k, p, q), (m - k, q, p))).
    """
    weights = _factor_weights(walk)
    keys = {}
    for lid, k in walk.model.factors:
        m, p, q = weights[lid - 1]
        keys[lid, k] = (m, min((k, p, q), (m - k, q, p)))
    return keys


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in [lo, hi], lo <= hi of any sign.

    Continued-fraction descent: the common partial quotients of the two
    ends, then the least integer the last step admits.  Partial quotients
    are floors, so a negative first one needs no case of its own.
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


def _log_enclosure(gen: GreenEstimate) -> tuple[Fraction, Fraction]:
    """[lo, hi] holding -log r, from the enclosure of r rounded outward."""
    lo = math.nextafter(-math.log(gen.upper), -math.inf)
    hi = math.nextafter(-math.log(gen.lower), math.inf)
    return Fraction(lo), Fraction(hi)


@record
class RatioSetReport:
    """The generator values of the ratio set and its certified type.

    ``values``: r at every element of ``generators(model)``.  ``generators``:
    the values the verdict reads (module docstring), least first.
    ``quotients``: exact enclosures of the signed log r_i / log r_1 for
    ``generators[1:]``, and ``height`` the largest denominator of their
    simplest rationals.  III_lambda (``lam`` set; ``relation`` "symmetry"
    with one generator, else "height") needs each at most width^(-1/3).
    III_1 sets ``lam_floor``: a lattice lambda^Z would need lambda >= it.
    """

    model: GroupModel
    values: tuple[RatioValue, ...]
    generators: tuple[GreenEstimate, ...]
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
    model: GroupModel, values: Sequence[RatioValue], gens: Sequence[GreenEstimate]
) -> RatioSetReport:
    """The certified type from one enclosure per generator."""
    gens = sorted(gens, key=lambda gen: gen.value)
    (l_lo, l_hi), *rest = [_log_enclosure(gen) for gen in gens]
    if not l_lo > 0:
        raise ValidationError(f"least generator {gens[0]} not below 1")
    quotients = [(min(lo / l_lo, lo / l_hi), max(hi / l_lo, hi / l_hi)) for lo, hi in rest]
    simplest = [Fraction(1)] + [_simplest(lo, hi) for lo, hi in quotients]
    height = max(s.denominator for s in simplest)
    common = dict(
        model=model, values=tuple(values), generators=tuple(gens),
        quotients=tuple(quotients), height=height,
    )
    if any(s.denominator > _height_bound(hi - lo) for s, (lo, hi) in zip(simplest[1:], quotients)):
        floor = _exp_bounds(l_lo / height, l_hi / height)[0]
        return RatioSetReport(classification="III_1", label="1", lam_floor=floor, **common)
    c = Fraction(1, math.lcm(*(s.denominator for s in simplest)))
    lam = gens[0].value ** float(c)
    lower, upper = _exp_bounds(l_lo * c, l_hi * c)
    nearest = _simplest(Fraction(lower), Fraction(upper))
    label = str(nearest) if nearest.denominator <= _height_bound(upper - lower) else f"{lam:.6g}"
    return RatioSetReport(
        classification=f"III_{label}", label=label,
        relation="symmetry" if len(gens) == 1 else "height",
        lam=lam, lam_lower=lower, lam_upper=upper, **common,
    )


def classify(walk: WalkSpec) -> RatioSetReport:
    """Classify the boundary type from one generator per syllable class."""
    require_valid(walk)
    sol = _solution(walk, 1.0)
    values = [RatioValue(g, *sol.product(factors(g)), False) for g in generators(walk.model)]
    keys = _orbit_keys(walk)
    gens, bases = {}, []  # an enclosure per key of a Z factor, per pair of keys of a quotient
    for lid, m in enumerate(walk.model.orders, 1):
        syllables = [x for x in keys if x[0] == lid]
        base = min(syllables, key=keys.__getitem__)
        bases += [base] if m else []
        v, lo, hi = sol.table[base]
        for x in syllables:
            if not m:
                gens.setdefault(keys[x], sol.product([x]))
            elif keys[x] != keys[base]:  # F(e, x) / F(e, base), its enclosure rounded outward
                a, b, c = sol.table[x]
                gens.setdefault((keys[base], keys[x]),
                                (a / v, b / hi * (1 - _EPS), c / lo * (1 + _EPS)))
    if bases:
        gens["product"] = sol.product(bases)
    return _verdict(walk.model, values, [GreenEstimate(*gen) for gen in gens.values()])
