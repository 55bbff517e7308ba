"""Green functions on the full group, first-passage kernels, weighted
Green functions, and the Ancona constant along geodesics.

Full-group values (``first_passage``) are exact products over syllables
from the cut-vertex engine in ``_exact``, each with a certified
enclosure of relative width near float rounding.
``green_table`` gives the same enclosures for a whole ball in one pass,
one multiplication per word from its parent at the last cut vertex, with
each word's name and length, as plain rows.  The Ancona constant is a
maximum over the in-cycle triples of one cycle per factor, the Harnack
constant reads n-step probabilities off the engine's power series, and
the decay rate of G(e, .) is a maximum over the one-syllable values.
No function here imports numpy or scipy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _exact
from ._record import record
from .errors import ValidationError
from .groups import GroupElement, words_by_length
from .walks import WalkSpec, require_valid


@record
class GreenEstimate:
    """A Green-type value with a certified enclosure.

    ``lower <= value <= upper``; the relative width is near float
    rounding, or zero where the value is exact.
    """

    value: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper + 1e-300):
            raise ValueError("inconsistent bracket")


# ---------------------------------------------------------------------------
# public operations


def first_passage(walk: WalkSpec, x: GroupElement, y: GroupElement) -> GreenEstimate:
    """First-passage probability F(x, y) = G(x, y) / G(y, y), in [0, 1]."""
    require_valid(walk, nondegenerate=False)
    return GreenEstimate(*_exact.first_passage(walk, x.inverse() * y))


GreenRow = tuple[str, int, float, float, float]  # (word, length, value, lower, upper)


def green_table(walk: WalkSpec, radius: int) -> list[GreenRow]:
    """G(e, g) with its enclosure for every g of ``words_by_length(model,
    radius)``, in that order, as plain rows (str(g), |g|, value, lower,
    upper).

    The walk is validated once.  A word's factors (``groups.factors``) are
    its parent's plus one: the parent drops one unit of a last syllable of
    Z, a whole last syllable of Z/m, and ends at a cut vertex.  So the
    running product of ``_Solution.product`` extends the parent's by one
    multiplication per end, and only the widening (len(keys) + 1) eps is
    applied per word: every bracket is ``_exact.green``'s bit for bit.  The
    name is the parent's plus the spelling of the last factor, which is
    ``str(g)``.  Only words shorter than ``radius`` are kept as parents.
    """
    require_valid(walk, nondegenerate=False)
    sol = _exact._solution(walk, 1.0)
    model = walk.model
    orders = model.orders
    table = {}
    for key, bracket in sol.table.items():
        factor = GroupElement(model, (key,))
        table[key] = (*bracket, str(factor), factor.word_length())
    eps = _exact._EPS
    v, lo, hi = sol.base
    parents = {(): (v, lo, hi, "", 0, 0)}  # unwidened product, name, length, factor count
    rows = [(str(model.identity()), 0, v, lo * (1.0 - eps), hi * (1.0 + eps))]
    for g in words_by_length(model, radius)[1:]:
        syllables = g.syllables
        lid, exp = last = syllables[-1]
        if orders[lid - 1]:
            key, parent = last, syllables[:-1]
        else:  # one unit of a syllable of Z
            unit = 1 if exp > 0 else -1
            key = (lid, unit)
            parent = syllables[:-1] if exp == unit else (*syllables[:-1], (lid, exp - unit))
        v, lo, hi, name, length, n = parents[parent]
        a, b, c, spelling, size = table[key]
        v, lo, hi, name, length, n = v * a, lo * b, hi * c, name + spelling, length + size, n + 1
        if length < radius:
            parents[syllables] = (v, lo, hi, name, length, n)
        widen = (n + 1) * eps
        rows.append((name, length, v, lo * (1.0 - widen), hi * (1.0 + widen)))
    return rows


# ---------------------------------------------------------------------------
# multiplicativity along geodesics


Triple = tuple[GroupElement, GroupElement, GroupElement]


@record
class AnconaReport:
    """The Ancona constant: the largest rho = G(x,y) / (F(x,v) G(v,y)) over
    x, y and v on a geodesic from x to y, with its enclosure.

    ``triples`` holds every in-cycle triple (e, v, c2) with its rho
    enclosure (value, lower, upper); ``argmax`` is the first of largest
    value.  The maximum lies in [``lower``, ``upper``].
    """

    value: float
    lower: float
    upper: float
    argmax: Triple
    triples: tuple[tuple[Triple, tuple[float, float, float]], ...]

    def holds(self) -> bool:
        """Ancona's inequality: rho >= 1 on every triple within its
        enclosure, and a finite maximum."""
        return all(hi >= 1.0 for _, (_, _, hi) in self.triples) and math.isfinite(self.upper)


def ancona_check(walk: WalkSpec) -> AnconaReport:
    """The exact Ancona constant of a nearest-neighbour walk.

    Along a geodesic x -> v -> y, G(x, y) = F(x, v) G(v, y) when v is a
    cut vertex; else v lies inside one cycle, entered at c1 and left at
    c2, and rho = F(c1, c2) / (F(c1, v) F(v, c2)) (Ancona, Ann. of Math.
    125, 1987).  So the supremum over all triples is a maximum over the
    triples of one cycle per factor (``_exact.ancona``): 1 on F_N, at
    most m^2 + n^2 syllable products on Z/m*Z/n.
    """
    require_valid(walk)
    triples = tuple(_exact.ancona(walk))
    argmax, best = max(triples, key=lambda t: t[1][0])
    return AnconaReport(
        value=best[0],
        lower=max(lo for _, (_, lo, _) in triples),
        upper=max(hi for _, (_, _, hi) in triples),
        argmax=argmax,
        triples=triples,
    )


# ---------------------------------------------------------------------------
# diagnostics used by invariants


# The most steps within which ``harnack_constant`` looks for every letter.
_HARNACK_STEPS = 10


def harnack_constant(walk: WalkSpec) -> float:
    """Harnack constant for unit-distance comparisons of superharmonic
    functions: max over letters s of 1 / max_{k <= K} p^(k)(e, s), with K
    minimal so that every letter is reachable within K <= 10 steps.

    p^(k)(e, s) is coefficient k of G(e, e | z) F(e, s | z), from the
    exact engine's power series; K = 1 whenever the support is the
    alphabet, and then the value is 1 / min mu(s).
    """
    require_valid(walk)
    series = _exact.step_probabilities(walk, walk.model.generators(), _HARNACK_STEPS)
    for k in range(1, _HARNACK_STEPS + 1):
        best = [max(p[1:k + 1]) for p in series]
        if all(v > 0 for v in best):
            return max(1.0 / v for v in best)
    raise ValidationError(f"some generator unreachable within {_HARNACK_STEPS} steps")


def _root(x: float, n: int, toward: float) -> float:
    """x^(1/n) rounded toward ``toward`` (-inf or inf), certified by
    comparing its n-th power with x in exact rational arithmetic."""
    r = x ** (1.0 / n)
    while (Fraction(r) ** n > x) if toward < 0 else (Fraction(r) ** n < x):
        r = math.nextafter(r, toward)
    return r


def green_decay_rate(walk: WalkSpec) -> GreenEstimate:
    """The rate q of G(e, g) <= G(e, e) q^|g| over all g, with its enclosure.

    G(e, g) is G(e, e) times the product of F(e, sigma) over the factors
    sigma of g (``groups.factors``: letters on F_N, syllables on
    Z/m*Z/n), and |g| is the sum of their lengths.  So q is the largest
    F(e, sigma)^(1/|sigma|) over the one-factor keys, and the key that
    gives it attains the bound.  Each root's ends are rounded outward.
    q < 1 is exponential decay.
    """
    require_valid(walk)
    model = walk.model
    roots = []
    for key, (v, lo, hi) in _exact._solution(walk, 1.0).table.items():
        n = GroupElement(model, (key,)).word_length()
        low, high = _root(lo, n, -math.inf), _root(hi, n, math.inf)
        roots.append((min(max(v ** (1.0 / n), low), high), low, high))
    return GreenEstimate(*(max(ends) for ends in zip(*roots)))
