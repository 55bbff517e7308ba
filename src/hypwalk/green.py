"""Green functions on the full group, first-passage and last-exit
kernels, weighted Green functions, and the Ancona constant along
geodesics.

Full-group values (``green``, ``green_z``, ``first_passage``) are exact
products over syllables from the cut-vertex engine in ``_exact``, each
with a certified enclosure of relative width near float rounding.
``green_table`` gives the same enclosures for a whole ball in one pass,
one multiplication per word from its parent at the last cut vertex, with
each word's name and length, as plain rows.  Taboo
kernels (``first_passage_set``, ``last_exit``) solve the walk absorbed on
the taboo set over a finite cut-closed domain, with the branches beyond
it folded in as exact self-loops, so they carry enclosures of the same
kind; numpy and scipy.sparse load with that solve, on its first call.  The
Ancona constant is a maximum over the in-cycle triples of one cycle per
factor, the Harnack constant reads n-step probabilities off the engine's
power series, and the decay rate of G(e, .) is a maximum over the
one-syllable values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import _exact
from ._record import record
from .errors import SolverError, ValidationError
from .groups import GroupElement, words_by_length
from .walks import WalkSpec, require_valid, reversed_walk


@record
class GreenEstimate:
    """A Green-type value with a certified enclosure.

    ``lower <= value <= upper``; the relative width is near float
    rounding, or zero where the value is exact (a taboo point the walk
    cannot reach first, or the start point itself).
    """

    value: float
    lower: float
    upper: float

    def width(self) -> float:
        return self.upper - self.lower

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper + 1e-300):
            raise ValueError("inconsistent bracket")


# ---------------------------------------------------------------------------
# public operations


def green(walk: WalkSpec, x: GroupElement, y: GroupElement) -> GreenEstimate:
    """G(x, y) = G(e, x^-1 y), exact with a float-rounding enclosure."""
    require_valid(walk, nondegenerate=False)
    return GreenEstimate(*_exact.green(walk, x.inverse() * y))


def green_z(walk: WalkSpec, x: GroupElement, y: GroupElement, z: float) -> GreenEstimate:
    """The weighted Green function G(x, y | z) for z in [0, 1/rho).

    z = 1 recovers ``green`` and z = 0 the indicator of x = y; z past
    1/rho raises :class:`DivergenceError`.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    require_valid(walk, nondegenerate=False)
    return GreenEstimate(*_exact.green(walk, x.inverse() * y, float(z)))


def first_passage(walk: WalkSpec, x: GroupElement, y: GroupElement) -> GreenEstimate:
    """First-passage probability F(x, y) = G(x, y) / G(y, y), in [0, 1]."""
    require_valid(walk, nondegenerate=False)
    return GreenEstimate(*_exact.first_passage(walk, x.inverse() * y))


GreenRow = tuple[str, int, float, float, float]  # (word, length, value, lower, upper)


def green_table(walk: WalkSpec, radius: int) -> list[GreenRow]:
    """G(e, g) with its enclosure for every g of ``words_by_length(model,
    radius)``, in that order, as plain rows (str(g), |g|, value, lower,
    upper).

    The walk is validated once.  A word's factors (``_exact.factors``) are
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
# taboo kernels on the cut-closed domain


def first_passage_set(
    walk: WalkSpec, lam: Iterable[GroupElement], x: GroupElement
) -> dict[GroupElement, GreenEstimate]:
    """First-passage distribution on a taboo set: y -> F(x, y; first hit of lam).

    The walk is absorbed on lam over D_k, the elements with at most k
    cut-vertex factors (``_exact.factors``: letters on F_N, syllables on
    Z/m*Z/n), k the largest count over lam and x.  A step v -> vs that
    leaves D_k enters a branch attached only at v, which the walk leaves
    through v with probability F(e, s^-1): the step becomes a self-loop
    at v of weight mu(s) F(e, s^-1).  Only states reachable from x
    without hitting lam enter the sparse LU solve.

    The absorbed chain is monotone in its loop weights, so the lower and
    upper ends of the F enclosure give the bracket ends.  Each is widened
    by the residual of its solve: the error of the solution is the
    residual weighted by hitting probabilities, which are at most 1.
    """
    import numpy as np  # costly to import: loaded on first use
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    require_valid(walk, nondegenerate=False)
    lam = list(dict.fromkeys(lam))
    if not lam:
        raise ValidationError("taboo set is empty")
    if x in lam:
        return {y: GreenEstimate(*[float(y == x)] * 3) for y in lam}
    k = max(len(_exact.factors(g)) for g in [x, *lam])
    taboo = {y: j for j, y in enumerate(lam)}
    # per step s: mu(s) times the (value, lower, upper) ends of F(e, s^-1)
    steps = [
        (s, p, p * np.array(_exact.first_passage(walk, s.inverse()))) for s, p in walk.support
    ]
    states, index, loops = [x], {x: 0}, []
    q_rows, q_cols, q_data, r_rows, r_cols, r_data = [], [], [], [], [], []
    for i, v in enumerate(states):  # grows while it is walked: a BFS
        loop = np.zeros(3)
        for s, p, folded in steps:
            w = v * s
            if w in taboo:
                r_rows.append(i)
                r_cols.append(taboo[w])
                r_data.append(p)
            elif len(_exact.factors(w)) > k:
                loop += folded
            else:
                if w not in index:
                    index[w] = len(states)
                    states.append(w)
                q_rows.append(i)
                q_cols.append(index[w])
                q_data.append(-p)
        loops.append(loop)
    n = len(states)
    R = sp.csr_matrix((r_data, (r_rows, r_cols)), shape=(n, len(lam)))
    hit = np.diff(R.tocsc().indptr) > 0  # targets some reachable state steps into
    source = np.zeros(n)
    source[0] = 1.0
    rounding = (len(steps) + 3) * np.finfo(float).eps  # first-order, per matrix row
    brackets = []
    for end, sign in ((0, 0.0), (1, -1.0), (2, 1.0)):
        diag = [1.0 - loop[end] * (1.0 + sign * rounding) for loop in loops]
        A = sp.csc_matrix(
            (diag + q_data, (list(range(n)) + q_rows, list(range(n)) + q_cols)), shape=(n, n)
        )
        try:
            u = spla.splu(A).solve(source, trans="T")  # expected visits from x
        except RuntimeError as exc:
            raise SolverError(f"taboo solve failed: {exc}") from exc
        err = np.abs(source - A.T @ u).sum() + rounding * (abs(A).T @ np.abs(u)).sum()
        brackets.append((R.T @ u) * (1.0 + sign * rounding) + sign * err)
    value, lower, upper = brackets
    out = {}
    for j, y in enumerate(lam):
        lo, hi = (max(float(lower[j]), 0.0), float(upper[j])) if hit[j] else (0.0, 0.0)
        out[y] = GreenEstimate(min(max(float(value[j]), lo), hi), lo, hi)
    return out


def last_exit(
    walk: WalkSpec, lam: Iterable[GroupElement] | None, x: GroupElement, y: GroupElement
) -> GreenEstimate:
    """Last-exit kernel L(x, y) relative to a taboo set containing x.

    Computed through the reversed walk: L(x, y) equals the reversed-walk
    first-passage probability from y to the set, at x.
    """
    lam = [x] if lam is None else list(lam)
    if x not in lam:
        raise ValidationError("last_exit needs x inside the taboo set")
    return first_passage_set(reversed_walk(walk), lam, y)[x]


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


def harnack_constant(walk: WalkSpec, k_max: int = 10) -> float:
    """Harnack constant for unit-distance comparisons of superharmonic
    functions: max over letters s of 1 / max_{k <= K} p^(k)(e, s), with K
    minimal so that every letter is reachable within K steps.

    p^(k)(e, s) is coefficient k of G(e, e | z) F(e, s | z), from the
    exact engine's power series; K = 1 whenever the support is the
    alphabet, and then the value is 1 / min mu(s).
    """
    require_valid(walk)
    series = _exact.step_probabilities(walk, walk.model.generators(), k_max)
    for k in range(1, k_max + 1):
        best = [max(p[1:k + 1]) for p in series]
        if all(v > 0 for v in best):
            return max(1.0 / v for v in best)
    raise ValidationError(f"some generator unreachable within {k_max} steps")


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
    sigma of g (``_exact.factors``: letters on F_N, syllables on
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
