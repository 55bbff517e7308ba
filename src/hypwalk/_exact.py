"""Exact Green, first-passage and Martin-kernel values on the full group.

For a nearest-neighbour walk on a free product of cyclic groups (F_N
is Z*...*Z) the cut vertices of the Cayley graph split a reduced word
into its one-factor keys (``groups.factors``, imported here): the units
of a syllable of Z, a whole syllable of Z/m, each one of
``GroupModel.factors``.  So

    F(e, g | z) = prod of F(e, sigma | z) over the factors sigma of g,
    G(e, g | z) = G(e, e | z) F(e, g | z),
    G(e, e | z) = 1 / (1 - z sum_y mu(y) F(e, y^-1 | z)),

(Woess, *Random Walks on Infinite Graphs and Groups*, 2000, Ch. 9 and
section 26; Lalley, Ann. Probab. 1993).  The one-factor values are the
minimal fixed point of a monotone map Phi, the first-step equations: the
limit of its iterates from 0, which are the truncations of their power
series in z.

One unknown.  Let sigma = 1 - z sum_y mu(y) F(e, y^-1 | z), so that
G(e, e | z) = 1 / sigma, and t = sigma / z.  An excursion from e that
leaves factor i returns with weight 1 - sigma - S_i, where S_i is the
factor's own share of the loop sum.  Folded in as a self-loop, it leaves
factor i's equations depending on z only through t and G_i = S_i / z,
and with tau_i = t + G_i they are solved in closed form or on one path:

* Z, mu(x) = p, mu(x^-1) = q: tau = sqrt(t^2 + 4pq), F_x = 2p / (tau + t),
  F_x^-1 = 2q / (tau + t) and G = 4pq / (tau + t);
* Z/2, weight p: tau = (t + sqrt(t^2 + 4p^2)) / 2, F_s = p / tau and
  G = p F_s;
* Z/m, m >= 3, a = mu(s), b = mu(s^-1): the hits h of ``_cycle_hits`` at
  (a, b) / tau give every syllable, G = g(tau) = a F_(s^-1) + b F_s, and
  tau is the root of tau - g(tau) = t (``_cycle_share``).

Summing the shares, 1/z = Psi(t) = t + sum_i G_i(t).  On F_N this is
Akemann and Ostrand's function (Amer. J. Math. 98, 1976).

The shape of Psi.  g is a power series in 1/tau with nonnegative
coefficients, the weights of the excursions from e inside the factor,
so it is convex and falling; t = tau - g(tau) is then concave and
rising, and its inverse tau_i(t) convex and rising.  So every G_i =
tau_i - t is convex (on Z and Z/2 the closed forms show it too), and so
is Psi.  As Psi(t) >= t, the set where Psi(t) < c is an open interval
for every c above min Psi.  Each G_i falls as t rises, and factor i's
values fall as tau_i rises (the hits are power series in 1/tau), on Z
also as t rises.

Which root.  Every t > 0 gives, by these forms, a positive fixed point
of Phi at z = 1/Psi(t); and the minimal fixed point is one of them, at
its own sigma.  It lies below every fixed point, and the values fall as
t rises, so its t is the larger root t* of Psi(t) = 1/z.  Newton's
method finds it from t = 1/z, which lies at or above t* as Psi(t) >= t;
on a convex function the iterates fall monotonically to t*.  An iterate
at which Psi' <= 0 or t <= 0 finds no root: z is past 1/rho.

Enclosures.  Let T(t) = 1/z - sum_i G_i(t), so that T(t) - t = 1/z -
Psi(t) and T(t*) = t*; T rises with t.  If T(u) > u, then Psi(u) < 1/z,
u lies in the interval below 1/z and so below t*, and T(u) <= t* is a
lower bound of t*, closer than u.  If T(v) < v at a v above such a u,
v lies past the interval, so v > t*, and T(v) >= t*.  Both are checked
with the shares rounded outward.  The two bounds of t* bound G(e, e | z)
= 1/(z t*), and tau_i(t*) = 1/z - sum_(j != i) G_j(t*) lies between 1/z
minus the other shares at u and at v: these bound every value.  On Z/m,
tau(t) is enclosed the same way: tau - g(tau) rises, so a tau_c with
g(tau_c) < tau_c - t lies above tau(t), and tau_c - t bounds G_i from
above; one with g(tau_c) > tau_c - t lies below it.  Where no pair can
be certified, z is at 1/rho, within rounding of it, or past it:
DivergenceError.

Rounding.  A rounding bound is a first-order one: the operation count
times 2^-52, so 6 eps on a closed form of Z or Z/2, and (4m + 10) eps
over the smallest pivot of the elimination on the hits of Z/m.  Only
Python floats are used, so every value is bitwise the same in every
process.

The spectral radius.  At z = 1/Psi(t) the values at t are a positive,
finite fixed point of Phi, with loop sum 1 - z t < 1.  The minimal fixed
point lies below them, so its loop sum, the first-return function U(z),
is below 1 too, and G(e, e | z) = 1 / (1 - U(z)) is finite.  G(e, e | .)
is a power series with nonnegative coefficients and radius of
convergence 1/rho, so z <= 1/rho: rho <= Psi(t), for every t > 0.  An
upper bound of Psi at any t thus bounds rho from above;
``spectral_upper`` takes it at the minimiser that a golden-section
search finds, where it is tightest, as rho = min Psi (Woess 2000,
Ch. 9).  The bound holds whatever the search's error.

The same first-step equations, read as power series in z, give the
return probabilities p^(n)(e, e).
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import DivergenceError, SolverError
from .groups import GroupElement, factors
from .walks import WalkSpec

Bracket = tuple[float, float, float]  # (value, lower, upper)
Factor = tuple[int, float, float]  # (m, a, b): order 0 for Z, and its two letter weights

_EPS = 2.0 ** -52  # twice the unit roundoff: one rounding plus slack
_CLOSED = 6.0 * _EPS  # a closed form on Z or Z/2: five roundings, and one to scale it
_MAX_NEWTON = 100
_MAX_WIDENINGS = 64  # tries of an enclosure's end before z is taken as past 1/rho
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_STEPS = 45  # shrink the search interval of min Psi to 0.618^45 ~ 4e-10
_ROOT_TOL = 1e-12  # relative Newton step at which a root is taken
_DIVERGES = "first-passage fixed point diverges: z is past 1/rho"
_UNCERTIFIED = "first-passage root not enclosed: z is at or past 1/rho"


def _factor_weights(spec: WalkSpec) -> list[Factor]:
    """(m, a, b) per factor: on Z (m = 0) a = mu(x), b = mu(x^-1); on
    Z/m a = mu(s), b = mu(s^-1), so b = a on Z/2."""
    mu = {g.syllables[0]: p for g, p in spec.support}
    return [
        (m, mu.get((lid, 1), 0.0), mu.get((lid, m - 1 if m else -1), 0.0))
        for lid, m in enumerate(spec.model.orders, 1)
    ]


def _cycle_hits(m: int, forward: float, backward: float) -> tuple[list[float], float]:
    """Hitting probabilities of 0 on the killed walk on Z/m, m >= 3.

    Entry d - 1 is the probability of reaching 0 from d (1 <= d < m)
    with steps +1 and -1 of weights ``forward`` and ``backward``; 0 is
    absorbing from both sides, so this is a path of m - 1 states with
    right-hand side (backward, 0, ..., 0, forward).  Returns the values
    and the smallest pivot.  (On Z/2 the one state's value is
    ``forward``.)

    For m = 3 the elimination is written out with its exact operations
    left away: x + 0.0 for the weights, which are never -0.0, and x / 1.0
    for the first pivot.
    """
    if m == 3:
        pivot = 1.0 - forward * backward
        if not pivot > 0.0:
            raise DivergenceError(_DIVERGES)
        far = (forward + backward * backward) / pivot
        return [backward + forward * far, far], min(1.0, pivot)
    return _path_solve(forward, backward, [backward] + [0.0] * (m - 3) + [forward])


def _path_solve(forward: float, backward: float, rhs: list[float]) -> tuple[list[float], float]:
    """x with x_d - forward x_(d+1) - backward x_(d-1) = rhs_d on a path of
    len(rhs) states, by one tridiagonal elimination, and its smallest
    pivot.  A nonpositive pivot raises DivergenceError."""
    size = len(rhs)
    pivots = [1.0] * size
    acc = [rhs[0]] + [0.0] * (size - 1)
    for i in range(1, size):
        pivots[i] = 1.0 - forward * backward / pivots[i - 1]
        if not pivots[i] > 0.0:
            raise DivergenceError(_DIVERGES)
        acc[i] = rhs[i] + backward * acc[i - 1] / pivots[i - 1]
    x = [0.0] * size
    x[-1] = acc[-1] / pivots[-1]
    for i in range(size - 2, -1, -1):
        x[i] = (acc[i] + forward * x[i + 1]) / pivots[i]
    return x, min(pivots)


def _cycle_share(m: int, a: float, b: float, t: float, tau: float) -> tuple[float, float, float]:
    """G(t) of a factor Z/m, m >= 3, its root tau and d tau / d t: g(tau)
    at the root of tau - g(tau) = t, where g(tau) = a F_{s^-1} + b F_s
    with the hits of ``_cycle_hits`` at (a, b) / tau.  g falls from
    infinity to 0 as tau rises, so the root is unique and lies in
    (t, t + a + b].  Newton's method from the given tau if it lies in that
    bracket, else from its right end, bisecting where a step leaves the
    bracket or the hits diverge; by Euler's identity
    d h / d tau = -(1/tau) A^-1 h.
    """
    lo, hi = t, t + a + b
    if not lo < tau <= hi:
        tau = hi
    for _ in range(_MAX_NEWTON):
        try:
            phi, beta = a / tau, b / tau
            h, _ = _cycle_hits(m, phi, beta)
            slope, _ = _path_solve(phi, beta, h)
        except DivergenceError:
            lo = tau
            tau = 0.5 * (lo + hi)
            continue
        f = tau - (a * h[0] + b * h[-1]) - t
        if f > 0.0:
            hi = tau
        else:
            lo = tau
        rise = 1.0 + (a * slope[0] + b * slope[-1]) / tau
        step = f / rise
        if abs(step) <= _ROOT_TOL * tau:
            return tau - step - t, tau - step, 1.0 / rise
        tau = tau - step if lo < tau - step < hi else 0.5 * (lo + hi)
    raise SolverError(f"cycle share not found in {_MAX_NEWTON} steps")


def _psi(
    factors: list[Factor], t: float, roots: dict, sign: int = 0,
) -> tuple[float, float, list[float]]:
    """Psi(t) = t + sum_i G_i(t): 1/z at the weight z whose return sum
    leaves sigma = z t; Psi'(t); and every factor's share G_i(t).  sign = 1
    rounds Psi and the shares up, sign = -1 down, a cycle factor's share
    by the end of its enclosure of tau(t) on that side; Psi' is not
    rounded.  On Z, G = 4ab / (s + t), halved on Z/2, and G' = -G / s,
    with s = sqrt(t^2 + 4ab).  ``roots`` maps a cycle factor to (t, tau,
    d tau / d t) at its last solve, and is updated: the next solve starts
    from the tangent there.  A factor that repeats is evaluated once."""
    memo = {}
    for f in factors:
        if f in memo:
            continue
        m, a, b = f
        if m <= 2:  # on Z/2, b = a
            s = math.sqrt(t * t + 4.0 * a * b)
            share = (2.0 if m else 4.0) * a * b / (s + t)
            memo[f] = share * (1.0 + sign * _CLOSED), -share / s
            continue
        last, tau, rate = roots.get(f, (t, math.inf, 0.0))
        share, tau, rate = _cycle_share(m, a, b, t, tau + (t - last) * rate)
        roots[f] = (t, tau, rate)
        if sign:
            share = (_cycle_end(m, a, b, t, tau, rate, sign) - t) * (1.0 + sign * 2.0 * _EPS)
        memo[f] = share, rate - 1.0
    shares = [memo[f][0] for f in factors]
    slope = 1.0 + sum(memo[f][1] for f in factors)
    return (t + sum(shares)) * (1.0 + sign * (len(factors) + 1) * _EPS), slope, shares


def _cycle_end(m: int, a: float, b: float, t: float, tau: float, rate: float, sign: int) -> float:
    """An end of the enclosure of tau(t), the root of tau - g(tau) = t on
    a factor Z/m, near its root tau: above tau(t) for sign = 1, where an
    upper bound of g(tau_c) lies below tau_c - t, and below it for
    sign = -1, where a lower bound lies above.  The check's shortfall, over
    the slope 1/``rate`` of tau - g(tau), sets each further distance of
    tau_c from tau, which also grows by a quarter per try.
    """
    c, d = tau, 0.0
    for _ in range(_MAX_WIDENINGS):
        h, pivot = _cycle_hits(m, a / c, b / c)
        r = (4 * m + 10) * _EPS / pivot
        g = (a * h[0] + b * h[-1]) * (1.0 + sign * r)
        gap = sign * (c - (t + g) * (1.0 + sign * 2.0 * _EPS))
        if gap > 0.0:
            return c
        d = 1.25 * d - 1.125 * gap * rate
        c = tau + sign * d
    raise DivergenceError(_UNCERTIFIED)


def _values(
    factors: list[Factor], t: float, w: float, shares: list[float], sign: int,
) -> list[float]:
    """Every one-factor value, in the order of ``GroupModel.factors``.

    sign = 0: the values at t for w = 1/z and the shares of ``_psi``.
    sign = 1: upper bounds of the values at t*, given t < t*, w <= 1/z and
    the shares at t rounded up; sign = -1: lower bounds, given t > t*,
    w >= 1/z and the shares rounded down.  Factor i's values fall as
    tau_i = t + G_i rises, and on Z as t rises: F_x = 2p / (tau + t),
    F_x^-1 = 2q / (tau + t); on Z/2, F_s = p / tau; on Z/m, the hits at
    (a, b) / tau.  tau_i(t*) = 1/z - sum_(j != i) G_j(t*), and every G_j
    falls as t rises, so w minus the other shares bounds it on the side
    that bounds the values.
    """
    values = []
    for i, (m, a, b) in enumerate(factors):
        others = sum(shares[:i] + shares[i + 1:]) * (1.0 + sign * len(factors) * _EPS)
        tau = (w - others) * (1.0 - sign * 2.0 * _EPS)
        if m == 0:
            v, r = [2.0 * a / (tau + t), 2.0 * b / (tau + t)], 3.0 * _EPS
        elif m == 2:
            v, r = [a / tau], 2.0 * _EPS
        else:
            h, pivot = _cycle_hits(m, a / tau, b / tau)
            v, r = h[::-1], (4 * m + 10) * _EPS / pivot
            if a == b:  # s -> s^-1 maps s^k to s^(m-k): k > m/2 takes m - k's value
                v = v[:m // 2] + v[:(m - 1) // 2][::-1]
        values += [x * (1.0 + sign * r) for x in v]
    return values


def _root(factors: list[Factor], z: float, roots: dict) -> tuple[float, float]:
    """t*, the larger root of Psi(t) = 1/z, and Psi'(t*), by Newton's
    method from t = 1/z.  DivergenceError where an iterate finds no root."""
    w = 1.0 / z
    t = w
    for _ in range(_MAX_NEWTON):
        psi, slope, _ = _psi(factors, t, roots)
        if not slope > 0.0:
            raise DivergenceError(_DIVERGES)
        step = (psi - w) / slope
        t -= step
        if not t > 0.0:
            raise DivergenceError(_DIVERGES)
        if abs(step) <= _ROOT_TOL * t:
            return t, slope
    raise SolverError(f"first-passage root not found in {_MAX_NEWTON} steps")


def _end(
    factors: list[Factor], z: float, t: float, slope: float, roots: dict, sign: int,
) -> tuple[float, list[float]]:
    """One end of the enclosure of t*, and the value bounds it gives.

    sign = 1: a lower bound T(u) of t* from a u with T(u) > u, and upper
    bounds of the values; sign = -1: an upper bound T(u) from a u with
    T(u) < u, above the lower end's u, and lower bounds of the values.
    T(u) = 1/z - sum_i G_i(u) (module docstring), with w = 1/z and the
    shares rounded so that the check holds for the exact T.  u starts at
    the root t; the check's shortfall, over Psi's ``slope`` at t, sets
    each further distance of u from t, as in ``_cycle_end``.
    """
    w = (1.0 / z) * (1.0 - sign * 2.0 * _EPS)
    u, d = t, 0.0
    for _ in range(_MAX_WIDENINGS):
        shares = _psi(factors, u, roots, sign)[2]
        end = (w - sum(shares) * (1.0 + sign * len(factors) * _EPS)) * (1.0 - sign * 2.0 * _EPS)
        gap = sign * (end - u)
        if gap > 0.0:
            return end, _values(factors, end, w, shares, sign)
        d = 1.25 * d - 1.125 * gap / slope
        u = t - sign * d
        if not u > 0.0:
            break
    raise DivergenceError(_UNCERTIFIED)


class _Solution:
    """One-factor first-passage enclosures and G(e, e | z) of a walk."""

    def __init__(self, spec: WalkSpec, z: float):
        if not 0.0 <= z < math.inf:
            raise ValueError(f"the weight z must be finite and nonnegative, got {z}")
        keys = spec.model.factors
        if z == 0.0:
            self.table = dict.fromkeys(keys, (0.0, 0.0, 0.0))
            self.base = (1.0, 1.0, 1.0)
            return
        weights, roots = _factor_weights(spec), {}
        t, slope = _root(weights, z, roots)
        mid = _values(weights, t, 1.0 / z, _psi(weights, t, roots)[2], 0)
        # The upper end's point starts at t and moves up, the lower end's
        # down, and they cannot both stay at t: so the upper end's point lies
        # above the lower end's, which is in the interval below 1/z.
        t_lo, high = _end(weights, z, t, slope, roots, 1)
        t_hi, low = _end(weights, z, t, slope, roots, -1)
        self.table = {
            k: (min(max(v, lo), hi), lo, hi) for k, v, lo, hi in zip(keys, mid, low, high)
        }
        lo, hi = 1.0 / (z * t_hi) * (1.0 - 3.0 * _EPS), 1.0 / (z * t_lo) * (1.0 + 3.0 * _EPS)
        self.base = (min(max(1.0 / (z * t), lo), hi), lo, hi)

    def product(self, keys: list[tuple[int, int]], first: Bracket = (1.0, 1.0, 1.0)) -> Bracket:
        v, lo, hi = first
        for k in keys:
            a, b, c = self.table[k]
            v, lo, hi = v * a, lo * b, hi * c
        widen = (len(keys) + 1) * _EPS
        return v, lo * (1.0 - widen), hi * (1.0 + widen)


@lru_cache(maxsize=16)
def _solution(spec: WalkSpec, z: float) -> _Solution:
    return _Solution(spec, z)


def first_passage(spec: WalkSpec, g: GroupElement, z: float = 1.0) -> Bracket:
    """F(e, g | z): the product of one-syllable values."""
    sol = _solution(spec, z)
    return sol.product(factors(g))


def green(spec: WalkSpec, g: GroupElement, z: float = 1.0) -> Bracket:
    """G(e, g | z) = G(e, e | z) F(e, g | z)."""
    sol = _solution(spec, z)
    return sol.product(factors(g), first=sol.base)


def kernel(spec: WalkSpec, g: GroupElement, y: GroupElement) -> Bracket:
    """Martin kernel G(g, y) / G(e, y) = F(e, g^-1 y) / F(e, y).

    Syllables shared by the ends of g^-1 y and y cancel before any
    arithmetic, so the value is the same for every y past the point
    where the ray leaves the geodesic to g.
    """
    sol = _solution(spec, 1.0)
    num = factors(g.inverse() * y)
    den = factors(y)
    while num and den and num[-1] == den[-1]:
        num.pop()
        den.pop()
    a, b = sol.product(num), sol.product(den)
    return a[0] / b[0], a[1] / b[2] * (1.0 - _EPS), a[2] / b[1] * (1.0 + _EPS)


def ratio(spec: WalkSpec, g: GroupElement) -> Bracket:
    """r(g): F(e, c) for the cyclically reduced core c of g; 1 for torsion."""
    if g.has_finite_order():
        return 1.0, 1.0, 1.0
    return first_passage(spec, g.cyclic_reduction()[1])


def ancona(spec: WalkSpec) -> list[tuple[tuple[GroupElement, ...], Bracket]]:
    """rho = F(c1, c2) / (F(c1, v) F(v, c2)) on every in-cycle triple.

    Take x, y and a vertex v on a geodesic from x to y.  If v is a cut
    vertex on it, G(x, y) = F(x, v) G(v, y); else v lies inside one
    cycle, which the geodesic enters at c1 and leaves at c2, both cut
    vertices, and G(x, y) / (F(x, v) G(v, y)) is the ratio above.  By
    left invariance c1 = e, so c2 runs over the one-syllable keys and v
    over a geodesic arc from e to c2 in its cycle; an antipodal c2 on an
    even cycle has two arcs, and both are taken.  On F_N the arc is one
    edge, v is one of its ends and rho is 1.  Returns ((e, v, c2), rho)
    per triple, each rho an enclosure.
    """
    model = spec.model
    e = model.identity()
    out = []
    for key in _solution(spec, 1.0).table:
        c2 = GroupElement(model, (key,))
        arc = c2.letters()
        arcs = [arc, tuple(-x for x in arc)] if 2 * len(arc) == model.letter_order(key[0]) else [arc]
        vertices = dict.fromkeys(model.from_letters(a[:j]) for a in arcs for j in range(len(a) + 1))
        a = first_passage(spec, c2)
        for v in vertices:
            b, c = first_passage(spec, v), first_passage(spec, v.inverse() * c2)
            rho = (
                a[0] / (b[0] * c[0]),
                a[1] / (b[2] * c[2]) * (1.0 - 2 * _EPS),
                a[2] / (b[1] * c[1]) * (1.0 + 2 * _EPS),
            )
            out.append(((e, v, c2), rho))
    return out


def _series(spec: WalkSpec, steps: int) -> tuple[dict, list[float]]:
    """Coefficients 0..steps of F(e, sigma | z) per one-factor key sigma,
    and of G(e, e | z).

    F_sigma = z sum_s mu(s) F(e, s^-1 sigma) over the one-factor keys
    sigma, with F(e, g) the product over ``factors(g)``; then
    G = 1 + z G sum_s mu(s) F_{s^-1}.  Coefficient n of the right-hand
    sides needs only coefficients below n.  Every sum adds its terms in
    the order of the convolution index, from 0, as ``sum`` does.
    """
    model = spec.model
    keys = model.factors
    F = {k: [0.0] * (steps + 1) for k in keys}
    terms = {}  # sigma -> [(mu(s), the series of the factors of s^-1 sigma)]
    for key in keys:
        sigma = GroupElement(model, (key,))
        terms[key] = [(p, [F[k] for k in factors(s.inverse() * sigma)]) for s, p in spec.support]
    back = [(p, F[factors(s.inverse())[0]]) for s, p in spec.support]
    for n in range(1, steps + 1):
        for key in keys:
            total = 0
            for p, series in terms[key]:
                total += p * _product_coeff(series, n - 1)
            F[key][n] = total
    first_return = [0.0] * (steps + 1)
    for n in range(1, steps + 1):
        total = 0
        for p, f in back:
            total += p * f[n - 1]
        first_return[n] = total
    G = [1.0] + [0.0] * steps
    for n in range(1, steps + 1):
        G[n] = sum(map(mul, first_return[1:n + 1], G[n - 1::-1]))
    return F, G


def _product_coeff(series: list, n: int) -> float:
    """Coefficient n of the product of ``series``, at most two of them
    (nearest-neighbour), whose coefficient 0 is 0."""
    if not series:
        return 1.0 if n == 0 else 0.0
    if len(series) == 1:
        return series[0][n]
    a, b = series
    return sum(map(mul, a[1:n], b[n - 1:0:-1]))


def returns(spec: WalkSpec, steps: int) -> list[float]:
    """p^(n)(e, e) for n = 0..steps, as power-series coefficients."""
    return _series(spec, steps)[1]


def step_probabilities(spec: WalkSpec, targets, steps: int) -> list[list[float]]:
    """p^(n)(e, g) for n = 0..steps, per g in ``targets``: the coefficients
    of G(e, g | z) = G(e, e | z) F(e, g | z), F the product of the series
    of ``factors(g)``."""
    F, G = _series(spec, steps)
    out = []
    for g in targets:
        series = G
        for key in factors(g):
            f = F[key]
            series = [sum(map(mul, series[:n + 1], f[n::-1])) for n in range(steps + 1)]
        out.append(series)
    return out


def _psi_min(factors: list[Factor], roots: dict) -> tuple[float, float]:
    """The minimiser of Psi over t in (0, 1], which holds it since
    Psi(t) >= t and min Psi = rho <= 1, and the minimum: golden-section
    search, each cycle factor's root started from the previous probe's."""
    lo, hi = 0.0, 1.0
    x, y = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fx, fy = _psi(factors, x, roots)[0], _psi(factors, y, roots)[0]
    for _ in range(_GOLDEN_STEPS):
        if fx <= fy:
            hi, y, fy = y, x, fx
            x = hi - _GOLDEN * (hi - lo)
            fx = _psi(factors, x, roots)[0]
        else:
            lo, x, fx = x, y, fy
            y = lo + _GOLDEN * (hi - lo)
            fy = _psi(factors, y, roots)[0]
    return (x, fx) if fx <= fy else (y, fy)


def spectral_upper(spec: WalkSpec) -> float:
    """A certified upper bound on the spectral radius rho: Psi at the
    minimiser of ``_psi_min``, rounded up.  rho <= Psi(t) at every t > 0
    (see the module docstring), so the bound holds whatever the search's
    error; at the minimiser it exceeds rho = min Psi by rounding and by the
    search's error, which is of second order."""
    weights, roots = _factor_weights(spec), {}
    t, _ = _psi_min(weights, roots)
    return _psi(weights, t, roots, 1)[0]
