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
minimal fixed point of a monotone map Phi, reached by iterating up from
0.  An excursion off a path returns with weight z sum_y mu(y) F(e, y^-1)
over the letters y that leave it, folded in as a self-loop; ``rest`` is
1 minus that sum:

* a letter x of Z is a path of one state: F_x = z mu(x) / rest, y != x;
* Z/m is a path of m - 1 states, its m-cycle killed at e: one
  tridiagonal solve gives all its syllables, y off the factor.

Every value is an enclosure (value, lower, upper):

* lower: the iteration from 0 with each step rounded down by the
  evaluation's rounding bound, so it stays below the exact iterates;
* upper: a vector U with Phi(U) <= U checked with the same bound, which
  by monotonicity lies above the minimal fixed point;
* products and quotients widen both ends by their own rounding.

A rounding bound is a first-order one: the evaluation's operation count
times 2^-52, over its smallest denominator.  Only Python floats are used,
so every value is bitwise the same in every process.

The same first-step equations, read as power series in z, give the
return probabilities p^(n)(e, e); and since G(e, e | z) is finite exactly
for z <= 1/rho, every z at which the fixed point is certified bounds the
spectral radius from above: rho <= 1/z.  A probe at such a z needs only
the upper certificate.  It finds the minimal fixed point by Newton's
method from 0, F <- F + (I - J(F))^-1 (Phi(F) - F), whose iterates rise
monotonically to it whenever it exists, since Phi is monotone and convex
(Etessami and Yannakakis, J. ACM 56, 2009; Esparza, Kiefer and
Luttenberger, SIAM J. Comput. 39, 2010); a falling step rejects z as
past 1/rho.  The certificate's direction (I - J)^-1 1 comes from the same
pivoted elimination, with J in closed form on every path: one more
tridiagonal solve per path of more than one state, on the hits of the
sweep at the same point.

Where to probe.  1/rho is the fold R of the first-passage system, and on
these trees of cycles it is a minimum in one variable (Woess 2000, Ch. 9;
Akemann and Ostrand, Amer. J. Math. 98, 1976, on F_N).  Let sigma =
1 - z sum_y mu(y) F(e, y^-1 | z), the loop sum that ``_ceiling`` checks,
and t = sigma / z.  A path's ``rest`` is sigma plus its own factor's
share S_i of the loop sum, so the paths of factor i see only t, and
G_i = S_i / z is a function of t alone:

* Z, mu(x) = p, mu(x^-1) = q: F_x and F_x^-1 = (q/p) F_x solve a
  quadratic, and G = sqrt(t^2 + 4pq) - t;
* Z/2, weight p: G = (sqrt(t^2 + 4p^2) - t) / 2;
* Z/m, m >= 3: with tau = rest / z and g(tau) = mu(s) F_{s^-1} +
  mu(s^-1) F_s from ``_cycle_hits`` at (mu(s), mu(s^-1)) / tau, G(t) =
  g(tau) at the root of tau - g(tau) = t, which is unique as g falls.

Summing the shares, 1/z = Psi(t) = t + sum_i G_i(t), and rho = min over
t > 0 of Psi(t); as Psi(t) >= t, the minimiser lies in (0, 1].  On F_N
this is Akemann and Ostrand's formula.  The minimum only chooses the
weight of the one probe, just below 1 / min Psi: the bound is rigorous
because the certificate passes there, whatever the minimisation's error.

Path layout.  Phi is compiled once per model (``_Slots``) into these
paths, each with its forward and backward letter slots (positions in
``keys``) and the slots of its ``rest`` terms in key order; every letter
slot and every one-factor key reads one state of one path.  Only z mu
depends on the walk and on z: ``_Letters`` binds it into (z mu(y),
inverse slot) term pairs, and the sweeps, Jacobians, iterations, Newton
steps and certificates run on float lists indexed by slot.  The table of
every one-factor value, keyed by syllable, is built only where
``_Solution``, ``_ceiling`` and ``ancona`` read it.

Bit identity.  Each floating-point operation keeps the operands and the
order of the syllable-keyed reference engine (``tests/oracles.py``): the
same left-to-right ``sum`` from int 0, the same (terms + 8) eps / den_min
grouping, the same v (1 - rounding), and ``_cycle_hits`` shortened only
where the dropped operations are exact (x + 0.0 and x / 1.0).  So every
iterate, enclosure and certificate is the reference's, bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import DivergenceError, SolverError
from .groups import GroupElement, GroupModel, factors
from .walks import WalkSpec

Bracket = tuple[float, float, float]  # (value, lower, upper)
Vector = list[float]  # one value per letter slot

_EPS = 2.0 ** -52  # twice the unit roundoff: one rounding plus slack
_MAX_SWEEPS = 20_000
_MAX_DOUBLINGS = 200
_MAX_NEWTON = 100
# A Newton step falling by more than this, relative, finds no fixed point
# above the iterate.  Below 1/rho the exact Jacobian's steps fall only by
# rounding; past 1/rho the first falling step drops by 1e-4 or more
# already at 1e-7 beyond it.
_FALL = 2.0 ** -26
_MAX_DIRECTION = 1e12  # |(I - J)^-1 1| beyond this: Jacobian at eigenvalue 1
_DELTA = 1e-9  # relative distance of the first spectral probe below 1 / min Psi
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_STEPS = 45  # shrink the search interval of min Psi to 0.618^45 ~ 4e-10
_ROOT_TOL = 1e-12  # relative Newton step at which a cycle's tau is taken as the root
_DIVERGES = "first-passage fixed point diverges: z is past 1/rho"


class _Slots:
    """The path layout of one model's map Phi; no walk weight enters it.

    Slot i is letter ``keys[i]``, its one-syllable normal form (letter id,
    exponent), and ``inv[i]`` the slot of its inverse.  ``paths`` holds
    (m, forward slot, backward slot, rest slots) per path of m - 1 states,
    m = 2 on a letter of Z.  A sweep lays all states end to end: ``out[i]``
    is the state of slot i, ``entries`` the table's (key, state) pairs.
    ``num`` is the numerator of a sweep's rounding bound.
    """

    def __init__(self, model: GroupModel):
        keys = self.keys = [g.syllables[0] for g in model.generators()]
        index = self.index = {k: i for i, k in enumerate(keys)}
        self.inv = [index[(lid, model.letter_order(lid) - exp)] for lid, exp in keys]
        self.inverse_keys = [keys[j] for j in self.inv]
        self.paths, self.entries = [], []
        num = len(keys) + 4
        for lid, m in enumerate(model.orders, 1):
            if m:  # state d - 1 of the m-cycle is s^(m - d), d = 1 .. m - 1
                rest = [j for j, k in enumerate(keys) if k[0] != lid]
                self.paths.append((m, index[(lid, 1)], index[(lid, m - 1)], rest))
                first = len(self.entries)
                self.entries += [((lid, k), first + m - k - 1) for k in range(1, m)]
                num += 4 * m + 2
            else:
                for key in ((lid, 1), (lid, -1)):
                    i = index[key]
                    self.paths.append((2, i, i, [j for j in range(len(keys)) if j != i]))
                    self.entries.append((key, len(self.entries)))
        state = dict(self.entries)
        self.out = [state[k] for k in keys]
        self.num = num * _EPS


_slots = lru_cache(maxsize=16)(_Slots)  # built once per model


class _Letters:
    """The monotone map Phi of one walk and weight z, on the letter slots.

    ``sweep`` returns Phi on the slots and a relative rounding bound of
    that evaluation; ``linear`` adds the Jacobian at the same point;
    ``table`` returns every one-factor value, keyed by syllable, with the
    same bound.
    """

    def __init__(self, spec: WalkSpec, z: float):
        slots = self.slots = _slots(spec.model)
        self.keys, self.inverse_keys = slots.keys, slots.inverse_keys
        zmu = self.zmu = [0.0] * len(slots.keys)
        for g, p in spec.support:
            zmu[slots.index[g.syllables[0]]] += z * p
        self.paths = [
            (m, zmu[f], zmu[b], [(zmu[j], slots.inv[j]) for j in rest])
            for m, f, b, rest in slots.paths
        ]

    def sweep(self, F: Vector) -> tuple[Vector, float]:
        states, rounding, _ = self._states(F)
        return [states[i] for i in self.slots.out], rounding

    def table(self, F: Vector) -> tuple[dict, float]:
        states, rounding, _ = self._states(F)
        return {k: states[i] for k, i in self.slots.entries}, rounding

    def _states(self, F: Vector) -> tuple[Vector, float, Vector]:
        """The hitting probabilities of every path's states at F, the
        rounding bound and every path's ``rest``."""
        states, rests = [], []
        den_min = 1.0
        for m, forward, backward, terms in self.paths:
            rest = 1.0 - sum([w * F[s] for w, s in terms])
            if not rest > 0.0:
                raise DivergenceError(_DIVERGES)
            rests.append(rest)
            if m == 2:
                states.append(forward / rest)
                den_min = min(den_min, rest)
            else:
                h, pivot_min = _cycle_hits(m, forward / rest, backward / rest)
                states += h
                den_min = min(den_min, rest, pivot_min)
        return states, self.slots.num / den_min, rests

    def linear(self, F: Vector) -> tuple[Vector, float, list[list[float]]]:
        """``sweep`` at F and the rows of d Phi_i / d F_j over the slots there.  A path's hits
        solve A h = r, A - I and r linear in (phi, beta) = (forward, backward) / rest: by Euler's
        identity and d phi / d F_s = phi w / rest, d h / d F_s = (w / rest) A^-1 h, or
        w forward / rest^2 on one state.  The Jacobian reads the sweep's hits and ``rest``, so
        no path is solved twice at F."""
        states, rounding, rests = self._states(F)
        rows = []
        first = 0
        for (m, forward, backward, terms), rest in zip(self.paths, rests):
            if m == 2:
                scales = [forward / (rest * rest)]
            else:
                h = states[first:first + m - 1]
                slopes, _ = _path_solve(forward / rest, backward / rest, h)
                scales = [v / rest for v in slopes]
            first += m - 1
            for scale in scales:
                row = [0.0] * len(F)
                for w, s in terms:
                    row[s] = scale * w
                rows.append(row)
        out = self.slots.out
        return [states[i] for i in out], rounding, [rows[i] for i in out]


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


def _iterate(phi: _Letters, bias: bool) -> Vector:
    """Phi iterated up from 0 until no letter increases.

    With ``bias`` each step is rounded down by its rounding bound, so
    every iterate stays below the exact one and the limit is a lower
    bound of the minimal fixed point.
    """
    F = [0.0] * len(phi.keys)
    sweep = phi.sweep
    for _ in range(_MAX_SWEEPS):
        values, rounding = sweep(F)
        if bias:
            down = 1.0 - rounding
            values = [v * down for v in values]
        if all([v <= f for v, f in zip(values, F)]):
            return F
        F = values
    raise SolverError(f"first-passage fixed point not reached in {_MAX_SWEEPS} sweeps")


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """x with a x = b, by Gaussian elimination with partial pivoting.

    Plain Python floats, so the result is bitwise the same in every
    process.  A zero pivot raises DivergenceError: a is singular.
    """
    rows = [row[:] + [v] for row, v in zip(a, b)]
    n = len(rows)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if not rows[p][c] != 0.0:
            raise DivergenceError("singular Jacobian: z is at or past 1/rho")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot[c]
            if f:
                rows[r][c:] = [x - f * y for x, y in zip(rows[r][c:], pivot[c:])]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        row = rows[c]
        x[c] = (row[n] - sum(row[j] * x[j] for j in range(c + 1, n))) / row[c]
    return x


def _resolvent(jac: list[list[float]], b: list[float]) -> list[float]:
    """(I - J)^-1 b for the Jacobian rows J."""
    a = [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(jac)]
    return _solve(a, b)


def _newton(phi: _Letters) -> Vector:
    """The minimal fixed point of Phi by Newton's method from 0.

    Each component of Phi is a power series in the letter values with
    nonnegative coefficients, so Phi is monotone and convex, and the
    Newton iterates F + (I - J(F))^-1 (Phi(F) - F) rise monotonically to
    the minimal fixed point whenever one exists (Etessami and
    Yannakakis, J. ACM 56, 2009; Esparza, Kiefer and Luttenberger, SIAM
    J. Comput. 39, 2010).  Stops once the residual Phi(F) - F lies within
    the sweep's rounding bound.  Below a fixed point every step is
    nonnegative, so a step with a component falling by more than
    ``_FALL`` relative to Phi(F) finds none above F, that is z is past
    1/rho, and raises DivergenceError, as does a diverging sweep or a
    singular I - J; ``_MAX_NEWTON`` steps without convergence raise
    SolverError.
    """
    F = [0.0] * len(phi.keys)
    for _ in range(_MAX_NEWTON):
        values, rounding, jac = phi.linear(F)
        residual = [v - f for v, f in zip(values, F)]
        if all(abs(r) <= rounding * v for r, v in zip(residual, values)):
            return F
        step = _resolvent(jac, residual)
        if not all(s >= -_FALL * v for s, v in zip(step, values)):
            raise DivergenceError("Newton step falls: z is past 1/rho")
        F = [f + s for f, s in zip(F, step)]
    raise SolverError(f"Newton's method did not converge in {_MAX_NEWTON} steps")


def _upper(phi: _Letters, F: Vector) -> Vector:
    """A vector U >= F with Phi(U) <= U, certified with rounding.

    U = F + t d with d = (I - J)^-1 1 for the Jacobian J of Phi at F:
    along d, Phi(F + t d) - (F + t d) ~ Phi(F) - F - t, so t is doubled
    from the current excess until the check passes.  For J >= 0 a
    positive solution d exists exactly when the spectral radius of J is
    below 1, that is when the fixed point is stable and z < 1/rho.
    """
    base, rounding, jac = phi.linear(F)
    d = _resolvent(jac, [1.0] * len(F))
    if not all(0.0 < dk <= _MAX_DIRECTION for dk in d):
        raise DivergenceError("first-passage fixed point is not stable: z is at or past 1/rho")
    excess = max(b * (1.0 + rounding) - f for f, b in zip(F, base))
    t = max(excess, rounding * max(F), 1e-300)
    for _ in range(_MAX_DOUBLINGS):
        U = [f + t * dk for f, dk in zip(F, d)]
        try:
            image, bound = phi.sweep(U)
        except DivergenceError:
            image = None
        if image is not None and all(v * (1.0 + bound) <= u for v, u in zip(image, U)):
            return U
        t *= 2.0
    raise SolverError("no upper bound certified for the first-passage fixed point")


def _ceiling(phi: _Letters, U: Vector) -> tuple[dict, float]:
    """Upper ends of every one-syllable value from a supersolution U, and
    of the return sum z sum_y mu(y) F(e, y^-1 | z).  Every one-syllable
    value is monotone in the letter values, so one sweep at U bounds them
    all.  Raises DivergenceError unless the sum is below 1, that is
    unless G(e, e | z) is certified finite."""
    high, r_high = phi.table(U)
    high = {k: v * (1.0 + r_high) for k, v in high.items()}
    loop = sum(w * high[k] for w, k in zip(phi.zmu, phi.inverse_keys))
    if not loop < 1.0:
        raise DivergenceError("Green function diverges: z is past 1/rho")
    return high, loop


class _Solution:
    """One-syllable first-passage enclosures and G(e, e | z) of a walk."""

    def __init__(self, spec: WalkSpec, z: float):
        phi = _Letters(spec, z)
        point = _iterate(phi, bias=False)
        lower = _iterate(phi, bias=True)
        high, loop = _ceiling(phi, _upper(phi, point))
        # Every one-syllable value is monotone in the letter values, so one
        # more sweep at the point and at the lower end fills the table.
        mid, _ = phi.table(point)
        low, r_low = phi.table(lower)
        self.table = {}
        for k, v in mid.items():
            lo, hi = low[k] * (1.0 - r_low), high[k]
            self.table[k] = (min(max(v, lo), hi), lo, hi)
        inverse = [self.table[k] for k in phi.inverse_keys]
        sums = [sum(w * t[i] for w, t in zip(phi.zmu, inverse)) for i in (0, 1)]
        slack = (len(phi.keys) + 4) * _EPS / (1.0 - loop)
        self.base = (
            1.0 / (1.0 - sums[0]),
            (1.0 - slack) / (1.0 - sums[1]),
            (1.0 + slack) / (1.0 - loop),
        )

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


def _certified(spec: WalkSpec, z: float) -> bool:
    """Whether G(e, e | z) is certified finite: a supersolution above the
    Newton fixed point, and a return sum below 1 under it."""
    phi = _Letters(spec, z)
    try:
        _ceiling(phi, _upper(phi, _newton(phi)))
    except SolverError:  # DivergenceError included
        return False
    return True


def _factor_weights(spec: WalkSpec) -> list[tuple[int, float, float]]:
    """(m, a, b) per factor: on Z (m = 0) a = mu(x), b = mu(x^-1); on
    Z/m a = mu(s), b = mu(s^-1), so b = a on Z/2."""
    slots, mu = _slots(spec.model), _Letters(spec, 1.0).zmu
    return [
        (m, mu[slots.index[(lid, 1)]], mu[slots.index[(lid, m - 1 if m else -1)]])
        for lid, m in enumerate(spec.model.orders, 1)
    ]


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


def _psi(factors: list[tuple[int, float, float]], t: float, roots: dict) -> float:
    """Psi(t) = t + sum_i G_i(t): 1/z at the weight z whose return sum
    leaves sigma = z t.  ``roots`` maps a cycle factor to (t, tau,
    d tau / d t) at its last solve, and is updated: the next solve starts
    from the tangent there.  A cycle factor that repeats is solved once."""
    shares = {}
    for f in factors:
        if f[0] > 2 and f not in shares:
            last, tau, rate = roots.get(f, (t, math.inf, 0.0))
            share, tau, rate = _cycle_share(*f, t, tau + (t - last) * rate)
            shares[f], roots[f] = share, (t, tau, rate)
    total = t
    for m, a, b in factors:
        if m == 0:
            total += math.sqrt(t * t + 4.0 * a * b) - t
        elif m == 2:
            total += 0.5 * (math.sqrt(t * t + 4.0 * a * a) - t)
        else:
            total += shares[(m, a, b)]
    return total


def _psi_min(spec: WalkSpec) -> float:
    """min of Psi over t in (0, 1], which holds its minimiser since
    Psi(t) >= t and min Psi = rho <= 1: golden-section search, each cycle
    factor's root started from the previous probe's."""
    factors, roots = _factor_weights(spec), {}
    lo, hi = 0.0, 1.0
    x, y = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fx, fy = _psi(factors, x, roots), _psi(factors, y, roots)
    for _ in range(_GOLDEN_STEPS):
        if fx <= fy:
            hi, y, fy = y, x, fx
            x = hi - _GOLDEN * (hi - lo)
            fx = _psi(factors, x, roots)
        else:
            lo, x, fx = x, y, fy
            y = lo + _GOLDEN * (hi - lo)
            fy = _psi(factors, y, roots)
    return min(fx, fy)


def spectral_upper(spec: WalkSpec) -> float:
    """A certified upper bound 1/z on the spectral radius rho.

    z is a weight at which G(e, e | z) is certified finite, so
    z <= 1/rho.  The first probe is z = (1 - _DELTA) / min Psi, just
    below 1/rho = 1 / min Psi; while a probe fails, its distance below
    1 / min Psi grows a hundredfold, down to z = 1, which ``_solution``
    certifies.  min Psi only chooses where to probe: the bound holds by
    the certificate alone.  A probe runs Newton's method from 0 to the
    minimal fixed point (monotone for a monotone convex Phi: Etessami
    and Yannakakis 2009; Esparza, Kiefer and Luttenberger 2010) and
    certifies a supersolution above it; it counts as not certified when
    a Newton step falls by more than ``_FALL`` (no fixed point above the
    iterate), when a sweep diverges, when I - J is singular or has no
    positive (I - J)^-1 1, or after ``_MAX_NEWTON`` steps.
    """
    _solution(spec, 1.0)  # z = 1 must certify: its errors propagate
    psi = _psi_min(spec)
    delta = _DELTA
    while delta < 1.0:
        z = (1.0 / psi) * (1.0 - delta)
        if z > 1.0 and _certified(spec, z):
            return (1.0 / z) * (1.0 + _EPS)
        delta *= 100.0
    return 1.0 + _EPS
