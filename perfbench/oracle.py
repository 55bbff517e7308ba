"""Exact references for the benchmark's output checks.

Everything here is computed from the walk's step probabilities alone,
without hypwalk: words are parsed and reduced by this module's own
normal-form code, and first-passage probabilities come from the
cut-vertex fixed point (Woess, *Random Walks on Infinite Graphs and
Groups*, Ch. 9 and section 26).  On the Cayley graphs of F_N and
Z/m*Z/n the syllable boundaries of a reduced word are cut vertices, so

    F(e, g) = prod of F over the syllables of g,
    G(e, g) = G(e, e) F(e, g),   G(e, e) = 1 / (1 - sum_y mu(y) F(e, y^-1)),
    K(g, xi) = lim F(e, g^-1 y) / F(e, y) along the ray y -> xi,
    r(g) = prod of F over the syllables of the cyclically reduced g.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_FIXED_POINT_TOL = 4e-16  # a few ulps of values in (0, 1]
_FIXED_POINT_ITERS = 100_000


class Model:
    """F_rank (``orders`` None) or Z/m*Z/n (``orders`` = (m, n)).

    A syllable is ``(factor, exponent)`` with 1-based factors; free-group
    exponents are nonzero integers, free-product exponents lie in
    ``1..order-1``.
    """

    def __init__(self, rank: int = 0, orders: tuple[int, int] | None = None):
        self.rank = rank if orders is None else 2
        self.orders = tuple(orders) if orders is not None else None

    @staticmethod
    def from_config(section: dict) -> "Model":
        if section["kind"] == "free":
            return Model(rank=int(section["rank"]))
        m, n = section["orders"]
        return Model(orders=(int(m), int(n)))

    def order(self, factor: int) -> int:
        """Order of a factor, 0 for an infinite cyclic one."""
        return 0 if self.orders is None else self.orders[factor - 1]

    def letter(self, ch: str) -> tuple[int, int]:
        """A letter as a one-step syllable (factor, +1 or -1)."""
        low = ch.lower()
        if self.orders is None:
            factor = ord(low) - ord("a") + 1
        else:
            factor = {"s": 1, "t": 2}.get(low, 0)
        if not 1 <= factor <= self.rank:
            raise ValueError(f"unknown letter {ch!r}")
        return factor, 1 if ch.islower() else -1

    def reduce(self, steps) -> tuple[tuple[int, int], ...]:
        """Normal form of a product of (factor, exponent) steps."""
        out: list[list[int]] = []
        for factor, exp in steps:
            order = self.order(factor)
            if out and out[-1][0] == factor:
                exp = out[-1][1] + exp
                out.pop()
            if order:
                exp %= order
            if exp:
                out.append([factor, exp])
        return tuple((f, e) for f, e in out)

    def word(self, text: str) -> tuple[tuple[int, int], ...]:
        if text in ("", "e"):
            return ()
        return self.reduce(self.letter(ch) for ch in text)

    def inverse(self, syllables) -> tuple[tuple[int, int], ...]:
        return self.reduce((f, -e) for f, e in reversed(syllables))

    def mul(self, *elements) -> tuple[tuple[int, int], ...]:
        return self.reduce(s for g in elements for s in g)

    def length(self, syllables) -> int:
        total = 0
        for factor, exp in syllables:
            order = self.order(factor)
            total += abs(exp) if not order else min(exp, order - exp)
        return total

    def cyclic_reduction(self, syllables) -> tuple[tuple[int, int], ...]:
        c = tuple(syllables)
        while len(c) >= 2 and c[0][0] == c[-1][0]:
            head = (c[0],)
            c = self.mul(self.inverse(head), c, head)
        return c


class Walk:
    """Exact first-passage values of a nearest-neighbour walk.

    ``support`` maps letters (as in configs: ``"a"``, ``"T"``) to
    probabilities.  ``F`` maps a single-syllable element to F(e, .).
    """

    def __init__(self, model: Model, support: dict[str, float]):
        self.model = model
        self.mu: dict[tuple[int, int], float] = {}
        for ch, p in support.items():
            step = model.reduce([model.letter(ch)])[0]
            self.mu[step] = self.mu.get(step, 0.0) + float(p)
        if abs(sum(self.mu.values()) - 1.0) > 1e-12:
            raise ValueError("step probabilities must sum to 1")
        self.F = self._free_fixed_point() if model.orders is None else self._product_fixed_point()

    @staticmethod
    def from_config(cfg: dict) -> "Walk":
        model = Model.from_config(cfg["model"])
        support = cfg["walk"].get("support", "uniform")
        if support == "uniform":
            letters = []
            for factor in range(1, model.rank + 1):
                name = chr(ord("a") + factor - 1) if model.orders is None else "st"[factor - 1]
                letters.append(name)
                if model.order(factor) != 2:
                    letters.append(name.upper())
            support = [[ch, 1.0 / len(letters)] for ch in letters]
        return Walk(model, {ch: p for ch, p in support})

    def _free_fixed_point(self) -> dict:
        # F_x = mu(x) / (1 - sum_{y != x} mu(y) F_{y^-1}), iterated up from 0.
        gens = list(self.mu)
        F = {x: 0.0 for x in gens}
        for _ in range(_FIXED_POINT_ITERS):
            new = {
                x: self.mu[x] / (1.0 - sum(self.mu[y] * F[(y[0], -y[1])]
                                           for y in gens if y != x))
                for x in gens
            }
            delta = max(abs(new[x] - F[x]) for x in gens)
            F = new
            if delta <= _FIXED_POINT_TOL:
                return F
        raise ArithmeticError("free-group fixed point did not converge")

    def _product_fixed_point(self) -> dict:
        # Per factor Z/m: a killed chain on the m-cycle.  At every cycle
        # vertex the walk leaves into the other factor's branch and comes
        # back with probability F(e, y^-1); that mass is a self-loop.
        model = self.model
        F = {(f, k): 0.0 for f in (1, 2) for k in range(1, model.order(f))}
        for _ in range(_FIXED_POINT_ITERS):
            new = {}
            for f in (1, 2):
                other = 3 - f
                loop = sum(p * F[model.inverse([y])[0]] for y, p in self.mu.items() if y[0] == other)
                m = model.order(f)
                moves = [(e, p) for (g, e), p in self.mu.items() if g == f]
                for target in range(1, m):
                    new[(f, target)] = _hitting_probability(m, moves, loop, target)
            delta = max(abs(new[k] - F[k]) for k in F)
            F = new
            if delta <= _FIXED_POINT_TOL:
                return F
        raise ArithmeticError("free-product fixed point did not converge")

    # -- exact quantities --------------------------------------------------

    def first_passage(self, syllables) -> float:
        out = 1.0
        for factor, exp in syllables:
            if self.model.orders is None:
                out *= self.F[(factor, 1 if exp > 0 else -1)] ** abs(exp)
            else:
                out *= self.F[(factor, exp)]
        return out

    def green_ee(self) -> float:
        back = sum(p * self.first_passage(self.model.inverse([y])) for y, p in self.mu.items())
        return 1.0 / (1.0 - back)

    def green(self, word: str) -> float:
        return self.green_ee() * self.first_passage(self.model.word(word))

    def ray(self, point: str, n: int) -> tuple[tuple[int, int], ...]:
        """First n letters of the ray written ``head(cycle)^inf``."""
        head, _, rest = point.partition("(")
        cycle = rest.split(")")[0]
        head = "" if head == "e" else head
        letters = head + cycle * (n // max(len(cycle), 1) + 1)
        return self.model.word(letters[:n])

    def kernel(self, g: str, point: str) -> float:
        gw = self.model.word(g)
        # Once y is a syllable boundary past the point where the ray leaves
        # the geodesic to g, the ratio no longer depends on y.
        n = self.model.length(gw) + 2 * len(point) + 8
        y = self.ray(point, n)
        return self.first_passage(self.model.mul(self.model.inverse(gw), y)) / self.first_passage(y)

    def ratio(self, g: str) -> float:
        return self.first_passage(self.model.cyclic_reduction(self.model.word(g)))


def _hitting_probability(m: int, moves, loop: float, target: int) -> float:
    """P(reach ``target`` from 0) for the killed walk on Z/m.

    ``moves`` lists (step, probability); ``loop`` is the self-loop mass.
    """
    states = [j for j in range(m) if j != target]
    pos = {j: i for i, j in enumerate(states)}
    A = np.eye(len(states))
    b = np.zeros(len(states))
    for j in states:
        A[pos[j], pos[j]] -= loop
        for step, p in moves:
            k = (j + step) % m
            if k == target:
                b[pos[j]] += p
            else:
                A[pos[j], pos[k]] -= p
    return float(np.linalg.solve(A, b)[pos[0]])


def lattice_label(r_values, tol: float = 1e-9) -> str | None:
    """``III_p/q`` when the exact r values are integer powers of one
    rational lambda, None when no such lambda is found at ``tol``."""
    logs = sorted(-math.log(r) for r in r_values if 0 < r < 1)
    if not logs:
        return None
    eps = tol * logs[-1]
    g = logs[0]
    for x in logs[1:]:
        a, b = max(g, x), min(g, x)
        while b > eps:
            a, b = b, abs(a - round(a / b) * b)
        g = a
    if g < 1e-6 * logs[-1] or any(abs(x - round(x / g) * g) > eps for x in logs):
        return None
    lam = Fraction(math.exp(-g)).limit_denominator(1000)
    if abs(float(lam) - math.exp(-g)) > tol:
        return None
    return f"III_{lam.numerator}/{lam.denominator}"


def uniform_cone_mass(rank: int, length: int) -> float:
    """nu(C(w)) for |w| = length under the simple walk on F_rank:
    all 2N(2N-1)^(n-1) cones of one length carry equal mass."""
    return 1.0 / (2 * rank * (2 * rank - 1) ** (length - 1))
