"""Green functions on balls and on the full group, first-passage and
last-exit kernels, weighted Green functions, and the multiplicativity
check along geodesics.

Full-group values (``green``, ``green_z``, ``first_passage``) are exact
products over syllables from the cut-vertex engine in ``_exact``, each
with a certified enclosure of relative width near float rounding.  Taboo
kernels (``first_passage_set``, ``last_exit``) solve the walk absorbed on
the taboo set over a finite cut-closed domain, with the branches beyond
it folded in as exact self-loops, so they carry enclosures of the same
kind.  Restricted values on balls come from the sparse solver; they serve
``ancona`` and the tests as an independent oracle.  scipy.sparse is
loaded by the taboo and ball solves only, on their first call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _exact
from ._solver import RestrictedSolver
from .errors import SolverError, ValidationError
from .groups import Ball, GroupElement, ball, distance, geodesic
from .walks import WalkSpec, n_step_distributions, require_valid, reversed_walk


@dataclass(frozen=True)
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


@lru_cache(maxsize=8)
def _solver(spec: WalkSpec, radius: int, z: float, rtol: float, max_states: int) -> RestrictedSolver:
    return RestrictedSolver(spec, radius, z=z, rtol=rtol, max_states=max_states)


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class GreenTable:
    """Restricted Green values G_D(x, .) on an indexed ball domain."""

    domain: Ball
    radius: int
    walk: WalkSpec
    z: float
    rows: dict
    residuals: dict
    solver: RestrictedSolver = field(repr=False, compare=False)

    def value(self, x: GroupElement, y: GroupElement) -> float:
        i = self.domain.index_of(x)
        if i not in self.rows:
            raise KeyError(f"no computed row for source {x}")
        return float(self.rows[i][self.domain.index_of(y)])

    def row(self, x: GroupElement) -> np.ndarray:
        return self.rows[self.domain.index_of(x)]

    def column(self, y: GroupElement) -> np.ndarray:
        return self.solver.col(self.domain.index_of(y))


def restricted_green(
    walk: WalkSpec,
    radius: int,
    sources: Iterable[GroupElement] = (),
    *,
    z: float = 1.0,
    rtol: float = 1e-12,
    max_states: int = 3_000_000,
) -> GreenTable:
    """Solve the walk restricted to B(e, radius) for the given source rows.

    The base row at e is always included.  Sources must lie inside the
    domain; anything outside is a hard error.
    """
    require_valid(walk, nondegenerate=False)
    solver = _solver(walk, radius, z, rtol, max_states)
    b = solver.ball
    rows = {}
    residuals = {}
    wanted = [walk.model.identity()]
    wanted.extend(sources)
    for x in wanted:
        i = b.index_of(x)
        if i not in rows:
            rows[i] = solver.row(i)
            residuals[i] = solver.row_residual(i)
    return GreenTable(
        domain=b, radius=radius, walk=walk, z=z, rows=rows, residuals=residuals, solver=solver
    )


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
    import scipy.sparse as sp  # costly to import: loaded on first use
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


@dataclass(frozen=True)
class AnconaSample:
    x: GroupElement
    v: GroupElement
    y: GroupElement
    dist: int
    rho: float


@dataclass(frozen=True)
class AnconaReport:
    """Per-sample ratios G(x,y) / (F(x,v) G(v,y)) with a distance trend."""

    samples: tuple[AnconaSample, ...]
    radius: int
    rho_min: float
    rho_max: float
    trend_slope: float
    trend_stderr: float
    trend_t: float

    def max_by_distance(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for s in self.samples:
            out[s.dist] = max(out.get(s.dist, 0.0), s.rho)
        return out

    def no_growth(self, t_crit: float = 1.96) -> bool:
        return not np.isfinite(self.trend_t) or self.trend_t <= t_crit


def _random_element(model, rng, length: int) -> GroupElement:
    gens = model.generators()
    g = model.identity()
    guard = 0
    while g.word_length() < length:
        s = gens[int(rng.integers(len(gens)))]
        if (g * s).word_length() > g.word_length():
            g = g * s
        guard += 1
        if guard > 100 * (length + 1):
            raise RuntimeError("random element generation stalled")
    return g


def ancona_check(
    walk: WalkSpec,
    samples: Sequence[tuple[GroupElement, GroupElement, GroupElement]] | None = None,
    *,
    n_samples: int = 1000,
    max_dist: int = 12,
    radius: int | None = None,
    rtol: float = 1e-12,
    max_states: int = 3_000_000,
    stream: int = 0x414E43,
) -> AnconaReport:
    """Check multiplicativity of the restricted Green function at geodesic
    midpoints: rho = G(x,y) / (F(x,v) G(v,y)) with v on a geodesic x -> y.

    On tree models rho is 1 up to solver tolerance; in general the report
    records the ratio envelope and the trend of per-distance maxima.
    """
    from scipy import stats  # costly to import; only the probes fit lines

    from .walks import _generator

    require_valid(walk)
    model = walk.model
    if samples is None:
        rng = _generator(walk.seed, stream)
        half = max_dist // 2
        gen_samples = []
        for _ in range(n_samples):
            x = _random_element(model, rng, int(rng.integers(0, half + 1)))
            y = _random_element(model, rng, int(rng.integers(0, half + 1)))
            path = geodesic(x, y)
            v = path.vertices[int(rng.integers(len(path.vertices)))]
            gen_samples.append((x, v, y))
        samples = gen_samples
    if radius is None:
        radius = max(
            4, max(max(x.word_length(), v.word_length(), y.word_length()) for x, v, y in samples) + 2
        )
    solver = _solver(walk, radius, 1.0, rtol, max_states)
    b = solver.ball
    out = []
    for x, v, y in samples:
        iv = b.index_of(v)
        row_x = solver.row(b.index_of(x))
        row_v = solver.row(iv)
        g_xy = float(row_x[b.index_of(y)])
        f_xv = float(row_x[iv]) / float(row_v[iv])
        g_vy = float(row_v[b.index_of(y)])
        rho = g_xy / (f_xv * g_vy)
        out.append(AnconaSample(x=x, v=v, y=y, dist=distance(x, y), rho=rho))
    by_dist: dict[int, float] = {}
    for s in out:
        by_dist[s.dist] = max(by_dist.get(s.dist, 0.0), s.rho)
    if len(by_dist) >= 3:
        xs = np.array(sorted(by_dist))
        ys = np.array([by_dist[d] for d in sorted(by_dist)])
        fit = stats.linregress(xs, ys)
        slope, stderr = float(fit.slope), float(fit.stderr)
        t = slope / stderr if stderr > 0 else np.inf if slope > 0 else 0.0
    else:
        slope, stderr, t = 0.0, float("nan"), float("nan")
    rhos = [s.rho for s in out]
    return AnconaReport(
        samples=tuple(out),
        radius=radius,
        rho_min=min(rhos),
        rho_max=max(rhos),
        trend_slope=slope,
        trend_stderr=stderr,
        trend_t=float(t),
    )


# ---------------------------------------------------------------------------
# diagnostics used by invariants


def harnack_constant(walk: WalkSpec, k_max: int = 10) -> float:
    """Harnack constant for unit-distance comparisons of superharmonic
    functions: max over letters s of 1 / max_{k <= K} p^(k)(e, s), with K
    minimal so that every letter is reachable within K steps.

    Only B(e, K) is built; K = 1 whenever the support is the alphabet.
    """
    require_valid(walk)
    gens = walk.model.generators()
    for k in range(1, k_max + 1):
        b, dists = n_step_distributions(walk, k)
        best = {g: max(float(vec[b.index_of(g)]) for vec in dists[1:]) for g in gens}
        if all(v > 0 for v in best.values()):
            return max(1.0 / v for v in best.values())
    raise ValidationError(f"some generator unreachable within {k_max} steps")


def green_decay_slope(
    walk: WalkSpec, max_len: int, per_sphere: int = 24
) -> tuple[float, float]:
    """Fit log G(e, g) against |g| for |g| <= max_len; returns (slope, intercept).

    Transience with exponential decay makes the slope strictly negative.
    """
    require_valid(walk)
    b = ball(walk.model, max_len)
    xs, ys = [], []
    e = walk.model.identity()
    for k in range(0, max_len + 1):
        idxs = list(b.sphere_indices(k))[:per_sphere]
        for i in idxs:
            g = b.element(i)
            xs.append(k)
            ys.append(np.log(green(walk, e, g).value))
    slope, intercept = np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)
    return float(slope), float(intercept)
