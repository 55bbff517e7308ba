"""Green functions on balls and on the full group, first-passage and
last-exit kernels, weighted Green functions, and the multiplicativity
check along geodesics.

Full-group values (``green``, ``green_z``, ``first_passage``) are exact
products over syllables from the cut-vertex engine in ``_exact``, each
with a certified enclosure of relative width near float rounding.
Restricted values on balls come from the sparse solver; they serve the
taboo kernels, the multiplicativity check and the tests as an
independent oracle.  Taboo first-passage values are extrapolated over
nested balls, with an honest rather than certified upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

from . import _exact
from ._solver import RestrictedSolver, taboo_first_passage
from .errors import GreenBudgetError, ValidationError
from .groups import FREE, Ball, GroupElement, ball, distance, geodesic
from .walks import WalkSpec, n_step_distributions, require_valid

def default_max_radius(model) -> int:
    """Radius budget keeping ball sizes well under 10^6 states."""
    if model.kind == FREE:
        return {2: 12, 3: 8}.get(model.rank, 6)
    # Free-product balls grow slowly; the deeper default buys bracket
    # quality against spectral radii close to 1.
    return 30


@dataclass(frozen=True)
class GreenEstimate:
    """A bracketed value of a Green-type quantity.

    Full-group values are exact enclosures: ``lower <= value <= upper``
    with a relative width near float rounding, ``radii == ()``,
    ``tail_ratio == 0`` and ``converged`` set.  Taboo values from
    nested balls record the radii used: ``lower`` is the largest
    restricted value and ``upper`` adds a safety-factored geometric tail.
    """

    value: float
    lower: float
    upper: float
    radii: tuple[int, ...]
    tail_ratio: float
    converged: bool

    @classmethod
    def exact(cls, bracket: _exact.Bracket) -> "GreenEstimate":
        value, lower, upper = bracket
        return cls(value, lower, upper, radii=(), tail_ratio=0.0, converged=True)

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
    return GreenEstimate.exact(_exact.green(walk, x.inverse() * y))


def green_z(walk: WalkSpec, x: GroupElement, y: GroupElement, z: float) -> GreenEstimate:
    """The weighted Green function G(x, y | z) for z in [0, 1/rho).

    z = 1 recovers ``green`` and z = 0 the indicator of x = y; z past
    1/rho raises :class:`DivergenceError`.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    require_valid(walk, nondegenerate=False)
    return GreenEstimate.exact(_exact.green(walk, x.inverse() * y, float(z)))


def first_passage(walk: WalkSpec, x: GroupElement, y: GroupElement) -> GreenEstimate:
    """First-passage probability F(x, y) = G(x, y) / G(y, y), in [0, 1]."""
    require_valid(walk, nondegenerate=False)
    return GreenEstimate.exact(_exact.first_passage(walk, x.inverse() * y))


# ---------------------------------------------------------------------------
# taboo kernels on nested balls

_TAIL_SAFETY = 3.0
_TAIL_RATIO_CAP = 0.95
_MIN_RUNGS = 3


def _extrapolate(values: Sequence[float], radii: Sequence[int], tol: float) -> GreenEstimate:
    v = list(values)
    last = v[-1]
    d1 = last - v[-2]
    d2 = v[-2] - v[-3]
    if d1 <= 0.0:
        return GreenEstimate(last, last, last, tuple(radii), 0.0, True)
    q = d1 / d2 if d2 > 0 else _TAIL_RATIO_CAP
    q = min(max(q, 0.0), _TAIL_RATIO_CAP)
    tail = d1 * q / (1.0 - q)
    value = last + tail
    upper = last + _TAIL_SAFETY * tail
    converged = (upper - last) <= tol * max(value, 1e-300)
    return GreenEstimate(value, last, upper, tuple(radii), q, converged)


def _rungs(target_length: int, max_radius: int) -> list[int]:
    first = max(4, target_length + 2)
    return list(range(first, max_radius + 1))


def first_passage_set(
    walk: WalkSpec,
    lam: Iterable[GroupElement],
    x: GroupElement,
    tol: float = 1e-3,
    *,
    max_radius: int | None = None,
    rtol: float = 1e-12,
    max_states: int = 3_000_000,
) -> dict[GroupElement, GreenEstimate]:
    """First-passage distribution on a taboo set: y -> F(x, y; first hit of lam).

    Computed on nested balls with the set absorbing.  Values increase
    with the domain; each target's last three radii are extrapolated with
    a geometric tail, and the upper bound triples that tail.
    """
    require_valid(walk, nondegenerate=False)
    lam = list(dict.fromkeys(lam))
    if not lam:
        raise ValidationError("taboo set is empty")
    cap = max_radius if max_radius is not None else default_max_radius(walk.model)
    need = max(max(g.word_length() for g in lam), x.word_length())
    rungs = _rungs(need, cap)
    if len(rungs) < _MIN_RUNGS:
        raise GreenBudgetError(f"taboo set needs {_MIN_RUNGS} radii above {need + 2}")
    per_rung: list[np.ndarray] = []
    used: list[int] = []
    for r in rungs:
        solver = _solver(walk, r, 1.0, rtol, max_states)
        lam_idx = np.array([solver.ball.index_of(g) for g in lam], dtype=np.int64)
        vec = taboo_first_passage(solver, lam_idx, solver.ball.index_of(x))
        per_rung.append(vec)
        used.append(r)
        if len(per_rung) >= _MIN_RUNGS:
            ests = [
                _extrapolate([float(v[k]) for v in per_rung], used, tol)
                for k in range(len(lam))
            ]
            if all(e.converged for e in ests):
                return dict(zip(lam, ests))
    raise GreenBudgetError(f"taboo brackets did not reach tol={tol} at radius {cap}")


def last_exit(
    walk: WalkSpec,
    lam: Iterable[GroupElement] | None,
    x: GroupElement,
    y: GroupElement,
    tol: float = 1e-3,
    **kwargs,
) -> GreenEstimate:
    """Last-exit kernel L(x, y) relative to a taboo set containing x.

    Computed through the reversed walk: L(x, y) equals the reversed-walk
    first-passage probability from y to the set, at x.
    """
    from .walks import reversed_walk

    lam = [x] if lam is None else list(lam)
    if x not in lam:
        raise ValidationError("last_exit needs x inside the taboo set")
    table = first_passage_set(reversed_walk(walk), lam, y, tol, **kwargs)
    return table[x]


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
