"""Walk specs, step distributions, path and boundary sampling, and the
spectral radius.

Randomness is counter-based: every sample is a pure function of
``(spec.seed, stream)`` through a keyed Philox generator, so results do
not depend on the order in which samples are drawn.  The spectral radius
is bracketed by the exact engine in ``_exact``: the lower end from exact
return probabilities, the upper end from a certified weighted Green
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import BoundaryTimeout, ValidationError
from .groups import FREE, GroupElement, GroupModel, ball

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class WalkSpec:
    """A finitely supported step distribution on a group model."""

    model: GroupModel
    support: tuple[tuple[GroupElement, float], ...]
    seed: int

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.support], dtype=np.float64)

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.support)

    def content_key(self) -> str:
        """Stable key identifying the measure (seed not included)."""
        items = ",".join(f"{g}:{p!r}" for g, p in self.support)
        return f"{self.model}|{items}"


def make_walk(model: GroupModel, items: Iterable[tuple[GroupElement | str, float]], seed: int) -> WalkSpec:
    """Build a WalkSpec with canonically ordered, merged support."""
    acc: dict[GroupElement, float] = {}
    for g, p in items:
        if isinstance(g, str):
            g = model.word(g)
        acc[g] = acc.get(g, 0.0) + float(p)
    support = tuple(sorted(acc.items(), key=lambda kv: kv[0].letters()))
    return WalkSpec(model=model, support=support, seed=int(seed))


def uniform_walk(model: GroupModel, seed: int) -> WalkSpec:
    """The simple random walk: uniform on the symmetric alphabet."""
    gens = model.generators()
    return make_walk(model, [(g, 1.0 / len(gens)) for g in gens], seed)


def reversed_walk(spec: WalkSpec) -> WalkSpec:
    """The walk driven by the reflected measure g -> mu(g^-1)."""
    return make_walk(spec.model, [(g.inverse(), p) for g, p in spec.support], spec.seed)


@dataclass(frozen=True)
class WalkValidation:
    probabilities_ok: bool
    nearest_neighbour: bool
    symmetric: bool
    nondegenerate: bool

    def as_dict(self) -> dict:
        return {
            "probabilities_ok": self.probabilities_ok,
            "nearest_neighbour": self.nearest_neighbour,
            "symmetric": self.symmetric,
            "nondegenerate": self.nondegenerate,
        }


@lru_cache(maxsize=64)
def validate_walk(spec: WalkSpec) -> WalkValidation:
    """Validate a walk spec.

    Hard errors (raised): empty support, nonpositive probabilities, total
    mass away from 1.  Everything else is reported as flags.
    Nondegeneracy is decided by checking that semigroup products of the
    support cover B(e, 2), which suffices for these models.
    """
    if not spec.support:
        raise ValidationError("walk support is empty")
    probs = spec.probabilities()
    if np.any(probs <= 0):
        raise ValidationError("step probabilities must be positive")
    if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
        raise ValidationError(f"step probabilities sum to {probs.sum()!r}, not 1")
    nearest = all(g.word_length() == 1 for g, _ in spec.support)
    mu = dict(spec.support)
    symmetric = all(abs(p - mu.get(g.inverse(), 0.0)) <= _PROB_TOL for g, p in spec.support)
    nondegenerate = _semigroup_covers_b2(spec)
    return WalkValidation(True, nearest, symmetric, nondegenerate)


def _semigroup_covers_b2(spec: WalkSpec) -> bool:
    model = spec.model
    targets = {model.from_letters(ltrs).letters() for ltrs in _b2_words(model)}
    if model.kind == FREE:
        detour = 1
    else:
        detour = max(model.orders) // 2
    cap = 2 + max(detour, max(g.word_length() for g, _ in spec.support))
    steps = spec.elements()
    frontier = [g for g in steps if g.word_length() <= cap]
    reach = {g.letters() for g in frontier}
    while frontier:
        nxt = []
        for x in frontier:
            for s in steps:
                y = x * s
                if y.word_length() > cap:
                    continue
                key = y.letters()
                if key not in reach:
                    reach.add(key)
                    nxt.append(y)
        frontier = nxt
    return targets <= reach


def _b2_words(model: GroupModel):
    b2 = ball(model, 2, max_states=10_000)
    return [b2.element(i).letters() for i in range(len(b2))]


def require_valid(spec: WalkSpec, nondegenerate: bool = True) -> WalkValidation:
    report = validate_walk(spec)
    if not report.nearest_neighbour:
        raise ValidationError("support must consist of length-1 elements")
    if nondegenerate and not report.nondegenerate:
        raise ValidationError("walk is degenerate: support does not generate the group")
    return report


# ---------------------------------------------------------------------------
# sampling


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


class _StepDrawer:
    """Chunked inverse-CDF draws of support indices from one stream."""

    def __init__(self, spec: WalkSpec, stream: int, chunk: int = 512):
        self._gen = _generator(spec.seed, stream)
        cum = np.cumsum(spec.probabilities())
        cum[-1] = 1.0
        self._cum = cum
        self._chunk = chunk
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def __call__(self) -> int:
        if self._pos >= len(self._buf):
            u = self._gen.random(self._chunk)
            self._buf = np.searchsorted(self._cum, u, side="right")
            self._pos = 0
        idx = int(self._buf[self._pos])
        self._pos += 1
        return idx


@dataclass(frozen=True)
class PathSample:
    """A sampled trajectory x_0, ..., x_n.

    ``positions`` is None when the caller asked not to materialize them
    (bulk statistics over long paths); ``step_indices`` always records the
    drawn support indices, so x_{k+1} = x_k * support[step_indices[k]].
    """

    start: GroupElement
    positions: tuple[GroupElement, ...] | None
    step_indices: np.ndarray
    stream: int


def sample_path(
    spec: WalkSpec,
    start: GroupElement,
    n_steps: int,
    stream: int = 0,
    keep_positions: bool = True,
) -> PathSample:
    """Sample a path of ``n_steps`` steps starting at ``start``.

    Deterministic given (spec.seed, stream).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    require_valid(spec, nondegenerate=False)
    draw = _StepDrawer(spec, stream)
    idx = np.fromiter((draw() for _ in range(n_steps)), dtype=np.int64, count=n_steps)
    positions = None
    if keep_positions:
        steps = spec.elements()
        pos = [start]
        cur = start
        for i in idx:
            cur = cur * steps[i]
            pos.append(cur)
        positions = tuple(pos)
    return PathSample(start=start, positions=positions, step_indices=idx, stream=stream)


@dataclass(frozen=True)
class BoundarySample:
    """A stabilized geodesic-word prefix approximating the walk's limit point."""

    prefix: GroupElement
    prefix_letters: tuple[int, ...]
    depth: int
    steps_used: int
    stream: int


class _FreeStack:
    """Mutable reduced word for a free group; tracks letter-level edits."""

    __slots__ = ("word", "touch")

    def __init__(self):
        self.word: list[int] = []
        self.touch = 0  # letter depth changed by the last push

    def push(self, letter: int) -> None:
        w = self.word
        if w and w[-1] == -letter:
            w.pop()
            self.touch = len(w)
        else:
            self.touch = len(w)
            w.append(letter)

    def length(self) -> int:
        return len(self.word)

    def prefix(self, k: int) -> tuple[int, ...]:
        return tuple(self.word[:k])


class _ProductStack:
    """Mutable normal form for a free product, spelled canonically."""

    __slots__ = ("orders", "syls", "lens", "lsum", "touch")

    def __init__(self, orders: tuple[int, int]):
        self.orders = orders
        self.syls: list[list[int]] = []  # [letter_id, exponent]
        self.lens: list[int] = []  # spelled length per syllable
        self.lsum = 0
        self.touch = 0

    def _syl_len(self, lid: int, exp: int) -> int:
        order = self.orders[lid - 1]
        return min(exp, order - exp)

    def push(self, letter: int) -> None:
        lid = abs(letter)
        order = self.orders[lid - 1]
        delta = 1 if letter > 0 else -1
        if self.syls and self.syls[-1][0] == lid:
            exp = (self.syls[-1][1] + delta) % order
            old = self.lens[-1]
            self.touch = self.lsum - old
            if exp == 0:
                self.syls.pop()
                self.lens.pop()
                self.lsum -= old
            else:
                new = self._syl_len(lid, exp)
                self.syls[-1][1] = exp
                self.lens[-1] = new
                self.lsum += new - old
        else:
            self.touch = self.lsum
            exp = delta % order
            self.syls.append([lid, exp])
            self.lens.append(self._syl_len(lid, exp))
            self.lsum += self.lens[-1]

    def length(self) -> int:
        return self.lsum

    def prefix(self, k: int) -> tuple[int, ...]:
        out: list[int] = []
        for (lid, exp), ln in zip(self.syls, self.lens):
            order = self.orders[lid - 1]
            sign = 1 if exp <= order - exp else -1
            out.extend([sign * lid] * ln)
            if len(out) >= k:
                break
        return tuple(out[:k])


def _stack_for(model: GroupModel):
    return _FreeStack() if model.kind == FREE else _ProductStack(model.orders)


def sample_boundary_point(
    spec: WalkSpec,
    margin: int = 10,
    patience: int = 20,
    max_steps: int = 20_000,
    stream: int = 0,
) -> BoundarySample:
    """Run the walk until a geodesic-word prefix stabilizes.

    The tracked prefix length L starts at ``margin`` and is promoted
    whenever the position is ``margin + patience`` beyond it; the sample
    is accepted once the L-prefix has been untouched for ``patience``
    consecutive steps while the position stays at least ``margin`` past
    it.  Raises :class:`BoundaryTimeout` when the step budget runs out.
    """
    if margin < 1 or patience < 1:
        raise ValueError("margin and patience must be positive")
    require_valid(spec, nondegenerate=True)
    letters = []
    for g, _ in spec.support:
        ls = g.letters()
        if len(ls) != 1:
            raise ValidationError("boundary sampling needs a nearest-neighbour walk")
        letters.append(ls[0])
    draw = _StepDrawer(spec, stream)
    stack = _stack_for(spec.model)
    L = margin
    last_touch: list[int] = []
    dirty_max = 0  # last step that edited word[:L]
    for step in range(1, max_steps + 1):
        stack.push(letters[draw()])
        d = stack.touch
        while len(last_touch) <= d:
            last_touch.append(0)
        last_touch[d] = step
        if d < L:
            dirty_max = step
        if stack.length() >= L + margin + patience:
            # Promote: the new prefix letter's history folds into the max.
            if L < len(last_touch):
                dirty_max = max(dirty_max, last_touch[L])
            L += 1
        if stack.length() >= L + margin and step - dirty_max >= patience:
            prefix_letters = stack.prefix(L)
            prefix = spec.model.from_letters(prefix_letters)
            return BoundarySample(
                prefix=prefix,
                prefix_letters=prefix_letters,
                depth=L,
                steps_used=step,
                stream=stream,
            )
    raise BoundaryTimeout(
        f"no stabilization within {max_steps} steps (stream {stream})",
        steps=max_steps,
        stream=stream,
    )


# ---------------------------------------------------------------------------
# exact n-step distributions (an oracle) and the spectral radius


def n_step_distributions(spec: WalkSpec, n: int, max_states: int = 3_000_000):
    """Exact distributions of x_0..x_n on B(e, n), by restricted convolution.

    Exact because an n-step nearest-neighbour path cannot leave B(e, n).
    Returns the ball and the list of distribution vectors.
    """
    require_valid(spec, nondegenerate=False)
    b = ball(spec.model, n, max_states=max_states)
    tables = b.step_tables()
    cols = []
    for g, p in spec.support:
        letter = g.letters()[0]
        cols.append((tables[letter], p))
    u = np.zeros(len(b))
    u[0] = 1.0
    out = [u.copy()]
    for _ in range(n):
        nxt = np.zeros(len(b))
        for col, p in cols:
            valid = col >= 0
            np.add.at(nxt, col[valid], p * u[valid])
        u = nxt
        out.append(u.copy())
    return b, out


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Exact even-step return probabilities and a certified bracket of rho."""

    even_returns: tuple[float, ...]  # p^(0), p^(2), ..., p^(2n)
    roots: tuple[float, ...]  # p^(2k)(e,e)^(1/2k)
    lower: float  # max root: p^(n)(e,e) <= rho^n for every n
    upper: float  # 1/z at the largest z where G(e,e|z) is certified finite


def spectral_radius_estimate(spec: WalkSpec, max_steps: int = 20) -> SpectralRadiusEstimate:
    """Bracket the spectral radius rho of a nearest-neighbour walk.

    The returns p^(n)(e, e), n <= ``max_steps``, are power-series
    coefficients of the cut-vertex first-step equations; ``upper`` comes
    from bisecting for the largest z at which the exact engine certifies
    G(e, e | z) < infinity.  No ball is built.
    """
    from . import _exact  # _exact imports this module

    if max_steps < 4 or max_steps % 2:
        raise ValueError("max_steps must be even and at least 4")
    require_valid(spec, nondegenerate=False)
    even = tuple(_exact.returns(spec, max_steps)[::2])
    roots = tuple(even[k] ** (1.0 / (2 * k)) for k in range(1, len(even)))
    upper = _exact.spectral_upper(spec)
    return SpectralRadiusEstimate(even_returns=even, roots=roots, lower=max(roots), upper=upper)
