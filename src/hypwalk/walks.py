"""Walk specs, step distributions, path and boundary sampling, and the
spectral radius.

Randomness is counter-based: every sample is a pure function of
``(spec.seed, stream)`` through a keyed Philox generator, so results do
not depend on the order in which samples are drawn.  Boundary samples are
drawn in batches: the uniforms of many streams come from one array
evaluation of the Philox cipher (bit for bit numpy's ``Philox``), and
their walks advance together as rows of array word stacks, in slabs of
bounded size.  Each stream's prefix and step count are the same whatever
batch or slab it runs in, and equal to a one-walk-at-a-time run.

The spectral radius is bracketed by the exact engine in ``_exact``: the
lower end from exact return probabilities, the upper end from a
certified weighted Green function.
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
    key = np.array([np.uint64(seed & _MASK64), np.uint64(stream & _MASK64)])
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers:
# as easy as 1, 2, 3", SC'11), numpy's ``Philox`` bit generator.
_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _U32
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = ((m_lo * x_lo) >> _U32) + (lh & _LO32) + (hl & _LO32)
    hi = m_hi * x_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return hi, x * np.uint64(m)


def _philox_uniforms(seed: int, streams, first_block: int, n_blocks: int) -> np.ndarray:
    """Uniforms 4*first_block .. 4*(first_block + n_blocks) - 1 of each
    stream (streams are integers in [0, 2^64)).

    Returns shape (len(streams), 4 * n_blocks); row i equals the
    corresponding slice of ``_generator(seed, streams[i]).random(k)`` bit
    for bit.  Philox is counter-based: block b of a stream is the
    ten-round cipher of counter (b + 1, 0, 0, 0) under key (seed, stream),
    and each of its four words w gives the double (w >> 11) * 2^-53.
    """
    k1 = np.asarray(streams, dtype=np.uint64)[:, None]
    k0 = seed & _MASK64
    shape = (len(k1), n_blocks)
    counter = np.arange(first_block + 1, first_block + n_blocks + 1, dtype=np.uint64)
    c0 = np.broadcast_to(counter, shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    w1 = np.uint64(_PHILOX_W[1])
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + w1
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((len(k1), n_blocks, 4))
    for j, word in enumerate((c0, c1, c2, c3)):
        out[:, :, j] = word >> np.uint64(11)
    out *= 2.0**-53
    return out.reshape(len(k1), 4 * n_blocks)


def _step_cdf(spec: WalkSpec) -> np.ndarray:
    """Cumulative step probabilities; a uniform u draws support index
    ``searchsorted(cdf, u, side="right")``."""
    cdf = np.cumsum(spec.probabilities())
    cdf[-1] = 1.0
    return cdf


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
    u = _philox_uniforms(spec.seed, [stream & _MASK64], 0, -(-n_steps // 4))[0, :n_steps]
    idx = np.searchsorted(_step_cdf(spec), u, side="right")
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


# Streams advanced together; bounds the memory of one batch.
_SLAB = 2048
# Philox blocks (four uniforms each) drawn per refill of a slab's buffer.
_REFILL_BLOCKS = 8


def _double_width(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a, np.zeros_like(a)], axis=1)


class _FreeWords:
    """Reduced words of F_N, one row per stream: letters and lengths."""

    def __init__(self, rows: int, width: int):
        self.word = np.zeros((rows, width), dtype=np.int8)
        self.length = np.zeros(rows, dtype=np.int64)

    def push(self, x: np.ndarray) -> np.ndarray:
        """Right-multiply each row by its letter; returns the letter depth
        each push edited."""
        ar = np.arange(len(x))
        n = self.length
        if n.max() >= self.word.shape[1]:
            self.word = _double_width(self.word)
        cancel = (n > 0) & (self.word[ar, np.maximum(n - 1, 0)] == -x)
        self.word[ar, n] = x  # past the end when the letter cancels
        self.length = n + 1 - 2 * cancel
        return n - cancel

    def prefix(self, row: int, k: int) -> tuple[int, ...]:
        return tuple(self.word[row, :k].tolist())

    def keep(self, rows: np.ndarray) -> None:
        self.word, self.length = self.word[rows], self.length[rows]


class _ProductWords:
    """Normal forms of Z/m*Z/n, one row per stream: syllables as letter id,
    exponent and spelled length, with the syllable count and the running
    length."""

    def __init__(self, rows: int, width: int, orders: tuple[int, int]):
        self.orders = np.array(orders, dtype=np.int16)
        self.lid = np.zeros((rows, width), dtype=np.int8)
        self.exp = np.zeros((rows, width), dtype=np.int16)
        self.slen = np.zeros((rows, width), dtype=np.int16)
        self.nsyl = np.zeros(rows, dtype=np.int64)
        self.length = np.zeros(rows, dtype=np.int64)

    def push(self, x: np.ndarray) -> np.ndarray:
        """Right-multiply each row by its letter; returns the letter depth
        each push edited."""
        ar = np.arange(len(x))
        if self.nsyl.max() >= self.lid.shape[1]:
            self.lid, self.exp, self.slen = map(_double_width, (self.lid, self.exp, self.slen))
        lid = np.abs(x)
        order = self.orders[lid - 1]
        delta = np.sign(x).astype(np.int16)
        top = np.maximum(self.nsyl - 1, 0)
        same = (self.nsyl > 0) & (self.lid[ar, top] == lid)
        exp = np.where(same, self.exp[ar, top] + delta, delta) % order
        old = np.where(same, self.slen[ar, top], 0)
        new = np.minimum(exp, order - exp)
        touch = self.length - old
        slot = np.where(same, top, self.nsyl)
        self.lid[ar, slot] = lid
        self.exp[ar, slot] = exp
        self.slen[ar, slot] = new
        self.nsyl = slot + (exp != 0)  # a syllable that reaches 0 is popped
        self.length = touch + new
        return touch

    def prefix(self, row: int, k: int) -> tuple[int, ...]:
        s = self.nsyl[row]
        lid = self.lid[row, :s].astype(np.int64)
        exp = self.exp[row, :s]
        sign = np.where(exp <= self.orders[lid - 1] - exp, 1, -1)
        return tuple(np.repeat(sign * lid, self.slen[row, :s])[:k].tolist())

    def keep(self, rows: np.ndarray) -> None:
        self.lid, self.exp, self.slen = self.lid[rows], self.exp[rows], self.slen[rows]
        self.nsyl, self.length = self.nsyl[rows], self.length[rows]


def sample_boundary_prefixes(
    spec: WalkSpec,
    streams,
    margin: int = 10,
    patience: int = 20,
    max_steps: int = 20_000,
) -> list[tuple[tuple[int, ...] | None, int]]:
    """Run one walk per stream until a geodesic-word prefix stabilizes.

    Returns, in stream order, (prefix letters, steps used); the letters
    are None when the stream ran out of steps.  Each stream's result is a
    pure function of (spec.seed, stream), whatever batch it runs in; see
    :func:`sample_boundary_point` for the stopping rule.
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
    letters = np.array(letters, dtype=np.int8)
    keys = np.array([s & _MASK64 for s in streams], dtype=np.uint64)
    out: list[tuple[tuple[int, ...] | None, int]] = []
    for lo in range(0, len(keys), _SLAB):
        out.extend(_run_slab(spec, letters, keys[lo:lo + _SLAB], margin, patience, max_steps))
    return out


def _run_slab(spec, letters, keys, margin, patience, max_steps):
    """Advance the walks of one slab of streams in lockstep, under the
    stopping rule of :func:`sample_boundary_point`; a finished row leaves
    the arrays."""
    rows = len(keys)
    out = [(None, max_steps)] * rows
    cdf = _step_cdf(spec)
    width = 2 * margin + patience  # doubled as the words grow
    model = spec.model
    words = _FreeWords(rows, width) if model.kind == FREE else _ProductWords(rows, width, model.orders)
    live = np.arange(rows)  # slab position of each row still walking
    L = np.full(rows, margin, dtype=np.int64)
    dirty_max = np.zeros(rows, dtype=np.int64)  # last step that edited word[:L]
    last_touch = np.zeros((rows, width), dtype=np.int32)  # last step that edited each depth
    per_refill = 4 * _REFILL_BLOCKS
    for step in range(1, max_steps + 1):
        col = (step - 1) % per_refill
        if col == 0:
            u = _philox_uniforms(spec.seed, keys[live], (step - 1) // 4, _REFILL_BLOCKS)
        if words.length.max() >= last_touch.shape[1]:  # a push edits depth <= length
            last_touch = _double_width(last_touch)
        d = words.push(letters[np.searchsorted(cdf, u[:, col], side="right")])
        last_touch[np.arange(len(live)), d] = step
        dirty_max = np.where(d < L, step, dirty_max)
        length = words.length
        promote = np.nonzero(length >= L + margin + patience)[0]
        if len(promote):
            # Promote: the new prefix letter's history folds into the max.
            dirty_max[promote] = np.maximum(dirty_max[promote], last_touch[promote, L[promote]])
            L[promote] += 1
        done = (length >= L + margin) & (step - dirty_max >= patience)
        if not done.any():
            continue
        for r in np.nonzero(done)[0].tolist():
            out[live[r]] = (words.prefix(r, int(L[r])), step)
        keep = np.nonzero(~done)[0]
        if not len(keep):
            break
        live, L, dirty_max, last_touch, u = live[keep], L[keep], dirty_max[keep], last_touch[keep], u[keep]
        words.keep(keep)
    return out


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
    [(prefix_letters, steps)] = sample_boundary_prefixes(spec, [stream], margin, patience, max_steps)
    if prefix_letters is None:
        raise BoundaryTimeout(
            f"no stabilization within {max_steps} steps (stream {stream})",
            steps=max_steps,
            stream=stream,
        )
    return BoundarySample(
        prefix=spec.model.from_letters(prefix_letters),
        prefix_letters=prefix_letters,
        depth=len(prefix_letters),
        steps_used=steps,
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
