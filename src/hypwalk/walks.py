"""Walk specs and their validation, path and boundary sampling, and the
spectral radius.

Validation reads nondegeneracy off the support's letters in closed form,
so it costs the same at every factor order.

Randomness is counter-based: every sample is a pure function of
``(spec.seed, stream)`` through a keyed Philox generator, so results do
not depend on the order in which samples are drawn.  Boundary samples are
drawn in batches, in slabs of bounded size.  Once per refill, one in-place
array evaluation of the Philox cipher (bit for bit numpy's ``Philox``)
gives the next words of every stream, and integer thresholds on those
words give the steps, exactly as ``searchsorted`` on their uniforms
would.  The walks then advance together as rows of depth-major word
stacks; a row that stops is masked and leaves at the next refill.  Each
stream's prefix and step count are the same whatever batch or slab it
runs in, and equal to a one-walk-at-a-time run.

The spectral radius is bracketed by the exact engine in ``_exact``: the
lower end from exact return probabilities, the upper end from a
certified weighted Green function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import BoundaryTimeout, ValidationError
from .groups import FREE, GroupElement, GroupModel

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
    Nondegeneracy, that the support generates the group as a semigroup,
    is read off the letters of a nearest-neighbour support: on F_N all 2N
    letters need positive weight, on Z/m*Z/n each factor needs a letter.
    A support that holds a longer word is flagged degenerate as well;
    ``require_valid`` refuses such walks everywhere anyway.
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
    nondegenerate = nearest and _letters_generate(spec)
    return WalkValidation(True, nearest, symmetric, nondegenerate)


def _letters_generate(spec: WalkSpec) -> bool:
    """Whether a nearest-neighbour support generates the group as a
    semigroup.  On F_N no product of other letters reaches a letter, so
    all 2N letters are needed; on Z/m*Z/n the powers of a letter cover
    its finite factor, so one letter per factor is enough."""
    model = spec.model
    letters = {g.letters()[0] for g, _ in spec.support}
    if model.kind == FREE:
        return len(letters) == 2 * model.rank
    return {abs(x) for x in letters} == {1, 2}


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


def _mulhi(m: int, x: np.ndarray, hi: np.ndarray, x_lo, x_hi, t, mid) -> None:
    """Write the high words of the 128-bit products m * x into ``hi``,
    from 32-bit halves, with the four temporaries given.  The middle sum
    (x_lo m_lo >> 32) + (x_hi m_lo & 0xFFFFFFFF) + x_lo m_hi is below
    2^64, so a single carry word holds it."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _U32, out=x_hi)
    np.multiply(x_lo, m_lo, out=mid)
    np.right_shift(mid, _U32, out=mid)
    np.multiply(x_hi, m_lo, out=t)
    np.right_shift(t, _U32, out=hi)
    np.bitwise_and(t, _LO32, out=t)
    mid += t
    np.multiply(x_lo, m_hi, out=t)
    mid += t
    np.right_shift(mid, _U32, out=mid)
    hi += mid
    np.multiply(x_hi, m_hi, out=t)
    hi += t


def _philox_words(seed: int, keys, first_block: int, n_blocks: int) -> np.ndarray:
    """Words 4*first_block .. 4*(first_block + n_blocks) - 1 of the
    streams keyed (seed, keys[i]), keys integers in [0, 2^64).

    Returns uint64 of shape (4 * n_blocks, len(keys)), time-major: column
    i is stream i.  Philox is counter-based: block b of a stream is the
    ten-round cipher of counter (b + 1, 0, 0, 0) under key (seed, key).
    Round 1 sees only the counter word, so it runs per block in Python
    integers, and of round 2 only one product depends on the stream; the
    other eight rounds run in place on (block, row) arrays.
    """
    k1 = np.array(keys, dtype=np.uint64)
    k0 = seed & _MASK64
    shape = (n_blocks, len(k1))
    c0, c1, c2, c3, h0, h1, x_lo, x_hi, t, mid = (np.empty(shape, dtype=np.uint64) for _ in range(10))
    counter = range(first_block + 1, first_block + n_blocks + 1)
    hi = np.array([_PHILOX_M[0] * c >> 64 for c in counter], dtype=np.uint64)[:, None]
    lo = np.array([_PHILOX_M[0] * c & _MASK64 for c in counter], dtype=np.uint64)[:, None]
    # Round 1 leaves (k0, 0, hi ^ k1, lo), the halves of M0 * counter.
    np.bitwise_xor(hi, k1, out=c2)
    # Round 2: of its two products only M1 * (hi ^ k1) depends on the stream.
    hi0, lo0 = divmod(_PHILOX_M[0] * k0, 1 << 64)
    k0 = (k0 + _PHILOX_W[0]) & _MASK64
    k1 += np.uint64(_PHILOX_W[1])
    _mulhi(_PHILOX_M[1], c2, c0, x_lo, x_hi, t, mid)
    c0 ^= np.uint64(k0)
    np.multiply(c2, np.uint64(_PHILOX_M[1]), out=c1)
    np.bitwise_xor(lo ^ np.uint64(hi0), k1, out=c2)
    c3.fill(lo0)
    for _ in range(8):
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 += np.uint64(_PHILOX_W[1])
        _mulhi(_PHILOX_M[0], c0, h0, x_lo, x_hi, t, mid)
        c0 *= np.uint64(_PHILOX_M[0])
        _mulhi(_PHILOX_M[1], c2, h1, x_lo, x_hi, t, mid)
        c2 *= np.uint64(_PHILOX_M[1])
        h1 ^= c1
        h1 ^= np.uint64(k0)
        h0 ^= c3
        h0 ^= k1
        # The registers rotate; the two freed buffers take the next high words.
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    return np.stack((c0, c1, c2, c3), axis=1).reshape(4 * n_blocks, len(k1))


def _philox_uniforms(seed: int, streams, first_block: int, n_blocks: int) -> np.ndarray:
    """Uniforms 4*first_block .. 4*(first_block + n_blocks) - 1 of each
    stream (streams are integers in [0, 2^64)).

    Returns shape (len(streams), 4 * n_blocks); row i equals the
    corresponding slice of ``_generator(seed, streams[i]).random(k)`` bit
    for bit: each Philox word w gives the double (w >> 11) * 2^-53.
    """
    words = _philox_words(seed, streams, first_block, n_blocks)
    return ((words >> np.uint64(11)) * 2.0**-53).T


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
# Steps drawn per refill after the first, which covers the steps before
# the first possible promotion.
_REFILL_STEPS = 16


def _step_indices(cdf: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The support index each raw Philox word draws.

    That is ``searchsorted(cdf, (w >> 11) * 2^-53, side="right")``,
    computed as #{j : w >= ceil(cdf[j] * 2^53) * 2^11}: k * 2^-53 >=
    cdf[j] exactly when k >= ceil(cdf[j] * 2^53), and w >> 11 >= T
    exactly when w >= T * 2^11.  No uniform reaches 1, so an entry at or
    past 1 (the last one, or one a cumsum rounds past 1) counts for none.
    """
    idx = np.zeros(words.shape, dtype=np.uint8)
    for c in cdf.tolist():
        k = math.ceil(c * 2.0**53)
        if k < 1 << 53:
            idx += words >= np.uint64(k << 11)
    return idx


class _Stacks:
    """Word stacks of many rows, depth-major: entry (i, r) of a stack array
    is row r at depth i, so flat position i * rows + r addresses it.

    Letter i - 1 of a word sits in slot i; depth 0 is a sentinel.  ``end``
    is the flat position of each row's last slot, and ``touch`` holds the
    last step that edited each slot.  The arrays are refitted once per
    refill of draws, never per push: rows that stopped leave, and the
    depth grows to fit the pushes to come.
    """

    _arrays = ("touch",)
    _positions = ("end",)

    def __init__(self, rows: int):
        self.rows = rows
        self.end = np.arange(rows)
        self.touch = np.zeros((1, rows), dtype=np.int32)
        self._reindex()

    def _reindex(self) -> None:
        """Refresh what depends on the layout: flat views, and in
        subclasses tables in units of ``rows``."""
        self.touch_flat = self.touch.reshape(-1)

    def refit(self, keep: np.ndarray, steps: int) -> None:
        """Keep the rows ``keep``, in that order, and make room for
        ``steps`` more pushes: a push adds at most one letter."""
        old = self.rows
        depth = max(len(self.touch), int(self.end.max()) // old + steps + 1)
        self.rows = len(keep)
        for name in self._arrays:
            a = getattr(self, name)
            b = np.zeros((depth, self.rows), dtype=a.dtype)
            b[:len(a)] = a[:, keep]
            setattr(self, name, b)
        for name in self._positions:
            setattr(self, name, getattr(self, name)[keep] // old * self.rows + np.arange(self.rows))
        self._reindex()


class _FreeWords(_Stacks):
    """Reduced words of F_N: ``word[i, r]`` is letter i - 1 of row r, a
    signed letter id; the zero sentinel cancels no letter."""

    _arrays = ("touch", "word")

    def __init__(self, letters: np.ndarray, rows: int):
        self.letters = letters  # by support index
        self.word = np.zeros((1, rows), dtype=np.int8)
        super().__init__(rows)

    def _reindex(self) -> None:
        super()._reindex()
        self.word_flat = self.word.reshape(-1)

    def load(self, idx: np.ndarray) -> None:
        """Take the (step, row) support indices of the next pushes."""
        self.x = self.letters[idx]
        self.inverse = -self.x

    def push(self, t: int, step: int) -> np.ndarray:
        """Right-multiply each row by its letter of loaded step t, record
        ``step`` in the slot the push edited and return that slot's flat
        position: the new letter's, or the cancelled letter's."""
        top = self.end
        back = (self.word_flat[top] == self.inverse[t]) * self.rows
        nxt = top + self.rows
        self.word_flat[nxt] = self.x[t]  # past the end when the letter cancels
        edited = nxt - back
        self.end = edited - back
        self.touch_flat[edited] = step
        return edited

    def prefixes(self, rows: np.ndarray, lengths: np.ndarray) -> list[tuple[int, ...]]:
        """The first lengths[i] letters of row rows[i]."""
        cols = self.word[1:int(lengths.max()) + 1, rows].T.tolist()
        return [tuple(c[:k]) for c, k in zip(cols, lengths.tolist())]


def _syllable_tables(letters: list[int], orders: tuple[int, int]):
    """Push tables of Z/m*Z/n normal forms over support letters.

    Syllable codes: 0 is the sentinel, of neither factor; then s^1 ..
    s^(m-1), t^1 .. t^(n-1), each stored times len(letters) so that code
    + support index is the table key.  Returns the rows (slot, code,
    rise, first, grow), each per key: the new syllable's slot past the
    last one (0 or 1), its stored code, the move of the last syllable
    (-1, 0 or 1), the first edited letter's slot past the word's end
    (1 - the old syllable's length) and the move of the end; and the
    letters each stored code spells.
    """
    syllables = [(0, 0)] + [(lid, k) for lid in (1, 2) for k in range(1, orders[lid - 1])]
    stored = {s: c * len(letters) for c, s in enumerate(syllables)}
    spell = {}
    for lid, k in syllables[1:]:
        order = orders[lid - 1]
        spell[stored[lid, k]] = ((1 if k <= order - k else -1) * lid,) * min(k, order - k)
    rows = []
    for lid, k in syllables:
        for x in letters:
            f, delta = abs(x), (1 if x > 0 else -1)
            order = orders[f - 1]
            same = lid == f
            exp = (k + delta) % order if same else delta % order
            old = min(k, order - k) if same else 0
            rows.append((
                not same, stored.get((f, exp), 0), (exp != 0) - same, 1 - old,
                min(exp, order - exp) - old,
            ))
    return np.array(rows, dtype=np.int64).T, spell


class _ProductWords(_Stacks):
    """Normal forms of Z/m*Z/n: ``code[i, r]`` is syllable i - 1 of row r as
    a code of its factor and exponent (see :func:`_syllable_tables`);
    ``top`` is the flat position of each row's last syllable.  A push
    reads the last syllable's code, adds the support index, and looks up
    every move in the tables."""

    _arrays = ("touch", "code")
    _positions = ("end", "top")

    def __init__(self, letters: np.ndarray, orders: tuple[int, int], rows: int):
        self.units, self.spell = _syllable_tables(letters.tolist(), orders)
        self.code = np.zeros((1, rows), dtype=np.int16)
        self.top = np.arange(rows)
        super().__init__(rows)

    def _reindex(self) -> None:
        super()._reindex()
        self.code_flat = self.code.reshape(-1)
        slot, self.new, rise, first, grow = self.units
        self.slot, self.rise, self.first, self.grow = (a * self.rows for a in (slot, rise, first, grow))

    def load(self, idx: np.ndarray) -> None:
        """Take the (step, row) support indices of the next pushes."""
        self.idx = idx

    def push(self, t: int, step: int) -> np.ndarray:
        """Right-multiply each row by its letter of loaded step t, record
        ``step`` in the first letter slot the push edited and return that
        slot's flat position."""
        key = self.code_flat[self.top] + self.idx[t]
        self.code_flat[self.top + self.slot[key]] = self.new[key]
        self.top = self.top + self.rise[key]
        edited = self.end + self.first[key]
        self.end = self.end + self.grow[key]
        self.touch_flat[edited] = step
        return edited

    def prefixes(self, rows: np.ndarray, lengths: np.ndarray) -> list[tuple[int, ...]]:
        """The first lengths[i] letters of row rows[i]."""
        cols = self.code[1:int(lengths.max()) + 1, rows].T.tolist()
        out = []
        for codes, k in zip(cols, lengths.tolist()):
            letters: list[int] = []
            for c in codes:
                if len(letters) >= k:
                    break
                letters.extend(self.spell[c])
            out.append(tuple(letters[:k]))
        return out


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

    Streams run in slabs of ``_SLAB`` rows.  A refill turns the Philox
    words of the next steps of every row into support indices by integer
    thresholds, and the rows' words advance together in depth-major
    stacks; rows that stop are masked and leave at the next refill.
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
    cdf = _step_cdf(spec)
    model = spec.model
    keys = np.array([s & _MASK64 for s in streams], dtype=np.uint64)
    out: list[tuple[tuple[int, ...] | None, int]] = []
    for lo in range(0, len(keys), _SLAB):
        slab = keys[lo:lo + _SLAB]
        if model.kind == FREE:
            words = _FreeWords(letters, len(slab))
        else:
            words = _ProductWords(letters, model.orders, len(slab))
        out.extend(_slab_prefixes(spec.seed, words, cdf, slab, margin, patience, max_steps))
    return out


def _slab_prefixes(seed, words, cdf, keys, margin, patience, max_steps):
    """Advance the walks of one slab of streams in lockstep, under the
    stopping rule of :func:`sample_boundary_point`.

    The first refill covers the 2 margin + patience steps before any
    promotion (rounded up to whole Philox blocks), later ones
    ``_REFILL_STEPS``.  Prefix bounds are flat positions in the stacks,
    moved by ``rows`` on a promotion.  No row promotes before its word
    is 2 margin + patience long, nor stops before step max(margin +
    patience, 2 margin) (see :func:`hypwalk.measure.boundary_sample_set`),
    so neither check runs earlier.
    """
    n_rows = len(keys)
    out: list[tuple[tuple[int, ...] | None, int]] = [(None, max_steps)] * n_rows
    live = np.arange(n_rows)  # slab position of each row
    L = np.full(n_rows, margin)
    dirty = np.zeros(n_rows, dtype=np.int32)  # last step that edited a letter below L
    least, reach = max(margin + patience, 2 * margin), 2 * margin + patience
    never = np.iinfo(np.int64).max
    keep = live
    step = 0
    while step < max_steps:
        n = min(_REFILL_STEPS if step else -(-reach // 4) * 4, max_steps - step)
        live, L, dirty = live[keep], L[keep], dirty[keep]
        words.refit(keep, n)
        rows = words.rows
        at_L = L * rows + np.arange(rows)  # slot L: letters 0 .. L - 1 lie at or below it
        stop_at = at_L + margin * rows  # the word reaches L + margin letters
        promote_at = stop_at + patience * rows
        stopped = np.zeros(rows, dtype=bool)
        words.load(_step_indices(cdf, _philox_words(seed, keys[live], step // 4, -(-n // 4))))
        for t in range(n):
            step += 1
            edited = words.push(t, step)
            np.putmask(dirty, edited <= at_L, step)
            if step >= reach:
                up = words.end >= promote_at
                if up.any():
                    # The new prefix letter's history folds into the max.
                    up = np.flatnonzero(up)
                    dirty[up] = np.maximum(dirty[up], words.touch_flat[at_L[up] + rows])
                    L[up] += 1
                    at_L[up] += rows
                    stop_at[up] += rows
                    promote_at[up] += rows
            if step >= least:
                done = (words.end >= stop_at) & (dirty <= step - patience)
                if done.any():
                    done = np.flatnonzero(done)
                    for r, letters in zip(live[done].tolist(), words.prefixes(done, L[done])):
                        out[r] = (letters, step)
                    stop_at[done] = promote_at[done] = never
                    stopped[done] = True
        keep = np.flatnonzero(~stopped)
        if not len(keep):
            break
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
# the spectral radius


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
    G(e, e | z) < infinity.
    """
    from . import _exact  # _exact imports this module

    if max_steps < 4 or max_steps % 2:
        raise ValueError("max_steps must be even and at least 4")
    require_valid(spec, nondegenerate=False)
    even = tuple(_exact.returns(spec, max_steps)[::2])
    roots = tuple(even[k] ** (1.0 / (2 * k)) for k in range(1, len(even)))
    upper = _exact.spectral_upper(spec)
    return SpectralRadiusEstimate(even_returns=even, roots=roots, lower=max(roots), upper=upper)
