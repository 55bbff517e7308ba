"""The batched boundary sampler of sample sets, on numpy arrays.

Every draw is a pure function of ``(seed, stream)``: block b of a stream
is the Philox4x64-10 cipher of counter b + 1 under key (seed, stream),
bit for bit numpy's ``Philox``, evaluated in place on arrays of many
streams at once.  The Philox constants and the step thresholds come from
``_streams``, which draws single walks and small batches in plain Python
by the same rules.

Boundary sample sets (:func:`hypwalk.walks.sample_boundary_prefixes`) are
drawn in batches, whose walks advance in lockstep in slabs of bounded
size; the rows still live once the first slab has thinned out finish
together as the batch's tail.  Once per refill the cipher runs in tiles
of rows, and integer thresholds turn its words straight into steps,
exactly as ``searchsorted`` on their uniforms would.  The walks advance
as rows of depth-major word stacks; a row that stops is masked and
leaves at the next refill.  A batch comes back as arrays: a zero-padded
int8 matrix of prefix letters, the prefix lengths and the step counts.
Each stream's prefix and step count are the same whatever batch, slab
or tile it runs in, and equal to a one-walk-at-a-time run.

numpy is the dependency of sample sets: this is the one module that
imports it at load time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._streams import MASK64, PHILOX_M, PHILOX_W, step_thresholds
from .errors import ValidationError
from .groups import FREE

if TYPE_CHECKING:
    from .walks import WalkSpec


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


def _philox_blocks(seed: int, keys, first_block: int, n_blocks: int):
    """Blocks first_block .. first_block + n_blocks - 1 of the streams
    keyed (seed, keys[i]), keys integers in [0, 2^64).

    Returns the four words of each block as uint64 arrays of shape
    (n_blocks, len(keys)): word j of block b of stream i is entry (b, i)
    of the j-th array.  Philox is counter-based: block b of a stream is
    the ten-round cipher of counter (b + 1, 0, 0, 0) under key (seed,
    key).  Round 1 sees only the counter word, so it runs per block in
    Python integers, and of round 2 only one product depends on the
    stream; the other eight rounds run in place on (block, row) arrays.
    """
    k1 = np.array(keys, dtype=np.uint64)
    k0 = seed & MASK64
    shape = (n_blocks, len(k1))
    c0, c1, c2, c3, h0, h1, x_lo, x_hi, t, mid = (np.empty(shape, dtype=np.uint64) for _ in range(10))
    counter = range(first_block + 1, first_block + n_blocks + 1)
    hi = np.array([PHILOX_M[0] * c >> 64 for c in counter], dtype=np.uint64)[:, None]
    lo = np.array([PHILOX_M[0] * c & MASK64 for c in counter], dtype=np.uint64)[:, None]
    # Round 1 leaves (k0, 0, hi ^ k1, lo), the halves of M0 * counter.
    np.bitwise_xor(hi, k1, out=c2)
    # Round 2: of its two products only M1 * (hi ^ k1) depends on the stream.
    hi0, lo0 = divmod(PHILOX_M[0] * k0, 1 << 64)
    k0 = (k0 + PHILOX_W[0]) & MASK64
    k1 += np.uint64(PHILOX_W[1])
    _mulhi(PHILOX_M[1], c2, c0, x_lo, x_hi, t, mid)
    c0 ^= np.uint64(k0)
    np.multiply(c2, np.uint64(PHILOX_M[1]), out=c1)
    np.bitwise_xor(lo ^ np.uint64(hi0), k1, out=c2)
    c3.fill(lo0)
    for _ in range(8):
        k0 = (k0 + PHILOX_W[0]) & MASK64
        k1 += np.uint64(PHILOX_W[1])
        _mulhi(PHILOX_M[0], c0, h0, x_lo, x_hi, t, mid)
        c0 *= np.uint64(PHILOX_M[0])
        _mulhi(PHILOX_M[1], c2, h1, x_lo, x_hi, t, mid)
        c2 *= np.uint64(PHILOX_M[1])
        h1 ^= c1
        h1 ^= np.uint64(k0)
        h0 ^= c3
        h0 ^= k1
        # The registers rotate; the two freed buffers take the next high words.
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    return c0, c1, c2, c3


# Rows advanced in lockstep in one slab: wide, so that the fixed cost of
# each step's array operations spreads over many rows, and bounded, so
# that a batch's word stacks stay small.
_SLAB = 8192
# Rows per evaluation of the Philox cipher, whose ten word arrays then
# stay in cache.  A slab whose live rows fit in one tile hands them to
# the batch's tail.
_TILE = 1024
# Steps drawn per refill after the first, which covers the steps before
# the first possible promotion.
_REFILL_STEPS = 16


def _step_indices(thresholds: list, words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The support index each raw Philox word draws, as uint8 (into
    ``out`` when given), from thresholds in uint64; see
    :func:`hypwalk._streams.step_thresholds`."""
    if out is None:
        out = np.empty(words.shape, dtype=np.uint8)
    out.fill(0)
    for t in thresholds:
        out += words >= t
    return out


def _draw_steps(seed: int, keys: np.ndarray, thresholds: list, first_block: int, n_blocks: int):
    """Support indices of steps 4*first_block .. 4*(first_block +
    n_blocks) - 1 of the streams keyed (seed, keys[i]): uint8 of shape
    (4 * n_blocks, len(keys)), time-major.  The cipher runs in tiles of
    ``_TILE`` rows, and each word goes straight to its step index."""
    idx = np.empty((n_blocks, 4, len(keys)), dtype=np.uint8)
    for lo in range(0, len(keys), _TILE):
        blocks = _philox_blocks(seed, keys[lo:lo + _TILE], first_block, n_blocks)
        for j, words in enumerate(blocks):
            _step_indices(thresholds, words, out=idx[:, j, lo:lo + _TILE])
    return idx.reshape(4 * n_blocks, len(keys))


class _Stacks:
    """Word stacks of many rows, depth-major: entry (i, r) of a stack array
    is row r at depth i, so flat position i * rows + r addresses it.

    Letter i - 1 of a word sits in slot i; depth 0 is a sentinel.  ``end``
    is the flat position of each row's last slot, and ``touch`` holds the
    last step that edited each slot, in 16 bits when ``max_steps`` fits.
    The arrays are refitted once per refill of draws, never per push:
    rows that stopped leave, rows of other stacks of the same walk may
    join, and the depth grows to fit the pushes to come.  ``idx`` holds
    the (step, row) support indices of the refill's pushes; ``_FreeWords``
    holds their letters ``x`` instead.
    """

    _arrays = ("touch",)
    _positions = ("end",)

    def __init__(self, rows: int, max_steps: int):
        self.rows = rows
        self.end = np.arange(rows)
        self.touch = np.zeros((1, rows), dtype=np.int16 if max_steps < 1 << 15 else np.int32)
        self._reindex()

    def _reindex(self) -> None:
        """Refresh what depends on the layout: flat views, and in
        subclasses tables in units of ``rows``."""
        self.touch_flat = self.touch.reshape(-1)

    def load(self, idx: np.ndarray) -> None:
        """Take the (step, row) support indices of the next pushes."""
        self.idx = idx

    def refit(self, keep: np.ndarray, steps: int, more=()) -> None:
        """Keep the rows ``keep``, in that order, then for each (stacks,
        keep) pair of ``more`` those rows of those stacks, and make room
        for ``steps`` more pushes: a push adds at most one letter."""
        parts = [(self, keep), *more]
        depth = max(max(len(s.touch), int(s.end.max()) // s.rows + steps + 1) for s, _ in parts)
        rows = sum(len(k) for _, k in parts)
        for name in self._arrays:
            b = np.empty((depth, rows), dtype=getattr(self, name).dtype)
            col = 0
            for s, k in parts:
                a = getattr(s, name)
                # "clip" writes straight into ``out``; "raise" would buffer.
                np.take(a, k, axis=1, out=b[:len(a), col:col + len(k)], mode="clip")
                b[len(a):, col:col + len(k)] = 0
                col += len(k)
            setattr(self, name, b)
        for name in self._positions:
            depths = np.concatenate([getattr(s, name)[k] // s.rows for s, k in parts])
            setattr(self, name, depths * rows + np.arange(rows))
        self.rows = rows
        self._reindex()


class _FreeWords(_Stacks):
    """Reduced words of F_N: ``word[i, r]`` is letter i - 1 of row r, a
    signed letter id; the zero sentinel cancels no letter."""

    _arrays = ("touch", "word")

    def __init__(self, letters: np.ndarray, rows: int, max_steps: int):
        self.letters = letters  # by support index
        self.word = np.zeros((1, rows), dtype=np.int8)
        super().__init__(rows, max_steps)

    def _reindex(self) -> None:
        super()._reindex()
        self.word_flat = self.word.reshape(-1)

    def load(self, idx: np.ndarray) -> None:
        """Take the signed letters of the next pushes: one gather per
        refill, in place of one per push."""
        self.x = self.letters[idx]

    def push(self, t: int, step: int) -> np.ndarray:
        """Right-multiply each row by its letter of loaded step t, record
        ``step`` in the slot the push edited and return that slot's flat
        position: the new letter's, or the cancelled letter's."""
        x = self.x[t]
        top = self.end
        back = (self.word_flat[top] == -x) * self.rows
        nxt = top + self.rows
        self.word_flat[nxt] = x  # past the end when the letter cancels
        edited = nxt - back
        self.end = edited - back
        self.touch_flat[edited] = step
        return edited

    def prefixes(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] letters of row rows[i], as the rows of an
        int8 matrix padded with zeros."""
        width = int(lengths.max())
        block = self.word[1:width + 1, rows].T
        if lengths.min() < width:
            block[np.arange(width) >= lengths[:, None]] = 0
        return block


def _syllable_tables(letters: list[int], orders: tuple[int, int]):
    """Push tables of Z/m*Z/n normal forms over support letters.

    Syllable codes: 0 is the sentinel, of neither factor; then s^1 ..
    s^(m-1), t^1 .. t^(n-1), each stored times len(letters) so that code
    + support index is the table key.  Returns the rows (slot, code,
    rise, first, grow), each per key: the new syllable's slot past the
    last one (0 or 1), its stored code, the move of the last syllable
    (-1, 0 or 1), the first edited letter's slot past the word's end
    (1 - the old syllable's length) and the move of the end; and, by
    stored code, the letter a syllable spells and how many times.
    """
    syllables = [(0, 0)] + [(lid, k) for lid in (1, 2) for k in range(1, orders[lid - 1])]
    stored = {s: c * len(letters) for c, s in enumerate(syllables)}
    spell_letter = np.zeros(max(stored.values()) + 1, dtype=np.int8)
    spell_count = np.zeros(len(spell_letter), dtype=np.int64)
    for lid, k in syllables[1:]:
        order = orders[lid - 1]
        spell_letter[stored[lid, k]] = (1 if k <= order - k else -1) * lid
        spell_count[stored[lid, k]] = min(k, order - k)
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
    return np.array(rows, dtype=np.int64).T, spell_letter, spell_count


class _ProductWords(_Stacks):
    """Normal forms of Z/m*Z/n: ``code[i, r]`` is syllable i - 1 of row r as
    a code of its factor and exponent (see :func:`_syllable_tables`);
    ``top`` is the flat position of each row's last syllable.  A push
    reads the last syllable's code, adds the support index, and looks up
    every move in the tables."""

    _arrays = ("touch", "code")
    _positions = ("end", "top")

    def __init__(self, letters: np.ndarray, orders: tuple[int, int], rows: int, max_steps: int):
        self.units, self.spell_letter, self.spell_count = _syllable_tables(letters.tolist(), orders)
        self.code = np.zeros((1, rows), dtype=np.int16)
        self.top = np.arange(rows)
        super().__init__(rows, max_steps)

    def _reindex(self) -> None:
        super()._reindex()
        self.code_flat = self.code.reshape(-1)
        slot, self.new, rise, first, grow = self.units
        self.slot, self.rise, self.first, self.grow = (a * self.rows for a in (slot, rise, first, grow))

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

    def prefixes(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] letters of row rows[i], as the rows of an
        int8 matrix padded with zeros.  Each syllable spells a letter at
        least, so the first lengths[i] syllables spell them."""
        width = int(lengths.max())
        codes = self.code[1:width + 1, rows].T
        counts = self.spell_count[codes]
        spelled = np.repeat(self.spell_letter[codes].reshape(-1), counts.reshape(-1))
        totals = counts.sum(axis=1)
        at = (np.cumsum(totals) - totals)[:, None] + np.arange(width)
        block = spelled[np.minimum(at, len(spelled) - 1)]
        block[np.arange(width) >= lengths[:, None]] = 0
        return block


class _Slab:
    """Rows in lockstep at step ``step``: their word stacks, and per row its
    stream key, its row in the batch, the tracked prefix length L and
    the last step that edited a letter below L.  ``keep`` lists the rows
    still live; they leave the others at the next refit."""

    def __init__(self, words: _Stacks, keys: np.ndarray, batch_rows: np.ndarray, margin: int):
        self.words, self.keys, self.batch_rows = words, keys, batch_rows
        self.L = np.full(len(keys), margin)
        self.dirty = np.zeros(len(keys), dtype=np.int32)
        self.keep = np.arange(len(keys))
        self.step = 0

    def refit(self, steps: int, others=()) -> None:
        """Keep the live rows, then those of ``others`` (slabs of the same
        batch at the same step), and make room for ``steps`` pushes."""
        parts = [self, *others]
        self.words.refit(self.keep, steps, [(s.words, s.keep) for s in others])
        for name in ("keys", "batch_rows", "L", "dirty"):
            setattr(self, name, np.concatenate([getattr(s, name)[s.keep] for s in parts]))
        self.keep = np.arange(len(self.keys))


class _Sampler:
    """Boundary sampling of one batch of streams under the stopping rule
    of :func:`hypwalk.walks.sample_boundary_point`.

    Streams run in slabs of ``_SLAB`` rows.  In a batch of several
    slabs, the first runs until its live rows fit in one Philox tile,
    every other slab runs to that step, and the survivors of all slabs
    finish together as the batch's tail, in slabs of at most ``_SLAB``
    rows.  No stream's draws depend on the rows it runs with, so none of
    this changes a prefix or a step count.
    """

    def __init__(self, spec: WalkSpec, n_rows: int, margin: int, patience: int, max_steps: int):
        letters = []
        for g, _ in spec.support:
            ls = g.letters()
            if len(ls) != 1:
                raise ValidationError("boundary sampling needs a nearest-neighbour walk")
            letters.append(ls[0])
        self.letters = np.array(letters, dtype=np.int8)
        self.model = spec.model
        self.seed = spec.seed
        self.thresholds = [np.uint64(t) for t in step_thresholds(spec.probabilities())]
        self.margin, self.patience, self.max_steps = margin, patience, max_steps
        # Row i of the batch: its prefix letters, their count (-1 on a
        # timeout) and the steps it used.
        self.out = np.zeros((n_rows, margin), dtype=np.int8)
        self.lengths = np.full(n_rows, -1)
        self.steps = np.full(n_rows, max_steps)

    def slab(self, keys: np.ndarray, batch_rows: np.ndarray) -> _Slab:
        if self.model.kind == FREE:
            words = _FreeWords(self.letters, len(keys), self.max_steps)
        else:
            words = _ProductWords(self.letters, self.model.orders, len(keys), self.max_steps)
        return _Slab(words, keys, batch_rows, self.margin)

    def run(self, slab: _Slab, until: int, tail_rows: int) -> None:
        """Advance the slab's rows in lockstep up to step ``until``, or
        until at most ``tail_rows`` of them are live.

        The first refill covers the 2 margin + patience steps before any
        promotion (rounded up to whole Philox blocks), later ones
        ``_REFILL_STEPS``: all slabs of a batch refill at the same steps,
        so each can stop at the step where another did.  Prefix bounds
        are flat positions in the stacks, moved by ``rows`` on a
        promotion.  No row promotes before its word is 2 margin +
        patience long, nor stops before step max(margin + patience, 2
        margin) (see :func:`hypwalk.measure.boundary_sample_set`), so
        neither check runs earlier.
        """
        margin, patience = self.margin, self.patience
        least, reach = max(margin + patience, 2 * margin), 2 * margin + patience
        never = np.iinfo(np.int64).max
        words = slab.words
        step = slab.step
        while step < until and len(slab.keep) > tail_rows:
            n = min(_REFILL_STEPS if step else -(-reach // 4) * 4, until - step)
            # Drawn and loaded before the refit, so that neither the
            # cipher's words nor the last refill's draws are held alongside
            # the grown stacks.
            keys = slab.keys[slab.keep]
            words.load(_draw_steps(self.seed, keys, self.thresholds, step // 4, -(-n // 4)))
            slab.refit(n)
            rows, L, dirty = words.rows, slab.L, slab.dirty
            at_L = L * rows + np.arange(rows)  # slot L: letters 0 .. L - 1 lie at or below it
            stop_at = at_L + margin * rows  # the word reaches L + margin letters
            promote_at = stop_at + patience * rows
            stopped = np.zeros(rows, dtype=bool)
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
                        letters = words.prefixes(done, L[done])
                        self.accept(slab.batch_rows[done], letters, L[done], step)
                        stop_at[done] = promote_at[done] = never
                        stopped[done] = True
            slab.step = step
            slab.keep = np.flatnonzero(~stopped)

    def accept(self, batch_rows: np.ndarray, letters: np.ndarray, lengths: np.ndarray, step: int):
        """Record the prefixes of batch rows that stopped at ``step``."""
        width = letters.shape[1]
        if width > self.out.shape[1]:
            self.out = np.pad(self.out, ((0, 0), (0, width - self.out.shape[1])))
        self.out[batch_rows, :width] = letters
        self.lengths[batch_rows] = lengths
        self.steps[batch_rows] = step


def draw_boundary_prefixes(
    spec: WalkSpec, keys: np.ndarray, margin: int, patience: int, max_steps: int,
):
    """The prefix matrix, prefix lengths (-1 on a timeout) and step counts
    of the streams keyed ``keys`` (uint64), in key order; see
    :func:`hypwalk.walks.sample_boundary_prefixes`."""
    sampler = _Sampler(spec, len(keys), margin, patience, max_steps)
    tails = []
    for lo in range(0, len(keys), _SLAB):
        slab = sampler.slab(keys[lo:lo + _SLAB], np.arange(lo, min(lo + _SLAB, len(keys))))
        if lo:
            sampler.run(slab, until, 0)
        else:  # a batch of one slab has no tail to hand its rows to
            sampler.run(slab, max_steps, _TILE if len(keys) > _SLAB else 0)
            until = slab.step
        if len(slab.keep) and slab.step < max_steps:
            slab.refit(0)  # frees the rows that stopped while the next slabs run
            tails.append(slab)
    while tails:
        head, joined = tails.pop(0), []
        rows = len(head.keep)
        while tails and rows + len(tails[0].keep) <= _SLAB:
            rows += len(tails[0].keep)
            joined.append(tails.pop(0))
        head.refit(0, joined)
        sampler.run(head, max_steps, 0)
    return sampler.out, sampler.lengths, sampler.steps
