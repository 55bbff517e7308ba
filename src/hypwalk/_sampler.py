"""The batched boundary sampler of sample sets, on numpy arrays.

Every draw is a pure function of ``(seed, stream)``: block b of a stream
is the Philox4x64-10 cipher of counter b + 1 under key (seed, stream),
bit for bit numpy's ``Philox``, evaluated in place on arrays of many
streams at once.  The Philox constants and the step thresholds come from
``_streams``, which draws single walks and small batches in plain Python
by the same rules.

Boundary sample sets (:func:`hypwalk.walks.sample_boundary_prefixes`) are
drawn in batches, whose walks advance in lockstep in slabs (:class:`_Slab`)
of at most ``_SLAB`` rows.  In a batch of several slabs, the first runs
until at most ``_TAIL`` of its rows are live, every other slab runs to
that step, and the survivors finish as the batch's tail: those of
consecutive slabs are parked together while they fit in one slab, and
run to the end once the next slab's would not.

A draw computes the cipher's words only for the rows still live: a
slab's first draw covers the steps before any row can stop, and each
later one a Philox block of 4 steps, or 16 steps once the slab is down
to ``_TAIL`` live rows.  So a stopped row leaves at most 3 words unused,
or 15 in a small slab.  The cipher runs in tiles of at most ``_TILE``
blocks, one tile alive at a time, and integer thresholds turn its words
straight into steps, exactly as ``searchsorted`` on their uniforms
would.  A slab's walks advance as the rows of one depth-major word
stack, pushed through the walker's push table
(``_streams._push_tables``), which spells F_N and Z/m*Z/n alike; a row
that stops is masked and leaves at the slab's next refit, its prefix
kept as entry codes until the batch is done.  A batch comes back as
arrays: a zero-padded int8 matrix of prefix letters, the prefix lengths
and the step counts.  No stream's draws depend on the rows it runs
with, so each stream's prefix and step count are the same whatever
batch, slab or tile it runs in, and equal to a one-walk-at-a-time run.

Row state is as narrow as its values allow:

- counts bounded by the step budget (word and prefix lengths, stop and
  promotion steps, steps used) are int32, which
  :data:`hypwalk.walks.BOUNDARY_MAX_STEPS` keeps from overflowing;
- word stacks and accepted codes are int8 when the push table's largest
  code is below 128 (16 on uniform F_2), else int16 (156 on uniform
  Z/20*Z/21, 2704 on uniform F_26, the largest model);
- flat positions and row indices stay intp, so ``take`` never converts
  them.

A range of streams builds its keys slab by slab, and the tail's parked
rows never fill more than one slab.  So a batch holds about 18 bytes per
stream on uniform F_2 at margin 10 besides its slab arrays: int8 codes,
which become its prefix matrix in place, and int32 lengths and step
counts.  Under tracemalloc a set of 20k streams peaks at 1.78 MB, one of
200k at 28 bytes per stream and one of 1M at 20.

numpy is the dependency of sample sets: this is the one module that
imports it at load time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._streams import _APPEND, _REMOVE, MASK64, PHILOX_M, PHILOX_W, _push_tables, step_thresholds

if TYPE_CHECKING:
    from .groups import GroupModel
    from .walks import WalkSpec


_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
# The Philox multipliers, their 32-bit halves and the key increment of
# the stream word, as numpy scalars.
_M0, _M1 = (np.uint64(m) for m in PHILOX_M)
_HALVES0, _HALVES1 = ((np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in PHILOX_M)
_W1 = np.uint64(PHILOX_W[1])


def _mulhi(halves, x: np.ndarray, hi: np.ndarray, x_lo, x_hi, mid) -> None:
    """Write the high words of the 128-bit products m * x into ``hi``, m
    given by its 32-bit ``halves``, with the three temporaries given.
    Both t = x_hi m_lo + (x_lo m_lo >> 32) and (t & 0xFFFFFFFF) +
    x_lo m_hi are below 2^64, and the high word is x_hi m_hi + (t >> 32)
    plus the second one's high half."""
    m_lo, m_hi = halves
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _U32, out=x_hi)
    np.multiply(x_lo, m_lo, out=mid)
    mid >>= _U32
    np.multiply(x_hi, m_lo, out=hi)
    hi += mid
    np.bitwise_and(hi, _LO32, out=mid)
    x_lo *= m_hi
    mid += x_lo
    mid >>= _U32
    hi >>= _U32
    hi += mid
    x_hi *= m_hi
    hi += x_hi


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
    shape = (n_blocks, len(k1))
    c0, c1, c2, c3, h0, h1, x_lo, x_hi, mid = (np.empty(shape, dtype=np.uint64) for _ in range(9))
    counter = range(first_block + 1, first_block + n_blocks + 1)
    hi = np.array([PHILOX_M[0] * c >> 64 for c in counter], dtype=np.uint64)[:, None]
    lo = np.array([PHILOX_M[0] * c & MASK64 for c in counter], dtype=np.uint64)[:, None]
    # Round 1 leaves (k0, 0, hi ^ k1, lo), the halves of M0 * counter.
    np.bitwise_xor(hi, k1, out=c2)
    # Round 2: of its two products only M1 * (hi ^ k1) depends on the stream.
    k0 = seed & MASK64
    hi0, lo0 = divmod(PHILOX_M[0] * k0, 1 << 64)
    round_k0 = [np.uint64((k0 + r * PHILOX_W[0]) & MASK64) for r in range(1, 10)]  # rounds 2-10
    k1 += _W1
    _mulhi(_HALVES1, c2, c0, x_lo, x_hi, mid)
    c0 ^= round_k0[0]
    np.multiply(c2, _M1, out=c1)
    np.bitwise_xor(lo ^ np.uint64(hi0), k1, out=c2)
    c3.fill(lo0)
    for k0 in round_k0[1:]:
        k1 += _W1
        _mulhi(_HALVES0, c0, h0, x_lo, x_hi, mid)
        c0 *= _M0
        _mulhi(_HALVES1, c2, h1, x_lo, x_hi, mid)
        c2 *= _M1
        h1 ^= c1
        h1 ^= k0
        h0 ^= c3
        h0 ^= k1
        # The registers rotate; the two freed buffers take the next high words.
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    return c0, c1, c2, c3


# Rows advanced in lockstep in one slab: wide, so that the fixed cost of
# each step's array operations spreads over many rows, and bounded, so
# that a batch's word stacks stay small.
_SLAB = 8192
# Philox blocks per evaluation of the cipher: its nine word arrays are
# this long, so that the fixed cost of its 300 or so array operations
# spreads over many words and the arrays still stay in cache.  A
# one-block draw over a whole slab is one evaluation.
_TILE = 8192
# Live rows of a small slab: a batch's first slab hands its rows to the
# tail once this many are live, and a slab with this many live rows or
# fewer draws ``_REFILL_STEPS`` at a time.
_TAIL = 1024
# Steps per draw of a small slab, whose draws cost more in fixed array
# operations than in the few words its stopped rows leave unused.  A
# larger slab draws one Philox block of 4 steps at a time.
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
    at most ``_TILE`` blocks (one row at least), and each tile's words
    become step indices and are freed before the next tile's cipher
    runs."""
    idx = np.empty((n_blocks, 4, len(keys)), dtype=np.uint8)
    rows = max(1, _TILE // n_blocks)
    for lo in range(0, len(keys), rows):
        for j, words in enumerate(_philox_blocks(seed, keys[lo:lo + rows], first_block, n_blocks)):
            _step_indices(thresholds, words, out=idx[:, j, lo:lo + rows])
        del words
    return idx.reshape(4 * n_blocks, len(keys))


class _Tables:
    """The push table of :func:`hypwalk._streams._push_tables` as arrays
    for :class:`_Slab`.  By key: the new code, the move of the last
    entry (-1, 0 or 1), the first edited letter's position less the old
    length, and the length change.  By code: the letter an entry spells,
    and how many times."""

    def __init__(self, letters: list[int], model: GroupModel):
        table, spell = _push_tables(letters, model)
        kind, new, grow, first = np.array(table, dtype=np.int64).T
        # Codes reach 2704 at most (uniform F_26), so int16 holds them all.
        self.code_type = np.dtype(np.int8 if new.max() < 128 else np.int16)
        self.new = new.astype(self.code_type)
        self.grow, self.first = grow.astype(np.int32), first.astype(np.int32)
        self.rise = (kind == _APPEND).astype(np.int32) - (kind == _REMOVE)
        self.spell_letter = np.zeros(len(table), dtype=np.int8)
        self.spell_count = np.zeros(len(table), dtype=np.int64)
        for c, spelled in spell.items():
            self.spell_letter[c], self.spell_count[c] = spelled[0], len(spelled)

    def spell(self, codes: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
        """The first lengths[i] letters that row i of ``codes`` spells, as
        the rows of an int8 matrix ``width`` wide padded with zeros.  Each
        entry spells a letter at least, so the first lengths[i] entries of
        a word, or all if there are fewer, spell them; code 0 spells
        none."""
        counts = self.spell_count.take(codes)
        spelled = np.repeat(self.spell_letter.take(codes).reshape(-1), counts.reshape(-1))
        totals = counts.sum(axis=1)
        at = (np.cumsum(totals) - totals)[:, None] + np.arange(width)
        # The zeros appended keep the last rows' windows inside the array.
        block = np.append(spelled, np.zeros(width, dtype=np.int8)).take(at)
        block[np.arange(width) >= lengths[:, None]] = 0
        return block


class _Slab:
    """Rows of one batch in lockstep at step ``step``, their normal forms
    in one depth-major stack pushed through the table of
    :func:`hypwalk._streams._push_tables`, whose codes stand for letters
    of the factors Z and syllables of the factors Z/m alike.

    Entry (i, r) of ``code`` is the code of row r's entry i - 1, so flat
    position i * rows + r addresses it; depth 0 holds the sentinel code 0.
    Per row: ``top``, the flat position of its last entry; ``end``, its
    length in letters; its stream key, its row in the batch, the tracked
    prefix length L and the last step that edited a letter below L.
    ``keep`` lists the rows still live.  All of it is refitted before
    each draw's pushes, never per push: rows that stopped leave, the live
    rows of other slabs may join, and the stack grows to fit the pushes
    to come.
    """

    def __init__(self, tables: _Tables, keys: np.ndarray, batch_rows: np.ndarray, margin: int):
        rows = len(keys)
        self.tables, self.keys, self.batch_rows = tables, keys, batch_rows
        self.L = np.full(rows, margin, dtype=np.int32)
        self.dirty = np.zeros(rows, dtype=np.int32)
        self.code = np.zeros((1, rows), dtype=tables.code_type)
        self.top = np.arange(rows)
        self.end = np.zeros(rows, dtype=np.int32)
        self.keep = np.arange(rows)
        self.step = 0

    def push(self, indices: np.ndarray) -> np.ndarray:
        """Right-multiply each row by its letter of support index
        ``indices[row]`` and return the position of the first letter the
        push edited: the first of the entry it appended, changed or
        removed."""
        tables = self.tables
        key = np.add(self.code_flat.take(self.top), indices, dtype=np.intp)
        top = self.top + self.rise.take(key)
        # The higher top is the new or changed entry's slot, or after a
        # removal the slot it frees, which takes code 0.
        self.code_flat[np.maximum(top, self.top)] = tables.new.take(key)
        self.top = top
        edited = self.end + tables.first.take(key)
        self.end += tables.grow.take(key)
        return edited

    def refit(self, steps: int, others=()) -> None:
        """Keep the live rows, in order, then those of ``others`` (slabs of
        the same batch at the same step), and make room for ``steps``
        pushes: a push adds at most one entry.  The stack is as deep as
        the kept rows need, and no deeper: entries past a row's last are
        stale."""
        parts = [self, *others]
        tops = [s.top[s.keep] // s.code.shape[1] for s in parts]  # depths of the last entries
        depth = max(int(t.max(initial=0)) for t in tops) + steps + 1
        rows = sum(len(s.keep) for s in parts)
        code = np.empty((depth, rows), dtype=self.code.dtype)
        col = 0
        for s in parts:
            d, k = min(len(s.code), depth), s.keep
            # "clip" writes straight into ``out``; "raise" would buffer.
            np.take(s.code[:d], k, axis=1, out=code[:d, col:col + len(k)], mode="clip")
            code[d:, col:col + len(k)] = 0
            col += len(k)
        self.top = np.concatenate(tops) * rows + np.arange(rows)
        for name in ("keys", "batch_rows", "L", "dirty", "end"):
            setattr(self, name, np.concatenate([getattr(s, name)[s.keep] for s in parts]))
        self.code, self.code_flat = code, code.reshape(-1)
        self.rise = self.tables.rise * rows  # entry moves in flat positions
        self.keep = np.arange(rows)


class _Sampler:
    """Boundary sampling of one batch of streams under the stopping rule
    of :func:`hypwalk.walks.sample_boundary_prefixes`, and the prefixes
    of the rows that stopped."""

    def __init__(self, spec: WalkSpec, n_rows: int, margin: int, patience: int, max_steps: int):
        self.tables = _Tables([g.letters()[0] for g, _ in spec.support], spec.model)
        self.seed = spec.seed
        self.thresholds = [np.uint64(t) for t in step_thresholds(spec.probabilities())]
        self.margin, self.patience = margin, patience
        # Row i of the batch: the codes of its prefix's entries, spelled
        # once the batch is done, the prefix length (-1 on a timeout) and
        # the steps it used.
        self.codes = np.zeros((n_rows, margin), dtype=self.tables.code_type)
        self.lengths = np.full(n_rows, -1, dtype=np.int32)
        self.steps = np.full(n_rows, max_steps, dtype=np.int32)

    def run(self, slab: _Slab, until: int, tail_rows: int) -> None:
        """Advance the slab's rows in lockstep up to step ``until``, or
        until at most ``tail_rows`` of them are live.

        No row promotes before its word is 2 margin + patience long, nor
        stops before step max(margin + patience, 2 margin) (see
        :func:`hypwalk.measure.boundary_sample_set`), so neither check
        runs earlier.  The first draw covers the steps before that stop,
        rounded up to whole Philox blocks, and each later one a block of
        the rows still live, or ``_REFILL_STEPS`` once at most ``_TAIL``
        are.  Every draw starts at a block boundary, so each slab can stop
        at the step where another did.
        """
        margin, patience = self.margin, self.patience
        least, reach = max(margin + patience, 2 * margin), 2 * margin + patience
        never = np.iinfo(np.int32).max
        step = slab.step
        while step < until and len(slab.keep) > tail_rows:
            n = _REFILL_STEPS if len(slab.keep) <= _TAIL else 4
            n = min(n if step else -(-least // 4) * 4, until - step)
            # Drawn before the refit, so that the cipher's words are not
            # held alongside the grown stacks.
            idx = _draw_steps(self.seed, slab.keys[slab.keep], self.thresholds, step // 4, -(-n // 4))
            slab.refit(n)
            L, dirty = slab.L, slab.dirty
            stop_at = L + margin  # the word reaches L + margin letters
            promote_at = stop_at + patience
            stopped = np.zeros(len(slab.keys), dtype=bool)
            for t in range(n):
                step += 1
                np.putmask(dirty, slab.push(idx[t]) < L, step)
                if step >= reach:
                    up = slab.end >= promote_at
                    if up.any():
                        up = np.flatnonzero(up)
                        L[up] += 1
                        stop_at[up] += 1
                        promote_at[up] += 1
                if step >= least:
                    done = (slab.end >= stop_at) & (dirty <= step - patience)
                    if done.any():
                        done = np.flatnonzero(done)
                        lengths = L[done]
                        # Spelling stops at each row's length, before the
                        # stale entries past its last.
                        codes = slab.code[1:int(lengths.max()) + 1, done].T
                        self.accept(slab.batch_rows[done], codes, lengths, step)
                        stop_at[done] = promote_at[done] = never
                        stopped[done] = True
            slab.step = step
            slab.keep = np.flatnonzero(~stopped)
            del idx  # spent: freed before the next draw's cipher runs

    def accept(self, batch_rows: np.ndarray, codes: np.ndarray, lengths: np.ndarray, step: int):
        """Record the prefixes of batch rows that stopped at ``step``."""
        width = codes.shape[1]
        if width > self.codes.shape[1]:
            self.codes = np.pad(self.codes, ((0, 0), (0, width - self.codes.shape[1])))
        self.codes[batch_rows, :width] = codes
        self.lengths[batch_rows] = lengths
        self.steps[batch_rows] = step

    def prefixes(self) -> np.ndarray:
        """The batch's prefix letters, as the rows of an int8 matrix at
        least ``margin`` wide padded with zeros, spelled in tiles of at
        most ``_TILE`` letters (one row at least) so that the temporaries
        stay small.  A code matrix of int8 as wide as that is spelled in
        place: each tile's letters depend on its own codes alone.  (It is
        narrower only when a stack held fewer entries than its longest
        prefix has letters, which syllables of Z/m can spell.)"""
        width = int(self.lengths.max(initial=self.margin))
        if self.codes.dtype == np.int8 and self.codes.shape[1] == width:
            out = self.codes
        else:
            out = np.empty((len(self.codes), width), dtype=np.int8)
        tile = max(1, _TILE // width)
        for lo in range(0, len(out), tile):
            rows = slice(lo, lo + tile)
            out[rows] = self.tables.spell(self.codes[rows], self.lengths[rows], width)
        return out


def slab_keys(streams, lo: int, hi: int) -> np.ndarray:
    """The uint64 keys of entries lo .. hi - 1 of ``streams``: a slice of
    a uint64 array, or of a range built in uint64 as start + i step,
    which wraps like the 64-bit mask."""
    if not isinstance(streams, range):
        return streams[lo:hi]
    keys = np.arange(lo, hi, dtype=np.uint64) * np.uint64(streams.step & MASK64)
    keys += np.uint64(streams.start & MASK64)
    return keys


def draw_boundary_prefixes(
    spec: WalkSpec, streams, margin: int, patience: int, max_steps: int,
):
    """The prefix matrix, prefix lengths (-1 on a timeout) and step counts
    of ``streams``, in their order; see
    :func:`hypwalk.walks.sample_boundary_prefixes`.  ``streams`` is a
    uint64 array of keys, or a range whose slabs build their own keys
    (:func:`slab_keys`)."""
    n = len(streams)
    sampler = _Sampler(spec, n, margin, patience, max_steps)
    tails = []  # parked slabs whose live rows fit in one slab together

    def finish_tails():
        if tails:
            head = tails.pop(0)
            head.refit(0, tails)
            sampler.run(head, max_steps, 0)
            tails.clear()

    for lo in range(0, n, _SLAB):
        hi = min(lo + _SLAB, n)
        slab = _Slab(sampler.tables, slab_keys(streams, lo, hi), np.arange(lo, hi), margin)
        if lo:
            sampler.run(slab, until, 0)
        else:  # a batch of one slab has no tail to hand its rows to
            sampler.run(slab, max_steps, _TAIL if n > _SLAB else 0)
            until = slab.step
        if len(slab.keep) and slab.step < max_steps:
            if sum(len(s.keep) for s in tails) + len(slab.keep) > _SLAB:
                finish_tails()
            slab.refit(0)  # frees the rows that stopped while the next slabs run
            tails.append(slab)
    finish_tails()
    return sampler.prefixes(), sampler.lengths, sampler.steps
