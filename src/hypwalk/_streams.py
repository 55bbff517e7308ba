"""Counter-based draws and boundary walks of a few streams, in plain Python.

Every draw is a pure function of ``(seed, stream)``: block b of a stream
is the Philox4x64-10 cipher of counter b + 1 under key (seed, stream),
bit for bit numpy's ``Philox``, and word j of a stream is word j % 4 of
its block j // 4.  A word draws the support index of a step by integer
thresholds (:func:`step_thresholds`), exactly as ``searchsorted`` on its
uniform would.

The cipher runs on lanes of one Python integer, one lane per (stream,
block) pair: lane i holds a 64-bit word in bits 128 i .. 128 i + 63, so
the 128-bit product of every lane with a 64-bit constant stays inside
its lane, and each big-integer operation advances all pairs at once.

The walker follows one stream at a time under the stopping rule of
:func:`hypwalk.walks.sample_boundary_prefixes`; the streams of a batch
refill their draws together.  The array sampler in ``_sampler``, which
draws the large batches of boundary sample sets, pushes its words
through the same table (:func:`_push_tables`) under the same rule, so
each stream's prefix and step count are the same in both; this module
serves single walks and small batches, and imports no numpy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from itertools import repeat
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .groups import GroupModel
    from .walks import WalkSpec


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers:
# as easy as 1, 2, 3", SC'11), numpy's ``Philox`` bit generator.
MASK64 = (1 << 64) - 1
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

_LANE = 16  # bytes per lane: a 64-bit word and the high half of its products
# Blocks per cipher call of a long path, which bounds its lane integers.
_PATH_BLOCKS = 4096
# Steps drawn per refill of a batch's live streams after the first, which
# covers the steps before the first possible promotion.
_REFILL_STEPS = 32


def step_thresholds(probabilities) -> list[int]:
    """Word thresholds of the steps, ascending: a raw Philox word w draws
    support index ``searchsorted(cdf, (w >> 11) * 2^-53, side="right")``,
    cdf the running sums of ``probabilities`` with its last entry set to
    1, and that index is the number of thresholds w reaches.

    That count is #{j : w >= ceil(cdf[j] * 2^53) * 2^11}: k * 2^-53 >=
    cdf[j] exactly when k >= ceil(cdf[j] * 2^53), and w >> 11 >= T
    exactly when w >= T * 2^11.  No uniform reaches 1, so an entry at or
    past 1 (the last one, or one the sums round past 1) counts for none.
    """
    thresholds = []
    c = 0.0
    for p in probabilities[:-1]:
        c += p
        k = math.ceil(c * 2.0**53)
        if k < 1 << 53:
            thresholds.append(k << 11)
    return thresholds


def philox_words(seed: int, keys, first_block: int, n_blocks: int) -> list[list[int]]:
    """Words 4*first_block .. 4*(first_block + n_blocks) - 1 of the
    streams keyed (seed, keys[i] mod 2^64), as the array sampler keys
    them: one list of 4 * n_blocks words per key.

    Lane s * n_blocks + b holds block first_block + b of stream s.
    Round 1 sees only the counter word, so it leaves (k0, 0, hi ^ k1, lo)
    for the halves hi, lo of M0 * counter; the other nine rounds run on
    all lanes at once, whose high halves are masked off after each
    product.
    """
    lanes = len(keys) * n_blocks
    if not lanes:
        return [[] for _ in keys]
    ones = int.from_bytes((1).to_bytes(_LANE, "little") * lanes, "little")
    low = MASK64 * ones
    counters = b"".join(
        c.to_bytes(_LANE, "little") for c in range(first_block + 1, first_block + n_blocks + 1)
    )
    k0 = seed & MASK64
    key_bytes = b"".join((k & MASK64).to_bytes(_LANE, "little") * n_blocks for k in keys)
    k1 = int.from_bytes(key_bytes, "little")
    p = PHILOX_M[0] * int.from_bytes(counters * len(keys), "little")
    x0, x1, x2, x3 = k0 * ones, 0, ((p >> 64) & low) ^ k1, p & low
    w1 = PHILOX_W[1] * ones
    for _ in range(9):
        k0 = (k0 + PHILOX_W[0]) & MASK64
        k1 = (k1 + w1) & low
        p0, p1 = PHILOX_M[0] * x0, PHILOX_M[1] * x2
        x0, x1, x2, x3 = (
            ((p1 >> 64) & low) ^ x1 ^ k0 * ones, p1 & low, ((p0 >> 64) & low) ^ x3 ^ k1, p0 & low
        )
    # Words 1 and 3 move to the high halves, free now, of words 0 and 2.
    unpack = struct.Struct(f"<{2 * lanes}Q").unpack
    low_pairs = unpack((x0 | x1 << 64).to_bytes(_LANE * lanes, "little"))
    high_pairs = unpack((x2 | x3 << 64).to_bytes(_LANE * lanes, "little"))
    words = [0] * (4 * lanes)
    words[0::4], words[1::4] = low_pairs[0::2], low_pairs[1::2]
    words[2::4], words[3::4] = high_pairs[0::2], high_pairs[1::2]
    per = 4 * n_blocks
    return [words[i:i + per] for i in range(0, len(words), per)]


def path_steps(spec: WalkSpec, key: int, n_steps: int) -> tuple[int, ...]:
    """Support indices of the first ``n_steps`` steps of the stream keyed
    (spec.seed, key mod 2^64)."""
    thresholds = step_thresholds(spec.probabilities())
    n_blocks = -(-n_steps // 4)
    steps = []
    for lo in range(0, n_blocks, _PATH_BLOCKS):
        [words] = philox_words(spec.seed, [key], lo, min(_PATH_BLOCKS, n_blocks - lo))
        steps.extend(map(bisect_right, repeat(thresholds), words))
    return tuple(steps[:n_steps])


# Push kinds: the new entry is appended, replaces the last one, or the
# last one is removed.
_APPEND, _REPLACE, _REMOVE = range(3)


def _push_tables(letters: list[int], model: GroupModel):
    """Push tables of normal forms over support letters.

    A word is a list of entry codes after the sentinel code 0, one per
    one-factor key of ``model.factors`` in that order: a letter of a
    factor Z, or a syllable s^k (0 < k < m) of a factor Z/m.  Codes are
    stored times len(letters), so that code + support index keys the
    table.  Each key gives (kind, new code, length change, first edited
    letter's position less the old length): a Z letter edits the letter
    it adds or cancels, a Z/m syllable the first letter of the syllable.
    Also returns the letters each code spells.
    """
    entries, orders = model.factors, model.orders
    width = len(letters)
    code = {e: (c + 1) * width for c, e in enumerate(entries)}

    def spelled(lid: int, k: int) -> tuple[int, ...]:
        m = orders[lid - 1]
        if m == 0:
            return (k * lid,)
        return ((1 if k <= m - k else -1) * lid,) * min(k, m - k)

    spell = {code[e]: spelled(*e) for e in entries}
    table = []
    for lid, k in [(0, 0), *entries]:
        for x in letters:
            f, delta = abs(x), (1 if x > 0 else -1)
            m = orders[f - 1]
            if f != lid:
                table.append((_APPEND, code[f, delta % m if m else delta], 1, 0))
            elif m == 0:
                table.append((_REMOVE, 0, -1, -1) if delta != k else (_APPEND, code[f, k], 1, 0))
            else:
                old, exp = min(k, m - k), (k + delta) % m
                kind, new = (_REPLACE, code[f, exp]) if exp else (_REMOVE, 0)
                table.append((kind, new, min(exp, m - exp) - old, -old))
    return table, spell


class _Walk:
    """One stream's walk: its normal form, the tracked prefix length L and
    the last step that edited a letter below L."""

    __slots__ = ("word", "length", "L", "dirty")

    def __init__(self, margin: int):
        self.word = [0]
        self.length = 0
        self.L = margin
        self.dirty = 0

    def advance(self, table, indices, step: int, margin: int, patience: int) -> int:
        """Push the support indices drawn for steps step + 1, ...; return
        the step at which the prefix stabilizes, or 0 if none does."""
        word, length, L, dirty = self.word, self.length, self.L, self.dirty
        top = word[-1]
        for j in indices:
            step += 1
            kind, new, grow, first = table[top + j]
            if length + first < L:
                dirty = step
            if kind == _APPEND:
                word.append(new)
            elif kind == _REPLACE:
                word[-1] = new
            else:
                word.pop()
            top = word[-1]
            length += grow
            if length >= L + margin + patience:
                L += 1
            if length >= L + margin and step - dirty >= patience:
                self.L = L
                return step
        self.length, self.L, self.dirty = length, L, dirty
        return 0

    def prefix(self, spell) -> tuple[int, ...]:
        """The first L letters of the word; each entry spells a letter at
        least, so the first L entries spell them."""
        letters = []
        for c in self.word[1:self.L + 1]:
            letters.extend(spell[c])
        return tuple(letters[:self.L])


def boundary_prefixes(
    spec: WalkSpec, keys, margin: int, patience: int, max_steps: int,
) -> list[tuple[tuple[int, ...] | None, int]]:
    """(prefix letters, steps used) of the streams keyed ``keys``, in key
    order, with None for the letters of a stream that ran out of steps;
    see :func:`hypwalk.walks.sample_boundary_prefixes`.

    The first refill covers the 2 margin + patience steps before any
    promotion, rounded up to whole Philox blocks, later ones
    ``_REFILL_STEPS``; each refill draws the next steps of the streams
    still walking, in one run of the cipher.
    """
    letters = [g.letters()[0] for g, _ in spec.support]
    table, spell = _push_tables(letters, spec.model)
    thresholds = step_thresholds(spec.probabilities())
    walks = [_Walk(margin) for _ in keys]
    out = [(None, max_steps)] * len(walks)
    live = list(range(len(walks)))
    step, n = 0, -(-(2 * margin + patience) // 4) * 4
    while live and step < max_steps:
        n = min(n, max_steps - step)
        drawn = philox_words(spec.seed, [keys[i] for i in live], step // 4, -(-n // 4))
        still = []
        for i, words in zip(live, drawn):
            walk = walks[i]
            stop = walk.advance(table, list(map(bisect_right, repeat(thresholds), words[:n])),
                                step, margin, patience)
            if stop:
                out[i] = (walk.prefix(spell), stop)
            else:
                still.append(i)
        live = still
        step += n
        n = _REFILL_STEPS
    return out
