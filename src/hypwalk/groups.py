"""Concrete hyperbolic group models with exact word-metric geometry.

Two model families are supported:

* free groups of rank ``N >= 2`` (Cayley graph a ``2N``-regular tree), and
* free products ``Z/m * Z/n`` with ``m, n >= 2`` and ``(m, n) != (2, 2)``
  (Cayley graph a tree of ``m``- and ``n``-cycles).

Elements are immutable normal-form words; the word metric, Gromov
products, canonical geodesics, word lists by length and conjugacy
representatives are all exact.  The packed balls at the end serve the
tests' restricted-ball oracles only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceededError, ModelMismatchError

FREE = "free"
FREE_PRODUCT = "free_product"

# The largest factor order accepted.  The exact engine keeps m + n - 2
# syllable values and the exact Ancona constant scans about (m^2 + n^2)/4
# in-cycle triples, so both stay small up to this bound.
_MAX_ORDER = 120
_MAX_RANK = 26


@dataclass(frozen=True)
class GroupModel:
    """A concrete group model with a fixed symmetric generating alphabet.

    ``kind`` is ``"free"`` (then ``rank`` is set) or ``"free_product"``
    (then ``orders = (m, n)``).  Both Cayley graphs are trees of cycles,
    so the Gromov product of two canonical rays is fixed by their first
    k + :attr:`split_span` + 1 letters, k the first differing letter.
    """

    kind: str
    rank: int = 0
    orders: tuple[int, int] = ()

    def __post_init__(self):
        if self.kind == FREE:
            if not 2 <= self.rank <= _MAX_RANK:
                raise ValueError(f"free rank must be in [2, {_MAX_RANK}], got {self.rank}")
            if self.orders:
                raise ValueError("free model takes no orders")
        elif self.kind == FREE_PRODUCT:
            if len(self.orders) != 2:
                raise ValueError("free product needs exactly two orders")
            m, n = self.orders
            if min(m, n) < 2 or (m, n) == (2, 2):
                raise ValueError("free product orders must be >= 2 and not (2, 2)")
            if max(m, n) > _MAX_ORDER:
                raise ValueError(f"orders above {_MAX_ORDER} are not supported")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @staticmethod
    def free(rank: int) -> "GroupModel":
        return GroupModel(FREE, rank=rank)

    @staticmethod
    def free_product(m: int, n: int) -> "GroupModel":
        return GroupModel(FREE_PRODUCT, orders=(m, n))

    @property
    def split_span(self) -> int:
        """Letters past their first difference within which two canonical
        rays can still share a cycle: 0 on free groups (every vertex is a
        cut vertex), the longest canonical syllable floor(max(m, n)/2) on
        Z/m*Z/n.
        """
        return 0 if self.kind == FREE else max(self.orders) // 2

    # -- alphabet ----------------------------------------------------------

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def n_letter_ids(self) -> int:
        return self.rank if self.kind == FREE else 2

    def letter_order(self, letter_id: int) -> int:
        """Order of the cyclic factor behind a letter id (0 = infinite)."""
        if self.kind == FREE:
            return 0
        return self.orders[letter_id - 1]

    def generators(self) -> tuple["GroupElement", ...]:
        """The symmetric alphabet S, in canonical order.

        Order-2 factors contribute a single self-inverse letter.
        """
        out = []
        for lid in range(1, self.n_letter_ids() + 1):
            out.append(self.letter_element(lid))
            if self.letter_order(lid) != 2:
                out.append(self.letter_element(-lid))
        return tuple(out)

    def letter_element(self, letter: int) -> "GroupElement":
        return GroupElement(self, (self._letter_syllable(letter),))

    def _letter_syllable(self, letter: int) -> tuple[int, int]:
        lid = abs(letter)
        if not 1 <= lid <= self.n_letter_ids():
            raise ValueError(f"letter id {lid} outside alphabet")
        if self.kind == FREE:
            return (lid, 1 if letter > 0 else -1)
        order = self.letter_order(lid)
        return (lid, 1 if letter > 0 else order - 1)

    @property
    def identity_name(self) -> str:
        """The identity's name: ``"e"``, or ``"1"`` on F_5 and above,
        where ``"e"`` spells the fifth generator."""
        return "1" if self.kind == FREE and self.rank >= 5 else "e"

    def letter_name(self, letter: int) -> str:
        if self.kind == FREE:
            base = chr(ord("a") + abs(letter) - 1)
        else:
            base = "s" if abs(letter) == 1 else "t"
        return base.upper() if letter < 0 else base

    def word(self, text: str) -> "GroupElement":
        """Parse a word: lowercase = generator, uppercase = inverse.

        ``"abA"`` is a * b * a^-1 in a free group; ``"stT"`` uses s and t
        in a free product.  Spaces are ignored; ``""``, ``"1"`` and the
        :attr:`identity_name` are the identity.
        """
        text = text.replace(" ", "")
        if text in ("", "1", self.identity_name):
            return self.identity()
        letters = []
        for ch in text:
            low = ch.lower()
            if self.kind == FREE:
                lid = ord(low) - ord("a") + 1
            else:
                lid = {"s": 1, "t": 2}.get(low, 0)
            if not 1 <= lid <= self.n_letter_ids():
                raise ValueError(f"unknown letter {ch!r} for model {self}")
            letters.append(lid if ch.islower() else -lid)
        return self.from_letters(letters)

    def from_letters(self, letters: Iterable[int]) -> "GroupElement":
        steps = [self._letter_syllable(letter) for letter in letters]
        return GroupElement(self, _merge_syllables(self, (), steps))

    def __str__(self):
        if self.kind == FREE:
            return f"F_{self.rank}"
        return f"Z/{self.orders[0]}*Z/{self.orders[1]}"


def _same_model(a: "GroupElement", b: "GroupElement") -> None:
    if a.model != b.model:
        raise ModelMismatchError(f"mixed models: {a.model} vs {b.model}")


@dataclass(frozen=True)
class GroupElement:
    """A group element held in normal form.

    ``syllables`` is a tuple of ``(letter_id, exponent)`` pairs with
    distinct adjacent letter ids.  Free groups use arbitrary nonzero
    exponents; free products reduce exponents into ``1..order-1``.
    """

    model: GroupModel
    syllables: tuple[tuple[int, int], ...]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        _same_model(self, other)
        merged = _merge_syllables(self.model, self.syllables, other.syllables)
        return GroupElement(self.model, merged)

    def inverse(self) -> "GroupElement":
        model = self.model
        out = []
        for lid, exp in reversed(self.syllables):
            order = model.letter_order(lid)
            out.append((lid, -exp if order == 0 else order - exp))
        return GroupElement(model, tuple(out))

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.model.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- geometry ----------------------------------------------------------

    def word_length(self) -> int:
        model = self.model
        total = 0
        for lid, exp in self.syllables:
            order = model.letter_order(lid)
            total += abs(exp) if order == 0 else min(exp, order - exp)
        return total

    def letters(self) -> tuple[int, ...]:
        """Canonical geodesic word as signed letter ids.

        Each syllable is spelled with the shorter direction around its
        cyclic factor; ties go to positive powers, which is also the
        lexicographically least choice.
        """
        model = self.model
        out = []
        for lid, exp in self.syllables:
            order = model.letter_order(lid)
            if order == 0:
                out.extend([lid if exp > 0 else -lid] * abs(exp))
            elif exp <= order - exp:
                out.extend([lid] * exp)
            else:
                out.extend([-lid] * (order - exp))
        return tuple(out)

    def is_identity(self) -> bool:
        return not self.syllables

    def has_finite_order(self) -> bool:
        """True for the identity and for torsion elements.

        In a free group only the identity has finite order; in a free
        product exactly the conjugates of proper factor elements do, and
        in normal form those are recognized after cyclic reduction.
        """
        if self.is_identity():
            return True
        if self.model.kind == FREE:
            return False
        _, core = self.cyclic_reduction()
        return len(core.syllables) <= 1

    def cyclic_reduction(self) -> tuple["GroupElement", "GroupElement"]:
        """Return ``(u, c)`` with ``self == u * c * u^-1`` and c cyclically reduced."""
        model = self.model
        u = model.identity()
        c = self
        while len(c.syllables) >= 2 and c.syllables[0][0] == c.syllables[-1][0]:
            head = GroupElement(model, (c.syllables[0],))
            u = u * head
            c = head.inverse() * c * head
        return u, c

    # -- conveniences ------------------------------------------------------

    def __str__(self):
        if self.is_identity():
            return self.model.identity_name
        return "".join(self.model.letter_name(l) for l in self.letters())

    def __repr__(self):
        return f"<{self.model}:{self}>"


def _merge_syllables(model, left, right):
    out = list(left)
    for lid, exp in right:
        if out and out[-1][0] == lid:
            order = model.letter_order(lid)
            combined = out[-1][1] + exp
            if order:
                combined %= order
            if combined == 0:
                out.pop()
            else:
                out[-1] = (lid, combined)
        else:
            out.append((lid, exp))
    return tuple(out)


# ---------------------------------------------------------------------------
# spec-level operations


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    return a * b


def word_length(g: GroupElement) -> int:
    return g.word_length()


def distance(x: GroupElement, y: GroupElement) -> int:
    _same_model(x, y)
    return (x.inverse() * y).word_length()


def gromov_product(x: GroupElement, y: GroupElement, base: GroupElement | None = None) -> Fraction:
    """Exact Gromov product (x|y)_base as a half-integer Fraction."""
    if base is None:
        base = x.model.identity()
    dxz = distance(x, base)
    dyz = distance(y, base)
    dxy = distance(x, y)
    return Fraction(dxz + dyz - dxy, 2)


@dataclass(frozen=True)
class GeodesicSegment:
    """An explicit geodesic: vertices at unit steps with d(x_i, x_j) = |i-j|."""

    vertices: tuple[GroupElement, ...]

    def __len__(self):
        return len(self.vertices) - 1

    @property
    def start(self) -> GroupElement:
        return self.vertices[0]

    @property
    def end(self) -> GroupElement:
        return self.vertices[-1]

    def reversed(self) -> "GeodesicSegment":
        return GeodesicSegment(tuple(reversed(self.vertices)))


def geodesic(x: GroupElement, y: GroupElement) -> GeodesicSegment:
    """The canonical geodesic from x to y (deterministic)."""
    _same_model(x, y)
    word = x.inverse() * y
    verts = [x]
    cur = x
    for letter in word.letters():
        cur = cur * x.model.letter_element(letter)
        verts.append(cur)
    return GeodesicSegment(tuple(verts))


# ---------------------------------------------------------------------------
# word lists


def words_by_length(
    model: GroupModel, radius: int, per_sphere: int | None = None
) -> list[GroupElement]:
    """The elements of B(e, radius) in BFS order over ``model.generators()``.

    Sphere k lists, for each kept word of sphere k - 1 in turn and each
    generator in canonical order, the products of length k not listed
    yet.  With ``per_sphere`` = P only the first P words of each sphere
    are kept, and sphere k is built from the kept part of sphere k - 1.
    Every element has a child of its own, so that kept part is the first
    P words of the full sphere.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    gens = model.generators()
    sphere = [model.identity()]
    words = list(sphere)
    for k in range(1, radius + 1):
        seen = {}
        for x in sphere:
            for s in gens:
                y = x * s
                if y.word_length() == k:
                    seen.setdefault(y, None)
        sphere = list(seen)[:per_sphere]
        words.extend(sphere)
    return words


def word_count(model: GroupModel, radius: int) -> int:
    """|B(e, radius)|: 1 + 2N((2N - 1)^R - 1)/(2N - 2) on F_N, so that a
    long list can be refused before it is built; by listing on Z/m*Z/n,
    where B(e, 4) holds at most a few hundred words."""
    if model.kind != FREE:
        return len(words_by_length(model, radius))
    q = 2 * model.rank - 1
    return 1 + 2 * model.rank * (q**radius - 1) // (q - 1)


# ---------------------------------------------------------------------------
# packed words and ball enumeration: the engine of the ball oracles of the
# tests (with ``_solver``); no package path builds a ball

class _FreeCodec:
    """Byte-per-letter packing for free groups: byte = (id << 1) | sign."""

    def __init__(self, model: GroupModel):
        self.letters = []
        for lid in range(1, model.rank + 1):
            self.letters.append((lid << 1))
            self.letters.append((lid << 1) | 1)

    @staticmethod
    def push(word: bytes, byte: int) -> bytes:
        if word and word[-1] == byte ^ 1:
            return word[:-1]
        return word + bytes((byte,))

    @staticmethod
    def byte_for_letter(letter: int) -> int:
        return (abs(letter) << 1) | (1 if letter < 0 else 0)

    @staticmethod
    def letter_for_byte(byte: int) -> int:
        lid = byte >> 1
        return -lid if byte & 1 else lid

    def pack(self, g: GroupElement) -> bytes:
        return bytes(self.byte_for_letter(l) for l in g.letters())

    def unpack(self, model: GroupModel, word: bytes) -> GroupElement:
        return model.from_letters(self.letter_for_byte(b) for b in word)


class _ProductCodec:
    """Byte-per-syllable packing for free products: byte = (fid << 7) | exp."""

    def __init__(self, model: GroupModel):
        self.orders = model.orders
        self.letters = []
        for lid in (1, 2):
            order = self.orders[lid - 1]
            self.letters.append(self.byte_step(lid, +1))
            if order != 2:
                self.letters.append(self.byte_step(lid, -1))

    @staticmethod
    def byte_step(lid: int, direction: int) -> int:
        # Encoded as a (factor, +-1 step) pair squeezed into one int.
        return ((lid - 1) << 1) | (0 if direction > 0 else 1)

    def push(self, word: bytes, step: int) -> bytes:
        fid = step >> 1
        delta = -1 if step & 1 else 1
        order = self.orders[fid]
        if word and (word[-1] >> 7) == fid:
            exp = (word[-1] & 0x7F) + delta
            exp %= order
            if exp == 0:
                return word[:-1]
            return word[:-1] + bytes(((fid << 7) | exp,))
        return word + bytes(((fid << 7) | (delta % order),))

    def byte_for_letter(self, letter: int) -> int:
        return self.byte_step(abs(letter), 1 if letter > 0 else -1)

    def pack(self, g: GroupElement) -> bytes:
        return bytes(((lid - 1) << 7) | exp for lid, exp in g.syllables)

    def unpack(self, model: GroupModel, word: bytes) -> GroupElement:
        syllables = tuple(((b >> 7) + 1, b & 0x7F) for b in word)
        return GroupElement(model, syllables)


def _codec_for(model: GroupModel):
    return _FreeCodec(model) if model.kind == FREE else _ProductCodec(model)


class Ball:
    """The ball B(e, radius) with a stable BFS index.

    Words are stored packed (one byte per letter or syllable); elements
    are materialized on demand.  ``step_tables`` gives, per alphabet
    letter, the index of each element's neighbour or -1 when the
    neighbour leaves the ball.
    """

    def __init__(self, model: GroupModel, radius: int, max_states: int):
        self.model = model
        self.radius = radius
        self._codec = _codec_for(model)
        words = [b""]
        index = {b"": 0}
        lengths = [0]
        sphere_start = [0, 1]
        frontier = [b""]
        push = self._codec.push
        steps = self._codec.letters
        for layer in range(1, radius + 1):
            nxt = []
            for w in frontier:
                for s in steps:
                    nb = push(w, s)
                    if nb not in index:
                        index[nb] = len(words)
                        words.append(nb)
                        nxt.append(nb)
                        if len(words) > max_states:
                            raise BudgetExceededError(
                                f"ball(e,{radius}) on {model} exceeds {max_states} states"
                            )
            lengths.extend([layer] * len(nxt))
            sphere_start.append(len(words))
            frontier = nxt
        self.words = words
        self._index = index
        self.lengths = np.asarray(lengths, dtype=np.int32)
        self.sphere_start = np.asarray(sphere_start, dtype=np.int64)
        self._steps: dict[int, np.ndarray] | None = None

    def __len__(self):
        return len(self.words)

    def element(self, i: int) -> GroupElement:
        return self._codec.unpack(self.model, self.words[i])

    def elements(self) -> Iterator[GroupElement]:
        return (self.element(i) for i in range(len(self)))

    def index_of(self, g: GroupElement) -> int:
        if g.model != self.model:
            raise ModelMismatchError("element from a different model")
        key = self._codec.pack(g)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{g} lies outside B(e,{self.radius})") from None

    def contains(self, g: GroupElement) -> bool:
        return self._codec.pack(g) in self._index

    def sphere_indices(self, k: int) -> range:
        return range(int(self.sphere_start[k]), int(self.sphere_start[k + 1]))

    def step_tables(self) -> dict[int, np.ndarray]:
        """letter -> int32 array mapping element index to neighbour index (-1 outside)."""
        if self._steps is None:
            tables = {}
            push = self._codec.push
            getidx = self._index.get
            for g in self.model.generators():
                letter = g.letters()[0]
                step = self._codec.byte_for_letter(letter)
                col = np.empty(len(self.words), dtype=np.int32)
                for i, w in enumerate(self.words):
                    col[i] = getidx(push(w, step), -1)
                tables[letter] = col
            self._steps = tables
        return self._steps

    def pack_element(self, g: GroupElement) -> bytes:
        return self._codec.pack(g)


@lru_cache(maxsize=24)
def _cached_ball(model: GroupModel, radius: int, max_states: int) -> Ball:
    return Ball(model, radius, max_states)


def ball(model: GroupModel, radius: int, max_states: int = 3_000_000) -> Ball:
    """Enumerate B(e, radius) with a stable insertion-order index."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _cached_ball(model, radius, max_states)


# ---------------------------------------------------------------------------
# conjugacy representatives


def conjugacy_representatives(model: GroupModel, maxlen: int) -> list[tuple[GroupElement, bool]]:
    """One minimal-length representative per nontrivial conjugacy class
    meeting B(e, maxlen), paired with a finite-order flag.

    Representatives are cyclically reduced and chosen as the
    lexicographically least rotation, so the output is deterministic.
    The identity class is omitted.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be positive")
    if model.kind == FREE:
        return [(g, False) for g in _free_classes(model, maxlen)]
    return _product_classes(model, maxlen)


def _free_classes(model: GroupModel, maxlen: int) -> list[GroupElement]:
    letters = [l for lid in range(1, model.rank + 1) for l in (lid, -lid)]
    seen = set()
    reps = []
    for length in range(1, maxlen + 1):
        for word in itertools.product(letters, repeat=length):
            ok = all(word[i + 1] != -word[i] for i in range(length - 1))
            if not ok or word[0] == -word[-1] and length > 1:
                continue
            canon = min(word[i:] + word[:i] for i in range(length))
            if canon in seen:
                continue
            seen.add(canon)
            reps.append(model.from_letters(canon))
    return reps


def _product_classes(model: GroupModel, maxlen: int) -> list[tuple[GroupElement, bool]]:
    m, n = model.orders
    reps: list[tuple[GroupElement, bool]] = []
    for lid, order in ((1, m), (2, n)):
        for exp in range(1, order):
            g = GroupElement(model, ((lid, exp),))
            if g.word_length() <= maxlen:
                reps.append((g, True))
    seen = set()
    for count in range(2, maxlen + 1, 2):
        for first in (1, 2):
            pattern = [first if i % 2 == 0 else 3 - first for i in range(count)]
            ranges = [range(1, model.orders[lid - 1]) for lid in pattern]
            for exps in itertools.product(*ranges):
                syl = tuple(zip(pattern, exps))
                g = GroupElement(model, syl)
                if g.word_length() > maxlen:
                    continue
                rotations = [syl[i:] + syl[:i] for i in range(count)]
                canon = min(GroupElement(model, r).letters() for r in rotations)
                if canon in seen:
                    continue
                seen.add(canon)
                reps.append((model.from_letters(canon), False))
    reps.sort(key=lambda pair: (pair[0].word_length(), pair[0].letters()))
    return reps
