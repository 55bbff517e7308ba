"""Free products of cyclic groups with exact word-metric geometry.

A model is Z/m_1 * ... * Z/m_k, one generator per factor and order 0 for
Z, whose Cayley graph is a tree of cycles and lines.  Accepted are free
groups F_N = Z * ... * Z of rank ``2 <= N <= 26`` and free products
``Z/m * Z/n`` with ``m, n >= 2`` and ``(m, n) != (2, 2)``.

Elements are immutable normal-form words, spelled by canonical geodesic
words; the word metric, Gromov products, word lists by length and
conjugacy representatives are all exact.  Cut vertices split a normal
form into one-factor keys (``factors``, from ``GroupModel.factors``)
under one follow rule (``GroupModel.follows``); a class of infinite
order is a cyclic sequence of keys under it.  The indexed balls at the end
serve the tests' restricted-ball oracles only; their words are pushed
and spelled through the normal-form table that the boundary samplers
share (``_streams._push_tables``).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from ._record import record, setfield
from .errors import BudgetExceededError, ModelMismatchError

if TYPE_CHECKING:
    import numpy as np

FREE = "free"
FREE_PRODUCT = "free_product"

# The largest factor order accepted.  The exact engine keeps m + n - 2
# syllable values and the exact Ancona constant scans about (m^2 + n^2)/4
# in-cycle triples, so both stay small up to this bound.
_MAX_ORDER = 120
_MAX_RANK = 26


@record
class GroupModel:
    """A free product of cyclic groups with a fixed symmetric alphabet.

    ``orders[i]`` is the order of factor i + 1, generated by letter id
    i + 1, with 0 for Z: F_N is (0,) * N.  ``kind``, ``rank`` and the
    letter ``alphabet`` derive from it, each computed once.  The Cayley
    graph is a tree of cycles, so the Gromov product of two canonical rays
    is fixed by their first k + :attr:`split_span` + 1 letters, k the
    first differing letter.
    """

    orders: tuple[int, ...]

    # Hashed and compared on every cache lookup: written out, see _record.

    def __init__(self, orders: tuple[int, ...]):
        setfield(self, "orders", orders)
        if not any(orders):
            if not 2 <= len(orders) <= _MAX_RANK:
                raise ValueError(f"free rank must be in [2, {_MAX_RANK}], got {len(orders)}")
        elif len(orders) != 2 or min(orders) < 2 or orders == (2, 2) or max(orders) > _MAX_ORDER:
            raise ValueError(f"free product orders must be two in [2, {_MAX_ORDER}], not (2, 2): "
                             f"got {orders}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.orders,) == (other.orders,)
        return NotImplemented

    def __hash__(self):
        return hash((self.orders,))

    @staticmethod
    def free(rank: int) -> "GroupModel":
        if not 2 <= rank <= _MAX_RANK:  # before (0,) * rank is built
            raise ValueError(f"free rank must be in [2, {_MAX_RANK}], got {rank}")
        return GroupModel((0,) * rank)

    @staticmethod
    def free_product(m: int, n: int) -> "GroupModel":
        return GroupModel((m, n))

    @cached_property
    def kind(self) -> str:
        return FREE_PRODUCT if any(self.orders) else FREE

    @cached_property
    def rank(self) -> int:
        """The number of cyclic factors, and of letter ids: N on F_N, 2 on
        Z/m*Z/n."""
        return len(self.orders)

    @cached_property
    def alphabet(self) -> str:
        """The lowercase name of each letter id's generator, in id order."""
        return "st" if self.kind == FREE_PRODUCT else "abcdefghijklmnopqrstuvwxyz"[: self.rank]

    @cached_property
    def split_span(self) -> int:
        """Letters past their first difference within which two canonical
        rays can still share a cycle: the longest canonical syllable of a
        finite factor, floor(max(m, n)/2), and 0 on free groups (every
        vertex is a cut vertex).
        """
        return max(self.orders) // 2

    @cached_property
    def factors(self) -> tuple[tuple[int, int], ...]:
        """The one-factor keys, factor by factor: the units (lid, 1) and
        (lid, -1) of a factor Z, the syllables (lid, 1) ... (lid, m - 1) of
        a factor Z/m.  Each is the element between two adjacent cut
        vertices of a geodesic."""
        return tuple((lid, k) for lid, m in enumerate(self.orders, 1)
                     for k in ((1, -1) if m == 0 else range(1, m)))

    def follows(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Whether key b may come next after key a in a normal form: they
        lie in different factors, or are the same unit of a factor Z."""
        return a[0] != b[0] or (a == b and self.orders[a[0] - 1] == 0)

    # -- alphabet ----------------------------------------------------------

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def letter_order(self, letter_id: int) -> int:
        """Order of the cyclic factor behind a letter id (0 = infinite)."""
        return self.orders[letter_id - 1]

    def generators(self) -> tuple["GroupElement", ...]:
        """The symmetric alphabet S, in canonical order.

        Order-2 factors contribute a single self-inverse letter.
        """
        out = []
        for lid in range(1, self.rank + 1):
            out.append(self.letter_element(lid))
            if self.letter_order(lid) != 2:
                out.append(self.letter_element(-lid))
        return tuple(out)

    def letter_element(self, letter: int) -> "GroupElement":
        return GroupElement(self, (self._letter_syllable(letter),))

    def _letter_syllable(self, letter: int) -> tuple[int, int]:
        lid = abs(letter)
        if not 1 <= lid <= self.rank:
            raise ValueError(f"letter id {lid} outside alphabet")
        return (lid, 1 if letter > 0 else self.letter_order(lid) - 1)

    @cached_property
    def identity_name(self) -> str:
        """The identity's name: ``"e"``, or ``"1"`` where ``"e"`` spells a
        generator (F_5 and above)."""
        return "1" if "e" in self.alphabet else "e"

    def letter_name(self, letter: int) -> str:
        base = self.alphabet[abs(letter) - 1]
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
            lid = self.alphabet.find(ch.lower()) + 1
            if not lid:
                raise ValueError(f"unknown letter {ch!r} for model {self}")
            letters.append(lid if ch.islower() else -lid)
        return self.from_letters(letters)

    def from_letters(self, letters: Iterable[int]) -> "GroupElement":
        steps = [self._letter_syllable(letter) for letter in letters]
        return GroupElement(self, _merge_syllables(self, (), steps))

    def __str__(self):
        if self.kind == FREE:
            return f"F_{self.rank}"
        return "*".join(f"Z/{m}" for m in self.orders)


def _same_model(a: "GroupElement", b: "GroupElement") -> None:
    if a.model != b.model:
        raise ModelMismatchError(f"mixed models: {a.model} vs {b.model}")


@record
class GroupElement:
    """A group element held in normal form.

    ``syllables`` is a tuple of ``(letter_id, exponent)`` pairs with
    distinct adjacent letter ids.  Free groups use arbitrary nonzero
    exponents; free products reduce exponents into ``1..order-1``.
    """

    model: GroupModel
    syllables: tuple[tuple[int, int], ...]

    # The most built, hashed and compared object: written out, see _record.

    def __init__(self, model: GroupModel, syllables: tuple[tuple[int, int], ...]):
        setfield(self, "model", model)
        setfield(self, "syllables", syllables)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.model, self.syllables) == (other.model, other.syllables)
        return NotImplemented

    def __hash__(self):
        return hash((self.model, self.syllables))

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

        Exactly the conjugates of the elements of finite factors have
        finite order: those whose cyclic reduction is one syllable of a
        finite factor.  On F_N that leaves the identity alone.
        """
        if self.is_identity():
            return True
        (lid, _), *rest = self.cyclic_reduction()[1].syllables
        return not rest and self.model.letter_order(lid) > 0

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


def factors(g: GroupElement) -> list[tuple[int, int]]:
    """Table keys whose values multiply to F(e, g | z): each unit of a
    syllable of an infinite factor, each whole syllable of a finite one.
    Each boundary between two of them is a cut vertex of the Cayley
    graph."""
    orders = g.model.orders
    out = []
    for lid, exp in g.syllables:
        if orders[lid - 1]:
            out.append((lid, exp))
        else:
            out += [(lid, 1 if exp > 0 else -1)] * abs(exp)
    return out


# ---------------------------------------------------------------------------
# spec-level operations


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


# ---------------------------------------------------------------------------
# word lists


def words_by_length(model: GroupModel, radius: int) -> list[GroupElement]:
    """The elements of B(e, radius) in BFS order over ``model.generators()``.

    Sphere k lists, for each word of sphere k - 1 in turn and each
    generator in canonical order, the products of length k not listed
    yet.
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
        sphere = list(seen)
        words.extend(sphere)
    return words


def word_count(model: GroupModel, radius: int) -> int:
    """|B(e, radius)|, so that a long list can be refused before it is
    built.  A factor has syl[l] syllables of length l: 2 on Z, one per
    exponent k with min(k, m - k) = l on Z/m.  Adjacent syllables of a
    normal form lie in different factors, so the words of length k ending
    in factor i number ends_i[k] = sum_l syl_i[l] (total[k - l] -
    ends_i[k - l]), where total[0] = 1 counts the identity."""
    syl = [[0] + [(2 * l < m) + (2 * l <= m) if m else 2 for l in range(1, radius + 1)]
           for m in model.orders]
    ends = [[0] * (radius + 1) for _ in model.orders]
    total = [1] + [0] * radius
    for k in range(1, radius + 1):
        for counts, end in zip(syl, ends):
            end[k] = sum(counts[l] * (total[k - l] - end[k - l]) for l in range(1, k + 1))
        total[k] = sum(end[k] for end in ends)
    return sum(total)


# ---------------------------------------------------------------------------
# ball enumeration: the engine of the ball oracles of the tests (with
# ``_solver``); no package path builds a ball


class Ball:
    """The ball B(e, radius) with a stable BFS index.

    A word is stored as the bytes of its entry indices in the normal-form
    push table of ``_streams`` (code // number of letters, at most 238 on
    Z/120*Z/120), spelled into an element on demand.  ``step_tables``
    gives, per alphabet letter, the index of each element's neighbour or
    -1 when the neighbour leaves the ball.
    """

    def __init__(self, model: GroupModel, radius: int, max_states: int):
        import numpy as np  # costly to import: loaded on first use

        from ._streams import _APPEND, _REMOVE, _push_tables

        self.model = model
        self.radius = radius
        self._letters = [g.letters()[0] for g in model.generators()]
        width = len(self._letters)
        table, spell = _push_tables(self._letters, model)
        # Per last entry (0 for the empty word), per letter: whether the push
        # drops the last entry, and the bytes it then appends.
        moves = [(kind != _APPEND, b"" if kind == _REMOVE else bytes((new // width,)))
                 for kind, new, _, _ in table]
        self._moves = [moves[i:i + width] for i in range(0, len(moves), width)]
        self._spell = {code // width: letters for code, letters in spell.items()}
        words = [b""]
        index = {b"": 0}
        lengths = [0]
        sphere_start = [0, 1]
        frontier = [b""]
        rows = self._moves
        for layer in range(1, radius + 1):
            nxt = []
            for w in frontier:
                head = w[:-1]
                for drop, add in rows[w[-1] if w else 0]:
                    nb = (head if drop else w) + add
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
        spell = self._spell
        return self.model.from_letters(l for b in self.words[i] for l in spell[b])

    def elements(self) -> Iterator[GroupElement]:
        return (self.element(i) for i in range(len(self)))

    def index_of(self, g: GroupElement) -> int:
        if g.model != self.model:
            raise ModelMismatchError("element from a different model")
        w = b""
        for letter in g.letters():
            drop, add = self._moves[w[-1] if w else 0][self._letters.index(letter)]
            w = (w[:-1] if drop else w) + add
        try:
            return self._index[w]
        except KeyError:
            raise ValueError(f"{g} lies outside B(e,{self.radius})") from None

    def sphere_indices(self, k: int) -> range:
        return range(int(self.sphere_start[k]), int(self.sphere_start[k + 1]))

    def step_tables(self) -> dict[int, np.ndarray]:
        """letter -> int32 array mapping element index to neighbour index (-1 outside)."""
        if self._steps is None:
            import numpy as np

            cols = [array("i") for _ in self._letters]
            rows = self._moves
            getidx = self._index.get
            for w in self.words:
                head = w[:-1]
                for col, (drop, add) in zip(cols, rows[w[-1] if w else 0]):
                    col.append(getidx((head if drop else w) + add, -1))
            self._steps = {
                letter: np.frombuffer(col, dtype=np.int32) for letter, col in zip(self._letters, cols)
            }
        return self._steps


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

    A class is a syllable of a finite factor (finite order) or a cyclic
    sequence of ``model.factors`` keys, each following the one before and
    the first the last.  Sequences grow depth-first while they fit in
    ``maxlen`` letters, by keys whose first letter is not below the first
    key's.  A least letter rotation starts at a key with the least first
    letter, so each class is kept once, as its least rotation.

    Classes come in the order in which they first meet
    ``words_by_length``: by length, then by least rotation in generator
    order, as that list is shortlex in generator order and no least-length
    word of a class is below that rotation (both checked on F_2, F_3,
    Z/2*Z/3, Z/2*Z/4, Z/4*Z/5, Z/6*Z/6 and Z/3*Z/7).
    """
    if maxlen < 1:
        raise ValueError("maxlen must be positive")
    keys = model.factors
    spell = {key: GroupElement(model, (key,)).letters() for key in keys}
    after = {a: [b for b in keys if model.follows(a, b)] for a in keys}
    rank = {g.letters()[0]: i for i, g in enumerate(model.generators())}
    classes = []
    stack = [((key,), spell[key], (0,)) for key in keys if len(spell[key]) <= maxlen]
    while stack:
        seq, letters, cuts = stack.pop()
        first, last = seq[0], seq[-1]
        finite = len(seq) == 1 and model.orders[first[0] - 1] > 0
        if (finite or model.follows(last, first)) and all(
            letters[i:] + letters[:i] >= letters for i in cuts
        ):
            ranked = tuple(rank[x] for x in letters)
            order = (len(letters), min(ranked[i:] + ranked[:i] for i in cuts))
            classes.append((order, seq, finite))
        for key in after[last]:
            if spell[key][0] >= letters[0] and len(letters) + len(spell[key]) <= maxlen:
                stack.append(((*seq, key), letters + spell[key], (*cuts, len(letters))))
    classes.sort()
    return [(GroupElement(model, _merge_syllables(model, (), seq)), finite)
            for _, seq, finite in classes]
