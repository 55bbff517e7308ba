from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk import (
    GroupElement,
    GroupModel,
    conjugacy_representatives,
    distance,
    gromov_product,
    uniform_walk,
    words_by_length,
)
from hypwalk import _exact, _streams
from hypwalk.errors import BudgetExceededError, ModelMismatchError
from hypwalk.groups import factors, word_count

from oracles import ball, bfs_distances, brute_conjugacy_classes, estimate_delta, free_ball_size
from test_properties import MODELS


F2 = GroupModel.free(2)
F3 = GroupModel.free(3)
Z23 = GroupModel.free_product(2, 3)
Z25 = GroupModel.free_product(2, 5)


def random_word(model, draw_letters):
    return model.from_letters(draw_letters)


def letters_strategy(model, max_len=8):
    ids = list(range(1, model.rank + 1))
    signed = ids + [-i for i in ids]
    return st.lists(st.sampled_from(signed), max_size=max_len)


class TestMultiply:
    def test_free_cancellation(self):
        assert F2.word("ab") * F2.word("B") == F2.word("a")

    def test_identity(self):
        g = F2.word("abA")
        assert F2.identity() * g == g
        assert g * F2.identity() == g

    def test_torsion_relation(self):
        s, t = Z23.word("s"), Z23.word("t")
        assert (s * t) * (t * t) == s

    def test_mixed_models_error(self):
        with pytest.raises(ModelMismatchError):
            F2.word("a") * F3.word("a")

    def test_inverse_cancels(self):
        g = Z25.word("stTs")
        assert g * g.inverse() == Z25.identity()

    @given(letters_strategy(F2), letters_strategy(F2), letters_strategy(F2))
    @settings(max_examples=60, deadline=None)
    def test_associativity_free(self, la, lb, lc):
        a, b, c = (F2.from_letters(ls) for ls in (la, lb, lc))
        assert (a * b) * c == a * (b * c)

    @given(letters_strategy(Z25), letters_strategy(Z25), letters_strategy(Z25))
    @settings(max_examples=60, deadline=None)
    def test_associativity_product(self, la, lb, lc):
        a, b, c = (Z25.from_letters(ls) for ls in (la, lb, lc))
        assert (a * b) * c == a * (b * c)


class TestWordLength:
    def test_examples(self):
        assert F2.identity().word_length() == 0
        assert F2.word("ab").word_length() == 2
        assert Z23.word("sts").word_length() == 3

    def test_against_bfs(self):
        for model in (F2, Z23, Z25):
            dist = bfs_distances(model, 4)
            for g, d in dist.items():
                assert g.word_length() == d
                # The canonical word is a geodesic: d letters that spell g.
                assert len(g.letters()) == d and model.from_letters(g.letters()) == g

    @given(letters_strategy(Z25))
    @settings(max_examples=60, deadline=None)
    def test_inverse_length(self, ls):
        g = Z25.from_letters(ls)
        assert g.word_length() == g.inverse().word_length()

    @given(letters_strategy(F2), letters_strategy(F2))
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, la, lb):
        x, y = F2.from_letters(la), F2.from_letters(lb)
        assert (x * y).word_length() <= x.word_length() + y.word_length()

    @given(letters_strategy(Z23), letters_strategy(Z23), letters_strategy(Z23))
    @settings(max_examples=60, deadline=None)
    def test_left_invariance(self, lg, lx, ly):
        g, x, y = (Z23.from_letters(ls) for ls in (lg, lx, ly))
        assert distance(g * x, g * y) == distance(x, y)


class TestGromovProduct:
    def test_self(self):
        x = F2.word("abAB")
        assert gromov_product(x, x) == x.word_length()

    def test_common_prefix(self):
        assert gromov_product(F3.word("ab"), F3.word("ac")) == 1

    def test_orthogonal(self):
        assert gromov_product(F2.word("a"), F2.word("b")) == 0

    def test_half_integer(self):
        t = Z23.word("t")
        assert gromov_product(t, t * t) == Fraction(1, 2)


class TestDelta:
    def test_trees_are_zero(self):
        assert estimate_delta(F2, 4) == 0
        assert estimate_delta(F3, 3) == 0

    def test_z23_in_range(self):
        d = estimate_delta(Z23, 4)
        assert 0 <= d <= 2

    def test_monotone_in_radius(self):
        assert estimate_delta(Z25, 3) <= estimate_delta(Z25, 5)

    def test_four_point_condition_holds(self):
        # delta estimated on the double ball covers products based
        # anywhere in the inner ball.
        delta = estimate_delta(Z25, 6, max_states=10_000)
        b = ball(Z25, 3)
        pts = [b.element(i) for i in range(len(b))]
        for w in pts[:12]:
            for x in pts[::7]:
                for y in pts[::5]:
                    for z in pts[::3]:
                        lhs = gromov_product(x, y, w)
                        rhs = min(gromov_product(x, z, w), gromov_product(y, z, w))
                        assert lhs >= rhs - delta


class TestBall:
    def test_sizes_f2(self):
        assert len(ball(F2, 1)) == 5
        assert len(ball(F2, 2)) == 17

    def test_free_formula(self):
        for model, rank in ((F2, 2), (F3, 3)):
            for r in range(0, 7 if rank == 2 else 5):
                assert len(ball(model, r)) == free_ball_size(rank, r)

    def test_indexing_stable_and_complete(self):
        b = ball(Z23, 3)
        seen = set()
        for i in range(len(b)):
            g = b.element(i)
            assert b.index_of(g) == i
            assert g.word_length() <= 3
            seen.add(g)
        assert len(seen) == len(b)
        dist = bfs_distances(Z23, 3)
        assert seen == set(dist)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            ball(F2, 8, max_states=100)

    def test_outside_lookup_is_error(self):
        b = ball(F2, 2)
        with pytest.raises(ValueError):
            b.index_of(F2.word("aaa"))


# Every model of MODELS to radius 5, and the widest alphabet and the
# largest factors at small radii.
BALL_CASES = [(model, radius) for radius in range(6) for model in MODELS] + [
    (GroupModel.free(26), radius) for radius in range(3)
] + [(GroupModel.free_product(120, 119), radius) for radius in range(4)]


class TestWordLists:
    @pytest.mark.parametrize(
        "model,radius", BALL_CASES, ids=[f"{radius}-{model}" for model, radius in BALL_CASES]
    )
    def test_bfs_order_of_the_ball(self, model, radius):
        b = ball(model, radius)
        words = words_by_length(model, radius)
        assert words == list(b.elements())
        assert word_count(model, radius) == len(b)
        index = {g: i for i, g in enumerate(words)}
        tables = b.step_tables()
        for i, g in enumerate(words):
            assert b.index_of(b.element(i)) == i
            for s in model.generators():
                assert tables[s.letters()[0]][i] == index.get(g * s, -1)

    def test_free_count_formula(self):
        for rank in (2, 3, 21, 22):
            for r in range(6):
                assert word_count(GroupModel.free(rank), r) == free_ball_size(rank, r)
        assert word_count(GroupModel.free(22), 4) == 3_581_601

    def test_product_counts_stay_small(self):
        model = GroupModel.free_product(119, 120)
        assert word_count(model, 4) == len(words_by_length(model, 4)) < 1000


# Every model of MODELS, the widest alphabet and the largest factors.
FOLLOW_CASES = [(model, 4) for model in MODELS] + [
    (GroupModel.free(26), 2), (GroupModel.free_product(120, 119), 3),
]


class TestFollowRule:
    @pytest.mark.parametrize("model,radius", FOLLOW_CASES, ids=str)
    def test_normal_forms_are_follow_sequences(self, model, radius):
        step = {key: GroupElement(model, (key,)) for key in model.factors}
        for g in words_by_length(model, radius):
            keys = factors(g)
            assert all(key in step for key in keys)
            assert all(model.follows(a, b) for a, b in zip(keys, keys[1:]))
            product = model.identity()
            for key in keys:
                product = product * step[key]
            assert product == g

    @pytest.mark.parametrize("model", [model for model, _ in FOLLOW_CASES], ids=str)
    def test_one_list_of_keys(self, model):
        # The engine's table and the push table's entries list the keys in
        # model.factors' order.
        keys = model.factors
        assert list(keys) == list(_exact._solution(uniform_walk(model, 1), 1.0).table)
        letters = [g.letters()[0] for g in model.generators()]
        _, spell = _streams._push_tables(letters, model)
        width = len(letters)
        assert [spell[(c + 1) * width] for c in range(len(keys))] == [
            GroupElement(model, (key,)).letters() for key in keys
        ]

    @pytest.mark.parametrize("model", [model for model, _ in FOLLOW_CASES], ids=str)
    def test_follow_sequences_count_the_ball(self, model):
        # ends[r][b]: sequences of r letters under the rule that end in key b.
        keys = model.factors
        size = {key: GroupElement(model, (key,)).word_length() for key in keys}
        before = {b: [a for a in keys if model.follows(a, b)] for b in keys}
        ends = [dict.fromkeys(keys, 0)]
        total = 1
        for r in range(1, 6):
            ends.append({b: (size[b] == r) + sum(ends[r - size[b]][a] for a in before[b])
                         if size[b] <= r else 0 for b in keys})
            total += sum(ends[r].values())
            assert total == word_count(model, r)


class TestNames:
    F5 = GroupModel.free(5)

    def test_fifth_generator_is_not_the_identity(self):
        # "e" spells generator 5 on F_5 and above, so the identity is "1".
        e = self.F5.word("e")
        assert e == self.F5.letter_element(5) and e.word_length() == 1
        assert self.F5.word("eE").is_identity()
        assert str(self.F5.identity()) == "1"
        assert [str(g) for g in self.F5.generators()] == list("aAbBcCdDeE")

    @pytest.mark.parametrize("model", [F2, GroupModel.free(4), Z23, Z25], ids=str)
    def test_identity_keeps_its_name_below_f5(self, model):
        assert str(model.identity()) == "e"
        assert model.word("e") == model.word("1") == model.word("") == model.identity()

    @pytest.mark.parametrize("model", [F2, GroupModel.free(5), GroupModel.free(6), Z25], ids=str)
    def test_table_words_round_trip(self, model):
        words = words_by_length(model, 3)
        names = [str(g) for g in words]
        assert len(set(names)) == len(names)
        assert [model.word(name) for name in names] == words


class TestConjugacy:
    def test_f2_length_one(self):
        reps = conjugacy_representatives(F2, 1)
        assert {str(g) for g, _ in reps} == {"a", "A", "b", "B"}
        assert all(not finite for _, finite in reps)

    def test_cyclic_reduction_class(self):
        reps = conjugacy_representatives(F2, 3)
        # the class of a b a^-1 is the class of b
        names = {str(g) for g, _ in reps}
        assert "b" in names and "abA" not in names

    def test_z23_torsion(self):
        reps = conjugacy_representatives(Z23, 1)
        assert {str(g) for g, _ in reps} == {"s", "t", "T"}
        assert all(finite for _, finite in reps)

    @pytest.mark.parametrize(
        "orders,maxlen",
        [((2, 3), 10), ((3, 7), 7), ((7, 7), 6), ((0, 0), 6), ((0, 0, 0), 4)],
        ids=["z23", "z37", "z77", "f2", "f3"],
    )
    def test_classes_against_brute_force(self, orders, maxlen):
        # The same classes and representatives, in the order in which they
        # first meet words_by_length.
        model = GroupModel(orders)
        assert conjugacy_representatives(model, maxlen) == brute_conjugacy_classes(model, maxlen)

    def test_minimal_length_and_distinct(self):
        reps = conjugacy_representatives(F2, 4)
        assert len({g.letters() for g, _ in reps}) == len(reps)
        for g, _ in reps:
            u, core = g.cyclic_reduction()
            assert u.is_identity() and core == g
