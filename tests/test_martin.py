import math
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import (
    BoundaryPoint,
    GroupElement,
    GroupModel,
    gromov_product,
    hoelder_probe,
    harnack_constant,
    make_walk,
    martin_kernel,
    martin_kernel_at,
    ratio_invariant,
    uniform_walk,
)
from hypwalk.errors import ValidationError
from hypwalk.martin import _prefix_product

from oracles import brute_cone_kernels, restricted_green


class TestBoundaryPoint:
    def test_periodic_strips_conjugator(self, f2):
        xi = BoundaryPoint.periodic(f2.word("abA"))
        assert str(xi.head) == "a" and str(xi.cycle) == "b"
        assert xi.prefix_letters(4) == (1, 2, 2, 2)

    def test_prefixes_nest(self, z23):
        xi = BoundaryPoint.periodic(z23.word("st"))
        for n in range(1, 10):
            assert xi.prefix_letters(n + 1)[:n] == xi.prefix_letters(n)
            assert xi.prefix(n).word_length() == n

    def test_torsion_has_no_axis(self, z23):
        with pytest.raises(ValidationError):
            BoundaryPoint.periodic(z23.word("s"))

    def test_invalid_cycle(self, f2):
        with pytest.raises(ValidationError):
            BoundaryPoint(head=f2.word("a"), cycle=f2.word("Ab"))  # head cancels

    def test_frozen_depth_limit(self, f2):
        # An identity cycle would freeze the ray at a finite depth; such a
        # point is refused instead of carrying a depth limit.
        with pytest.raises(ValidationError, match="infinite order"):
            BoundaryPoint(head=f2.word("ab"), cycle=f2.identity())

    def test_limit_gromov_tree(self, f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        eta = BoundaryPoint(head=f2.word("aab"), cycle=f2.word("a"))
        value, stabilized = _prefix_product(f2, xi.prefix_letters(64), eta.prefix_letters(64))
        assert stabilized and value == 2


RAY_MODELS = [(0, 2), (0, 3), (2, 3), (2, 5), (3, 3), (4, 4), (3, 7), (2, 20)]


def _model(spec):
    m, n = spec
    return GroupModel.free(n) if m == 0 else GroupModel.free_product(m, n)


def _random_syllables(model, rng, n_letters, start=()):
    """Normal-form syllables continuing ``start`` to at least n_letters letters."""
    syls = list(start)
    n_ids = model.rank
    while len(GroupElement(model, tuple(syls)).letters()) < n_letters:
        lid = int(rng.integers(1, n_ids + 1))
        if syls and syls[-1][0] == lid:
            continue
        if model.kind == "free":
            exp = int(rng.choice([-1, 1])) * int(rng.integers(1, 4))
        else:
            exp = int(rng.integers(1, model.letter_order(lid)))
        syls.append((lid, exp))
    return syls


def _letters(model, syls, n):
    return GroupElement(model, tuple(syls)).letters()[:n]


class TestExactRayProduct:
    @pytest.mark.parametrize("spec", RAY_MODELS)
    def test_matches_long_prefix_product(self, spec):
        # One evaluation past the first differing letter equals the
        # product of 60-letter prefixes, also for splits inside a cycle.
        model = _model(spec)
        rng = np.random.default_rng(sum(spec))
        n = 60
        for _ in range(60):
            syls_a = _random_syllables(model, rng, n)
            q = int(rng.integers(0, 8))
            syls_b = _random_syllables(model, rng, n, start=syls_a[:q])
            la, lb = _letters(model, syls_a, n), _letters(model, syls_b, n)
            if la == lb:
                continue
            value, exact = _prefix_product(model, la, lb)
            assert exact
            assert value == gromov_product(model.from_letters(la), model.from_letters(lb))

    def test_in_cycle_split(self):
        # t^2 and t^3 = T^2 leave the 5-cycle at adjacent vertices.
        model = GroupModel.free_product(2, 5)
        a = BoundaryPoint(head=model.word("tt"), cycle=model.word("st"))
        b = BoundaryPoint(head=model.word("TT"), cycle=model.word("st"))
        assert _prefix_product(model, a.prefix_letters(64), b.prefix_letters(64)) == (
            Fraction(3, 2), True)
        assert model.split_span == 2 and GroupModel.free(2).split_span == 0

    def test_short_prefix_is_a_lower_bound(self):
        # Two letters of t^2 end before the rays leave the 5-cycle.
        model = GroupModel.free_product(2, 5)
        b = BoundaryPoint(head=model.word("TT"), cycle=model.word("st"))
        value, exact = _prefix_product(model, model.word("tt").letters(), b.prefix_letters(64))
        assert not exact and value <= Fraction(3, 2)


class TestMartinKernel:
    def test_identity_kernel(self, walk_f2, f2):
        xi = BoundaryPoint.periodic(f2.word("b"))
        est = martin_kernel(walk_f2, f2.identity(), xi)
        assert est.value == 1.0

    def test_tree_cone_values(self, walk_f2, f2):
        # K(a, xi) is 3 on the cone at a and 1/3 elsewhere.
        a = f2.word("a")
        on = martin_kernel(walk_f2, a, BoundaryPoint.periodic(a))
        off = martin_kernel(walk_f2, a, BoundaryPoint.periodic(f2.word("b")))
        assert on.value == pytest.approx(3.0, rel=1e-12)
        assert off.value == pytest.approx(1 / 3, rel=1e-12)
        assert on.lower < 3.0 < on.upper and off.lower < 1 / 3 < off.upper

    def test_against_direct_row_oracle(self, walk_f2, f2):
        # Independent route: restricted rows from sources a and e directly,
        # no left-invariance reduction.
        a = f2.word("a")
        table = restricted_green(walk_f2, 12, sources=[a])
        xi = BoundaryPoint.periodic(a)
        y = xi.prefix(8)
        oracle = table.value(a, y) / table.value(f2.identity(), y)
        est = martin_kernel(walk_f2, a, xi)
        assert est.value == pytest.approx(oracle, rel=1e-2)

    def test_cocycle_exact_at_every_depth(self, walk_f2, f2):
        g, h = f2.word("a"), f2.word("b")
        xi = BoundaryPoint.periodic(f2.word("b"))
        for depth in (4, 5, 6):
            y = xi.prefix(depth)
            lhs = martin_kernel_at(walk_f2, g * h, y).value
            rhs = (
                martin_kernel_at(walk_f2, g, y).value
                * martin_kernel_at(walk_f2, h, g.inverse() * y).value
            )
            assert abs(lhs / rhs - 1.0) <= 1e-12

    def test_inverse_relation(self, walk_f2, f2):
        g = f2.word("ab")
        y = BoundaryPoint.periodic(f2.word("b")).prefix(5)
        forward = martin_kernel_at(walk_f2, g.inverse(), y).value
        back = martin_kernel_at(walk_f2, g, g * y).value
        assert forward * back == pytest.approx(1.0, rel=1e-12)

    def test_harnack_range(self, walk_f2, f2):
        c1 = harnack_constant(walk_f2)
        g = f2.word("aB")
        for cyc in ("a", "b", "ab"):
            est = martin_kernel(walk_f2, g, BoundaryPoint.periodic(f2.word(cyc)))
            bound = c1 ** g.word_length()
            assert 1 / bound <= est.value <= bound

    @pytest.mark.parametrize("spec", [(0, 2), (2, 5), (3, 7)])
    def test_default_depth_is_the_limit(self, spec):
        # Past depth |g| + s + 2 the kernel along the ray is bitwise constant.
        from hypwalk.report import _probe_points

        model = _model(spec)
        weights = [0.35, 0.15, 0.30, 0.20][: len(model.generators())]
        walk = make_walk(
            model, [(x, w / sum(weights)) for x, w in zip(model.generators(), weights)], 1
        )
        probes, points = _probe_points(model)
        for g in probes:
            for xi in points:
                est = martin_kernel(walk, g, xi)
                assert est.depth == g.word_length() + model.split_span + 2
                deep = martin_kernel_at(walk, g, xi.prefix(g.word_length() + 24))
                assert (est.value, est.lower, est.upper) == (deep.value, deep.lower, deep.upper)

    def test_radon_nikodym_alias(self, walk_f2, f2):
        # dnu_g/dnu at xi is the Martin kernel K(g, xi).
        xi = BoundaryPoint.periodic(f2.word("b"))
        assert martin_kernel(walk_f2, f2.identity(), xi).value == 1.0
        val = martin_kernel(walk_f2, f2.word("a"), xi).value
        assert val == pytest.approx(1 / 3, rel=1e-12)


class TestRatioInvariant:
    def test_paper_values(self, walk_f2, f2):
        r_a = ratio_invariant(walk_f2, f2.word("a"))
        r_ab = ratio_invariant(walk_f2, f2.word("ab"))
        assert r_a.value == pytest.approx(1 / 3, rel=1e-12)
        assert r_ab.value == pytest.approx(1 / 9, rel=1e-12)
        assert r_a.lower < 1 / 3 < r_a.upper and r_ab.lower < 1 / 9 < r_ab.upper

    def test_class_function(self, walk_f2, f2):
        conj = ratio_invariant(walk_f2, f2.word("abA"))
        base = ratio_invariant(walk_f2, f2.word("b"))
        assert conj.value == pytest.approx(base.value, rel=1e-12)

    def test_powers(self, walk_f2, f2):
        r = ratio_invariant(walk_f2, f2.word("a")).value
        for k in (2, 3, 4):
            rk = ratio_invariant(walk_f2, f2.word("a" * k)).value
            assert rk == pytest.approx(r**k, rel=1e-12)

    def test_symmetric_inverse(self, walk_f2, f2):
        g = f2.word("ab")
        assert ratio_invariant(walk_f2, g).value == pytest.approx(
            ratio_invariant(walk_f2, g.inverse()).value, rel=1e-12
        )

    def test_strictly_below_one(self, walk_f2, walk_z23, f2, z23):
        for walk, word in ((walk_f2, "a"), (walk_f2, "aBa"), (walk_z23, "st")):
            rv = ratio_invariant(walk, walk.model.word(word))
            assert rv.value < 1.0

    def test_finite_order_short_circuit(self, walk_z23, z23):
        rv = ratio_invariant(walk_z23, z23.word("s"))
        assert rv.finite_order and rv.value == 1.0

    def test_root_sequence_is_lower_bound(self, walk_f2, f2):
        # F(e, g^n) is supermultiplicative, so F(e, g^n)^(1/n) <= r(g); the
        # restricted-ball first-passage values lie below F(e, g^n).
        g = f2.word("ab")
        rv = ratio_invariant(walk_f2, g)
        powers = [g, g * g, g * g * g]
        table = restricted_green(walk_f2, 10, sources=powers)
        e = f2.identity()
        for n, p in enumerate(powers, 1):
            root = (table.value(e, p) / table.value(p, p)) ** (1 / n)
            assert root <= rv.upper
            assert root == pytest.approx(rv.value, rel=1e-3)

    def test_class_function_product_model(self, walk_z23, z23):
        # s(st)s^-1 = ts for the order-2 generator s.
        r1 = ratio_invariant(walk_z23, z23.word("st"))
        r2 = ratio_invariant(walk_z23, z23.word("ts"))
        assert r1.value == pytest.approx(r2.value, rel=1e-12)
        assert r1.value == pytest.approx(0.5, rel=1e-12)


def _asymmetric(model, weights):
    gens = model.generators()
    return make_walk(model, [(x, w / sum(weights)) for x, w in zip(gens, weights)], 1)


# Asymmetric F_2, uniform F_3 and uniform free products, with probe words.
_CONE_CASES = [
    (_asymmetric(GroupModel.free(2), [0.35, 0.15, 0.30, 0.20]), ["a", "ab", "aBa", "aa"]),
    (uniform_walk(GroupModel.free(3), 1), ["a", "abC"]),
] + [
    (uniform_walk(GroupModel.free_product(*orders), 1), ["st", "ststst", "tts"])
    for orders in ((2, 3), (2, 4), (2, 5), (3, 3), (4, 4))
]


_CONE_PARAMS = [
    pytest.param(walk, word, id=f"{walk.model}-{word}") for walk, words in _CONE_CASES for word in words
]


class TestHoelder:
    def test_equal_points_zero(self, walk_f2, f2):
        # A ray through a cone's head has the cone's enclosure bitwise, so
        # two rays in one cone differ by exactly 0.
        g = f2.word("ab")
        rep = hoelder_probe(walk_f2, g)
        for head, enclosure in rep.cones:
            for cycle in ("ab", "ba", "AB"):
                try:
                    xi = BoundaryPoint(head=head, cycle=f2.word(cycle))
                except ValidationError:
                    continue  # the cycle cancels against the head
                est = martin_kernel(walk_f2, g, xi)
                assert (est.value, est.lower, est.upper) == enclosure

    @pytest.mark.parametrize("gword", ["a", "ab"])
    def test_tree_local_constancy(self, walk_f2, f2, gword):
        # Rays that leave the axis past |g| + 2 letters share its cone:
        # their kernels equal the axis's bitwise.
        g = f2.word(gword)
        rep = hoelder_probe(walk_f2, g)
        assert rep.depth == g.word_length() + 2
        axis = BoundaryPoint.periodic(f2.word("ab"))
        want = martin_kernel(walk_f2, g, axis)
        assert (want.value, want.lower, want.upper) in dict(rep.cones).values()
        for j in range(rep.depth, rep.depth + 4):
            letters = axis.prefix_letters(j)
            turn = -2 if letters[-1] == 1 else 2  # B after a, b after b
            eta = BoundaryPoint(head=f2.from_letters(letters + (turn,)), cycle=f2.word("a"))
            assert _prefix_product(f2, axis.prefix_letters(64), eta.prefix_letters(64)) == (j, True)
            est = martin_kernel(walk_f2, g, eta)
            assert (est.value, est.lower, est.upper) == (want.value, want.lower, want.upper)

    def test_cone_counts_and_spread(self, walk_f2, f2, walk_z23, z23):
        # F_2, g = ab: 3 cones leave at e, 2 after a, plus the cone through
        # g.  K(ab, .) runs from F(e, ab) = 1/9 to 1 / F(e, ab) = 9.
        rep = hoelder_probe(walk_f2, f2.word("ab"))
        assert [str(h) for h, _ in rep.cones] == ["A", "b", "B", "aa", "aB", "ab"]
        assert rep.n_cones == 6 and rep.local and rep.holds()
        assert rep.value_min == pytest.approx(1 / 9, rel=1e-12)
        assert rep.value_max == pytest.approx(9.0, rel=1e-12)
        # Z/2*Z/3, g = st: t and T leave at e, T after s, plus st.
        rep = hoelder_probe(walk_z23, z23.word("st"))
        assert [str(h) for h, _ in rep.cones] == ["t", "T", "sT", "st"]
        assert rep.depth == 2 + 1 + 2 and rep.holds()

    @pytest.mark.parametrize("walk,word", _CONE_PARAMS)
    def test_cone_table_matches_brute_force(self, walk, word):
        # Every word of length |g| + s + 2 lies in one departure cone, and
        # its kernel is that cone's table entry, bitwise; every cone is hit.
        g = walk.model.word(word)
        rep = hoelder_probe(walk, g)
        assert rep.holds()
        seen = brute_cone_kernels(walk, g, rep.depth)
        assert seen == {head: {enclosure} for head, enclosure in rep.cones}


class TestLivschitz:
    """The Livschitz cocycle along g^-n on uniform F_2: each step of
    K(g^-n, xi) is the same factor, so the angles T log K(g^-n, xi) move
    by a fixed step (``tests/test_properties.py`` checks this across the
    model family)."""

    def test_angles_converge_on_lattice(self, walk_f2, f2):
        # K(a^-n, b^inf) = 3^-n: at T = 2 pi / log 3 every angle is 0 mod 2 pi.
        xi = BoundaryPoint.periodic(f2.word("b"))
        T = 2 * math.pi / math.log(3)
        for n in range(1, 25):
            k = martin_kernel(walk_f2, f2.word("A" * n), xi).value
            theta = (T * math.log(k)) % (2 * math.pi)
            assert min(theta, 2 * math.pi - theta) <= 1e-9

    def test_lattice_match_bounds_steps(self, walk_f2, f2):
        # On the matched lattice the circle distance between consecutive
        # angles collapses to the numerical floor.
        xi = BoundaryPoint.periodic(f2.word("b"))
        T = 2 * math.pi / math.log(3)
        thetas = [
            (T * math.log(martin_kernel(walk_f2, f2.word("A" * n), xi).value)) % (2 * math.pi)
            for n in range(1, 25)
        ]
        steps = [abs(cur - prev) % (2 * math.pi) for prev, cur in zip(thetas, thetas[1:])]
        assert max(min(d, 2 * math.pi - d) for d in steps) <= 1e-6

    def test_mismatched_period_does_not_converge(self, walk_f2, f2):
        # At T = 1 each step turns the angle by log 3: r(a) = 1/3.
        xi = BoundaryPoint.periodic(f2.word("b"))
        a = f2.word("a")
        logs = [math.log(martin_kernel(walk_f2, f2.word("A" * n), xi).value) for n in range(1, 13)]
        for step in np.diff(logs):
            assert step == pytest.approx(math.log(ratio_invariant(walk_f2, a).value), rel=1e-12)
            assert step == pytest.approx(-math.log(3), rel=1e-12)

    def test_too_close_to_repelling_point(self, walk_f2, f2):
        # At the repelling point a^-inf the steps expand by 1 / r(a^-1) = 3
        # instead of contracting by r(a).
        a = f2.word("a")
        repelling = BoundaryPoint.periodic(a.inverse())
        expand = 1 / ratio_invariant(walk_f2, a.inverse()).value
        values = [martin_kernel(walk_f2, f2.word("A" * n), repelling).value for n in range(1, 8)]
        for prev, cur in zip(values, values[1:]):
            assert cur / prev == pytest.approx(expand, rel=1e-12)
            assert cur / prev == pytest.approx(3.0, rel=1e-12)
