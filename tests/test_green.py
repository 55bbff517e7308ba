import math
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import (
    GroupModel,
    ancona_check,
    first_passage,
    green_decay_rate,
    harnack_constant,
    make_walk,
    uniform_walk,
)
from hypwalk import _exact
from hypwalk.errors import DivergenceError

from oracles import (
    _solver,
    ball,
    ball_taboo,
    distance_chain_green,
    first_passage_set,
    last_exit,
    n_step_distributions,
    restricted_green,
)


class TestRestrictedGreen:
    def test_radius_one_value(self, walk_f2, f2):
        # Direct 5-state linear solve gives G_{B(1)}(e, e) = 4/3.
        table = restricted_green(walk_f2, 1)
        assert table.value(f2.identity(), f2.identity()) == pytest.approx(4 / 3, abs=1e-12)

    def test_diagonal_at_least_one(self, walk_z23, z23):
        table = restricted_green(walk_z23, 4, sources=[z23.word("st"), z23.word("T")])
        for x in (z23.identity(), z23.word("st"), z23.word("T")):
            assert table.value(x, x) >= 1.0

    def test_monotone_and_bounded_by_series(self, walk_f2, f2):
        # Sandwich: sum_{n <= 2r} p^(n)(e,e) <= G_{B(r)}(e,e) <= 3/2.
        _, dists = n_step_distributions(walk_f2, 12)
        partial = np.cumsum([d[0] for d in dists])
        prev = 0.0
        for r in range(1, 7):
            val = restricted_green(walk_f2, r).value(f2.identity(), f2.identity())
            assert prev < val <= 1.5 + 1e-12
            assert val >= partial[2 * r] - 1e-12
            prev = val

    @pytest.mark.parametrize(
        "model,weights",
        [
            (GroupModel.free(2), [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)]),
            (GroupModel.free_product(2, 3), None),
            (GroupModel.free_product(2, 5), None),
        ],
        ids=["f2-asym", "z23", "z25"],
    )
    def test_increasing_and_below_exact(self, model, weights):
        # G_{B(r)}(e,e) grows strictly with the ball and stays below the
        # upper end of the exact G(e,e) enclosure.
        walk = make_walk(model, weights, seed=1) if weights else uniform_walk(model, seed=1)
        e = model.identity()
        _, _, upper = _exact.green(walk, e)
        values = [restricted_green(walk, r).value(e, e) for r in (4, 5, 6)]
        assert values[0] < values[1] < values[2] < upper

    def test_against_distance_chain_oracle(self, walk_f2, f2):
        radius = 6
        oracle = distance_chain_green(2, radius)
        table = restricted_green(walk_f2, radius)
        b = table.domain
        row = table.row(f2.identity())
        for i in range(len(b)):
            assert row[i] == pytest.approx(oracle[b.lengths[i]], rel=1e-10)

    def test_domain_monotonicity(self, walk_z23, z23):
        g = z23.word("stT")
        values = [
            restricted_green(walk_z23, r).value(z23.identity(), g) for r in (5, 7, 9, 12)
        ]
        assert all(a <= b + 1e-13 for a, b in zip(values, values[1:]))

    def test_residual_recorded(self, walk_f2, f2):
        table = restricted_green(walk_f2, 3)
        assert table.residuals[table.domain.index_of(f2.identity())] < 1e-10

    def test_outside_source_is_error(self, walk_f2, f2):
        with pytest.raises(ValueError):
            restricted_green(walk_f2, 2, sources=[f2.word("aaa")])


class TestGreenEstimates:
    def test_base_value(self, walk_f2, f2):
        value, lower, upper = _exact.green(walk_f2, f2.identity())
        assert lower < 1.5 < upper
        assert value == pytest.approx(1.5, rel=1e-12)

    def test_left_invariance(self, walk_f2, f2):
        # G(g, gh) = G(e, g^-1 gh) = G(e, h).
        g, h = f2.word("aB"), f2.word("ab")
        assert _exact.green(walk_f2, g.inverse() * (g * h)) == _exact.green(walk_f2, h)

    def test_first_passage_law(self, walk_f2, f2):
        # F(e, g) = 3^{-|g|} for the simple walk.
        e = f2.identity()
        assert first_passage(walk_f2, e, e).value == 1.0
        for word in ("a", "ab", "aBa"):
            g = f2.word(word)
            est = first_passage(walk_f2, e, g)
            assert est.value * 3 ** g.word_length() == pytest.approx(1.0, rel=1e-12)
            assert est.lower < 3.0 ** -g.word_length() < est.upper

    def test_decay_slope(self, walk_f2, walk_z23):
        # The decay slope of log G(e, g) in |g| is log q: exactly -log 3
        # on uniform F_2, where q = F(e, a) = 1/3.
        rate = green_decay_rate(walk_f2)
        assert Fraction(rate.lower) <= Fraction(1, 3) <= Fraction(rate.upper)
        assert math.log(rate.value) == pytest.approx(-math.log(3), rel=1e-14)
        assert green_decay_rate(walk_z23).upper < 1.0

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_decay_rate_of_uniform_free_groups(self, rank):
        rate = green_decay_rate(uniform_walk(GroupModel.free(rank), 1))
        assert Fraction(rate.lower) <= Fraction(1, 2 * rank - 1) <= Fraction(rate.upper)
        assert rate.upper - rate.lower <= 1e-14 * rate.value

    def test_submultiplicative_bound(self, walk_f2, f2):
        e = f2.identity()
        for x_w, z_w, y_w in (("a", "ab", "abb"), ("A", "b", "ba")):
            x, z, y = f2.word(x_w), f2.word(z_w), f2.word(y_w)
            f_xz = first_passage(walk_f2, x, z).value
            g_zy = _exact.green(walk_f2, z.inverse() * y)[0]
            g_xy = _exact.green(walk_f2, x.inverse() * y)[0]
            assert f_xz * g_zy <= g_xy * (1 + 1e-9)

    def test_supermultiplicative_f(self, walk_f2, f2):
        e = f2.identity()
        g = f2.word("ab")
        f1 = first_passage(walk_f2, e, g).value
        f2v = first_passage(walk_f2, e, g * g).value
        f3 = first_passage(walk_f2, e, g * g * g).value
        assert f1 * f2v <= f3 * (1 + 1e-9)
        assert f1 * f1 <= f2v * (1 + 1e-9)


def _rel_width(est):
    return (est.upper - est.lower) / est.value


class TestTabooKernels:
    def test_point_mass_inside(self, walk_f2, f2):
        lam = [f2.word("a"), f2.word("b")]
        table = first_passage_set(walk_f2, lam, f2.word("a"))
        assert table[f2.word("a")].value == 1.0
        assert table[f2.word("b")].value == 0.0

    def test_unit_sphere_uniform(self, walk_f2, f2):
        lam = [f2.word(w) for w in ("a", "A", "b", "B")]
        table = first_passage_set(walk_f2, lam, f2.identity())
        for est in table.values():
            assert est.lower <= 0.25 <= est.upper
            assert 0 < _rel_width(est) <= 1e-12

    def test_separating_sphere_total_mass(self, walk_f2, f2):
        # The transient walk hits every separating sphere: masses sum to 1.
        b = ball(f2, 2)
        lam = [b.element(i) for i in b.sphere_indices(2)]
        table = first_passage_set(walk_f2, lam, f2.identity())
        assert sum(est.lower for est in table.values()) <= 1.0
        assert sum(est.upper for est in table.values()) >= 1.0
        for est in table.values():
            assert est.lower <= 1 / 12 <= est.upper

    def test_last_exit_symmetric(self, walk_f2, f2):
        e, a = f2.identity(), f2.word("a")
        le = last_exit(walk_f2, None, e, a)
        assert le.value == pytest.approx(first_passage(walk_f2, a, e).value, rel=1e-12)
        assert le.lower <= 1 / 3 <= le.upper
        assert _rel_width(le) <= 1e-12

    def test_last_exit_two_routes_asymmetric(self, f2):
        # L(e, a) for the set {e} is G(e, a) / G(e, e).
        spec = make_walk(f2, [("a", 0.4), ("A", 0.1), ("b", 0.25), ("B", 0.25)], seed=3)
        e, a = f2.identity(), f2.word("a")
        via_reversal = last_exit(spec, None, e, a)
        ratio = _exact.green(spec, a)[0] / _exact.green(spec, e)[0]
        assert via_reversal.lower <= ratio <= via_reversal.upper
        assert _rel_width(via_reversal) <= 1e-12

    @pytest.mark.parametrize(
        "model,weights,lam,start,radii",
        [
            (GroupModel.free(2), [("a", 0.4), ("A", 0.1), ("b", 0.25), ("B", 0.25)],
             ["ab", "B", "e", "bb", "A"], "b", (4, 6, 8)),
            # tt is in the 5-cycle of t; st, sT and TTs lie across a cut vertex.
            (GroupModel.free_product(2, 5), [("s", 0.4), ("t", 0.35), ("T", 0.25)],
             ["st", "tt", "TTs", "sT"], "t", (6, 9, 12)),
        ],
        ids=["f2-asym", "z25"],
    )
    def test_above_restricted_balls(self, model, weights, lam, start, radii):
        walk = make_walk(model, weights, seed=1)
        lam = [model.word(w) for w in lam]
        table = first_passage_set(walk, lam, model.word(start))
        oracle = [ball_taboo(walk, r, lam, model.word(start)) for r in radii]
        for j, y in enumerate(lam):
            est = table[y]
            if est.value == 0.0:
                assert est.upper == 0.0 and all(v[j] == 0.0 for v in oracle)
                continue
            assert 0 < _rel_width(est) <= 1e-12
            gaps = [est.upper - v[j] for v in oracle]
            assert 0 < gaps[2] < gaps[1] < gaps[0]
            assert gaps[2] < 1e-3 * est.value


class TestWeightedGreen:
    def test_z_one_matches_green(self, walk_f2, f2):
        # G(e, ab) = G(e, e) F(e, a)^2 = 3/2 * 1/9.
        value, lower, upper = _exact.green(walk_f2, f2.word("ab"), 1.0)
        assert lower < 1 / 6 < upper
        assert value == pytest.approx(1 / 6, rel=1e-12)

    def test_z_zero_indicator(self, walk_f2, f2):
        assert _exact.green(walk_f2, f2.identity(), 0.0)[0] == 1.0
        assert _exact.green(walk_f2, f2.word("a"), 0.0)[0] == 0.0

    @pytest.mark.parametrize("z", [0.5, 1.05, 1.15])
    def test_closed_form(self, walk_f2, f2, z):
        # Simple walk on F_2: F(z) = (1 - sqrt(1 - 3z^2/4)) / (3z/2) and
        # G(e, e | z) = 1 / (1 - z F(z)), up to 1/rho = 2/sqrt(3).
        f = (1 - np.sqrt(1 - 0.75 * z * z)) / (1.5 * z)
        exact = f / (1 - z * f)
        value, lower, upper = _exact.green(walk_f2, f2.word("a"), z)
        assert value == pytest.approx(exact, rel=1e-12)
        assert lower < exact < upper

    def test_past_inverse_spectral_radius(self, walk_f2, f2):
        with pytest.raises(DivergenceError):
            _exact.green(walk_f2, f2.word("a"), 1.16)

    def test_resolvent_identity(self, walk_f2, f2):
        # s G(v,w|s) - G(v,w) = (s-1) sum_a G(v,a|s) G(a,w) on B(e,4).
        s = 1.05
        sol1 = _solver(walk_f2, 4, 1.0, 1e-12, 3_000_000)
        sols = _solver(walk_f2, 4, s, 1e-12, 3_000_000)
        b = sol1.ball
        v, w = f2.word("ab"), f2.word("Ba")
        iv, iw = b.index_of(v), b.index_of(w)
        lhs = s * sols.row(iv)[iw] - sol1.row(iv)[iw]
        rhs = (s - 1) * float(np.dot(sols.row(iv), sol1.col(iw)))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def _ball_rho(walk, radius, x, v, y):
    """G(x,y) / (F(x,v) G(v,y)) for the walk killed on leaving B(e, radius)."""
    table = restricted_green(walk, radius, sources=[x, v])
    return table.value(x, y) / (table.value(x, v) / table.value(v, v) * table.value(v, y))


class TestAncona:
    def test_tree_exactness(self):
        # On F_N and on 2- and 3-cycles every triple has v at an end of
        # its arc, a cut vertex.
        for model in (GroupModel.free(2), GroupModel.free(3), GroupModel.free_product(2, 3),
                      GroupModel.free_product(3, 3)):
            rep = ancona_check(uniform_walk(model, seed=1))
            assert rep.value == 1.0 and rep.holds()
            assert all(rho[0] == 1.0 for _, rho in rep.triples)

    def test_lower_bound_generic(self, z25):
        walk = make_walk(z25, [("s", 0.4), ("t", 0.35), ("T", 0.25)], seed=1)
        rep = ancona_check(walk)
        assert rep.holds()
        assert all(lo <= val <= hi and hi >= 1.0 for _, (val, lo, hi) in rep.triples)
        assert rep.lower <= rep.value <= rep.upper
        # 2 triples on the 2-cycle, 2 + 3 + 3 + 2 on the 5-cycle
        assert len(rep.triples) == 12

    def test_z25_nontrivial_but_bounded(self, z25):
        rep = ancona_check(uniform_walk(z25, seed=77))
        assert rep.value == pytest.approx(1.2172300, abs=1e-7)
        assert rep.lower <= rep.value <= rep.upper < 1.2172301
        # The uniform walk's mirror triples tie exactly; the first in
        # ``_exact.ancona``'s order is reported.
        value = {tuple(map(str, triple)): rho[0] for triple, rho in rep.triples}
        assert value[("e", "t", "tt")] == value[("e", "T", "TT")] == rep.value
        assert [str(g) for g in rep.argmax] == ["e", "t", "tt"]
        assert rep.holds()

    def test_explicit_samples(self, walk_f2, f2):
        # On F_N every geodesic vertex is a cut vertex: the ball ratio is 1
        # at any radius, as the exact constant says.
        x, y = f2.word("abA"), f2.word("Bab")
        v = x * f2.from_letters((x.inverse() * y).letters()[:3])  # 3 steps along x -> y
        assert _ball_rho(walk_f2, 6, x, v, y) == pytest.approx(1.0, abs=1e-9)
        assert ancona_check(walk_f2).value == 1.0

    def test_against_the_ball_oracle(self, z25):
        # The restricted-ball ratio at the arg-max triple overshoots and
        # falls to the exact constant as the ball grows.
        walk = uniform_walk(z25, seed=1)
        rep = ancona_check(walk)
        rhos = [_ball_rho(walk, r, *rep.argmax) for r in (8, 10, 12)]
        assert rhos[0] > rhos[1] > rhos[2] > rep.value
        assert rhos[2] - rep.value < 1e-4

    def test_cycle_triples_cover_their_arcs(self):
        # Z/4: s^2 is antipodal with two arcs; every arc vertex is listed once.
        model = GroupModel.free_product(2, 4)
        rep = ancona_check(uniform_walk(model, seed=1))
        triples = {(str(v), str(c2)) for (_, v, c2), _ in rep.triples}
        assert len(triples) == len(rep.triples)
        assert {("t", "tt"), ("T", "tt")} <= triples


class TestHarnack:
    def test_constant_value(self, walk_f2, walk_z23):
        assert harnack_constant(walk_f2) == pytest.approx(4.0)
        assert harnack_constant(walk_z23) == pytest.approx(3.0)

    def test_one_step_is_the_weight(self, f2):
        # K = 1: the constant is 1 / min mu(s), bit for bit.
        walk = make_walk(f2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], seed=1)
        assert harnack_constant(walk) == 1.0 / 0.15

    @pytest.mark.parametrize("orders,weights", [
        ((2, 5), [("s", 0.5), ("t", 0.5)]),
        ((3, 4), [("S", 0.3), ("t", 0.45), ("T", 0.25)]),
    ])
    def test_against_step_distributions(self, orders, weights):
        # A letter off the support is reached in more than one step.
        model = GroupModel.free_product(*orders)
        walk = make_walk(model, weights, seed=1)
        b, dists = n_step_distributions(walk, 6)
        gens = model.generators()
        for k in range(1, 7):
            best = [max(float(vec[b.index_of(g)]) for vec in dists[1:k + 1]) for g in gens]
            if all(v > 0 for v in best):
                break
        assert harnack_constant(walk) == pytest.approx(max(1 / v for v in best), rel=1e-12)

    def test_unit_step_inequality(self, walk_f2, f2):
        c1 = harnack_constant(walk_f2)
        table = restricted_green(walk_f2, 6)
        b = table.domain
        w = f2.word("ab")
        col = table.column(w)
        tables = b.step_tables()
        for letter, step in tables.items():
            for i in range(0, len(b), 17):
                j = step[i]
                if j >= 0:
                    assert col[j] <= c1 * col[i] * (1 + 1e-9)
