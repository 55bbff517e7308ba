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
    limit_gromov,
    livschitz_coboundary,
    make_walk,
    martin_kernel,
    martin_kernel_at,
    ratio_invariant,
    uniform_walk,
)
from hypwalk.errors import ValidationError

from oracles import restricted_green


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
        pt = BoundaryPoint(head=f2.word("ab"), cycle=f2.identity())
        assert pt.max_depth() == 2
        with pytest.raises(ValidationError):
            pt.prefix_letters(3)

    def test_limit_gromov_tree(self, f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        eta = BoundaryPoint(head=f2.word("aab"), cycle=f2.word("a"))
        value, stabilized = limit_gromov(xi, eta)
        assert stabilized and value == 2


RAY_MODELS = [(0, 2), (0, 3), (2, 3), (2, 5), (3, 3), (4, 4), (3, 7), (2, 20)]


def _model(spec):
    m, n = spec
    return GroupModel.free(n) if m == 0 else GroupModel.free_product(m, n)


def _random_syllables(model, rng, n_letters, start=()):
    """Normal-form syllables continuing ``start`` to at least n_letters letters."""
    syls = list(start)
    n_ids = model.n_letter_ids()
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
            a = BoundaryPoint(head=model.from_letters(la), cycle=model.identity())
            b = BoundaryPoint(head=model.from_letters(lb), cycle=model.identity())
            value, exact = limit_gromov(a, b)
            assert exact
            assert value == gromov_product(model.from_letters(la), model.from_letters(lb))

    def test_in_cycle_split(self):
        # t^2 and t^3 = T^2 leave the 5-cycle at adjacent vertices.
        model = GroupModel.free_product(2, 5)
        a = BoundaryPoint(head=model.word("tt"), cycle=model.word("st"))
        b = BoundaryPoint(head=model.word("TT"), cycle=model.word("st"))
        assert limit_gromov(a, b) == (Fraction(3, 2), True)
        assert model.split_span == 2 and GroupModel.free(2).split_span == 0

    def test_short_frozen_point_is_a_lower_bound(self):
        model = GroupModel.free_product(2, 5)
        a = BoundaryPoint(head=model.word("tt"), cycle=model.identity())
        b = BoundaryPoint(head=model.word("TT"), cycle=model.word("st"))
        value, exact = limit_gromov(a, b)
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
            rk = ratio_invariant(walk_f2, f2.word("a") ** k).value
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
        powers = [g**n for n in (1, 2, 3)]
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


class TestHoelder:
    def test_equal_points_zero(self, walk_f2, f2):
        xi = BoundaryPoint.periodic(f2.word("ab"))
        rep = hoelder_probe(walk_f2, f2.word("a"), [(xi, xi)])
        assert rep.pairs[0].difference == 0.0
        assert rep.pairs[0].exact_zero

    @pytest.mark.parametrize("gword", ["a", "ab"])
    def test_tree_local_constancy(self, walk_f2, f2, gword):
        from hypwalk.report import _diverging_point

        g = f2.word(gword)
        axis = BoundaryPoint.periodic(f2.word("ab"))
        pairs = []
        for j in range(g.word_length() + 2, g.word_length() + 6):
            pairs.append((axis, _diverging_point(f2, axis, j)))
        rep = hoelder_probe(walk_f2, g, pairs)
        for pair in rep.pairs:
            assert pair.product >= g.word_length() + 2
            assert pair.difference <= 1e-6

    def test_product_model_negative_slope(self, walk_z23, z23):
        from hypwalk.report import _hoelder_pairs

        g = z23.word("st") ** 3
        pairs = _hoelder_pairs(z23, g.word_length())
        rep = hoelder_probe(walk_z23, g, pairs)
        live = [p for p in rep.pairs if not p.exact_zero]
        assert len(live) >= 3
        assert rep.slope < 0


class TestLivschitz:
    def test_angles_converge_on_lattice(self, walk_f2, f2):
        xi = BoundaryPoint.periodic(f2.word("b"))
        rep = livschitz_coboundary(
            walk_f2, f2.word("a"), xi, T=2 * math.pi / math.log(3)
        )
        assert rep.converged
        # every theta is a multiple of 2 pi up to kernel error
        for theta in rep.thetas:
            assert min(theta, 2 * math.pi - theta) <= 1e-2
        assert all(d <= 1e-2 for d in rep.step_distances)

    def test_finite_order_rejected(self, walk_z23, z23):
        xi = BoundaryPoint.periodic(z23.word("st"))
        with pytest.raises(ValidationError):
            livschitz_coboundary(walk_z23, z23.word("s"), xi, T=1.0)

    def test_too_close_to_repelling_point(self, walk_f2, f2):
        a = f2.word("a")
        near_minus = BoundaryPoint(head=a.inverse() ** 9, cycle=f2.word("B"))
        with pytest.raises(ValidationError):
            livschitz_coboundary(walk_f2, a, near_minus, T=1.0)

    def test_lattice_match_bounds_steps(self, walk_f2, f2):
        # On the matched lattice the step distances collapse to the
        # numerical floor: the geometric bound holds with a tiny constant.
        xi = BoundaryPoint.periodic(f2.word("b"))
        rep = livschitz_coboundary(
            walk_f2, f2.word("a"), xi, T=2 * math.pi / math.log(3)
        )
        assert max(rep.step_distances) <= 1e-6

    def test_mismatched_period_does_not_converge(self, walk_f2, f2):
        # With an unmatched winding speed the angles rotate by a fixed
        # amount each step and the diagnostics must say so.
        xi = BoundaryPoint.periodic(f2.word("b"))
        rep = livschitz_coboundary(walk_f2, f2.word("a"), xi, T=1.0, converge_tol=1e-2)
        assert not rep.converged
        for d in rep.step_distances:
            assert d == pytest.approx(math.log(3), abs=1e-3)
