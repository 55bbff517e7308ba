from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk import (
    BoundaryPoint,
    Cylinder,
    GroupModel,
    SampleSet,
    gromov_product,
    estimate_measure,
    gibbs_ratio,
    make_walk,
    radon_nikodym_check,
    uniform_walk,
)
from hypwalk.errors import IndeterminateMembership, ValidationError
from hypwalk.martin import _prefix_product, martin_kernel_at
from hypwalk.measure import (
    _classes,
    _prefix_membership,
    _rn_references,
    _rn_samples,
    _translated_membership,
    boundary_sample_set,
    gibbs_margin,
    measure_margin,
    rn_check_margin,
)

from oracles import (
    binomial_band,
    class_key,
    cone_measure,
    free_cone_mass,
    free_first_passage,
    per_sample_gibbs_hits,
    per_sample_rn_check,
    prefix_tuples,
)
from test_properties import MODELS


def cone(point, radius=0):
    return Cylinder.around(point, radius)


def draw(walk, n, margin, purpose):
    return SampleSet.draw(walk, n, margin, 20, 20_000, purpose)


@pytest.fixture(scope="module")
def shared_f2(walk_f2):
    """40,000 samples of margin 10, as deep as every F_2 reader below needs."""
    return draw(walk_f2, 40_000, 10, "unit-shared")


class TestMembership:
    def test_base_point_in_own_cylinder(self, f2):
        xi = BoundaryPoint.periodic(f2.word("ab"))
        for R in range(0, 4):
            cyl = Cylinder.around(xi, R)
            assert _prefix_membership(xi.prefix_letters(cyl.depth), cyl, f2)

    def test_tree_prefix_rules(self, f2):
        ab = BoundaryPoint.periodic(f2.word("ab"))
        abab_then_b = BoundaryPoint(head=f2.word("abab"), cycle=f2.word("b"))
        b_ray = BoundaryPoint.periodic(f2.word("b"))
        cyl = Cylinder.around(ab, 1)
        assert _prefix_membership(abab_then_b.prefix_letters(cyl.depth), cyl, f2)
        assert not _prefix_membership(b_ray.prefix_letters(cyl.depth), cyl, f2)

    def test_sandwich_sharp_on_trees(self, f2):
        # On trees both directions of the product sandwich are exact.
        xi = BoundaryPoint.periodic(f2.word("a"))
        for head, cyc in (("aa", "b"), ("aaa", "ab"), ("b", "a")):
            eta = BoundaryPoint(head=f2.word(head), cycle=f2.word(cyc))
            prod, stab = _prefix_product(f2, xi.prefix_letters(64), eta.prefix_letters(64))
            assert stab
            for R in range(0, 4):
                cyl = Cylinder.around(xi, R)
                inside = _prefix_membership(eta.prefix_letters(cyl.depth), cyl, f2)
                assert inside == (prod > R)

    def test_nesting(self, f2):
        # eta in U(xi, R + delta) implies U(xi, R + delta) subset U(eta, R);
        # delta-hat is 0 on the tree.
        xi = BoundaryPoint.periodic(f2.word("ab"))
        eta = BoundaryPoint(head=f2.word("ababab"), cycle=f2.word("a"))
        R = 2
        around_xi, around_eta = Cylinder.around(xi, R), Cylinder.around(eta, R)
        depth = around_xi.depth
        assert _prefix_membership(eta.prefix_letters(depth), around_xi, f2)
        probes = [
            BoundaryPoint(head=f2.word("abab"), cycle=f2.word("ba")),
            BoundaryPoint(head=f2.word("ababa"), cycle=f2.word("b")),
            BoundaryPoint.periodic(f2.word("b")),
        ]
        for zeta in probes:
            if _prefix_membership(zeta.prefix_letters(depth), around_xi, f2):
                assert _prefix_membership(zeta.prefix_letters(depth), around_eta, f2)


_AXES = {"free": ("ab", "Ba"), "free_product": ("st", "Ts")}


class TestExactMembership:
    def test_z25_first_letter_cylinders(self, z25):
        # Every sampled prefix is decided against every first-letter
        # cylinder U(xi, 0).  It lies in its own letter's cylinder, and a
        # first syllable t^2 or t^3 = T^2 also reaches the opposite
        # direction's: it leaves the 5-cycle next to that ray's exit.
        walk = uniform_walk(z25, seed=1)
        prefixes, _, _ = boundary_sample_set(walk, 2000, 10, 20, 20_000, "unit-z25-cones")
        cones = {
            letter: cone(BoundaryPoint.periodic(z25.word(word)))
            for letter, word in ((1, "st"), (2, "ts"), (-2, "Ts"))
        }
        for letters in prefix_tuples(prefixes):
            inside = {x for x, cyl in cones.items() if _prefix_membership(letters, cyl, z25)}
            assert letters[0] in inside
            half_way = z25.from_letters(letters).syllables[0] in ((2, 2), (2, 3))
            assert len(inside) == (2 if half_way else 1)

    @pytest.mark.parametrize("orders", [None, (2, 5), (3, 7)])
    def test_translated_membership_brute_force(self, orders):
        # g . eta against U(xi, R), decided from a short translated prefix,
        # agrees with the product of the whole translated 40-letter prefix.
        model = GroupModel.free(2) if orders is None else GroupModel.free_product(*orders)
        walk = uniform_walk(model, seed=3)
        prefixes, _, _ = boundary_sample_set(walk, 150, 40, 20, 20_000, "unit-translate")
        gens = model.generators()
        elems = [model.identity()] + [x * y for x in gens for y in gens] + list(gens)
        bases = [BoundaryPoint.periodic(model.word(w)) for w in _AXES[model.kind]]
        for i, letters in enumerate(prefix_tuples(prefixes)):
            g = elems[i % len(elems)]
            z = g * model.from_letters(letters)
            for base in bases:
                for R in range(4):
                    cyl = Cylinder.around(base, R)
                    brute = gromov_product(z, base.prefix(z.word_length())) > R
                    assert _translated_membership(g, letters, cyl, model) == brute


class TestEstimateMeasure:
    def test_first_letter_cones(self, walk_f2, f2, shared_f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        est = estimate_measure(walk_f2, cone(xi), shared_f2)
        assert abs(est.value - 0.25) <= est.half_width
        assert est.half_width == pytest.approx(
            3 * np.sqrt(est.value * (1 - est.value) / est.n_samples)
        )

    def test_cones_partition(self, walk_f2, f2, shared_f2):
        total = 0.0
        for w in ("a", "A", "b", "B"):
            xi = BoundaryPoint.periodic(f2.word(w))
            est = estimate_measure(walk_f2, cone(xi), shared_f2)
            total += est.value
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_depth_two_cylinder(self, walk_f2, f2, shared_f2):
        # nu(U(aaa..., 2)) = cone measure at depth 3 for the tree.
        xi = BoundaryPoint.periodic(f2.word("a"))
        est = estimate_measure(walk_f2, Cylinder.around(xi, 2), shared_f2)
        target = cone_measure(2, 3)
        assert abs(est.value - target) <= est.half_width

    def test_monotone_in_radius(self, walk_f2, f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        samples = draw(walk_f2, 20_000, 10, "unit-mono")
        values = []
        for R in (0, 1, 2, 3):
            est = estimate_measure(walk_f2, Cylinder.around(xi, R), samples)
            values.append(est.value)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic(self, walk_f2, f2):
        xi = BoundaryPoint.periodic(f2.word("b"))
        e1 = estimate_measure(walk_f2, cone(xi), draw(walk_f2, 2000, 10, "unit-det"))
        e2 = estimate_measure(walk_f2, cone(xi), draw(walk_f2, 2000, 10, "unit-det"))
        assert e1.value == e2.value


class TestExactConeMass:
    def test_oracle_closed_form(self, walk_f2):
        F = free_first_passage(walk_f2)
        assert all(v == pytest.approx(1 / 3, rel=1e-14) for v in F.values())
        for n in (1, 2, 3):
            assert free_cone_mass(F, (1, -2, -2)[:n]) == pytest.approx(cone_measure(2, n), rel=1e-14)

    def test_asymmetric_f2(self, f2):
        walk = make_walk(f2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], seed=11)
        F = free_first_passage(walk)
        samples = draw(walk, 20_000, 10, "unit-cone-exact")
        for w in ("a", "A", "b", "B", "ab", "Ba", "bb", "AB", "abA", "BAb", "aaa", "bAB"):
            word = f2.word(w)
            xi = BoundaryPoint(head=word, cycle=f2.word(w[-1]))
            cyl = Cylinder.around(xi, len(w) - 1)
            est = estimate_measure(walk, cyl, samples)
            target = free_cone_mass(F, word.letters())
            assert abs(est.value - target) <= binomial_band(target, est.n_samples)


class TestGibbs:
    def test_f2_flat_quarter(self, walk_f2, f2, shared_f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        rep = gibbs_ratio(walk_f2, xi, [1, 2, 3, 4], shared_f2)
        for row in rep.rows:
            assert row.ratio_lower <= 0.25 <= row.ratio_upper
            assert row.ratio > 0
        assert rep.ratio_min > 0.2 and rep.ratio_max < 0.3

    def test_z23_envelope_finite(self, walk_z23, z23):
        xi = BoundaryPoint.periodic(z23.word("st"))
        samples = draw(walk_z23, 20_000, gibbs_margin(xi, [1, 2, 3]), "unit-gibbs-z")
        rep = gibbs_ratio(walk_z23, xi, [1, 2, 3], samples)
        assert np.isfinite(rep.ratio_max) and rep.ratio_min > 0

    @pytest.mark.parametrize("orders, axis", [((2, 5), "tts"), ((3, 7), "tttS")])
    def test_rows_match_membership_per_radius(self, orders, axis):
        # One product at the deepest radius decides every radius as the
        # per-radius membership does, also where rays split inside a cycle.
        model = GroupModel.free_product(*orders)
        walk = uniform_walk(model, seed=4)
        xi = BoundaryPoint.periodic(model.word(axis))
        radii = [1, 2, 3, 5]
        samples = draw(walk, 3000, gibbs_margin(xi, radii), "unit-gibbs-rows")
        rep = gibbs_ratio(walk, xi, radii, samples)
        values = []
        for R, row in zip(radii, rep.rows):
            est = estimate_measure(walk, Cylinder.around(xi, R), samples)
            assert (row.nu, row.nu_half) == (est.value, est.half_width)
            values.append(est.value)
        assert values[0] > values[-1] > 0

    def test_radius_validation(self, walk_f2, f2, shared_f2):
        xi = BoundaryPoint.periodic(f2.word("a"))
        with pytest.raises(ValidationError):
            gibbs_ratio(walk_f2, xi, [0, 1], shared_f2)


class TestRadonNikodym:
    def test_identity_element(self, walk_f2, f2, shared_f2):
        xi = BoundaryPoint.periodic(f2.word("b"))
        rep = radon_nikodym_check(walk_f2, f2.identity(), cone(xi), shared_f2)
        assert rep.pulled_mass == rep.kernel_integral == pytest.approx(
            rep.pulled_mass
        )
        assert rep.agree

    def test_pull_into_smaller_cone(self, walk_f2, f2, shared_f2):
        # g = a, U = cone(b): nu(a^-1 U) = nu(cone(ab-prefix)) = 1/12 and
        # the kernel integral is (1/3) nu(U).
        cyl = cone(BoundaryPoint.periodic(f2.word("b")))
        rep = radon_nikodym_check(walk_f2, f2.word("a"), cyl, shared_f2)
        assert rep.agree
        assert abs(rep.pulled_mass - 1 / 12) <= rep.pulled_half
        assert abs(rep.kernel_integral - 1 / 12) <= rep.kernel_half
        margin = max(10, cyl.depth + 1 + 4)
        _, _, steps = boundary_sample_set(walk_f2, 40_000, margin, 20, 20_000, "unit-shared")
        assert rep.n_steps == steps

    def test_too_few_samples(self, walk_f2, f2):
        with pytest.raises(ValidationError, match="at least 2 samples"):
            radon_nikodym_check(
                walk_f2, f2.word("a"), cone(BoundaryPoint.periodic(f2.word("b"))),
                draw(walk_f2, 1, 10, "unit-one"),
            )

    def test_pull_into_larger_set(self, walk_f2, f2, shared_f2):
        # g = a, U = cone(a): a^-1 U covers everything except cone(A...)
        # below depth 2; the kernel integral must match the pulled mass.
        rep = radon_nikodym_check(
            walk_f2, f2.word("a"), cone(BoundaryPoint.periodic(f2.word("a"))), shared_f2
        )
        assert rep.agree
        # brute cone decomposition: a^-1 cone(a) misses cone(AB), cone(Ab)
        # and cone(AA) at depth 2, keeping everything else.
        target = 1.0 - 3 * cone_measure(2, 2)
        assert abs(rep.pulled_mass - target) <= rep.pulled_half + 1e-3


def test_a_set_one_letter_short_is_refused():
    # Each reader names the margin it needs and refuses a shallower set.
    # On uniform Z/3*Z/7 the run's gibbs needs 11 and rn-check 10.
    model = GroupModel.free_product(3, 7)
    walk = uniform_walk(model, seed=2)
    xi = BoundaryPoint.periodic(model.word("st"))
    g = model.word("s")
    cyl = cone(BoundaryPoint.periodic(model.word("ts")))
    radii = [1, 2, 3, 4, 5]
    deep = Cylinder.around(xi, 5)
    readers = {
        "gibbs_ratio": (gibbs_margin(xi, radii), lambda s: gibbs_ratio(walk, xi, radii, s)),
        "radon_nikodym_check": (rn_check_margin(g, cyl),
                                lambda s: radon_nikodym_check(walk, g, cyl, s)),
        "estimate_measure": (measure_margin(deep), lambda s: estimate_measure(walk, deep, s)),
    }
    assert {name: need for name, (need, _) in readers.items()} == {
        "gibbs_ratio": 11, "radon_nikodym_check": 10, "estimate_measure": 11,
    }
    for name, (need, read) in readers.items():
        assert read(draw(walk, 200, need, "unit-short")).n_samples == 200
        with pytest.raises(ValidationError, match=f"{name} needs a sample set of margin {need}"):
            read(draw(walk, 200, need - 1, "unit-short"))


# Walks of the grouped-decision oracle test: model and weights (None: uniform).
_GROUPED_WALKS = {
    "asym-f2": (GroupModel.free(2), [0.35, 0.15, 0.30, 0.20]),
    "f3": (GroupModel.free(3), None),
    "asym-z23": (GroupModel.free_product(2, 3), [0.5, 0.3, 0.2]),
    "z25": (GroupModel.free_product(2, 5), None),
    "z37": (GroupModel.free_product(3, 7), None),
}
# Elements of length 1-3.  The first letter of the base ray cancels
# against g^-1 in g^-1 y for the first, and against g in g . eta for the
# other two.
_GROUPED_G = {"free": ("a", "bA", "abA"), "free_product": ("s", "tS", "stS")}


def _oracle_classes(tuples, width, refs, model):
    """The rows' classes by ``oracles.class_key``: each class's head (its
    first row's) and count."""
    heads, counts = {}, Counter()
    for letters in tuples:
        key = class_key(letters, width, refs, model)
        heads.setdefault(key, letters[:width])
        counts[key] += 1
    return {heads[key]: counts[key] for key in heads}


def _row_values(tuples, g, cyl, model, values):
    """Each row's value in the class order of ``_classes`` against
    rn-check's references: its class's, the class found by
    ``oracles.class_key`` and named by the head of its first row."""
    width, refs = _rn_references(g, cyl)
    heads, counts = _classes(np.array([letters[:width] for letters in tuples], dtype=np.int8),
                             width, refs, model)
    assert dict(zip(heads, counts)) == _oracle_classes(tuples, width, refs, model)
    first = {}
    for letters in tuples:
        first.setdefault(class_key(letters, width, refs, model), letters[:width])
    value = dict(zip(heads, values))
    return np.array([value[first[class_key(letters, width, refs, model)]] for letters in tuples])


class TestGroupedDecisions:
    """Each class of rows is decided once; the per-sample loops of
    ``tests/oracles.py``, fed the prefixes as tuples, must give bitwise
    the same answers, and ``oracles.class_key`` the same classes."""

    N = 300

    @pytest.fixture(params=sorted(_GROUPED_WALKS))
    def case(self, request):
        model, weights = _GROUPED_WALKS[request.param]
        if weights is None:
            walk = uniform_walk(model, seed=5)
        else:
            walk = make_walk(model, list(zip(model.generators(), weights)), seed=5)
        xi = BoundaryPoint.periodic(model.word(_AXES[model.kind][0]))
        return walk, xi

    def test_gibbs_and_measure_hits(self, case):
        walk, xi = case
        model = walk.model
        radii = [1, 2, 3]
        deepest = Cylinder.around(xi, 3)
        samples = draw(walk, self.N, gibbs_margin(xi, radii), "unit-grouped-gibbs")
        rep = gibbs_ratio(walk, xi, radii, samples)
        prefixes, retries, steps = boundary_sample_set(
            walk, self.N, gibbs_margin(xi, radii), 20, 20_000, "unit-grouped-gibbs"
        )
        tuples = prefix_tuples(prefixes)
        hits = per_sample_gibbs_hits(tuples, xi, radii, model)
        assert [row.nu for row in rep.rows] == [h / self.N for h in hits]
        assert rep.n_retries == retries
        assert rep.n_steps == steps
        ray = xi.prefix_letters(deepest.depth)
        assert rep.n_classes == len(_oracle_classes(tuples, deepest.depth, [ray], model))
        assert rep.n_classes < len({letters[: deepest.depth] for letters in tuples})
        for R in range(4):
            est = estimate_measure(walk, Cylinder.around(xi, R), samples)
            assert est.value == per_sample_gibbs_hits(tuples, xi, [R], model)[0] / self.N

    def test_heads_match_tuple_counts(self, case):
        # Each class's head is its first row's and its count the oracle's,
        # against one reference and against four, windows of 1 to 12.
        walk, xi = case
        model = walk.model
        prefixes, _, _ = boundary_sample_set(walk, self.N, 12, 20, 20_000, "unit-grouped-heads")
        tuples = prefix_tuples(prefixes)
        g = model.word(_GROUPED_G[model.kind][1])
        for width in (1, 3, 7, 12):
            ray = xi.prefix_letters(width)
            pulled = (g.inverse() * xi.prefix(width + 8)).letters()[:width]
            for refs in ([ray], [ray, g.letters(), g.inverse().letters(), pulled]):
                heads, counts = _classes(prefixes, width, refs, model)
                assert sum(counts) == self.N
                assert dict(zip(heads, counts)) == _oracle_classes(tuples, width, refs, model)

    def test_rn_check_per_sample(self, case):
        # Each sample's class value is bitwise the per-sample oracle's, and
        # the integral is the correctly rounded mean of those values.
        walk, xi = case
        model = walk.model
        prefixes, _, _ = boundary_sample_set(walk, self.N, 16, 20, 20_000, "unit-grouped-rn")
        samples = SampleSet(prefixes=prefixes, margin=16, n_retries=0, n_steps=0)
        tuples = prefix_tuples(prefixes)
        grouped = False
        for word in _GROUPED_G[model.kind]:
            g = model.word(word)
            assert g.word_length() == len(word)
            for R in range(4):
                cyl = Cylinder.around(xi, R)
                pulled, kernel, _ = _rn_samples(walk, g, cyl, prefixes)
                want_pulled, want_vals = per_sample_rn_check(walk, g, cyl, tuples, samples.margin)
                assert pulled == want_pulled
                vals = _row_values(tuples, g, cyl, model, kernel)
                assert vals.tobytes() == want_vals.tobytes()
                grouped |= len(kernel) < len(prefixes) and 0 < np.count_nonzero(vals)
                rep = radon_nikodym_check(walk, g, cyl, samples)
                assert rep.kernel_integral == float(sum(map(Fraction, want_vals.tolist())) / self.N)
                assert rep.n_classes == len(kernel)
        assert grouped


_BIG_MODELS = [GroupModel.free_product(20, 21), GroupModel.free_product(120, 119)]
# Elements whose letters merge with the base rays' first syllables, or
# run along them, on every model of MODELS.
_CLASS_G = {"free": ("a", "bA", "abA", "BBa"), "free_product": ("s", "tS", "stS", "TTs")}


@pytest.mark.parametrize("model", MODELS + _BIG_MODELS, ids=str)
def test_class_decisions_match_the_per_sample_oracles(model):
    # Per class: gibbs and measure hits, pulled hits and each row's kernel
    # value, against the per-sample loops, bitwise.
    walk = uniform_walk(model, seed=6)
    n, radii = 120, [1, 2, 3]
    xi, base = (BoundaryPoint.periodic(model.word(w)) for w in _AXES[model.kind])
    elements = [model.word(w) for w in _CLASS_G[model.kind]]
    cylinders = [Cylinder.around(p, R) for p in (xi, base) for R in (0, 2)]
    needs = [rn_check_margin(g, c) for g in elements for c in cylinders]
    margin = max(needs + [gibbs_margin(xi, radii)])
    samples = draw(walk, n, margin, "unit-class-oracle")
    tuples = prefix_tuples(samples.prefixes)
    rep = gibbs_ratio(walk, xi, radii, samples)
    assert [row.nu * n for row in rep.rows] == per_sample_gibbs_hits(tuples, xi, radii, model)
    for g in elements:
        for cyl in cylinders:
            pulled, kernel, _ = _rn_samples(walk, g, cyl, samples.prefixes)
            want_pulled, want_vals = per_sample_rn_check(walk, g, cyl, tuples, margin)
            assert pulled == want_pulled
            assert _row_values(tuples, g, cyl, model, kernel).tobytes() == want_vals.tobytes()


def test_classes_on_long_cycles_are_few():
    # Every 66-letter head of 2,000 uniform Z/120*Z/119 samples is distinct;
    # their classes against the run's references are a few hundred.
    model = GroupModel.free_product(120, 119)
    walk = uniform_walk(model, seed=1)
    xi = BoundaryPoint.periodic(model.word("st"))
    g, cyl = model.word("s"), Cylinder.around(BoundaryPoint.periodic(model.word("Ts")), 0)
    radii = [1, 2, 3, 4, 5]
    samples = draw(walk, 2000, max(gibbs_margin(xi, radii), rn_check_margin(g, cyl)), "unit-few")
    deepest = Cylinder.around(xi, 5)
    assert len({row[: deepest.depth] for row in prefix_tuples(samples.prefixes)}) == 2000
    assert gibbs_ratio(walk, xi, radii, samples).n_classes <= 300
    assert radon_nikodym_check(walk, g, cyl, samples).n_classes <= 300


def _decisions(walk, g, cyl, letters):
    """Every decision the readers make on one row, an undecided
    membership as the exception's type."""
    model = walk.model

    def outcome(decide, *args):
        try:
            return decide(*args)
        except IndeterminateMembership as err:
            return type(err)

    inside = outcome(_prefix_membership, letters, cyl, model)
    return (
        _prefix_product(model, letters[:cyl.depth], cyl.base.prefix_letters(cyl.depth)),
        inside,
        outcome(_translated_membership, g, letters, cyl, model),
        martin_kernel_at(walk, g, model.from_letters(letters)).value if inside is True else 0.0,
    )


@st.composite
def class_cases(draw):
    """A uniform walk, an element g, a cylinder U(xi, R) and rows that
    follow the rays of xi and g^-1 xi, or the letters of g or g^-1, for a
    while: each row is one's first K letters extended by a few letters at
    random, as a canonical word, then to past rn-check's window.  g often
    begins along xi's ray, so that rows in U leave g at every depth."""
    model = draw(st.sampled_from(MODELS + _BIG_MODELS[:1]))
    letters = [x.letters()[0] for x in model.generators()]
    xi = BoundaryPoint.periodic(model.word(draw(st.sampled_from(_AXES[model.kind]))))
    along = xi.prefix_letters(draw(st.integers(0, 4)))
    off = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4))
    g = model.from_letters(along + tuple(off))
    cyl = Cylinder.around(xi, draw(st.integers(0, 2)))
    width = cyl.depth + g.word_length() + 2
    pulled = (g.inverse() * xi.prefix(2 * width + 8)).letters()[: width + 4]
    sources = [xi.prefix_letters(width + 4), g.letters(), g.inverse().letters(), pulled]
    rows = []
    for _ in range(draw(st.integers(2, 24))):
        ref = draw(st.sampled_from(sources))
        h = model.from_letters(ref[: draw(st.integers(0, len(ref)))])
        tail = draw(st.lists(st.sampled_from(letters), max_size=6)) + letters * (width + 2)
        for x in tail:
            if h.word_length() > width + 1:
                break
            step = h * model.letter_element(x)
            if step.word_length() > h.word_length():
                h = step
        rows.append(h.letters())
    return uniform_walk(model, seed=1), g, cyl, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(class_cases())
def test_rows_of_one_class_get_equal_decisions(case):
    # The classes are the oracle's, and each decision is one per class,
    # on every row's whole letters: the product and membership of
    # gibbs and estimate_measure per class against xi's ray, and all
    # four of rn-check per class against its references.
    walk, g, cyl, rows = case
    model = walk.model
    block = np.zeros((len(rows), max(map(len, rows))), dtype=np.int8)
    for i, row in enumerate(rows):
        block[i, :len(row)] = row
    decisions = [_decisions(walk, g, cyl, row) for row in rows]
    width, refs = _rn_references(g, cyl)
    for w, r, read in ((width, refs, 4), (cyl.depth, [cyl.base.prefix_letters(cyl.depth)], 2)):
        heads, counts = _classes(block, w, r, model)
        assert dict(zip(heads, counts)) == _oracle_classes(rows, w, r, model)
        decided = {}
        for row, made in zip(rows, decisions):
            assert decided.setdefault(class_key(row, w, r, model), made[:read]) == made[:read]
