"""The certified ratio-set verdict from the finite generator set."""

import importlib
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypwalk import (
    GroupElement, GroupModel, RatioValue, classify, first_passage, make_walk, ratio_invariant,
    uniform_walk, validate_walk,
)
from hypwalk.classify import _orbit_keys, _simplest, _verdict, generators

from oracles import classify_by_products, orbit_keys_by_maps
from test_properties import MODELS

ASYM_F2 = [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)]
ASYM_Z23 = [("s", 0.5), ("t", 0.35), ("T", 0.15)]
ASYM_Z37 = [("s", 0.3), ("S", 0.2), ("t", 0.3), ("T", 0.2)]


@pytest.mark.parametrize(
    "model,label",
    [
        (GroupModel.free(2), "1/3"),
        (GroupModel.free(3), "1/5"),
        (GroupModel.free(4), "1/7"),
        (GroupModel.free_product(2, 3), "1/2"),
        (GroupModel.free_product(3, 3), "1/4"),
    ],
)
def test_uniform_walks_are_lattices_by_symmetry(model, label):
    rep = classify(uniform_walk(model, seed=1))
    assert rep.classification == f"III_{label}" and rep.lattice
    assert rep.relation == "symmetry" and rep.height == 1 and len(rep.generators) == 1
    assert rep.lam_lower <= float(Fraction(label)) <= rep.lam_upper
    assert rep.lam_lower <= rep.lam <= rep.lam_upper and rep.lam_floor is None
    assert [v.element for v in rep.values] == generators(model)


@pytest.mark.parametrize(
    "model,support",
    [
        (GroupModel.free(2), ASYM_F2),
        (GroupModel.free_product(2, 3), ASYM_Z23),
        (GroupModel.free_product(2, 5), None),
        (GroupModel.free_product(3, 7), None),
        (GroupModel.free_product(7, 7), None),
    ],
)
def test_asymmetric_ratios_are_iii_1(model, support):
    walk = uniform_walk(model, 1) if support is None else make_walk(model, support, 1)
    rep = classify(walk)
    assert rep.classification == "III_1" and not rep.lattice
    assert rep.lam is None and rep.relation is None
    assert 0.0 < rep.lam_floor < 1.0
    assert len(rep.values) == len(generators(model))


def _enclosure(model, value):
    return RatioValue(model.word("a"), value, value * (1 - 1e-13), value * (1 + 1e-13), False)


def test_height_relation_on_synthetic_enclosures():
    # l(1/2) / l(1/8) = 1/3: a relation of height 3, lambda = 1/2.
    model = GroupModel.free(2)
    rep = _verdict(model, (), [_enclosure(model, 0.5), _enclosure(model, 0.125)])
    assert rep.classification == "III_1/2"
    assert rep.relation == "height" and rep.height == 3
    assert rep.lam_lower <= 0.5 <= rep.lam_upper


def test_unrelated_synthetic_enclosures_are_iii_1():
    model = GroupModel.free(2)
    rep = _verdict(model, (), [_enclosure(model, 0.5), _enclosure(model, 0.3)])
    assert rep.classification == "III_1"
    assert rep.height > 1e4 and rep.lam_floor > 0.999


def test_one_way_walk_is_a_lattice_of_height():
    # mu(s) = mu(t) = 1/2 on Z/6*Z/6: the walk reaches s^k only through
    # s, ..., s^(k-1), so F(e, s^k) = F(e, t^k) = a^k with a = F(e, s), the
    # ratio set is a^Z, and the quotients a^k / a^5 exceed 1.  The swap
    # is the only symmetry, so the relation is one of height 10.
    model = GroupModel.free_product(6, 6)
    walk = make_walk(model, [("s", 0.5), ("t", 0.5)], 1)
    rep = classify(walk)
    a = first_passage(walk, model.identity(), model.word("s"))
    assert rep.lattice and rep.relation == "height" and rep.height == 10
    assert rep.lam_lower <= a.value <= rep.lam_upper
    assert all(hi < 0 for lo, hi in rep.quotients)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
def test_simplest_has_the_least_denominator(lo, width):
    hi = lo + width
    s = _simplest(lo, hi)
    assert lo <= s <= hi
    assert all(math.ceil(lo * d) > hi * d for d in range(1, s.denominator))


def _ball(model, radius):
    ball, frontier = {model.identity()}, {model.identity()}
    for _ in range(radius):
        frontier = {g * s for g in frontier for s in model.generators()} - ball
        ball |= frontier
    return ball


def _generator_exponents(core):
    """Generator counts of a cyclically reduced core: its letters on F_N,
    its consecutive syllable pairs s^i t^j on Z/m*Z/n."""
    model = core.model
    if model.kind == "free":
        return Counter(model.letter_element(letter) for letter in core.letters())
    syl = core.syllables
    if syl[0][0] == 2:
        syl = syl[1:] + syl[:1]
    return Counter(GroupElement(model, syl[k : k + 2]) for k in range(0, len(syl), 2))


@pytest.mark.parametrize(
    "model,support",
    [
        (GroupModel.free(2), ASYM_F2),
        (GroupModel.free(3), None),
        (GroupModel.free_product(2, 3), ASYM_Z23),
        (GroupModel.free_product(3, 7), ASYM_Z37),
    ],
)
def test_ratio_is_a_product_of_generator_values(model, support):
    walk = uniform_walk(model, 1) if support is None else make_walk(model, support, 1)
    values = {v.element: v.value for v in classify(walk).values}
    checked = 0
    for g in _ball(model, 6):
        if g.has_finite_order():
            continue
        exponents = _generator_exponents(g.cyclic_reduction()[1])
        product = math.prod(values[x] ** k for x, k in exponents.items())
        assert ratio_invariant(walk, g).value == pytest.approx(product, rel=1e-12)
        checked += 1
    assert checked >= 36


@st.composite
def tied_walks(draw):
    """Walks with weights on three levels, so that ties occur; on
    Z/m*Z/n a letter may be left out where the rest still generates."""
    model = draw(st.sampled_from(MODELS))
    gens = model.generators()
    levels = (1.0, 2.0, 3.0) if model.kind == "free" else (0.0, 1.0, 2.0, 3.0)
    weights = draw(st.lists(st.sampled_from(levels), min_size=len(gens), max_size=len(gens)))
    total = sum(weights)
    assume(total > 0)
    walk = make_walk(model, [(g, w / total) for g, w in zip(gens, weights) if w], 1)
    assume(validate_walk(walk).nondegenerate)
    return walk


def _partition(keys):
    """The index of the first generator with the same key, per generator."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_walks())
def test_orbit_keys_match_map_enumeration(walk):
    # Per syllable, and per product s^i t^j as the sorted keys of its two
    # syllables, r being a class function.
    keys = _orbit_keys(walk)
    syllables = [GroupElement(walk.model, (x,)) for x in keys]
    assert _partition(keys.values()) == _partition(orbit_keys_by_maps(walk, syllables))
    gens = generators(walk.model)
    by_syllable = [tuple(sorted(keys[x] for x in g.syllables)) for g in gens]
    assert _partition(by_syllable) == _partition(orbit_keys_by_maps(walk, gens))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
def test_simplest_on_signed_intervals(lo, width):
    hi = lo + width
    s = _simplest(lo, hi)
    assert lo <= s <= hi
    assert all(math.ceil(lo * d) > hi * d for d in range(1, s.denominator))


@st.composite
def rational_walks(draw):
    """Walks on Z/2*Z/3, Z/3*Z/4 and Z/5*Z/7 with weights k / K, small
    integers k over their sum K."""
    model = draw(st.sampled_from([GroupModel.free_product(*o) for o in ((2, 3), (3, 4), (5, 7))]))
    gens = model.generators()
    weights = draw(st.lists(st.integers(1, 12), min_size=len(gens), max_size=len(gens)))
    return make_walk(model, [(g, Fraction(w, sum(weights))) for g, w in zip(gens, weights)], 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_walks() | rational_walks())
def test_verdict_matches_product_oracle(walk):
    rep, oracle = classify(walk), classify_by_products(walk)
    assert rep.classification == oracle.classification
    assert rep.label == oracle.label and rep.relation == oracle.relation


BIG = GroupModel.free_product(120, 119)


@pytest.mark.parametrize(
    "walk,n_generators",
    [
        (make_walk(BIG, [("s", 0.3), ("S", 0.2), ("t", 0.35), ("T", 0.15)], 1), 120 + 119 - 3),
        # the product, and a quotient per class {k, m - k} but the base's, per factor
        (uniform_walk(BIG, 1), 1 + 59 + 58),
    ],
    ids=["asymmetric", "uniform"],
)
def test_verdict_reads_one_generator_per_syllable_class(walk, n_generators):
    # The (m - 1)(n - 1) = 14,042 products fall into 14,042 orbits on the
    # asymmetric walk and 3,540 on the uniform one; the verdict reads at
    # most m + n - 3 generators, and every row is still r(s^i t^j) to the bit.
    module = importlib.import_module("hypwalk.classify")
    with mock.patch.object(module, "_verdict", wraps=module._verdict) as verdict:
        rep = classify(walk)
    assert len(verdict.call_args.args[2]) == n_generators == len(rep.generators)
    assert [rv.element for rv in rep.values] == generators(BIG)
    assert all(rv == ratio_invariant(walk, rv.element) for rv in rep.values)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_rows_are_the_ratio_invariants(model):
    gens = model.generators()
    skewed = make_walk(model, [(g, Fraction(2 * k + 2, len(gens) * (len(gens) + 1)))
                               for k, g in enumerate(gens)], 1)
    for walk in (skewed, uniform_walk(model, 1)):
        assert all(rv == ratio_invariant(walk, rv.element) for rv in classify(walk).values)
