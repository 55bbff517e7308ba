"""Properties of the exact engine and the samplers across the model family.

Models are F_2 to F_4 and Z/m*Z/n with m, n <= 7, and F_5 and F_6 for
the Green table and the boundary samplers; walks put random positive,
non-symmetric weights on the nearest-neighbour alphabet.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypwalk import (
    BoundaryPoint, GroupElement, GroupModel, classify, green,
    green_decay_rate, make_walk, martin_kernel, ratio_invariant, spectral_radius_estimate,
    validate_walk, words_by_length,
)
from hypwalk import _exact, _sampler, _streams
from hypwalk._exact import factors, kernel, returns
from hypwalk.green import green_table
from hypwalk.walks import sample_boundary_prefixes

from oracles import (
    _SPECTRAL_GAP,
    first_passage_set,
    n_step_distributions,
    plain_spectral_upper,
    prefix_pairs,
    scalar_boundary_prefix,
    semigroup_covers_b2,
)

MODELS = [GroupModel.free(n) for n in (2, 3, 4)] + [
    GroupModel.free_product(m, n) for m in range(2, 8) for n in range(m, 8) if (m, n) != (2, 2)
]
WIDE_MODELS = [GroupModel.free(n) for n in range(2, 7)] + [m for m in MODELS if m.kind != "free"]
# Syllables far longer than a margin of 1 to 3 letters: one syllable can
# then hold the letter that joins the prefix and the whole margin past
# it, the case that ``hypwalk.walks.sample_boundary_point``'s proof that
# the oracle's promotion fold never acts must not miss.
LONG_SYLLABLE_MODELS = [GroupModel.free_product(*orders) for orders in ((2, 41), (3, 60), (7, 120))]


@st.composite
def walks(draw, weight=st.floats(0.05, 1.0), models=st.sampled_from(MODELS)):
    model = draw(models)
    gens = model.generators()
    weights = draw(st.lists(weight, min_size=len(gens), max_size=len(gens)))
    total = sum(weights)
    return make_walk(model, [(g, w / total) for g, w in zip(gens, weights)], seed=1)


@st.composite
def geodesic_words(draw, start, length: int):
    """A geodesic word of the given length, grown from the geodesic word
    ``start`` one generator at a time."""
    gens = start.model.generators()
    word = start
    while word.word_length() < length:
        step = word * draw(st.sampled_from(gens))
        if step.word_length() > word.word_length():
            word = step
    return word


def _cut_sphere(model):
    """Elements with exactly two cut-vertex factors: every path from e to
    infinity crosses this set."""
    one = {g**k for g in model.generators() for k in range(1, 8) if len(factors(g**k)) == 1}
    return sorted({g * h for g in one for h in one if len(factors(g * h)) == 2}, key=str)


PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(walks())
def test_returns_match_convolution(walk):
    series = returns(walk, 4)
    b, dists = n_step_distributions(walk, 4)
    e = b.index_of(walk.model.identity())
    for n in range(5):
        assert series[n] == pytest.approx(float(dists[n][e]), rel=1e-12)


@PROPERTY_SETTINGS
@given(walks())
def test_spectral_bracket_below_one(walk):
    est = spectral_radius_estimate(walk, max_steps=8)
    assert est.lower <= est.upper < 1.0
    # The probe next to the free-product minimum certifies a weight closer
    # to 1/rho than the bisection over full first-passage solutions, which
    # ends within its gap of it.
    plain = plain_spectral_upper(walk)
    assert est.upper <= plain
    assert est.upper == pytest.approx(plain, rel=2 * _SPECTRAL_GAP)


@PROPERTY_SETTINGS
@given(walks())
def test_cut_sphere_masses_sum_to_one(walk):
    table = first_passage_set(walk, _cut_sphere(walk.model), walk.model.identity())
    assert sum(est.lower for est in table.values()) <= 1.0
    assert sum(est.upper for est in table.values()) >= 1.0


@PROPERTY_SETTINGS
@given(st.data())
def test_kernel_is_constant_past_the_reach_of_g(data):
    # K(g, y) along a ray stops changing once the ray has left the
    # geodesic to g, by |g| + s + 2 letters: every prefix past that
    # gives bitwise the same enclosure.  rn-check groups samples by it.
    # The ray begins along g for a drawn number of letters.
    walk = data.draw(walks())
    model = walk.model
    g = data.draw(geodesic_words(model.identity(), data.draw(st.integers(1, 4))))
    shared = model.from_letters(g.letters()[: data.draw(st.integers(0, g.word_length()))])
    reach = g.word_length() + model.split_span + 2
    ray = data.draw(geodesic_words(shared, reach + 8)).letters()
    values = {kernel(walk, g, model.from_letters(ray[:d])) for d in range(reach, reach + 9)}
    assert len(values) == 1


@st.composite
def hyperbolic_elements(draw, model):
    """A cyclically reduced element of infinite order."""
    g = draw(geodesic_words(model.identity(), draw(st.integers(2, 5)))).cyclic_reduction()[1]
    assume(not g.has_finite_order())
    return g


@PROPERTY_SETTINGS
@given(st.data())
def test_livschitz_steps_are_the_ratio(data):
    # Along g^-n the kernel moves by one factor per step: r(g) at a ray
    # that leaves the repelling point g- = lim g^-n at its first factor,
    # and 1 / r(g^-1) at g- itself, from n = 1 on.
    walk = data.draw(walks())
    model = walk.model
    g = data.draw(hyperbolic_elements(model))
    h = data.draw(hyperbolic_elements(model))
    assume(factors(h)[0] != factors(g.inverse())[0])
    repelling = BoundaryPoint.periodic(g.inverse())
    for xi, step in (
        (BoundaryPoint.periodic(h), ratio_invariant(walk, g).value),
        (repelling, 1.0 / ratio_invariant(walk, g.inverse()).value),
    ):
        values = [martin_kernel(walk, g ** -n, xi).value for n in range(1, 8)]
        for prev, cur in zip(values, values[1:]):
            assert cur / prev == pytest.approx(step, rel=1e-12)


@PROPERTY_SETTINGS
@given(walks())
def test_green_decays_at_the_certified_rate(walk):
    # G(e, g) <= G(e, e) q^|g| on every word of the green experiment's
    # list, in exact arithmetic on the enclosure ends; the one-factor key
    # of the largest root attains q.
    rate = green_decay_rate(walk)
    e = walk.model.identity()
    base = green(walk, e, e)
    attained = False
    for g in words_by_length(walk.model, 4):
        est = green(walk, e, g)
        n = g.word_length()
        assert Fraction(est.lower) <= Fraction(base.upper) * Fraction(rate.upper) ** n
        attained = attained or est.value / base.value == pytest.approx(rate.value**n, rel=1e-12)
    assert attained and rate.upper < 1.0


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_finite_order_is_torsion(model):
    # Every word of B(e, 4): finite order exactly when some power up to
    # the largest factor order is e, so on F_N only at the identity.
    top = max(max(model.orders), 1)
    for g in words_by_length(model, 4):
        assert g.has_finite_order() == any((g**k).is_identity() for k in range(1, top + 1))


@pytest.mark.parametrize("model", WIDE_MODELS, ids=str)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_green_table_is_the_per_word_engine(model, data):
    # One multiplication per word from its parent gives every bracket of
    # the per-word engine bit for bit, and the parent's name plus the last
    # factor's spelling gives str(g).
    walk = data.draw(walks(models=st.just(model)))
    radius = data.draw(st.integers(0, 4))
    words = words_by_length(model, radius)
    rows = green_table(walk, radius)
    assert [row[:2] for row in rows] == [(str(g), g.word_length()) for g in words]
    for row, g in zip(rows, words):
        assert [x.hex() for x in row[2:]] == [x.hex() for x in _exact.green(walk, g)]


@st.composite
def relabellings(draw, model):
    """An alphabet automorphism on single syllables: a signed permutation
    of the letters of F_N; on Z/m*Z/n, inverting either factor and, when
    m = n, swapping them."""
    if model.kind == "free":
        perm = draw(st.permutations(range(1, model.rank + 1)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=model.rank, max_size=model.rank))
        return lambda lid, exp: (perm[lid - 1], exp * signs[lid - 1])
    flips = draw(st.lists(st.booleans(), min_size=2, max_size=2))
    swap = model.orders[0] == model.orders[1] and draw(st.booleans())

    def act(lid, exp):
        if flips[lid - 1]:
            exp = model.orders[lid - 1] - exp
        return (3 - lid if swap else lid), exp

    return act


@PROPERTY_SETTINGS
@given(st.data())
def test_classification_is_invariant_under_relabelling(data):
    # Equal weights give symmetric walks, and with them lattice verdicts.
    walk = data.draw(walks(weight=st.sampled_from([0.5, 1.0]) | st.floats(0.05, 1.0)))
    model = walk.model
    act = data.draw(relabellings(model))
    moved = make_walk(
        model, [(GroupElement(model, (act(*g.syllables[0]),)), p) for g, p in walk.support], 1
    )
    before, after = classify(walk), classify(moved)
    assert after.classification == before.classification
    assert after.relation == before.relation and len(after.orbits) == len(before.orbits)


@PROPERTY_SETTINGS
@given(walks())
def test_quotient_intervals_hold_their_float_ratios(walk):
    rep = classify(walk)
    base = math.log(rep.orbits[0].value)
    assert len(rep.quotients) == len(rep.orbits) - 1
    for rv, (lo, hi) in zip(rep.orbits[1:], rep.quotients):
        assert lo <= math.log(rv.value) / base <= hi


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(
    st.tuples(walks(models=st.sampled_from(WIDE_MODELS)), st.integers(1, 12))
    | st.tuples(walks(models=st.sampled_from(LONG_SYLLABLE_MODELS)), st.integers(1, 3)),
    st.integers(1, 20),
    st.data(),
)
def test_batched_sampler_matches_scalar_oracle(walk_margin, patience, data):
    # The array sampler of sample sets and the plain-Python walker of
    # single walks and small batches both give the oracle's prefix, or
    # timeout, and step count on every stream; the oracle keeps the
    # promotion fold that both samplers leave out.  The step budget ends
    # inside a refill of draws, whatever the refills' lengths: each starts
    # at a Philox block boundary, a multiple of 4 steps, and the budget is
    # not one.  The range spans the first refill, which covers the
    # 2 margin + patience steps before any promotion, and later ones of
    # both samplers (four of the array sampler's ``_REFILL_STEPS``).
    walk, margin = walk_margin
    first = -(-(2 * margin + patience) // 4) * 4
    budget = data.draw(
        st.integers(max(margin + patience, 2 * margin), first + 4 * _sampler._REFILL_STEPS).filter(
            lambda steps: steps % 4
        )
    )
    streams = range(40)
    want = [scalar_boundary_prefix(walk, s, margin, patience, budget) for s in streams]
    assert _streams.boundary_prefixes(walk, streams, margin, patience, budget) == want
    assert prefix_pairs(sample_boundary_prefixes(walk, streams, margin, patience, budget)) == want
    # Slabs of 7 rows and Philox tiles of 3: several slabs, then the tail.
    with mock.patch.object(_sampler, "_SLAB", 7), mock.patch.object(_sampler, "_TILE", 3):
        assert prefix_pairs(sample_boundary_prefixes(walk, streams, margin, patience, budget)) == want


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**63 - 1) | st.integers(2**63, 2**64 - 1), min_size=1, max_size=6),
    st.integers(0, 40),
    st.integers(1, 6),
)
@example(seed=2**64 - 1, keys=[2**64 - 1], first_block=9, n_blocks=1)
@example(seed=0, keys=[2**63], first_block=0, n_blocks=1)
def test_lane_cipher_matches_numpy_philox(seed, keys, first_block, n_blocks):
    # One lane per (key, block), keys past 2^63 included, counted from
    # any block: numpy's own generator gives every word.
    drawn = _streams.philox_words(seed, keys, first_block, n_blocks)
    assert len(drawn) == len(keys)
    for key, words in zip(keys, drawn):
        generator = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
        assert words == generator.random_raw(4 * (first_block + n_blocks))[4 * first_block:].tolist()


SMALL_MODELS = [GroupModel.free(2), GroupModel.free(3)] + [
    GroupModel.free_product(*orders)
    for orders in ((2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (3, 7))
]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_MODELS))
def test_nondegeneracy_closed_form_matches_semigroup_bfs(model):
    # Every nonempty letter subset, as a uniform support.
    gens = model.generators()
    for mask in range(1, 2 ** len(gens)):
        chosen = [g for i, g in enumerate(gens) if mask >> i & 1]
        walk = make_walk(model, [(g, 1.0 / len(chosen)) for g in chosen], seed=1)
        assert validate_walk(walk).nondegenerate == semigroup_covers_b2(walk)

