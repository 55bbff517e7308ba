"""The exact cut-vertex engine across the model family.

Restricted-ball Green values are the independent oracle: they increase
with the ball to the full-group value, so they never exceed an honest
upper bound and close in on the value at the radii used here.  The
engine's enclosures, found from one unknown t, must contain the values
of the syllable-keyed reference engine of ``oracles``, which iterates
the first-passage map on the letters, and meet its enclosures; the
reference's certificate checks the spectral bound.
"""

import ast
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from hypwalk import (
    GroupModel,
    first_passage,
    make_walk,
    martin_kernel_at,
    ratio_invariant,
    spectral_radius_estimate,
    uniform_walk,
)
from hypwalk import _exact

from oracles import _bisect_spectral, ball, plain_spectral_upper, restricted_green
from oracles import _certified as dict_certified
from oracles import _Solution as DictSolution
from test_properties import PROPERTY_SETTINGS, walks

F2, F3 = GroupModel.free(2), GroupModel.free(3)
Z23, Z25, Z33 = (GroupModel.free_product(*o) for o in ((2, 3), (2, 5), (3, 3)))
ASYM_F2 = make_walk(F2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], 1)

# (walk, ball radius of the restricted oracle)
WALKS = {
    "f2-asym": (ASYM_F2, 10),
    "f3": (uniform_walk(F3, 1), 6),
    "z23": (uniform_walk(Z23, 1), 24),
    "z23-asym": (make_walk(Z23, [("s", 0.5), ("t", 0.35), ("T", 0.15)], 1), 20),
    "z25": (uniform_walk(Z25, 1), 14),
    "z33": (uniform_walk(Z33, 1), 10),
}


@pytest.fixture(params=sorted(WALKS), scope="module")
def case(request):
    return WALKS[request.param]


def _short_elements(model, radius=3):
    b = ball(model, radius)
    return [b.element(i) for i in range(1, len(b))]


def _infinite_order(model, radius=3):
    return [g for g in _short_elements(model, radius) if not g.has_finite_order()]


def _bracket(est):
    return est.value, est.lower, est.upper


def test_restricted_ball_below_and_close(case):
    walk, radius = case
    table = restricted_green(walk, radius)
    b = table.domain
    e = walk.model.identity()
    for i in range(min(len(b), 200)):
        g = b.element(i)
        assert table.value(e, g) < _exact.green(walk, g)[2]
    exact = _exact.green(walk, e)[0]
    assert (exact - table.value(e, e)) / exact < 1e-3


def test_bracket_widths(case):
    walk, _ = case
    e = walk.model.identity()
    brackets = [_exact.green(walk, e)]
    for g in _short_elements(walk.model):
        brackets += [_exact.green(walk, g), _bracket(first_passage(walk, e, g))]
    for g in _infinite_order(walk.model):
        brackets.append(_bracket(ratio_invariant(walk, g)))
    for value, lower, upper in brackets:
        assert lower <= value <= upper
        assert 0 < (upper - lower) / value <= 1e-12


def test_cocycle_identity(case):
    walk, _ = case
    gens = walk.model.generators()
    g, h = gens[0] * gens[-1], gens[-1] * gens[-1] * gens[0]
    gh = g * h
    y = gh * gh * gh * gh
    lhs = martin_kernel_at(walk, gh, y).value
    rhs = martin_kernel_at(walk, g, y).value * martin_kernel_at(walk, h, g.inverse() * y).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ratio_class_function_and_powers(case):
    walk, _ = case
    for g in _infinite_order(walk.model):
        r = ratio_invariant(walk, g).value
        assert 0 < r < 1
        for x in walk.model.generators():
            assert ratio_invariant(walk, x * g * x.inverse()).value == pytest.approx(r, rel=1e-12)
        for k, power in ((2, g * g), (3, g * g * g)):
            assert ratio_invariant(walk, power).value == pytest.approx(r**k, rel=1e-12)


@pytest.mark.parametrize(
    "model,expected",
    [(F2, 3 / 2), (F3, 5 / 4), (Z23, 18 / 5), (Z33, 2.0)],
    ids=["f2", "f3", "z23", "z33"],
)
def test_closed_form_base_values(model, expected):
    walk = uniform_walk(model, 1)
    value, lower, upper = _exact.green(walk, model.identity())
    assert lower < expected < upper
    assert value == pytest.approx(expected, rel=1e-12)


def test_paper_headline_ratio():
    rv = ratio_invariant(uniform_walk(Z23, 1), Z23.word("st"))
    assert rv.lower < 0.5 < rv.upper
    assert rv.value == pytest.approx(0.5, rel=1e-12)


SPECTRAL_WALKS = {
    **{f"f{n}": uniform_walk(GroupModel.free(n), 1) for n in (2, 3, 4, 6, 12)},
    "f2-asym": ASYM_F2,
    "z23": uniform_walk(Z23, 1),
    "z23-asym": WALKS["z23-asym"][0],
    **{
        f"z{m}{n}": uniform_walk(GroupModel.free_product(m, n), 1)
        for m, n in ((2, 5), (3, 3), (7, 7))
    },
}


def certifies(walk, z):
    """Whether ``_exact`` encloses the first-passage values at z."""
    try:
        _exact._Solution(walk, z)
    except _exact.SolverError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_equals_plain_bisection(name):
    # The bisection over weights that the engine in t encloses ends where
    # the bisection over the reference's full solutions does: the two
    # certify alike at every weight it probes.
    walk = SPECTRAL_WALKS[name]
    assert _bisect_spectral(lambda z: certifies(walk, z)) == plain_spectral_upper(walk)


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_within_plain_bisection(name):
    # Certified, so at least rho, and far closer to it than the bisection:
    # the reference certifies a weight 1e-6 below 1/upper and rejects one
    # 1e-6 above it.
    walk = SPECTRAL_WALKS[name]
    upper, plain = _exact.spectral_upper(walk), plain_spectral_upper(walk)
    assert plain * (1.0 - 2e-4) <= upper <= plain
    assert dict_certified(walk, (1.0 / upper) * (1.0 - 1e-6))
    assert not dict_certified(walk, (1.0 / upper) * (1.0 + 1e-6))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 26])
def test_spectral_upper_meets_kesten(n):
    # Simple random walk on F_N: rho = sqrt(2N - 1) / N (Kesten 1959).
    rho = math.sqrt(2 * n - 1) / n
    upper = _exact.spectral_upper(uniform_walk(GroupModel.free(n), 1))
    assert rho <= upper <= rho * (1.0 + 1e-12)


SKEWED_F2 = make_walk(F2, [("a", 0.5 - 1e-9), ("A", 1e-9), ("b", 0.25), ("B", 0.25)], 1)


def _skewed_rho():
    """min over t of sqrt(t^2 + 4pq) + sqrt(t^2 + 1/4) - t, pq = mu(a) mu(A),
    in 50-digit decimals: bisection on the derivative, which rises."""
    with localcontext() as ctx:
        ctx.prec = 50
        pq, quarter = Decimal(0.5 - 1e-9) * Decimal(1e-9), Decimal(1) / 4
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(160):
            t = (lo + hi) / 2
            if t / (t * t + 4 * pq).sqrt() + t / (t * t + quarter).sqrt() < 1:
                lo = t
            else:
                hi = t
        return (hi * hi + 4 * pq).sqrt() + (hi * hi + quarter).sqrt() - hi


def test_spectral_upper_on_skewed_walk():
    # mu(A) = 1e-9 leaves the letter a almost without a way back: the bound
    # is Psi at its minimiser, rounded up, so it lies within rounding of
    # min Psi and at or above the minimum of its closed form.
    upper = _exact.spectral_upper(SKEWED_F2)
    _, psi = _exact._psi_min(_exact._factor_weights(SKEWED_F2), {})
    assert psi <= upper <= psi * (1.0 + 1e-12)
    assert Decimal(upper) >= _skewed_rho()


def test_spectral_gap_is_gone_from_src():
    names = set()
    for path in Path(_exact.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names.add(getattr(node, "id", None) or getattr(node, "attr", None))
    assert "_SPECTRAL_GAP" not in names
    assert "_psi_min" in names


@PROPERTY_SETTINGS
@given(walks())
def test_psi_is_unimodal_and_its_minimum_is_bracketed(walk):
    # Psi on a grid of (0, 1] falls and then rises, up to rounding; the
    # golden-section minimum lies at or below every grid value; and the
    # bound lies between the largest return root and the bisection's.
    factors = _exact._factor_weights(walk)
    roots = {}
    grid = [_exact._psi(factors, k / 200, roots)[0] for k in range(1, 201)]
    low = grid.index(min(grid))
    tol = 1e-12 * grid[low]
    # a cycle factor's root, started from the tangent at the last t, is
    # the root that a solve from the bracket's end finds
    for k in (0, low, len(grid) - 1):
        assert grid[k] == pytest.approx(_exact._psi(factors, (k + 1) / 200, {})[0], rel=1e-13)
    assert all(b <= a + tol for a, b in zip(grid[:low], grid[1:low + 1]))
    assert all(b >= a - tol for a, b in zip(grid[low:], grid[low + 1:]))
    _, psi = _exact._psi_min(factors, {})
    assert psi <= min(grid)
    upper = _exact.spectral_upper(walk)
    assert psi <= upper
    assert spectral_radius_estimate(walk, max_steps=8).lower <= upper <= plain_spectral_upper(walk)


def test_certified_brackets_inverse_spectral_radius():
    # Asymmetric F_2: rho = 0.8212410808 from its closed form.
    rho = 0.8212410808
    assert certifies(ASYM_F2, 0.999 / rho)
    assert not certifies(ASYM_F2, 1.001 / rho)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_uniform_free_closed_forms_enclosed(n):
    # Simple random walk on F_N: F(e, x) = 1/(2N - 1) on every letter and
    # G(e, e) = (2N - 1)/(2N - 2).
    sol = _exact._solution(uniform_walk(GroupModel.free(n), 1), 1.0)
    for _, lo, hi in sol.table.values():
        assert Fraction(lo) <= Fraction(1, 2 * n - 1) <= Fraction(hi)
    _, lo, hi = sol.base
    assert Fraction(lo) <= Fraction(2 * n - 1, 2 * n - 2) <= Fraction(hi)


def test_past_inverse_spectral_radius_diverges():
    # Uniform F_2: 1/rho = 2/sqrt(3).
    with pytest.raises(_exact.DivergenceError):
        _exact._Solution(uniform_walk(F2, 1), (2.0 / math.sqrt(3.0)) * (1.0 + 1e-9))


@pytest.mark.parametrize("z", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_weight_is_refused(z):
    # A negative or non-finite z names itself, not a divergence past 1/rho.
    for model in (F2, Z23):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _exact._Solution(uniform_walk(model, 1), z)


@pytest.mark.parametrize("z", [0.6, 1.0])
def test_mirror_syllables_are_equal_to_the_bit(z):
    # With mu(x) = mu(x^-1), x -> x^-1 maps s^k to s^(m-k): every mirror
    # pair of syllables has one value and one enclosure, so r(st) = r(sT)
    # on uniform Z/2*Z/3.
    walk = uniform_walk(Z23, 1)
    st, sT = (ratio_invariant(walk, Z23.word(w)) for w in ("st", "sT"))
    assert (st.value, st.lower, st.upper) == (sT.value, sT.lower, sT.upper)
    for model in (Z23, GroupModel.free_product(20, 21)):
        table = _exact._Solution(uniform_walk(model, 1), z).table
        for (lid, k), value in table.items():
            assert value == table[(lid, model.orders[lid - 1] - k)]


# Walks whose first-passage values must be enclosed at every weight z =
# 0.05, 0.10, ..., 1.0: all lie below 1/rho.
CERTIFIED_WALKS = {
    **{f"z{m}{n}": uniform_walk(GroupModel.free_product(m, n), 1)
       for m, n in ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7), (5, 7), (7, 7))},
    "z23-asym": WALKS["z23-asym"][0],
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_WALKS))
def test_certified_accepts_every_weight_below_one(name):
    walk = CERTIFIED_WALKS[name]
    for k in range(1, 21):
        sol = _exact._solution(walk, k / 20)
        for v, lo, hi in [*sol.table.values(), sol.base]:
            assert 0.0 < lo <= v <= hi


def assert_matches_dict_engine(walk):
    """The engine against the syllable-keyed reference at z = 0, 0.6, 1
    and a weight above 1 that both enclose, halfway to 1/``spectral_upper``:
    the table's key order, every enclosure holding the reference's value,
    and the two enclosures of every value meeting."""
    upper = _exact.spectral_upper(walk)
    for z in (0.0, 0.6, 1.0, 0.5 * (1.0 + 1.0 / upper)):
        sol, ref = _exact._Solution(walk, z), DictSolution(walk, z)
        assert list(sol.table) == list(ref.table)
        pairs = [(sol.table[k], ref.table[k]) for k in ref.table] + [(sol.base, ref.base)]
        for (_, lo, hi), (v, ref_lo, ref_hi) in pairs:
            assert lo <= v <= hi
            assert max(lo, ref_lo) <= min(hi, ref_hi)


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_engine_matches_dict_engine(name):
    assert_matches_dict_engine(SPECTRAL_WALKS[name])


@PROPERTY_SETTINGS
@given(walks())
def test_engine_matches_dict_engine_across_models(walk):
    assert_matches_dict_engine(walk)
