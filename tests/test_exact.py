"""The exact cut-vertex engine across the model family.

Restricted-ball Green values are the independent oracle: they increase
with the ball to the full-group value, so they never exceed an honest
upper bound and close in on the value at the radii used here.  The
slot-indexed engine is held with ``==`` to the syllable-keyed reference
engine of ``oracles``.
"""

import ast
import math
from pathlib import Path
from unittest import mock

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

from oracles import (
    _bisect_spectral, ball, dict_newton, dict_solution, plain_spectral_upper, restricted_green,
)
from oracles import _certified as dict_certified
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


def spectral_probes(walk):
    """``spectral_upper``'s bound and its (z, certified) probes, in order."""
    probes = []
    certified = _exact._certified

    def probe(spec, z):
        probes.append((z, certified(spec, z)))
        return probes[-1][1]

    with mock.patch.object(_exact, "_certified", probe):
        upper = _exact.spectral_upper(walk)
    return upper, probes


def certified_weight(probes):
    """The weight z of ``spectral_upper``'s bound 1/z: its last certified
    probe, or z = 1 where none passed."""
    return ([z for z, ok in probes if ok] or [1.0])[-1]


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_equals_plain_bisection(name):
    # The bisection that ``spectral_upper`` ran before it probed at the
    # free-product minimum: with the Newton probe of ``_certified`` at
    # every weight it ends where the bisection over full first-passage
    # solutions does, so the probe certifies exactly where they do.
    walk = SPECTRAL_WALKS[name]
    newton = _bisect_spectral(lambda z: _exact._certified(walk, z))
    assert newton == plain_spectral_upper(walk)


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_within_plain_bisection(name):
    # Certified, so at least rho, and far closer to it than the bisection:
    # a weight 1e-6 past the certified one is rejected.
    walk = SPECTRAL_WALKS[name]
    upper, plain = _exact.spectral_upper(walk), plain_spectral_upper(walk)
    assert plain * (1.0 - 2e-4) <= upper <= plain
    assert not _exact._certified(walk, (1.0 / upper) * (1.0 + 1e-6))


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_probes_at_most_three_weights(name):
    # One certificate next to 1 / min Psi, where the bisection took 14 or 15.
    upper, probes = spectral_probes(SPECTRAL_WALKS[name])
    assert 1 <= len(probes) <= 3
    assert upper == (1.0 / certified_weight(probes)) * (1.0 + _exact._EPS)


def rejecting_probes(rejected):
    """A ``_certified`` that fails its first ``rejected`` probes and runs
    the real certificate after them, and the list of its probed z."""
    probes = []
    certified = _exact._certified

    def probe(spec, z):
        probes.append(z)
        return len(probes) > rejected and certified(spec, z)

    return probe, probes


@pytest.mark.parametrize("rejected", [1, 2])
def test_spectral_upper_backs_off_after_failed_probes(rejected):
    # Each failed probe moves the next a hundredfold further below
    # 1 / min Psi; the bound is 1/z at the first probe that passes.
    walk = SPECTRAL_WALKS["f2-asym"]
    probe, probes = rejecting_probes(rejected)
    with mock.patch.object(_exact, "_certified", probe):
        upper = _exact.spectral_upper(walk)
    deltas = [_exact._DELTA]
    for _ in range(rejected):
        deltas.append(deltas[-1] * 100.0)
    psi = _exact._psi_min(walk)
    assert probes == [(1.0 / psi) * (1.0 - delta) for delta in deltas]
    assert upper == (1.0 / probes[-1]) * (1.0 + _exact._EPS)


@pytest.mark.parametrize("name, count", [("f2-asym", 5), ("z23", 4)])
def test_spectral_upper_is_one_when_every_probe_fails(name, count):
    # delta = 1e-9, 1e-7, ..., 1e-1; a probe at z <= 1 is not run (on
    # Z/2*Z/3, 1/rho ~ 1.0117, so the last one), and the bound falls back
    # to z = 1, which ``_solution`` certifies.
    probe, probes = rejecting_probes(math.inf)
    with mock.patch.object(_exact, "_certified", probe):
        upper = _exact.spectral_upper(SPECTRAL_WALKS[name])
    assert upper == 1.0 + _exact._EPS
    assert len(probes) == count and all(z > 1.0 for z in probes)


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
    grid = [_exact._psi(factors, k / 200, roots) for k in range(1, 201)]
    low = grid.index(min(grid))
    tol = 1e-12 * grid[low]
    # a cycle factor's root, started from the tangent at the last t, is
    # the root that a solve from the bracket's end finds
    for k in (0, low, len(grid) - 1):
        assert grid[k] == pytest.approx(_exact._psi(factors, (k + 1) / 200, {}), rel=1e-13)
    assert all(b <= a + tol for a, b in zip(grid[:low], grid[1:low + 1]))
    assert all(b >= a - tol for a, b in zip(grid[low:], grid[low + 1:]))
    assert _exact._psi_min(walk) <= min(grid)
    upper = _exact.spectral_upper(walk)
    assert spectral_radius_estimate(walk, max_steps=8).lower <= upper <= plain_spectral_upper(walk)


def test_certified_brackets_inverse_spectral_radius():
    # Asymmetric F_2: rho = 0.8212410808 from its closed form.
    rho = 0.8212410808
    assert _exact._certified(ASYM_F2, 0.999 / rho)
    assert not _exact._certified(ASYM_F2, 1.001 / rho)


JACOBIAN_WALKS = {
    "": ASYM_F2,
    "F_3-": uniform_walk(F3, 1),
    "F_4-": make_walk(
        GroupModel.free(4),
        zip("aAbBcCdD", (0.21, 0.04, 0.17, 0.09, 0.13, 0.11, 0.19, 0.06)),
        1,
    ),
}
PRODUCT_JACOBIAN_WALKS = {
    "z23": uniform_walk(Z23, 1),
    "z23-asym": WALKS["z23-asym"][0],
    "z37": uniform_walk(GroupModel.free_product(3, 7), 1),
    "z37-asym": make_walk(
        GroupModel.free_product(3, 7), [("s", 0.3), ("S", 0.2), ("t", 0.3), ("T", 0.2)], 1
    ),
    "z77": SPECTRAL_WALKS["z77"],
    "z77-asym": make_walk(
        GroupModel.free_product(7, 7), [("s", 0.4), ("S", 0.1), ("t", 0.15), ("T", 0.35)], 1
    ),
    "z2-41": uniform_walk(GroupModel.free_product(2, 41), 1),
    "z2-41-asym": make_walk(
        GroupModel.free_product(2, 41), [("s", 0.5), ("t", 0.3), ("T", 0.2)], 1
    ),
}


def assert_jacobian_matches_differences(walk, z):
    phi = _exact._Letters(walk, z)
    F = _exact._newton(phi)
    base, _, exact = phi.linear(F)
    for j, f in enumerate(F):
        step = 1e-6 * max(f, 1e-6)
        moved, _ = phi.sweep(F[:j] + [f + step] + F[j + 1:])
        for i, (a, b) in enumerate(zip(moved, base)):
            assert exact[i][j] == pytest.approx((a - b) / step, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize(
    "walk,z",
    [pytest.param(walk, z, id=f"{name}{z}")
     for name, walk in JACOBIAN_WALKS.items() for z in (0.0, 0.6, 1.0, 1.2)],
)
def test_free_jacobian_matches_differences(walk, z):
    # One state per path: d Phi_x / d F_s = w forward / rest^2.
    assert_jacobian_matches_differences(walk, z)


@pytest.mark.parametrize("name", sorted(PRODUCT_JACOBIAN_WALKS))
def test_jacobian_matches_differences(name):
    # Paths of several states: (w / rest) A^-1 h, at weights the engine
    # certifies, the last halfway from 1 to 1/``spectral_upper``.
    walk = PRODUCT_JACOBIAN_WALKS[name]
    for z in (0.05, 0.6, 1.0, 0.5 * (1.0 + 1.0 / _exact.spectral_upper(walk))):
        assert_jacobian_matches_differences(walk, z)


# Walks that must certify every weight z = 0.05, 0.10, ..., 1.0: all lie
# below 1/rho.
CERTIFIED_WALKS = {
    **{f"z{m}{n}": uniform_walk(GroupModel.free_product(m, n), 1)
       for m, n in ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7), (5, 7), (7, 7))},
    "z23-asym": WALKS["z23-asym"][0],
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_WALKS))
def test_certified_accepts_every_weight_below_one(name):
    walk = CERTIFIED_WALKS[name]
    assert [k for k in range(1, 21) if not _exact._certified(walk, k / 20)] == []


def test_newton_reaches_the_iterated_fixed_point(case):
    walk, _ = case
    phi = _exact._Letters(walk, 1.0)
    newton, plain = _exact._newton(phi), _exact._iterate(phi, bias=False)
    for a, b in zip(newton, plain, strict=True):
        assert a == pytest.approx(b, rel=1e-13)


def test_solve_with_pivoting():
    # The first column's zero on the diagonal needs a row swap.
    a = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]]
    x = _exact._solve(a, [5.0, 3.0, 4.0])
    assert x == pytest.approx([1.0, 2.0, 1.0], rel=1e-15)
    with pytest.raises(_exact.DivergenceError):
        _exact._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def assert_matches_dict_engine(walk):
    """The slot engine against the syllable-keyed reference, with ``==``:
    the certificate's verdict at the weight z that ``spectral_upper``
    certified and at z (1 + 1e-6), and at z = 0, 0.6, 1 and a weight above
    1 that it certifies (halfway to 1/``spectral_upper``), both iterates,
    the enclosure table (with its key order), the base and the Newton
    point, or a DivergenceError from both Newton probes."""
    upper, probes = spectral_probes(walk)
    certified = certified_weight(probes)
    for z in (certified, certified * (1.0 + 1e-6)):
        assert _exact._certified(walk, z) == dict_certified(walk, z)
    for z in (0.0, 0.6, 1.0, 0.5 * (1.0 + 1.0 / upper)):
        phi = _exact._Letters(walk, z)
        ref = dict_solution(walk, z)
        assert _exact._iterate(phi, bias=False) == [ref.point[k] for k in phi.keys]
        assert _exact._iterate(phi, bias=True) == [ref.lower[k] for k in phi.keys]
        sol = _exact._Solution(walk, z)
        assert list(sol.table.items()) == list(ref.table.items())
        assert sol.base == ref.base
        try:
            newton = _exact._newton(phi)
        except _exact.DivergenceError:
            with pytest.raises(_exact.DivergenceError):
                dict_newton(walk, z)
        else:
            assert newton == [dict_newton(walk, z)[k] for k in phi.keys]


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_slot_engine_matches_dict_engine(name):
    assert_matches_dict_engine(SPECTRAL_WALKS[name])


@PROPERTY_SETTINGS
@given(walks())
def test_slot_engine_matches_dict_engine_across_models(walk):
    assert_matches_dict_engine(walk)
