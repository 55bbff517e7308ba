"""The exact cut-vertex engine across the model family.

Restricted-ball Green values are the independent oracle: they increase
with the ball to the full-group value, so they never exceed an honest
upper bound and close in on the value at the radii used here.  The
slot-indexed engine is held with ``==`` to the syllable-keyed reference
engine of ``oracles``.
"""

import pytest
from hypothesis import given

from hypwalk import (
    GroupModel,
    first_passage,
    green,
    make_walk,
    martin_kernel_at,
    ratio_invariant,
    uniform_walk,
)
from hypwalk import _exact

from oracles import (
    ball, dict_newton, dict_solution, dict_spectral_upper, plain_spectral_upper,
    restricted_green,
)
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


def _rel_width(est):
    return (est.upper - est.lower) / est.value


def test_restricted_ball_below_and_close(case):
    walk, radius = case
    table = restricted_green(walk, radius)
    b = table.domain
    e = walk.model.identity()
    for i in range(min(len(b), 200)):
        g = b.element(i)
        assert table.value(e, g) < green(walk, e, g).upper
    exact = green(walk, e, e).value
    assert (exact - table.value(e, e)) / exact < 1e-3


def test_bracket_widths(case):
    walk, _ = case
    e = walk.model.identity()
    estimates = [green(walk, e, e)]
    for g in _short_elements(walk.model):
        estimates += [green(walk, e, g), first_passage(walk, e, g)]
    for g in _infinite_order(walk.model):
        estimates.append(ratio_invariant(walk, g))
    for est in estimates:
        assert est.lower <= est.value <= est.upper
        assert 0 < _rel_width(est) <= 1e-12


def test_cocycle_identity(case):
    walk, _ = case
    gens = walk.model.generators()
    g, h = gens[0] * gens[-1], gens[-1] * gens[-1] * gens[0]
    y = (g * h) ** 4
    lhs = martin_kernel_at(walk, g * h, y).value
    rhs = martin_kernel_at(walk, g, y).value * martin_kernel_at(walk, h, g.inverse() * y).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ratio_class_function_and_powers(case):
    walk, _ = case
    for g in _infinite_order(walk.model):
        r = ratio_invariant(walk, g).value
        assert 0 < r < 1
        for x in walk.model.generators():
            assert ratio_invariant(walk, x * g * x.inverse()).value == pytest.approx(r, rel=1e-12)
        for k in (2, 3):
            assert ratio_invariant(walk, g**k).value == pytest.approx(r**k, rel=1e-12)


@pytest.mark.parametrize(
    "model,expected",
    [(F2, 3 / 2), (F3, 5 / 4), (Z23, 18 / 5), (Z33, 2.0)],
    ids=["f2", "f3", "z23", "z33"],
)
def test_closed_form_base_values(model, expected):
    walk = uniform_walk(model, 1)
    est = green(walk, model.identity(), model.identity())
    assert est.lower < expected < est.upper
    assert est.value == pytest.approx(expected, rel=1e-12)


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


@pytest.mark.parametrize("name", sorted(SPECTRAL_WALKS))
def test_spectral_upper_equals_plain_bisection(name):
    # The Newton probe certifies exactly where the full first-passage
    # solution does, so the bisection visits the same weights.
    walk = SPECTRAL_WALKS[name]
    assert _exact.spectral_upper(walk) == plain_spectral_upper(walk)


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
    exact = phi.jacobian(F)
    base, _ = phi.sweep(F)
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
    # certifies, the last halfway from 1 to the bisection's last one.
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
    ``spectral_upper``, and at z = 0, 0.6, 1 and a weight above 1 that the
    bisection certifies (halfway to the last certified one), both
    iterates, the enclosure table (with its key order), the base and the
    Newton point, or a DivergenceError from both Newton probes."""
    upper = _exact.spectral_upper(walk)
    assert upper == dict_spectral_upper(walk)
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
