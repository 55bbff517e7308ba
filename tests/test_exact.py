"""The exact cut-vertex engine across the model family.

Restricted-ball Green values are the independent oracle: they increase
with the ball to the full-group value, so they never exceed an honest
upper bound and close in on the value at the radii used here.
"""

import pytest

from hypwalk import (
    GroupModel,
    ball,
    first_passage,
    green,
    make_walk,
    martin_kernel_at,
    ratio_invariant,
    restricted_green,
    uniform_walk,
)

F2, F3 = GroupModel.free(2), GroupModel.free(3)
Z23, Z25, Z33 = (GroupModel.free_product(*o) for o in ((2, 3), (2, 5), (3, 3)))

# (walk, ball radius of the restricted oracle)
WALKS = {
    "f2-asym": (make_walk(F2, [("a", 0.35), ("A", 0.15), ("b", 0.30), ("B", 0.20)], 1), 10),
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
