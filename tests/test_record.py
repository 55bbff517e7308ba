"""Frozen records (``hypwalk._record``) on every record class of the package.

The classes are found by scanning the hypwalk modules, so a new record is
checked without being listed here.  Each check is the meaning a frozen
data class had: equality within one class, ``hash`` of the field tuple,
no assignment, ``__init__`` by position or keyword, and the repr.
"""

import importlib
import pkgutil

import pytest

import hypwalk
from hypwalk import BoundaryPoint, Cylinder, GreenEstimate, GroupElement, GroupModel
from hypwalk._record import fields, record
from hypwalk.config import parse_config


def _records():
    found = []
    for info in pkgutil.iter_modules(hypwalk.__path__):
        module = importlib.import_module(f"hypwalk.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__record_fields__" in vars(obj)):
                found.append(obj)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


RECORDS = _records()

F2 = GroupModel((0, 0))
Z23 = GroupModel((2, 3))
_A, _B = BoundaryPoint.periodic(F2.word("a")), BoundaryPoint(F2.word("b"), F2.word("b"))

# Two instances that differ in every field, for the classes that check
# their fields (each field of the second fits the first); every other
# record takes any values.
SAMPLES = {
    GroupModel: (F2, Z23),
    GroupElement: (F2.word("a"), Z23.word("st")),
    BoundaryPoint: (_A, _B),
    Cylinder: (Cylinder.around(_A, 1), Cylinder.around(_B, 2)),
    GreenEstimate: (GreenEstimate(1.0, 0.5, 2.0), GreenEstimate(1.5, 0.75, 3.0)),
}


def _sample(cls, k):
    if cls in SAMPLES:
        return SAMPLES[cls][k]
    return cls(*(f"{name}-{k}" for name in fields(cls)))


def _values(x):
    return tuple(getattr(x, name) for name in fields(x))


def _copy(x):
    """An equal instance that is not ``x``, built by keyword."""
    return type(x)(**dict(zip(fields(x), _values(x))))


each_record = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_scan_finds_every_record():
    assert len(RECORDS) == 21
    assert set(SAMPLES) <= set(RECORDS)


@each_record
def test_hash_is_the_hash_of_the_field_tuple(cls):
    x = _sample(cls, 0)
    assert hash(x) == hash(_values(x))
    assert hash(_copy(x)) == hash(x)


@each_record
def test_equality_is_field_equality_within_one_class(cls):
    x, y = _sample(cls, 0), _sample(cls, 1)
    twin = _copy(x)
    assert twin is not x and twin == x and not twin != x
    assert x != y
    for name in fields(cls):
        assert cls(**dict(zip(fields(x), _values(x)), **{name: getattr(y, name)})) != x
    assert x != _values(x)
    assert _values(x) != x


def test_equal_fields_in_another_class_are_not_equal():
    @record
    class Pair:
        model: object
        syllables: object

    g = F2.word("ab")
    pair = Pair(g.model, g.syllables)
    assert pair != g and g != pair
    assert hash(pair) == hash(g)


@each_record
def test_assignment_and_deletion_raise(cls):
    x = _sample(cls, 0)
    for name in (*fields(cls), "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _values(x) == _values(_sample(cls, 0))


@each_record
def test_missing_or_unknown_argument_raises(cls):
    x = _sample(cls, 0)
    names, values = fields(cls), _values(x)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):  # the first field never has a default
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), not_a_field=1)
    assert cls(*values) == x


def test_defaults_fill_the_omitted_fields():
    from hypwalk.classify import RatioSetReport

    names = fields(RatioSetReport)
    required = names[: names.index("relation")]
    rep = RatioSetReport(*required)
    assert [getattr(rep, name) for name in names[len(required):]] == [None] * 5
    assert rep.lattice is False


def test_group_model_checks_its_orders():
    with pytest.raises(ValueError):
        GroupModel((2, 2))
    with pytest.raises(ValueError):
        GroupModel((0,))
    model = GroupModel((2, 3))
    assert (model.kind, model.rank, model.alphabet, model.split_span) == ("free_product", 2, "st", 1)
    assert model.identity_name == "e"
    assert "alphabet" in vars(model)  # computed once
    assert model == GroupModel((2, 3)) and hash(model) == hash(((2, 3),))
    assert GroupModel.free(5).identity_name == "1"


def test_reprs_are_unchanged():
    assert repr(Z23) == "GroupModel(orders=(2, 3))"
    assert repr(Z23.word("st")) == "<Z/2*Z/3:st>"
    cfg = parse_config({
        "schema_version": 1,
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1},
        "experiments": ["classify"],
    })
    assert repr(cfg) == (
        "ExperimentConfig(model=GroupModel(orders=(0, 0)), walk=WalkSpec(model="
        "GroupModel(orders=(0, 0)), support=((<F_2:B>, 0.25), (<F_2:A>, 0.25), "
        "(<F_2:a>, 0.25), (<F_2:b>, 0.25)), seed=1), budgets={'max_radius': None, "
        "'n_samples': 100000, 'maxlen': 3, 'spectral_steps': 24, 'boundary_patience': "
        "20, 'boundary_max_steps': 20000, 'gibbs_radii': [1, 2, 3, 4, 5]}, "
        "experiments=('classify',), output_dir='out')"
    )
