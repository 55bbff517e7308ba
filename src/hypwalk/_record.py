"""Frozen records: immutable value classes that compile no code.

``@record`` makes the annotated names of a class its fields, in order,
and gives the class what the standard library's frozen data classes
give, with the same meaning:

- ``__init__`` takes the fields by position or keyword, fills defaults
  (class attributes of the field names), calls ``__post_init__`` if the
  class has one, and raises TypeError on a missing or unknown argument;
- ``__eq__`` holds between two instances of one class whose field tuples
  are equal, and ``__hash__`` is ``hash`` of that tuple, so hash values
  and set orders are those of a frozen data class;
- ``__repr__`` reads ``Name(field=value, ...)``, leaving out the fields
  named in ``hide``;
- assigning or deleting an attribute raises AttributeError.

:func:`fields` stands in for the standard library's function of that
name.  The methods are closures over the field names.  The standard
library's decorator instead ``exec``s six generated methods per class in
Python 3.11, about 1.3 ms a class, and its module loads ``inspect``,
``ast``, ``dis`` and ``tokenize``: together some 40 ms of every start.

A closure binds its arguments more slowly than compiled code does, so a
class on a hot path (``GroupModel``, ``GroupElement``) writes its own
``__init__``, ``__eq__`` and ``__hash__`` with the meaning above.  The
decorator never replaces a method that the class defines itself.

``typing.NamedTuple`` does not fit: a named tuple is a tuple, so it
compares equal to a plain tuple of the same values; it has no instance
``__dict__``, which ``functools.cached_property`` needs, and no
``__post_init__`` hook to validate its fields.
"""

from __future__ import annotations

from operator import attrgetter

# How an ``__init__`` stores a field past the frozen ``__setattr__``.
# Unlike writes to ``self.__dict__``, it keeps the instance's attributes
# in the inline layout that makes reading them fast.
setfield = object.__setattr__


def record(cls=None, /, *, hide=()):
    """Make ``cls`` a frozen record; ``@record(hide=(...))`` leaves those
    fields out of the repr."""
    if cls is None:
        return lambda cls: record(cls, hide=hide)
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {name: own[name] for name in names if name in own}
    cls.__record_fields__ = names
    values = _values(names)
    methods = {
        "__init__": _init(cls.__name__, names, defaults, hasattr(cls, "__post_init__")),
        "__repr__": _repr(tuple(name for name in names if name not in hide)),
        "__eq__": _eq(values),
        "__hash__": _hash(values),
        "__setattr__": _no_setattr,
        "__delattr__": _no_delattr,
    }
    for name, method in methods.items():
        if own.get(name) is None:  # Python sets __hash__ None beside an own __eq__
            setattr(cls, name, method)
    return cls


def fields(obj) -> tuple[str, ...] | None:
    """The field names of a record or record class, in order; None for
    any other object."""
    return getattr(obj, "__record_fields__", None)


def _values(names):
    """The field tuple of an instance."""
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda self: (get(self),)
    return get


def _init(cls_name, names, defaults, post_init):
    n = len(names)

    def bind(args, kwargs):
        """The field values, in order, from a call that did not pass
        every field by position."""
        if len(args) > n:
            raise TypeError(f"{cls_name}() takes {n} positional arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls_name}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls_name}() got {problem} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setfield(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


def _repr(shown):
    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({body})"

    return __repr__


def _eq(values):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__


def _hash(values):
    def __hash__(self):
        return hash(values(self))

    return __hash__


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
