"""Immutable value classes, declared by their annotated fields.

``@frozen`` reads a class's annotated fields, in order, and their defaults
(class attributes, as in a function signature), and gives the class

* ``__init__``: the fields as parameters, with their defaults; one
  ``object.__setattr__`` per field, then ``__post_init__`` where the class
  has one.  It is written as straight-line source and compiled once per
  class that has no ``__init__`` of its own, the one method whose speed a
  solve reads;
* ``__eq__``: equal field tuples within one class, ``NotImplemented``
  against anything else; ``__hash__``: the hash of the field tuple;
* ``__repr__``: ``Name(field=value!r, ...)``;
* ``__getstate__``: the fields by name, so that ``copy`` and ``pickle``
  keep them and nothing else;
* ``__setattr__`` and ``__delattr__``, which raise ``AttributeError``;
* ``__match_args__``: the field names, in order.

``__eq__``, ``__hash__``, ``__repr__`` and ``__getstate__`` are functions
that every class shares, which read the fields from ``__match_args__``, so
that a class costs one ``compile`` at most.  A method the class defines
itself stays.  The fields live in the instance ``__dict__``, so
``functools.cached_property``, ``copy`` and ``pickle`` work, and a class may
keep derived values there (writing to ``__dict__`` directly) outside its
fields, which equality, hashing and ``repr`` ignore and copies and pickles
leave out.  ``kept`` is the one rule for such a
value: made at the first request and kept, by key, in a dict under one
attribute.  The fields do not change, so a value derived from them stays
valid.
"""


def kept(obj, attr: str, key, make):
    """The value kept on ``obj`` under ``attr`` and ``key``: ``make(obj,
    key)`` at the first request, then the same object."""
    values = obj.__dict__.get(attr)
    if values is None:
        values = obj.__dict__[attr] = {}
    value = values.get(key)
    if value is None:
        value = values[key] = make(obj, key)
    return value


def frozen(cls):
    names = tuple(cls.__annotations__)
    methods = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
               "__getstate__": _getstate, "__setattr__": _refuse_assignment,
               "__delattr__": _refuse_deletion, "__match_args__": names}
    if "__init__" not in cls.__dict__:
        methods["__init__"] = _init(cls, names)
    for m, value in methods.items():
        if m not in cls.__dict__:
            setattr(cls, m, value)
    return cls


def _init(cls, names: tuple):
    """``cls.__init__`` over the fields ``names``, written as straight-line
    source and compiled."""
    namespace = {"_setattr": object.__setattr__}
    params = []
    for n in names:
        if n in cls.__dict__:
            namespace[f"_default_{n}"] = cls.__dict__[n]
            params.append(f"{n}=_default_{n}")
        else:
            params.append(n)
    # object.__setattr__ keeps the values inline in the instance (CPython
    # 3.11+), where reads are fastest and no dict is allocated per value;
    # writing to self.__dict__ would make one
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f"    _setattr(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
    ])
    exec(compile(source, f"<frozen {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _fields(obj) -> tuple:
    return tuple([getattr(obj, n) for n in obj.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _fields(self) == _fields(other)
    return NotImplemented


def _hash(self):
    return hash(_fields(self))


def _repr(self):
    # a loop: a comprehension would hold one more frame per level of a
    # nested value while its fields' reprs run, so a shallower tree would
    # reach the recursion limit
    shown = []
    for n in self.__match_args__:
        shown.append(f"{n}={getattr(self, n)!r}")
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _getstate(self):
    return dict(zip(self.__match_args__, _fields(self)))


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
