"""The one way to declare a frozen value class.

``record`` makes a class a frozen dataclass and writes its methods
itself. ``dataclass(init=False, repr=False, eq=False)`` gathers the
fields and generates no method, so ``fields()``, ``replace()``,
``asdict()``, ``astuple()`` and ``is_dataclass()`` work as on any
dataclass. ``record`` then compiles ``__init__``, ``__eq__`` and
``__hash__`` from one source string, with one ``exec`` per class and the
file name ``<record module.Class>``, where ``dataclass(frozen=True)``
runs one ``exec`` per method. ``__repr__`` and the frozen ``__setattr__``
and ``__delattr__`` are closures over the field names, which need no
compiling. Each method does what the one ``dataclass(frozen=True)``
generates does, field options (``repr``, ``compare``, ``hash``)
included, and a method the class body defines is kept, as ``dataclass``
keeps it. A class without a docstring gets the text of its signature
that ``dataclass`` writes, built from the fields.

A class whose body holds a ``functools.cached_property`` keeps its
instance dict for the cached values; its ``__init__`` stores each field
with ``object.__setattr__`` and, unless it brings its own pickling, its
pickles and copies carry the fields alone.

Every other record is slotted: ``record`` rebuilds the class with one
slot per field and no instance dict, as ``dataclass(slots=True)`` does,
and pickles it as the list of its field values. Its ``__init__`` stores
each argument through its slot's member descriptor, which costs less
than an ``object.__setattr__`` per field.

Both ``__init__``s call ``__post_init__`` last if the class has one.
What they do not reproduce is refused with ``TypeError``: a field with a
``default_factory``, ``init=False`` or ``kw_only``, a field without a
default after one with a default, an ``InitVar`` or ``ClassVar``, a base
class, and a body that defines ``__setattr__`` or ``__delattr__``.
"""

from __future__ import annotations

from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property
from inspect import formatannotation


def record(cls):
    """``@dataclass(frozen=True, slots=True)`` with an ``__init__`` that
    stores each field through its slot or, for a class with a
    ``cached_property``, ``@dataclass(frozen=True)`` that pickles its
    fields; its methods compiled by one ``exec``."""
    body = vars(cls)
    slotted = not any(isinstance(value, cached_property) for value in body.values())
    if cls.__bases__ != (object,):
        raise TypeError(f"record {cls.__name__} cannot have a base class")
    if {"__setattr__", "__delattr__"} & body.keys():
        raise TypeError(f"record {cls.__name__} cannot define __setattr__ or __delattr__")
    doc = cls.__doc__
    # Without a docstring, dataclass would write one through inspect.signature.
    cls.__doc__ = cls.__name__
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    record_fields = fields(cls)
    if len(cls.__dataclass_fields__) > len(record_fields):
        raise TypeError(f"record {cls.__name__} cannot have an InitVar or ClassVar field")
    defaulted = False
    for f in record_fields:
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot have a default_factory")
        if not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be init=False")
        if f.kw_only:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be kw_only")
        if defaulted and f.default is MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} needs a default after one")
        defaulted = f.default is not MISSING
    if slotted:
        cls = _with_slots(cls, tuple(f.name for f in record_fields))
    elif not {"__getstate__", "__reduce__", "__reduce_ex__"} & body.keys():
        cls.__getstate__ = fields_only_state
    for name, method in _methods(cls, record_fields, slotted).items():
        # A body's own method stays; a __hash__ of None is what defining __eq__ leaves.
        if body.get(name) is None:
            setattr(cls, name, method)
    # The options whose methods record wrote, as dataclass(frozen=True) records them.
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    cls.__doc__ = doc or _signature_text(cls, record_fields)
    return cls


def fields_only_state(value) -> dict:
    """``__getstate__`` for a record that keeps values derived from its
    fields in its ``__dict__``: pickles and copies carry the fields alone,
    so a used value pickles to the same bytes as a fresh one."""
    return {f.name: value.__dict__[f.name] for f in fields(value)}


def _field_values(value) -> list:
    """``__getstate__`` of a slotted record: its field values in order."""
    return [getattr(value, f.name) for f in fields(value)]


def _set_field_values(value, state) -> None:
    """``__setstate__`` of a slotted record, from ``_field_values``."""
    for f, field_value in zip(fields(value), state):
        object.__setattr__(value, f.name, field_value)


def _with_slots(cls, names):
    """``cls`` rebuilt with one slot per field and no instance dict, as
    ``dataclass(slots=True)`` rebuilds it."""
    namespace = dict(vars(cls))
    for name in (*names, "__dict__", "__weakref__"):
        namespace.pop(name, None)
    namespace["__slots__"] = names
    namespace.setdefault("__getstate__", _field_values)
    namespace.setdefault("__setstate__", _set_field_values)
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return slotted


def _methods(cls, record_fields, slotted) -> dict:
    """The methods of ``cls``, each with the body of the one
    ``dataclass(frozen=True)`` generates, except that a slotted
    ``__init__`` stores through the slots. ``__init__``, ``__eq__`` and
    ``__hash__`` are compiled from one source string; ``__repr__``,
    ``__setattr__`` and ``__delattr__`` are closures over the field
    names."""
    scope = {"__name__": cls.__module__, "_object_setattr": object.__setattr__}
    params, stores = [], []
    for i, f in enumerate(record_fields):
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{i}"] = f.default
            params.append(f"{f.name}=_default_{i}")
        if slotted:
            scope[f"_set_{i}"] = cls.__dict__[f.name].__set__
            stores.append(f"_set_{i}(self, {f.name})")
        else:
            stores.append(f"_object_setattr(self, {f.name!r}, {f.name})")
    if hasattr(cls, "__post_init__"):
        stores.append("self.__post_init__()")
    compared = [f.name for f in record_fields if f.compare]
    hashed = [f.name for f in record_fields if (f.compare if f.hash is None else f.hash)]

    def values(owner, names):
        return "(" + "".join(f"{owner}.{name}," for name in names) + ")"

    source = (f"def __init__(self, {', '.join(params)}):\n"
              + "".join(f"  {line}\n" for line in stores or ["pass"])
              + "def __eq__(self, other):\n"
              + "  if other.__class__ is self.__class__:\n"
              + f"    return {values('self', compared)} == {values('other', compared)}\n"
              + "  return NotImplemented\n"
              + "def __hash__(self):\n"
              + f"  return hash({values('self', hashed)})\n")
    exec(compile(source, f"<record {cls.__module__}.{cls.__qualname__}>", "exec"), scope)
    scope["__init__"].__annotations__ = {f.name: f.type for f in record_fields} | {"return": None}
    methods = {name: scope[name] for name in ("__init__", "__eq__", "__hash__")}
    field_names = frozenset(f.name for f in record_fields)
    in_repr = tuple(f.name for f in record_fields if f.repr)
    running = set()

    def __repr__(self):
        key = id(self), get_ident()
        if key in running:  # a value held in itself, through a mutable field
            return "..."
        running.add(key)
        try:
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in in_repr)
            return f"{self.__class__.__qualname__}({shown})"
        finally:
            running.discard(key)

    def __setattr__(self, name, value):
        if type(self) is cls or name in field_names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in field_names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods.update(__repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        method.__module__ = cls.__module__
    return methods


def _signature_text(cls, record_fields) -> str:
    """The docstring ``dataclass`` writes for a class without one: its
    name and its signature, as ``inspect.signature`` prints it."""
    params = []
    for f in record_fields:
        param = f"{f.name}: {formatannotation(f.type)}"
        params.append(param if f.default is MISSING else f"{param} = {f.default!r}")
    return f"{cls.__name__}({', '.join(params)})"
