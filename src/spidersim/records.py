"""The one way to declare a frozen value class.

``record`` makes a class a frozen dataclass. A class whose body holds a
``functools.cached_property`` keeps its instance dict for the cached
values and the ``__init__`` that ``dataclass`` generates; unless it brings
its own pickling, its pickles and copies carry the fields alone.

Every other record is slotted, and ``dataclass`` generates all but its
``__init__``. That one stores each argument through its slot's member
descriptor, then calls ``__post_init__`` if the class has one; the one
``dataclass`` generates calls ``object.__setattr__`` per field, which
costs most of building a small record. Nothing else changes: the
signature, ``FrozenInstanceError`` on assignment, equality, hashing,
``repr``, ``replace``, pickles and copies are the ones ``dataclass``
makes. What that ``__init__`` does not reproduce is refused with
``TypeError``: a field with a ``default_factory``, ``init=False`` or
``kw_only``, or an ``InitVar`` or ``ClassVar``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property


def record(cls):
    """``@dataclass(frozen=True, slots=True)`` with an ``__init__`` that
    stores each field through its slot or, for a class with a
    ``cached_property``, ``@dataclass(frozen=True)`` that pickles its fields."""
    body = vars(cls)
    if any(isinstance(value, cached_property) for value in body.values()):
        if not {"__getstate__", "__reduce__", "__reduce_ex__"} & body.keys():
            cls.__getstate__ = fields_only_state
        return dataclass(frozen=True)(cls)
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    if len(cls.__dataclass_fields__) > len(fields(cls)):
        raise TypeError(f"record {cls.__name__} cannot have an InitVar or ClassVar field")
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot have a default_factory")
        if not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be init=False")
        if f.kw_only:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be kw_only")
    cls.__init__ = _slot_init(cls)
    return cls


def fields_only_state(value) -> dict:
    """``__getstate__`` for a record that keeps values derived from its
    fields in its ``__dict__``: pickles and copies carry the fields alone,
    so a used value pickles to the same bytes as a fresh one."""
    return {f.name: value.__dict__[f.name] for f in fields(value)}


def _slot_init(cls):
    """An ``__init__`` for ``cls`` that calls each field's member
    descriptor's ``__set__``, then ``__post_init__`` if ``cls`` has one,
    built once from ``fields(cls)``."""
    namespace = {}
    params = []
    stores = []
    for i, f in enumerate(fields(cls)):
        namespace[f"_set_{i}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{i}"] = f.default
            params.append(f"{f.name}=_default_{i}")
        stores.append(f"_set_{i}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        stores.append("self.__post_init__()")
    body = "\n".join(f"    {line}" for line in stores or ["pass"])
    source = (f"def __make_init__({', '.join(namespace)}):\n"
              f"  def __init__(self, {', '.join(params)}):\n"
              f"{body}\n"
              f"  return __init__\n")
    scope: dict = {}
    exec(source, {}, scope)
    init = scope["__make_init__"](**namespace)
    init.__annotations__ = {f.name: f.type for f in fields(cls)}
    init.__annotations__["return"] = None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
