"""The one way to declare a frozen value record.

``record`` makes a class a frozen slotted dataclass, then swaps the
``__init__`` that ``dataclass`` generates for one that stores each
argument through its slot's member descriptor. The generated one calls
``object.__setattr__`` once per field, which costs most of building a
small record; storing through the descriptor skips the attribute lookup
and the frozen check, and nothing else changes: the signature (names,
order, defaults, annotations) is the same, assignment still raises
``FrozenInstanceError``, and equality, hashing, ``repr``, ``replace``,
pickles and copies are the ones ``dataclass`` made.

Only what that ``__init__`` reproduces is accepted: a field with a
``default_factory``, ``init=False`` or ``kw_only``, an ``InitVar``, or a
``__post_init__`` is refused with ``TypeError`` when the class is created.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields


def record(cls):
    """``@dataclass(frozen=True, slots=True)`` with an ``__init__`` that
    stores each field through its slot."""
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {cls.__name__} cannot have a __post_init__")
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot have a default_factory")
        if not f.init:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be init=False")
        if f.kw_only:
            raise TypeError(f"record field {cls.__name__}.{f.name} cannot be kw_only")
    generated = cls.__init__
    init = _slot_init(cls)
    if inspect.signature(init) != inspect.signature(generated):
        # ``fields`` leaves out an InitVar, so one shows up here.
        raise TypeError(f"record {cls.__name__} has an init parameter that is not a field: "
                        f"{inspect.signature(generated)}")
    cls.__init__ = init
    return cls


def _slot_init(cls):
    """An ``__init__`` for ``cls`` that calls each field's member
    descriptor's ``__set__``, built once from ``fields(cls)``."""
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
