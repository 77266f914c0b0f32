"""The canonical JSON writer every spidersim payload goes through.

It has a module of its own, outside ``model``, because spidersim may run
from source with bytecode writing off: each import then compiles every
module, and the peak memory of that compile grows with the module.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from typing import List

_INFINITY = float("inf")


def canonical_json(doc) -> str:
    """The canonical text of a JSON document, which every spidersim payload
    is written in: exactly ``json.dumps(doc, indent=2, ensure_ascii=False)
    + "\\n"``.

    That is: one item or member per line, indented two spaces per level,
    ``,`` at the end of every line but a container's last, ``": "`` after
    each key; keys in the dict's own order; ``{}`` and ``[]`` for empty
    containers; strings escaped as json escapes them, non-ASCII kept as is
    (``json.encoder.encode_basestring``); ints and floats by ``repr``, with
    ``NaN``, ``Infinity`` and ``-Infinity``; one trailing newline. ``doc``
    is made of dict (str keys), list, tuple, str, int, float, bool and
    None, subclasses included; anything else raises ``TypeError``.

    Given an indent, json on CPython 3.10 and 3.11 encodes in pure Python,
    through generators; this writer appends to one list instead, with the
    common cases of each container inline, and takes about half the time.
    """
    parts: List[str] = []
    _write_value(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _write_value(value, newline: str, append) -> None:
    """Append the text of ``value``. ``newline`` is a line break and the
    indentation of the line the value starts on. The checks run in json's
    order, so subclasses encode as json encodes them."""
    if isinstance(value, str):
        append(encode_basestring(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        _write_array(value, newline, append)
    elif isinstance(value, dict):
        _write_object(value, newline, append)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_array(items, newline: str, append) -> None:
    if not items:
        append("[]")
        return
    inner = newline + "  "
    lead = "[" + inner
    for item in items:
        kind = type(item)
        if kind is str:
            append(lead + encode_basestring(item))
        elif kind is dict:
            append(lead)
            _write_object(item, inner, append)
        else:
            append(lead)
            _write_value(item, inner, append)
        lead = "," + inner
    append(newline + "]")


def _write_object(members, newline: str, append) -> None:
    if not members:
        append("{}")
        return
    inner = newline + "  "
    lead = "{" + inner
    for key, item in members.items():
        head = lead + encode_basestring(key) + ": "
        kind = type(item)
        if kind is str:
            append(head + encode_basestring(item))
        elif kind is int:
            append(head + int.__repr__(item))
        elif kind is float:
            append(head + _float_text(item))
        elif kind is bool:
            append(head + ("true" if item else "false"))
        elif kind is dict:
            append(head)
            _write_object(item, inner, append)
        elif kind is list:
            append(head)
            _write_array(item, inner, append)
        else:
            append(head)
            _write_value(item, inner, append)
        lead = "," + inner
    append(newline + "}")
