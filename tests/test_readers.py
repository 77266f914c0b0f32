"""Every document reader against its reference (``tests/helpers.py``).

Each base document is mutated (a value replaced, a field or element
deleted, a field or element added) at its paths, with values of every JSON
type a reader must reject or accept. The reader must return a value with
the reference's ``repr``, or raise the reference's error class with its
message. The one intended difference: where the reference lets a huge
integer in a fraction field raise OverflowError, the reader raises
InvariantViolation ("must be in [0,1]").
"""

import itertools
import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidersim as ss
from spidersim.data import marine_ranch_requirement_text, marine_ranch_scenario_text
from spidersim.errors import InvariantViolation
from spidersim.exports import (
    parse_capability,
    parse_paths,
    parse_requirement,
    parse_strategy,
    serialize_paths,
)

from helpers import (
    builtin_reg,
    reference_parse_capability,
    reference_parse_paths,
    reference_parse_requirement,
    reference_parse_scenario,
    reference_parse_strategy,
)

HUGE = 10 ** 400  # a JSON integer too large for a float

# Wrong types, near misses and valid values: bools, numbers at and beyond
# every bound, NaN and infinities, huge ints, padded and empty strings,
# enum values, lists and objects.
VALUES = (
    True, False, None, 0, 1, -1, 2, 22, 100, 101, 65535, 65536, HUGE, -HUGE, 2 ** 64,
    0.0, -0.0, 0.5, 1.0, 1.5, -0.25, 3.0, float("nan"), float("inf"), float("-inf"),
    "", " ", "x", "a b", " sensor", "sensor ", "ws-0\n", " ws-0", "sensor", "controller",
    "1", "cap-1", "attack", "user", "adjacent", "honeypot", "compromise", "maint-0",
    [], [1], ["sensor"], ["ws-0", "ws-0"], [[]], [{}],
    {}, {"x": 1}, {"node_id": "ws-0"}, {"node_class": "sensor"},
)
# One value of each kind, for the sweep over every path.
SWEEP_VALUES = (True, -1, HUGE, 0.5, "a b", "sensor", [], {})
# A value no field accepts: not an identifier, string, number, boolean,
# object or enum value, and a list whose element no list field accepts.
NO_FIELD_TAKES = [[]]


def _recipe_scenario() -> dict:
    doc = json.loads(marine_ranch_scenario_text())
    doc["scenario_parameters"] = {"recipe": {
        "node_counts": {"gateway": 2, "sensor": 3, "controller": 1, "workstation": 1},
        "zone_count": 2, "intra_zone_density": 0.5, "inter_zone_gateways": 1,
        "vuln_rate": 0.5, "credential_rate": 0.3,
    }}
    return doc


_CAPABILITY = {
    "interface_version": "cap-1", "id": "every_kind", "kind": "attack", "name": "Every kind",
    "technique_tag": "T0001",
    "preconditions": [
        {"predicate": "actor_has_foothold", "slot": "source", "min_privilege": "user"},
        {"predicate": "edge_exists", "slot": "target", "src_slot": "source"},
        {"predicate": "node_has_vuln_with_access", "slot": "target", "access": "adjacent"},
        {"predicate": "credential_held", "slot": "target"},
        {"predicate": "defense_absent", "slot": "target", "defense": "honeypot"},
        {"predicate": "defense_present", "slot": "target", "defense": "scanner"},
        {"predicate": "node_class_is", "slot": "target", "node_classes": ["sensor", "gateway"]},
        {"predicate": "node_not_compromised", "slot": "target"},
        {"predicate": "node_asset_value_at_least", "slot": "target", "min_asset_value": 30},
    ],
    "effects": [
        {"effect": "compromise", "slot": "target", "privilege": "admin"},
        {"effect": "gain_credentials", "slot": "target"},
        {"effect": "deploy", "slot": "target", "defense": "patch"},
        {"effect": "raise_alarm", "slot": "target"},
        {"effect": "trap_actor", "duration_rounds": 2},
        {"effect": "nullify_credential_theft", "slot": "target"},
        {"effect": "reveal_vulnerabilities", "slot": "target"},
    ],
    "base_success_prob": 0.3, "detection_prob": 0.1, "cost_units": 2,
}


def _paths_document() -> dict:
    spec = ss.parse_scenario(marine_ranch_scenario_text())
    paths = ss.enumerate_attack_paths(
        spec.scenario_parameters.explicit_topology, builtin_reg(),
        ss.PathQuery(entries=("maint-0", "ws-0"),
                     target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER), k=3))
    return json.loads(serialize_paths(paths))


# (name, base document, reader, reference reader)
READERS = (
    ("marine scenario", json.loads(marine_ranch_scenario_text()),
     ss.parse_scenario, reference_parse_scenario),
    ("recipe scenario", _recipe_scenario(), ss.parse_scenario, reference_parse_scenario),
    ("requirement", json.loads(marine_ranch_requirement_text()),
     parse_requirement, reference_parse_requirement),
    ("capability", _CAPABILITY, parse_capability, reference_parse_capability),
    ("strategy", {"capability_placements": [
        {"capability_id": "honeypot", "target_node": "maint-0"},
        {"capability_id": "shocktrap", "target_node": "gateway-0"}]},
     parse_strategy, reference_parse_strategy),
    ("paths", _paths_document(), parse_paths, reference_parse_paths),
)


def _paths(value, at=()):
    """Every path into a JSON value, the value's own first."""
    yield at
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, at + (key,))


def _keys(value) -> set:
    return {path[-1] for path in _paths(value) if path and isinstance(path[-1], str)}


# Keys to add: every key of a base document, and one no reader knows.
KEYS = sorted(set().union(*(_keys(doc) for _, doc, _, _ in READERS)) | {"colour"})


def _mutate(doc, path, op, value=None, key=None):
    """A copy of ``doc`` with ``value`` put at ``path``, the item at
    ``path`` deleted, or ``value`` added to the object (under ``key``) or
    the list (before the element numbered ``key``) at ``path``."""
    doc = json.loads(json.dumps(doc))
    if op == "replace":
        if not path:
            return value
        reduce(getitem, path[:-1], doc)[path[-1]] = value
    elif op == "delete":
        del reduce(getitem, path[:-1], doc)[path[-1]]
    else:
        container = reduce(getitem, path, doc)
        if isinstance(container, dict):
            container[key] = value
        else:
            container.insert(key, value)
    return doc


def _outcome(parse, document: str):
    try:
        value = parse(document)
    except Exception as exc:  # the reference's OverflowError included
        return type(exc), str(exc)
    return "parsed", repr(value)


def _path_text(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _check(parse, reference, doc, overflow_at=None):
    """The reader's outcome on ``doc`` is the reference's; where the
    reference overflows, it names the field ``overflow_at`` (any field when
    None)."""
    document = json.dumps(doc)
    want = _outcome(reference, document)
    got = _outcome(parse, document)
    if want[0] is OverflowError:
        assert got[0] is InvariantViolation, (document, got)
        if overflow_at is None:
            assert got[1].endswith(": must be in [0,1]"), (document, got)
        else:
            assert got[1] == f"{_path_text(overflow_at)}: must be in [0,1]", (document, got)
    else:
        assert got == want, document
    return want[0]


@pytest.mark.parametrize("name, doc, parse, reference", READERS, ids=[r[0] for r in READERS])
def test_every_path_against_the_reference(name, doc, parse, reference):
    """Every path of the base document: deleted, replaced by one value of
    each kind, and (for a container) given two unknown fields or one more
    element."""
    outcomes = {_check(parse, reference, doc)}
    for path in _paths(doc):
        if path:
            outcomes.add(_check(parse, reference, _mutate(doc, path, "delete")))
        for value in SWEEP_VALUES:
            outcomes.add(_check(parse, reference, _mutate(doc, path, "replace", value), path))
        container = reduce(getitem, path, doc)
        if isinstance(container, dict):
            two_unknown = _mutate(_mutate(doc, path, "add", "x", "colour"), path, "add", "x", "shade")
            outcomes.add(_check(parse, reference, two_unknown))
        elif isinstance(container, list):
            extra = container[0] if container else "x"
            outcomes.add(_check(parse, reference, _mutate(doc, path, "add", extra, 0)))
    # The sweep reached both outcomes, and a huge number where a fraction
    # belongs wherever the document has a fraction.
    assert "parsed" in outcomes and InvariantViolation in outcomes
    assert (OverflowError in outcomes) == (name not in ("strategy", "requirement"))


@pytest.mark.parametrize("name, doc, parse, reference", READERS, ids=[r[0] for r in READERS])
def test_every_pair_of_fields_against_the_reference(name, doc, parse, reference):
    """Two fields of one object made wrong at once: the reader reports the
    one the reference checks first, so the checks run in the same order."""
    for path in _paths(doc):
        container = reduce(getitem, path, doc)
        if isinstance(container, dict):
            for first, second in itertools.combinations(container, 2):
                wrong = _mutate(doc, path + (first,), "replace", NO_FIELD_TAKES)
                _check(parse, reference, _mutate(wrong, path + (second,), "replace", NO_FIELD_TAKES))


@st.composite
def mutated_documents(draw, readers=READERS):
    """The index of one of ``readers`` and its base document with one to
    three mutations, each at a path of the document as the ones before it
    left it."""
    index = draw(st.integers(0, len(readers) - 1))
    doc = readers[index][1]
    value = st.one_of(st.sampled_from(VALUES), st.integers(), st.floats(),
                      st.text(max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        target = reduce(getitem, path, doc) if path else doc
        ops = ["replace"] + (["delete"] if path else [])
        if isinstance(target, (dict, list)):
            ops.append("add")
        op = draw(st.sampled_from(ops))
        if op == "add" and isinstance(target, dict):
            key = draw(st.sampled_from(KEYS))
        elif op == "add":
            key = draw(st.integers(0, len(target)))
        else:
            key = None
        doc = _mutate(doc, path, op, draw(value) if op != "delete" else None, key)
    return index, doc


@given(case=mutated_documents())
@settings(max_examples=300, deadline=None)
def test_random_mutations_against_the_reference(case):
    index, doc = case
    _, _, parse, reference = READERS[index]
    _check(parse, reference, doc)
