"""Bit-exact file formats: DOT diagrams, trace JSON, the path file
codec, and the readers of requirement, capability, and strategy files.

All emitters use fixed key orders and lexicographic statement ordering so
identical inputs always serialize byte-identically; the JSON ones write
through ``canonical.canonical_json``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .attackgraph import EXTERNAL, AttackPath, AttackStep
from .canonical import canonical_json
from .capabilities import (
    EFFECT_OPERANDS,
    PREDICATE_OPERANDS,
    SLOTLESS_EFFECTS,
    AtomicCapability,
    CapabilityKind,
    Effect,
    EffectKind,
    Predicate,
    PredicateKind,
)
from .engine import SimulationTrace
from .errors import InvariantViolation, UnknownPathNode, UnsupportedInterfaceVersion
from .forge import AttackerProfile, Constraints, Requirement
from .model import (
    MISSING,
    NetworkTopology,
    Node,
    _ACCESS_REQUIREMENTS,
    _NODE_CLASSES,
    _PRIVILEGES,
    _check_identifier,
    _enum_values,
    _expect,
    _expect_fraction,
    _expect_int,
    _parse_enum,
    _parse_enums,
    _path,
    _record,
    _reject_unknown,
    load_json_object,
)
from .state import DefenseKind, SimulationState


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _escaped(text: str) -> str:
    """``text`` for a DOT quoted string: its ``\\`` and ``"`` escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _cluster_ids(zones: Iterable[str]) -> Dict[str, str]:
    """One DOT cluster id per zone name: the name with every character a
    bare id cannot hold (such as '-') turned to '_', and where an earlier
    zone in name order holds that id, the first free ``_<n>`` suffix."""
    ids: Dict[str, str] = {}
    taken = set()
    for zone in sorted(set(zones)):
        base = cluster = "cluster_" + re.sub(r"[^0-9A-Za-z_]", "_", zone)
        n = 0
        while cluster in taken:
            n += 1
            cluster = f"{base}_{n}"
        taken.add(cluster)
        ids[zone] = cluster
    return ids


def export_dot(topology: NetworkTopology,
               highlighted_paths: Optional[Iterable[AttackPath]] = None) -> str:
    """Render the topology as DOT, highlighting attack path edges in red.

    Statements are emitted in lexicographic order so output is byte-exact
    for identical inputs. Every id and name is ``_escaped``.
    """
    paths = list(highlighted_paths or [])
    hot: set = set()
    external_edges: set = set()
    for path in paths:
        for step in path.steps:
            if topology.node_by_id(step.target) is None:
                raise UnknownPathNode(f"path references unknown node {step.target!r}")
            if step.source == EXTERNAL:
                external_edges.add((EXTERNAL, step.target))
            else:
                if topology.node_by_id(step.source) is None:
                    raise UnknownPathNode(f"path references unknown node {step.source!r}")
                hot.add((step.source, step.target))

    lines: List[str] = ["digraph spidersim {"]
    if external_edges:
        lines.append('  "EXTERNAL" [shape=diamond]')
    members: Dict[str, List[Node]] = {}
    escaped: Dict[str, str] = {}
    for node in topology.nodes:
        members.setdefault(node.zone, []).append(node)
        escaped[node.id] = _escaped(node.id)
    clusters = _cluster_ids(topology.zones)
    for zone in sorted(topology.zones):
        lines.append(f"  subgraph {clusters[zone]} {{")
        lines.append(f'    label="{_escaped(zone)}"')
        for node in sorted(members.get(zone, ()), key=lambda n: n.id):
            name = escaped[node.id]
            lines.append(f'    "{name}" [label="{name}\\n{node.node_class.value}"]')
        lines.append("  }")

    # Edge lines sort by (src, dst), topology edges by protocol tag and
    # before an external edge; the sort is stable, so repeated edges keep
    # their topology order.
    edge_lines: List[Tuple[Tuple[str, str, int, str], str]] = []
    for edge in topology.edges:
        highlighted = (edge.src, edge.dst) in hot or (
            edge.bidirectional and (edge.dst, edge.src) in hot
        )
        suffix = ' [color="red", penwidth=2]' if highlighted else ""
        src = escaped.get(edge.src) or _escaped(edge.src)
        dst = escaped.get(edge.dst) or _escaped(edge.dst)
        edge_lines.append(((edge.src, edge.dst, 0, edge.protocol_tag), f'  "{src}" -> "{dst}"{suffix}'))
    for src, dst in external_edges:
        edge_lines.append(((src, dst, 1, ""),
                           f'  "{src}" -> "{escaped[dst]}" [color="red", penwidth=2]'))
    edge_lines.sort(key=lambda item: item[0])
    lines.extend(text for _, text in edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _state_to_dict(state: SimulationState) -> dict:
    return {
        "round": state.round,
        "compromise": {nid: priv.value for nid, priv in sorted(state.compromise.items())},
        "footholds": sorted(state.compromise),
        "deployed": {
            nid: sorted(k.value for k in kinds) for nid, kinds in sorted(state.deployed.items())
        },
        "credentials_held": sorted(state.credentials_held),
        "trapped_until": state.trapped_until,
        "alarms": [[r, nid] for r, nid in state.alarms],
    }


def export_trace(trace: SimulationTrace) -> str:
    """The trace in ``canonical_json`` form: fixed key order, events in
    occurrence order; identical traces serialize byte-identically."""
    doc = {
        "config": {
            "max_rounds": trace.config.max_rounds,
            "seed": trace.config.seed,
            "attacker_policy": trace.config.attacker_policy.value,
            "defender_policy": trace.config.defender_policy.value,
        },
        "scenario_digest": trace.scenario_digest,
        "events": [
            {
                "round": e.round,
                "actor": e.actor.value,
                "capability_id": e.capability_id,
                "target": e.target,
                "outcome": {
                    "success": e.success,
                    "detected": e.detected,
                    "trapped_for": e.trapped_for,
                },
            }
            for e in trace.events
        ],
        "final_state": _state_to_dict(trace.final_state),
    }
    return canonical_json(doc)


# ---------------------------------------------------------------------------
# requirement files
# ---------------------------------------------------------------------------

_ATTACKER_PROFILES = _enum_values(AttackerProfile)
_REQUIREMENT_FIELDS = frozenset({"domain_tag", "narrative", "constraints"})
_CONSTRAINT_FIELDS = frozenset({"max_nodes", "required_classes", "attacker_profile",
                                "target_class"})


def parse_requirement(document: str) -> Requirement:
    raw = load_json_object(document)
    _reject_unknown(raw, _REQUIREMENT_FIELDS, "")
    cd = _expect(dict, raw.get("constraints", MISSING), "", "constraints")
    _reject_unknown(cd, _CONSTRAINT_FIELDS, "constraints")
    constraints = Constraints(
        max_nodes=_expect_int(cd.get("max_nodes", MISSING), "constraints", "max_nodes"),
        required_classes=_parse_enums(_NODE_CLASSES, cd.get("required_classes", MISSING),
                                      "constraints", "required_classes"),
        attacker_profile=_parse_enum(_ATTACKER_PROFILES, cd.get("attacker_profile", MISSING),
                                     "constraints", "attacker_profile"),
        target_class=_parse_enum(_NODE_CLASSES, cd.get("target_class", MISSING),
                                 "constraints", "target_class"),
    )
    return Requirement(
        domain_tag=_check_identifier(raw.get("domain_tag", MISSING), "", "domain_tag"),
        narrative=_expect(str, raw.get("narrative", MISSING), "", "narrative"),
        constraints=constraints,
    )


# ---------------------------------------------------------------------------
# capability files (interface "cap-1")
# ---------------------------------------------------------------------------

INTERFACE_VERSION = "cap-1"
_CAPABILITY_FIELDS = frozenset({"id", "kind", "name", "technique_tag", "preconditions", "effects",
                                "base_success_prob", "detection_prob", "cost_units",
                                "interface_version"})
_PREDICATE_KINDS = _enum_values(PredicateKind)
_EFFECT_KINDS = _enum_values(EffectKind)
_CAPABILITY_KINDS = _enum_values(CapabilityKind)
_DEFENSE_KINDS = _enum_values(DefenseKind)


def _read_duration(value, path, key: str) -> int:
    duration = _expect_int(value, path, key)
    if duration < 1:
        raise InvariantViolation(_path(path, key), "must be >= 1")
    return duration


# How each operand key of a term is read; which kind takes which key is
# declared in ``capabilities`` (PREDICATE_OPERANDS, EFFECT_OPERANDS).
_OPERAND_READERS: Dict[str, Callable] = {
    "src_slot": _check_identifier,
    "access": partial(_parse_enum, _ACCESS_REQUIREMENTS),
    "defense": partial(_parse_enum, _DEFENSE_KINDS),
    "node_classes": partial(_parse_enums, _NODE_CLASSES),
    "min_privilege": partial(_parse_enum, _PRIVILEGES),
    "min_asset_value": _expect_int,
    "privilege": partial(_parse_enum, _PRIVILEGES),
    "duration_rounds": _read_duration,
}
# Operand keys a file may leave out, taking the record's default.
_OPTIONAL_OPERANDS = frozenset({"min_privilege"})


def _parse_term(raw, path, kind_key: str, kinds: dict, operands: dict, record: type):
    """A precondition (``kind_key`` "predicate") or an effect ("effect"):
    its kind, the keys that kind takes, its ``slot``, then its operand."""
    d = _expect(dict, raw, path)
    kind = _parse_enum(kinds, d.get(kind_key, MISSING), path, kind_key)
    operand = operands[kind]
    allowed = {kind_key} if kind in SLOTLESS_EFFECTS else {kind_key, "slot"}
    if operand is not None:
        allowed.add(operand)
    _reject_unknown(d, allowed, path)
    kwargs: dict = {"kind": kind}
    if "slot" in d:
        kwargs["slot"] = _check_identifier(d["slot"], path, "slot")
    if operand is not None and (operand in d or operand not in _OPTIONAL_OPERANDS):
        kwargs[operand] = _OPERAND_READERS[operand](d.get(operand, MISSING), path, operand)
    return record(**kwargs)


def parse_capability(document: str) -> AtomicCapability:
    raw = load_json_object(document)
    _reject_unknown(raw, _CAPABILITY_FIELDS, "")
    version = _expect(str, raw.get("interface_version", MISSING), "", "interface_version")
    if version != INTERFACE_VERSION:
        raise UnsupportedInterfaceVersion(
            f"capability file declares {version!r}, expected {INTERFACE_VERSION!r}"
        )
    return AtomicCapability(
        id=_check_identifier(raw.get("id", MISSING), "", "id"),
        kind=_parse_enum(_CAPABILITY_KINDS, raw.get("kind", MISSING), "", "kind"),
        name=_expect(str, raw.get("name", MISSING), "", "name"),
        technique_tag=_check_identifier(raw.get("technique_tag", MISSING), "", "technique_tag"),
        preconditions=tuple(
            _parse_term(p, ("preconditions", None, i), "predicate", _PREDICATE_KINDS,
                        PREDICATE_OPERANDS, Predicate)
            for i, p in enumerate(_expect(list, raw.get("preconditions", []), "preconditions"))
        ),
        effects=tuple(
            _parse_term(e, ("effects", None, i), "effect", _EFFECT_KINDS,
                        EFFECT_OPERANDS, Effect)
            for i, e in enumerate(_expect(list, raw.get("effects", []), "effects"))
        ),
        base_success_prob=_expect_fraction(raw.get("base_success_prob", MISSING), "", "base_success_prob"),
        detection_prob=_expect_fraction(raw.get("detection_prob", MISSING), "", "detection_prob"),
        cost_units=_expect_int(raw.get("cost_units", MISSING), "", "cost_units"),
    )


# ---------------------------------------------------------------------------
# strategy and path files
# ---------------------------------------------------------------------------

_STRATEGY_FIELDS = frozenset({"capability_placements"})
_PLACEMENT_FIELDS = frozenset({"capability_id", "target_node"})
_PATHS_FIELDS = frozenset({"paths"})
_PATH_FIELDS = frozenset({"steps", "success_prob", "total_cost"})
_STEP_FIELDS = frozenset({"source", "capability_id", "target", "step_prob", "step_cost"})


def parse_strategy(document: str) -> List[Tuple[str, str]]:
    """Strategy file: {"capability_placements": [{"capability_id", "target_node"}]}.
    Returns raw pairs; callers run compose_strategy for validation."""
    raw = load_json_object(document)
    _reject_unknown(raw, _STRATEGY_FIELDS, "")
    pairs: List[Tuple[str, str]] = []
    for i, item in enumerate(_expect(list, raw.get("capability_placements", MISSING),
                                     "", "capability_placements")):
        path = ("capability_placements", None, i)
        d = _record(item, _PLACEMENT_FIELDS, path)
        pairs.append((
            _check_identifier(d.get("capability_id", MISSING), path, "capability_id"),
            _check_identifier(d.get("target_node", MISSING), path, "target_node"),
        ))
    return pairs


def serialize_paths(paths: Iterable[AttackPath]) -> str:
    """The path file in ``canonical_json`` form, paths and steps in order."""
    doc = {
        "paths": [
            {
                "steps": [
                    {
                        "source": s.source,
                        "capability_id": s.capability_id,
                        "target": s.target,
                        "step_prob": s.step_prob,
                        "step_cost": s.step_cost,
                    }
                    for s in p.steps
                ],
                "success_prob": p.success_prob,
                "total_cost": p.total_cost,
            }
            for p in paths
        ],
    }
    return canonical_json(doc)


def parse_paths(document: str) -> List[AttackPath]:
    raw = load_json_object(document)
    _reject_unknown(raw, _PATHS_FIELDS, "")
    paths: List[AttackPath] = []
    for i, item in enumerate(_expect(list, raw.get("paths", MISSING), "", "paths")):
        path = ("paths", None, i)
        d = _record(item, _PATH_FIELDS, path)
        steps = []
        for j, raw_step in enumerate(_expect(list, d.get("steps", MISSING), path, "steps")):
            sp = (path, "steps", j)
            sd = _record(raw_step, _STEP_FIELDS, sp)
            steps.append(AttackStep(
                source=_check_identifier(sd.get("source", MISSING), sp, "source"),
                capability_id=_check_identifier(sd.get("capability_id", MISSING), sp, "capability_id"),
                target=_check_identifier(sd.get("target", MISSING), sp, "target"),
                step_prob=_expect_fraction(sd.get("step_prob", MISSING), sp, "step_prob"),
                step_cost=_expect_int(sd.get("step_cost", MISSING), sp, "step_cost"),
            ))
        paths.append(AttackPath(
            steps=tuple(steps),
            success_prob=_expect_fraction(d.get("success_prob", MISSING), path, "success_prob"),
            total_cost=_expect_int(d.get("total_cost", MISSING), path, "total_cost"),
        ))
    return paths
