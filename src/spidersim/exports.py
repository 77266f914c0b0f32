"""Bit-exact file formats: DOT diagrams, trace JSON, and the JSON codecs
for requirement, capability, strategy, and path files.

All emitters use fixed key orders and lexicographic statement ordering so
identical inputs always serialize byte-identically; the JSON ones write
through ``canonical.canonical_json``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from .attackgraph import EXTERNAL, AttackPath, AttackStep
from .canonical import canonical_json
from .capabilities import (
    INTERFACE_VERSION,
    AtomicCapability,
    CapabilityKind,
    DefenseStrategy,
    Effect,
    EffectKind,
    Placement,
    Predicate,
    PredicateKind,
)
from .engine import (
    AttackerPolicy,
    DefenderPolicy,
    SimEvent,
    SimulationConfig,
    SimulationTrace,
)
from .errors import (
    InvariantViolation,
    UnknownField,
    UnknownPathNode,
    UnsupportedInterfaceVersion,
)
from .forge import AttackerProfile, Constraints, Requirement
from .model import (
    AccessRequirement,
    Actor,
    NetworkTopology,
    NodeClass,
    Privilege,
    _check_identifier,
    _expect_bool,
    _expect_dict,
    _expect_fraction,
    _expect_int,
    _expect_list,
    _expect_text,
    _parse_enum,
    _reject_unknown,
    _require,
    load_json_object,
)
from .state import DefenseKind, SimulationState


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _cluster_id(zone: str) -> str:
    # DOT bare identifiers cannot contain '-'; sanitize but keep the exact
    # zone name in the label.
    return "cluster_" + re.sub(r"[^0-9A-Za-z_]", "_", zone)


def export_dot(topology: NetworkTopology,
               highlighted_paths: Optional[Iterable[AttackPath]] = None) -> str:
    """Render the topology as DOT, highlighting attack path edges in red.

    Statements are emitted in lexicographic order so output is byte-exact
    for identical inputs.
    """
    paths = list(highlighted_paths or [])
    node_ids = {n.id for n in topology.nodes}
    hot: set = set()
    external_edges: set = set()
    for path in paths:
        for step in path.steps:
            if step.target not in node_ids:
                raise UnknownPathNode(f"path references unknown node {step.target!r}")
            if step.source == EXTERNAL:
                external_edges.add((EXTERNAL, step.target))
            else:
                if step.source not in node_ids:
                    raise UnknownPathNode(f"path references unknown node {step.source!r}")
                hot.add((step.source, step.target))

    lines: List[str] = ["digraph spidersim {"]
    if external_edges:
        lines.append('  "EXTERNAL" [shape=diamond]')
    for zone in sorted(topology.zones):
        members = sorted((n for n in topology.nodes if n.zone == zone), key=lambda n: n.id)
        lines.append(f"  subgraph {_cluster_id(zone)} {{")
        lines.append(f'    label="{zone}"')
        for node in members:
            lines.append(f'    "{node.id}" [label="{node.id}\\n{node.node_class.value}"]')
        lines.append("  }")

    edge_lines: List[Tuple[str, str, str]] = []
    for edge in sorted(topology.edges, key=lambda e: (e.src, e.dst, e.protocol_tag)):
        highlighted = (edge.src, edge.dst) in hot or (
            edge.bidirectional and (edge.dst, edge.src) in hot
        )
        suffix = ' [color="red", penwidth=2]' if highlighted else ""
        edge_lines.append((edge.src, edge.dst, f'  "{edge.src}" -> "{edge.dst}"{suffix}'))
    for src, dst in sorted(external_edges):
        edge_lines.append((src, dst, f'  "{src}" -> "{dst}" [color="red", penwidth=2]'))
    edge_lines.sort(key=lambda item: (item[0], item[1]))
    lines.extend(text for _, _, text in edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _state_to_dict(state: SimulationState) -> dict:
    return {
        "round": state.round,
        "compromise": {nid: priv.value for nid, priv in sorted(state.compromise.items())},
        "footholds": sorted(state.footholds),
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

def parse_requirement(document: str) -> Requirement:
    raw = load_json_object(document)
    _reject_unknown(raw, {"domain_tag", "narrative", "constraints"}, "")
    cd = _expect_dict(_require(raw, "constraints", ""), "constraints")
    _reject_unknown(cd, {"max_nodes", "required_classes", "attacker_profile",
                         "target_class"}, "constraints")
    constraints = Constraints(
        max_nodes=_expect_int(_require(cd, "max_nodes", "constraints"), "constraints.max_nodes"),
        required_classes=tuple(
            _parse_enum(NodeClass, c, "constraints.required_classes")
            for c in _expect_list(_require(cd, "required_classes", "constraints"), "constraints.required_classes")
        ),
        attacker_profile=_parse_enum(AttackerProfile, _require(cd, "attacker_profile", "constraints"), "constraints.attacker_profile"),
        target_class=_parse_enum(NodeClass, _require(cd, "target_class", "constraints"), "constraints.target_class"),
    )
    return Requirement(
        domain_tag=_check_identifier(_require(raw, "domain_tag", ""), "domain_tag"),
        narrative=_expect_text(_require(raw, "narrative", ""), "narrative"),
        constraints=constraints,
    )


def serialize_requirement(requirement: Requirement) -> str:
    """The requirement file in ``canonical_json`` form."""
    doc = {
        "domain_tag": requirement.domain_tag,
        "narrative": requirement.narrative,
        "constraints": {
            "max_nodes": requirement.constraints.max_nodes,
            "required_classes": [c.value for c in requirement.constraints.required_classes],
            "attacker_profile": requirement.constraints.attacker_profile.value,
            "target_class": requirement.constraints.target_class.value,
        },
    }
    return canonical_json(doc)


# ---------------------------------------------------------------------------
# capability files (interface "cap-1")
# ---------------------------------------------------------------------------

_PREDICATE_FIELDS = {
    PredicateKind.ACTOR_HAS_FOOTHOLD: {"slot", "min_privilege"},
    PredicateKind.EDGE_EXISTS: {"slot", "src_slot"},
    PredicateKind.NODE_HAS_VULN_WITH_ACCESS: {"slot", "access"},
    PredicateKind.CREDENTIAL_HELD: {"slot"},
    PredicateKind.DEFENSE_ABSENT: {"slot", "defense"},
    PredicateKind.DEFENSE_PRESENT: {"slot", "defense"},
    PredicateKind.NODE_CLASS_IS: {"slot", "node_classes"},
    PredicateKind.NODE_NOT_COMPROMISED: {"slot"},
    PredicateKind.NODE_ASSET_VALUE_AT_LEAST: {"slot", "min_asset_value"},
}

_EFFECT_FIELDS = {
    EffectKind.COMPROMISE: {"slot", "privilege"},
    EffectKind.GAIN_CREDENTIALS: {"slot"},
    EffectKind.DEPLOY: {"slot", "defense"},
    EffectKind.RAISE_ALARM: {"slot"},
    EffectKind.TRAP_ACTOR: {"duration_rounds"},
    EffectKind.NULLIFY_CREDENTIAL_THEFT: {"slot"},
    EffectKind.REVEAL_VULNERABILITIES: {"slot"},
}


def _parse_predicate(raw, path: str) -> Predicate:
    d = _expect_dict(raw, path)
    kind = _parse_enum(PredicateKind, _require(d, "predicate", path), f"{path}.predicate")
    _reject_unknown(d, {"predicate"} | _PREDICATE_FIELDS[kind], path)
    kwargs: dict = {"kind": kind}
    if "slot" in d:
        kwargs["slot"] = _check_identifier(d["slot"], f"{path}.slot")
    if kind == PredicateKind.EDGE_EXISTS:
        kwargs["src_slot"] = _check_identifier(_require(d, "src_slot", path), f"{path}.src_slot")
    if kind == PredicateKind.NODE_HAS_VULN_WITH_ACCESS:
        kwargs["access"] = _parse_enum(AccessRequirement, _require(d, "access", path), f"{path}.access")
    if kind in (PredicateKind.DEFENSE_ABSENT, PredicateKind.DEFENSE_PRESENT):
        kwargs["defense"] = _parse_enum(DefenseKind, _require(d, "defense", path), f"{path}.defense")
    if kind == PredicateKind.NODE_CLASS_IS:
        kwargs["node_classes"] = tuple(
            _parse_enum(NodeClass, c, f"{path}.node_classes")
            for c in _expect_list(_require(d, "node_classes", path), f"{path}.node_classes")
        )
    if kind == PredicateKind.ACTOR_HAS_FOOTHOLD and "min_privilege" in d:
        kwargs["min_privilege"] = _parse_enum(Privilege, d["min_privilege"], f"{path}.min_privilege")
    if kind == PredicateKind.NODE_ASSET_VALUE_AT_LEAST:
        kwargs["min_asset_value"] = _expect_int(_require(d, "min_asset_value", path), f"{path}.min_asset_value")
    return Predicate(**kwargs)


def _parse_effect(raw, path: str) -> Effect:
    d = _expect_dict(raw, path)
    kind = _parse_enum(EffectKind, _require(d, "effect", path), f"{path}.effect")
    _reject_unknown(d, {"effect"} | _EFFECT_FIELDS[kind], path)
    kwargs: dict = {"kind": kind}
    if "slot" in d:
        kwargs["slot"] = _check_identifier(d["slot"], f"{path}.slot")
    if kind == EffectKind.COMPROMISE:
        kwargs["privilege"] = _parse_enum(Privilege, _require(d, "privilege", path), f"{path}.privilege")
    if kind == EffectKind.DEPLOY:
        kwargs["defense"] = _parse_enum(DefenseKind, _require(d, "defense", path), f"{path}.defense")
    if kind == EffectKind.TRAP_ACTOR:
        duration = _expect_int(_require(d, "duration_rounds", path), f"{path}.duration_rounds")
        if duration < 1:
            raise InvariantViolation(f"{path}.duration_rounds", "must be >= 1")
        kwargs["duration_rounds"] = duration
    return Effect(**kwargs)


def parse_capability(document: str) -> AtomicCapability:
    raw = load_json_object(document)
    allowed = {"id", "kind", "name", "technique_tag", "preconditions", "effects",
               "base_success_prob", "detection_prob", "cost_units", "interface_version"}
    _reject_unknown(raw, allowed, "")
    version = _expect_text(_require(raw, "interface_version", ""), "interface_version")
    if version != INTERFACE_VERSION:
        raise UnsupportedInterfaceVersion(
            f"capability file declares {version!r}, expected {INTERFACE_VERSION!r}"
        )
    return AtomicCapability(
        id=_check_identifier(_require(raw, "id", ""), "id"),
        kind=_parse_enum(CapabilityKind, _require(raw, "kind", ""), "kind"),
        name=_expect_text(_require(raw, "name", ""), "name"),
        technique_tag=_check_identifier(_require(raw, "technique_tag", ""), "technique_tag"),
        preconditions=tuple(
            _parse_predicate(p, f"preconditions[{i}]")
            for i, p in enumerate(_expect_list(raw.get("preconditions", []), "preconditions"))
        ),
        effects=tuple(
            _parse_effect(e, f"effects[{i}]")
            for i, e in enumerate(_expect_list(raw.get("effects", []), "effects"))
        ),
        base_success_prob=_expect_fraction(_require(raw, "base_success_prob", ""), "base_success_prob"),
        detection_prob=_expect_fraction(_require(raw, "detection_prob", ""), "detection_prob"),
        cost_units=_expect_int(_require(raw, "cost_units", ""), "cost_units"),
        interface_version=_expect_text(_require(raw, "interface_version", ""), "interface_version"),
    )


# ---------------------------------------------------------------------------
# strategy and path files
# ---------------------------------------------------------------------------

def parse_strategy(document: str) -> List[Tuple[str, str]]:
    """Strategy file: {"capability_placements": [{"capability_id", "target_node"}]}.
    Returns raw pairs; callers run compose_strategy for validation."""
    raw = load_json_object(document)
    _reject_unknown(raw, {"capability_placements"}, "")
    pairs: List[Tuple[str, str]] = []
    for i, item in enumerate(_expect_list(_require(raw, "capability_placements", ""), "capability_placements")):
        path = f"capability_placements[{i}]"
        d = _expect_dict(item, path)
        _reject_unknown(d, {"capability_id", "target_node"}, path)
        pairs.append((
            _check_identifier(_require(d, "capability_id", path), f"{path}.capability_id"),
            _check_identifier(_require(d, "target_node", path), f"{path}.target_node"),
        ))
    return pairs


def serialize_strategy(strategy: DefenseStrategy) -> str:
    """The strategy file in ``canonical_json`` form."""
    doc = {
        "capability_placements": [
            {"capability_id": p.capability_id, "target_node": p.target_node}
            for p in strategy.capability_placements
        ],
    }
    return canonical_json(doc)


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
    _reject_unknown(raw, {"paths"}, "")
    paths: List[AttackPath] = []
    for i, item in enumerate(_expect_list(_require(raw, "paths", ""), "paths")):
        path = f"paths[{i}]"
        d = _expect_dict(item, path)
        _reject_unknown(d, {"steps", "success_prob", "total_cost"}, path)
        steps = []
        for j, raw_step in enumerate(_expect_list(_require(d, "steps", path), f"{path}.steps")):
            sp = f"{path}.steps[{j}]"
            sd = _expect_dict(raw_step, sp)
            _reject_unknown(sd, {"source", "capability_id", "target", "step_prob", "step_cost"}, sp)
            steps.append(AttackStep(
                source=_check_identifier(_require(sd, "source", sp), f"{sp}.source"),
                capability_id=_check_identifier(_require(sd, "capability_id", sp), f"{sp}.capability_id"),
                target=_check_identifier(_require(sd, "target", sp), f"{sp}.target"),
                step_prob=_expect_fraction(_require(sd, "step_prob", sp), f"{sp}.step_prob"),
                step_cost=_expect_int(_require(sd, "step_cost", sp), f"{sp}.step_cost"),
            ))
        paths.append(AttackPath(
            steps=tuple(steps),
            success_prob=_expect_fraction(_require(d, "success_prob", path), f"{path}.success_prob"),
            total_cost=_expect_int(_require(d, "total_cost", path), f"{path}.total_cost"),
        ))
    return paths
