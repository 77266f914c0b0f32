"""Blackboard pipeline that turns a high-level requirement into a
validated scenario.

Five deterministic rule-based roles run in dependency order
(context_analyst, topology_synthesizer, threat_planner, defense_planner,
validator); ``agent_step`` runs one and writes only the one slot it
produces. When validation fails, one refinement hint is applied per
iteration (fixed precedence: add_entry_surface, add_vulnerability,
add_edge, raise_node_budget), the affected downstream slots are cleared,
and the pipeline re-runs the roles whose slots were invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from .attackgraph import AttackPath, PathQuery, enumerate_attack_paths, suggest_defense_placements
from .capabilities import (
    CapabilityRegistry,
    ENTRY_CLASSES,
    compose_strategy,
)
from .errors import (
    EmptyRequirement,
    GenerationFailed,
    InvariantViolation,
    MissingConsumedSlot,
    NoHintsAvailable,
    SpiderSimError,
)
from .model import (
    AccessRequirement,
    Actor,
    DomainContext,
    Edge,
    Elements,
    Finding,
    NetworkTopology,
    NodeClass,
    Objective,
    ObjectiveKind,
    Privilege,
    ScenarioParameters,
    ScenarioSpec,
    SubProblem,
    TargetSelector,
    TopologyRecipe,
    ValidationReport,
    Vulnerability,
    build_topology,
    validate_spec,
)
from .rng import derive_seed


class AttackerProfile(str, Enum):
    OPPORTUNISTIC = "opportunistic"
    TARGETED = "targeted"


# vuln_rate derived from the attacker profile by the context analyst
_PROFILE_VULN_RATE = {
    AttackerProfile.OPPORTUNISTIC: 0.5,
    AttackerProfile.TARGETED: 0.3,
}


@dataclass(frozen=True)
class Constraints:
    max_nodes: int
    required_classes: Tuple[NodeClass, ...]
    attacker_profile: AttackerProfile
    target_class: NodeClass

    def __post_init__(self):
        if self.max_nodes < len(set(self.required_classes)):
            raise InvariantViolation(
                "constraints.max_nodes", "must cover every required class"
            )


@dataclass(frozen=True)
class Requirement:
    domain_tag: str
    narrative: str
    constraints: Constraints


@dataclass(frozen=True)
class ContextProfile:
    asset_classes: Tuple[NodeClass, ...]
    vuln_rate: float
    entry_class: NodeClass


@dataclass(frozen=True)
class ThreatPlan:
    objectives: Tuple[Objective, ...]
    capability_refs: Tuple[str, ...]


class HintKind(str, Enum):
    ADD_ENTRY_SURFACE = "add_entry_surface"
    ADD_VULNERABILITY = "add_vulnerability"
    ADD_EDGE = "add_edge"
    RAISE_NODE_BUDGET = "raise_node_budget"


# fixed precedence when several hints are available
_HINT_ORDER = (
    HintKind.ADD_ENTRY_SURFACE,
    HintKind.ADD_VULNERABILITY,
    HintKind.ADD_EDGE,
    HintKind.RAISE_NODE_BUDGET,
)


@dataclass(frozen=True)
class RefinementHint:
    kind: HintKind
    node_class: Optional[NodeClass] = None       # add_entry_surface
    node_id: Optional[str] = None                # add_vulnerability
    access: Optional[AccessRequirement] = None   # add_vulnerability
    src: Optional[str] = None                    # add_edge
    dst: Optional[str] = None                    # add_edge


@dataclass(frozen=True)
class ForgeValidation:
    report: ValidationReport
    hints: Tuple[RefinementHint, ...]


class RoleId(str, Enum):
    CONTEXT_ANALYST = "context_analyst"
    TOPOLOGY_SYNTHESIZER = "topology_synthesizer"
    THREAT_PLANNER = "threat_planner"
    DEFENSE_PLANNER = "defense_planner"
    VALIDATOR = "validator"


@dataclass(frozen=True)
class AgentRole:
    id: RoleId
    consumes: Tuple[str, ...]
    produces: Tuple[str, ...]


PIPELINE: Tuple[AgentRole, ...] = (
    AgentRole(RoleId.CONTEXT_ANALYST, consumes=(), produces=("context_profile",)),
    AgentRole(RoleId.TOPOLOGY_SYNTHESIZER, consumes=("context_profile",), produces=("topology_draft",)),
    AgentRole(RoleId.THREAT_PLANNER, consumes=("topology_draft",), produces=("threat_plan",)),
    AgentRole(RoleId.DEFENSE_PLANNER, consumes=("topology_draft", "threat_plan"), produces=("defense_plan",)),
    AgentRole(RoleId.VALIDATOR, consumes=("topology_draft", "threat_plan", "defense_plan"), produces=("validation_report",)),
)

SLOT_NAMES = ("context_profile", "topology_draft", "threat_plan",
              "defense_plan", "validation_report")

# slots downstream of (and including) the topology draft
_TOPOLOGY_AND_LATER = ("topology_draft", "threat_plan", "defense_plan", "validation_report")
_AFTER_TOPOLOGY = ("threat_plan", "defense_plan", "validation_report")


@dataclass(frozen=True)
class Blackboard:
    requirement: Requirement
    slots: Tuple[Tuple[str, object], ...] = ()
    revision: int = 0
    agent_log: Tuple[Tuple[str, int, str], ...] = ()
    # synthesizer directives accumulated by refinement hints
    extra_entry_classes: Tuple[NodeClass, ...] = ()
    extra_node_budget: int = 0

    def slot(self, name: str):
        for key, value in self.slots:
            if key == name:
                return value
        return None

    def _write(self, name: str, value) -> "Blackboard":
        entries = dict(self.slots)
        entries[name] = value
        ordered = tuple(
            (key, entries[key]) for key in SLOT_NAMES if key in entries
        )
        return replace(self, slots=ordered)

    def _clear(self, names) -> "Blackboard":
        entries = {k: v for k, v in self.slots if k not in names}
        ordered = tuple((key, entries[key]) for key in SLOT_NAMES if key in entries)
        return replace(self, slots=ordered)


@dataclass(frozen=True)
class GenerationReport:
    iterations_used: int
    per_iteration_reports: Tuple[ValidationReport, ...]
    refinements_applied: Tuple[RefinementHint, ...]
    final_valid: bool


def _check_requirement(requirement: Requirement) -> None:
    if not requirement.narrative.strip():
        raise EmptyRequirement("requirement narrative is empty")


def _preferred_entry_class(requirement: Requirement) -> NodeClass:
    for cls in (NodeClass.MAINTENANCE_ENDPOINT, NodeClass.WORKSTATION):
        if cls in requirement.constraints.required_classes:
            return cls
    return NodeClass.MAINTENANCE_ENDPOINT


def _entry_nodes(topology: NetworkTopology) -> List[str]:
    return sorted(
        n.id for n in topology.nodes if n.node_class in ENTRY_CLASSES
    )


# ---------------------------------------------------------------------------
# role behaviors
# ---------------------------------------------------------------------------

def _run_context_analyst(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    constraints = bb.requirement.constraints
    classes = list(dict.fromkeys(constraints.required_classes))
    if constraints.target_class not in classes:
        classes.append(constraints.target_class)
    profile = ContextProfile(
        asset_classes=tuple(classes),
        vuln_rate=_PROFILE_VULN_RATE[constraints.attacker_profile],
        entry_class=_preferred_entry_class(bb.requirement),
    )
    return profile, f"profiled {len(classes)} asset classes"


def _run_topology_synthesizer(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    constraints = bb.requirement.constraints
    context: ContextProfile = bb.slot("context_profile")
    budget = constraints.max_nodes

    # one node per class, in priority order, while the budget allows
    wanted: List[NodeClass] = list(dict.fromkeys(
        tuple(constraints.required_classes)
        + (constraints.target_class,)
        + tuple(bb.extra_entry_classes)
        + (context.entry_class,)
    ))
    counts: Dict[NodeClass, int] = {}
    for cls in wanted:
        if sum(counts.values()) >= budget:
            break
        counts[cls] = 1
    use_gateway = sum(counts.values()) < budget
    if use_gateway:
        counts[NodeClass.GATEWAY] = counts.get(NodeClass.GATEWAY, 0) + 1

    recipe = TopologyRecipe(
        node_counts=tuple(sorted(counts.items(), key=lambda p: p[0].value)),
        zone_count=2 if use_gateway else 1,
        intra_zone_density=0.6,
        inter_zone_gateways=1 if use_gateway else 0,
        vuln_rate=context.vuln_rate,
        credential_rate=0.25,
    )
    topology = build_topology(recipe, registry, derive_seed(seed, "forge-topology"))
    return topology, f"built {len(topology.nodes)}-node topology"


def _run_threat_planner(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    target_class = bb.requirement.constraints.target_class
    objectives = (
        Objective(Actor.ATTACKER, ObjectiveKind.COMPROMISE,
                  TargetSelector(node_class=target_class), 0.5),
        Objective(Actor.DEFENDER, ObjectiveKind.PROTECT,
                  TargetSelector(node_class=target_class), 0.5),
        Objective(Actor.DEFENDER, ObjectiveKind.DETECT,
                  TargetSelector(node_class=target_class), 1.0),
    )
    plan = ThreatPlan(objectives=objectives, capability_refs=tuple(sorted(registry.ids())))
    return plan, f"planned {len(objectives)} objectives"


def _top_paths(topology: NetworkTopology, registry: CapabilityRegistry,
               target: TargetSelector, k: int = 5) -> List[AttackPath]:
    entries = _entry_nodes(topology)
    if not entries:
        return []
    try:
        return enumerate_attack_paths(
            topology, registry,
            PathQuery(entries=tuple(entries), target=target,
                      k=k, max_len=max(1, len(topology.nodes))),
        )
    except SpiderSimError:
        # a draft whose target class is missing has no path yet
        return []


def _run_defense_planner(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    topology: NetworkTopology = bb.slot("topology_draft")
    plan: ThreatPlan = bb.slot("threat_plan")
    attacker_targets = [
        o.target for o in plan.objectives if o.actor == Actor.ATTACKER
    ]
    entries = _entry_nodes(topology)
    placements: List[Tuple[str, str]] = []
    if entries:
        # encryption and a honeypot on the phishing surface
        placements.append(("data_encryption", entries[0]))
        placements.append(("honeypot", entries[0]))
    paths: List[AttackPath] = []
    for target in attacker_targets:
        paths.extend(_top_paths(topology, registry, target))
    trap_spots = suggest_defense_placements(topology, paths, budget=1)
    if trap_spots:
        placements.append(("shocktrap", trap_spots[0][0]))
    elif entries:
        placements.append(("shocktrap", entries[0]))
    deduped = list(dict.fromkeys(placements))
    strategy = compose_strategy(registry, deduped, topology)
    return strategy, f"placed {len(deduped)} defenses"


def _semantic_hints(bb: Blackboard, registry: CapabilityRegistry
                    ) -> Tuple[List[Finding], List[RefinementHint]]:
    """Check that every attacker objective is reachable; emit hints if not."""
    topology: NetworkTopology = bb.slot("topology_draft")
    plan: ThreatPlan = bb.slot("threat_plan")
    context: ContextProfile = bb.slot("context_profile")
    errors: List[Finding] = []
    hints: List[RefinementHint] = []

    entries = _entry_nodes(topology)
    if not entries:
        errors.append(Finding("NoAttackPath", "topology has no entry surface", "topology"))
        hints.append(RefinementHint(HintKind.ADD_ENTRY_SURFACE, node_class=context.entry_class))
        hints.append(RefinementHint(HintKind.RAISE_NODE_BUDGET))
        return errors, hints

    for i, objective in enumerate(plan.objectives):
        if objective.actor != Actor.ATTACKER:
            continue
        targets = sorted(
            n.id for n in topology.nodes if objective.target.matches(n)
        )
        if not targets:
            errors.append(Finding("NoAttackPath", "no node matches the attacker objective", f"objectives[{i}]"))
            hints.append(RefinementHint(HintKind.RAISE_NODE_BUDGET))
            continue
        paths = _top_paths(topology, registry, objective.target, k=1)
        if paths:
            continue
        errors.append(Finding("NoAttackPath", "no attack path reaches the objective", f"objectives[{i}]"))
        unexploitable = [
            t for t in targets
            if not any(
                topology.vulnerability_by_id(vid) is not None
                for vid in (topology.node_by_id(t).vulnerability_ids or ())
            )
        ]
        if unexploitable:
            hints.append(RefinementHint(
                HintKind.ADD_VULNERABILITY, node_id=unexploitable[0],
                access=AccessRequirement.ADJACENT,
            ))
        hints.append(RefinementHint(HintKind.ADD_EDGE, src=entries[0], dst=targets[0]))
    return errors, hints


def _run_validator(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    spec = assemble_spec(bb)
    report = validate_spec(spec, registry)
    semantic_errors, hints = _semantic_hints(bb, registry)
    merged = ValidationReport(
        errors=report.errors + tuple(semantic_errors),
        warnings=report.warnings,
    )
    summary = "valid" if not merged.errors else f"{len(merged.errors)} errors"
    return ForgeValidation(report=merged, hints=tuple(hints)), summary


_BEHAVIOR: Dict[RoleId, Callable] = {
    RoleId.CONTEXT_ANALYST: _run_context_analyst,
    RoleId.TOPOLOGY_SYNTHESIZER: _run_topology_synthesizer,
    RoleId.THREAT_PLANNER: _run_threat_planner,
    RoleId.DEFENSE_PLANNER: _run_defense_planner,
    RoleId.VALIDATOR: _run_validator,
}


def agent_step(role: AgentRole, bb: Blackboard, registry: CapabilityRegistry,
               seed: int) -> Blackboard:
    """Run one role: consumes must be populated; writes only the slot it
    produces."""
    for name in role.consumes:
        if bb.slot(name) is None:
            raise MissingConsumedSlot(f"role {role.id.value} needs slot {name!r}")
    value, summary = _BEHAVIOR[role.id](bb, registry, seed)
    new_bb = bb._write(role.produces[0], value)
    return replace(
        new_bb,
        revision=bb.revision + 1,
        agent_log=bb.agent_log + ((role.id.value, bb.revision + 1, summary),),
    )


def assemble_spec(bb: Blackboard) -> ScenarioSpec:
    """Assemble the final scenario from a fully populated blackboard."""
    requirement = bb.requirement
    topology: NetworkTopology = bb.slot("topology_draft")
    plan: ThreatPlan = bb.slot("threat_plan")
    subproblems = tuple(
        SubProblem(
            id=f"secure-{cls.value}",
            description=f"Protect {cls.value} assets in the {requirement.domain_tag} environment",
            related_asset_classes=(cls,),
        )
        for cls in dict.fromkeys(requirement.constraints.required_classes)
    )
    present_classes = tuple(dict.fromkeys(n.node_class for n in topology.nodes))
    return ScenarioSpec(
        schema_version="1",
        domain_context=DomainContext(
            domain_tag=requirement.domain_tag,
            narrative=requirement.narrative,
        ),
        problem_decomposition=subproblems,
        scenario_parameters=ScenarioParameters(explicit_topology=topology),
        objectives=plan.objectives,
        elements=Elements(
            asset_classes=present_classes,
            threat_actors=(requirement.constraints.attacker_profile.value,),
            capability_refs=plan.capability_refs,
        ),
    )


def select_hint(validation: ForgeValidation) -> RefinementHint:
    """The hint refine() will apply: first in the fixed precedence order."""
    if not validation.hints:
        raise NoHintsAvailable("validation produced no refinement hints")
    return min(validation.hints, key=lambda h: _HINT_ORDER.index(h.kind))


def refine(bb: Blackboard, validation: ForgeValidation) -> Blackboard:
    """Apply the first available hint (fixed precedence) and clear the
    downstream slots it affects."""
    hint = select_hint(validation)

    if hint.kind == HintKind.ADD_ENTRY_SURFACE:
        bb = replace(
            bb,
            extra_entry_classes=tuple(dict.fromkeys(bb.extra_entry_classes + (hint.node_class,))),
        )
        bb = bb._clear(_TOPOLOGY_AND_LATER)
    elif hint.kind == HintKind.RAISE_NODE_BUDGET:
        bb = replace(bb, extra_node_budget=bb.extra_node_budget + 1)
        bb = bb._clear(_TOPOLOGY_AND_LATER)
    elif hint.kind == HintKind.ADD_VULNERABILITY:
        topology: NetworkTopology = bb.slot("topology_draft")
        vuln = Vulnerability(
            id=f"vuln-forge-{len(topology.vulnerabilities)}",
            technique_tag="T1190",
            access_requirement=hint.access or AccessRequirement.ADJACENT,
            success_prob=0.6,
            detection_prob=0.2,
            gained_privilege=Privilege.ADMIN,
        )
        nodes = tuple(
            replace(n, vulnerability_ids=n.vulnerability_ids + (vuln.id,))
            if n.id == hint.node_id else n
            for n in topology.nodes
        )
        new_topology = replace(
            topology, nodes=nodes,
            vulnerabilities=topology.vulnerabilities + (vuln,),
        )
        bb = bb._write("topology_draft", new_topology)._clear(_AFTER_TOPOLOGY)
    else:  # ADD_EDGE
        topology = bb.slot("topology_draft")
        exists = any(
            {e.src, e.dst} == {hint.src, hint.dst} for e in topology.edges
        )
        if not exists:
            new_topology = replace(
                topology,
                edges=topology.edges + (Edge(src=hint.src, dst=hint.dst),),
            )
            bb = bb._write("topology_draft", new_topology)
        bb = bb._clear(_AFTER_TOPOLOGY)

    return replace(bb, revision=bb.revision + 1)


def run_pipeline(requirement: Requirement, registry: CapabilityRegistry,
                 seed: int, max_iterations: int = 5
                 ) -> Tuple[ScenarioSpec, GenerationReport]:
    """Generate a validated scenario from a requirement.

    Deterministic: identical (requirement, registry, seed, max_iterations)
    inputs produce an identical (spec, report) pair.
    """
    _check_requirement(requirement)
    if max_iterations < 1:
        raise GenerationFailed("max_iterations must be >= 1")

    bb = Blackboard(requirement=requirement)
    reports: List[ValidationReport] = []
    refinements: List[RefinementHint] = []

    for iteration in range(1, max_iterations + 1):
        for role in PIPELINE:
            if bb.slot(role.produces[0]) is None:
                bb = agent_step(role, bb, registry, seed)
        validation: ForgeValidation = bb.slot("validation_report")
        reports.append(validation.report)
        if not validation.report.errors:
            report = GenerationReport(
                iterations_used=iteration,
                per_iteration_reports=tuple(reports),
                refinements_applied=tuple(refinements),
                final_valid=True,
            )
            return assemble_spec(bb), report
        if iteration == max_iterations or not validation.hints:
            break
        refinements.append(select_hint(validation))
        bb = refine(bb, validation)

    report = GenerationReport(
        iterations_used=len(reports),
        per_iteration_reports=tuple(reports),
        refinements_applied=tuple(refinements),
        final_valid=False,
    )
    raise GenerationFailed(
        f"no valid scenario after {len(reports)} iterations", report=report
    )
