"""Blackboard pipeline that turns a high-level requirement into a
validated scenario.

Four deterministic rule-based roles run in dependency order
(context_analyst, threat_planner, topology_synthesizer, validator). The
blackboard holds one slot per role, in that order, and the slot rule is:

- a step (``agent_step``) writes exactly one slot, the one its role
  produces, and needs every slot its role consumes;
- refinement (``refine``) clears a slot and every later one, so the
  pipeline re-runs exactly the roles whose slots are empty. No hint
  clears the threat plan, which reads only the requirement and the
  registry, so the context analyst and the threat planner run once per
  generation.

When validation fails, one refinement hint is applied per iteration, in
the declaration order of ``HintKind`` (add_entry_surface,
add_vulnerability, add_edge, raise_node_budget).

Reachability is checked in one place: when the draft has an entry node,
the validator walks the attack graph once from the entry nodes
(``reachable_set``), and an attacker objective is reached when the walk
meets one of its matching nodes. Every entry node has an entry hop, so
the objectives the walk meets are exactly those an attack path reaches;
the hints depend on that answer alone. The entry classes and the
exploit's access level are read from the binding rules the engine and
the attack graph share (``registry.path_capabilities``).
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from .attackgraph import reachable_set
from .capabilities import CapabilityRegistry, select_vulnerability
from .errors import (
    EmptyRequirement,
    GenerationFailed,
    InvariantViolation,
    MissingConsumedSlot,
    NoHintsAvailable,
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
from .records import record
from .rng import derive_seed


class AttackerProfile(str, Enum):
    OPPORTUNISTIC = "opportunistic"
    TARGETED = "targeted"


# vuln_rate derived from the attacker profile by the context analyst
_PROFILE_VULN_RATE = {
    AttackerProfile.OPPORTUNISTIC: 0.5,
    AttackerProfile.TARGETED: 0.3,
}


@record
class Constraints:
    max_nodes: int
    required_classes: Tuple[NodeClass, ...]
    attacker_profile: AttackerProfile
    target_class: NodeClass

    def __post_init__(self):
        if self.max_nodes < 1:
            raise InvariantViolation("constraints.max_nodes", "must be >= 1")
        if self.max_nodes < len(set(self.required_classes)):
            raise InvariantViolation(
                "constraints.max_nodes", "must cover every required class"
            )


@record
class Requirement:
    domain_tag: str
    narrative: str
    constraints: Constraints


@record
class ContextProfile:
    asset_classes: Tuple[NodeClass, ...]
    vuln_rate: float
    entry_class: NodeClass


@record
class ThreatPlan:
    objectives: Tuple[Objective, ...]
    capability_refs: Tuple[str, ...]


class HintKind(str, Enum):
    """Refinement hints, declared in precedence order: when validation
    offers several, ``select_hint`` takes the first kind declared."""
    ADD_ENTRY_SURFACE = "add_entry_surface"
    ADD_VULNERABILITY = "add_vulnerability"
    ADD_EDGE = "add_edge"
    RAISE_NODE_BUDGET = "raise_node_budget"


# The fields each hint kind needs; ``refine`` reads them as given.
_HINT_FIELDS = {
    HintKind.ADD_ENTRY_SURFACE: ("node_class",),
    HintKind.ADD_VULNERABILITY: ("node_id", "access"),
    HintKind.ADD_EDGE: ("src", "dst"),
    HintKind.RAISE_NODE_BUDGET: (),
}


@record
class RefinementHint:
    """One refinement; a hint lacking a field its kind needs is refused."""

    kind: HintKind
    node_class: Optional[NodeClass] = None       # add_entry_surface
    node_id: Optional[str] = None                # add_vulnerability
    access: Optional[AccessRequirement] = None   # add_vulnerability
    src: Optional[str] = None                    # add_edge
    dst: Optional[str] = None                    # add_edge

    def __post_init__(self):
        for name in _HINT_FIELDS[self.kind]:
            if getattr(self, name) is None:
                raise InvariantViolation(f"hint.{name}", f"a {self.kind.value} hint needs it")


@record
class ForgeValidation:
    report: ValidationReport
    hints: Tuple[RefinementHint, ...]


class RoleId(str, Enum):
    CONTEXT_ANALYST = "context_analyst"
    THREAT_PLANNER = "threat_planner"
    TOPOLOGY_SYNTHESIZER = "topology_synthesizer"
    VALIDATOR = "validator"


@record
class AgentRole:
    id: RoleId
    consumes: Tuple[str, ...]
    produces: str  # the one slot a step of the role writes
    # (blackboard, registry, seed) -> value of the produced slot
    run: Callable


@record
class Blackboard:
    """The requirement, one slot per role in pipeline order (None while
    empty), the count of steps and refinements applied (``revision``), and
    the synthesizer directives refinement accumulates."""
    requirement: Requirement
    context_profile: Optional[ContextProfile] = None
    threat_plan: Optional[ThreatPlan] = None
    topology_draft: Optional[NetworkTopology] = None
    validation_report: Optional[ForgeValidation] = None
    revision: int = 0
    extra_entry_classes: Tuple[NodeClass, ...] = ()
    extra_node_budget: int = 0


@record
class GenerationReport:
    iterations_used: int
    per_iteration_reports: Tuple[ValidationReport, ...]
    refinements_applied: Tuple[RefinementHint, ...]
    final_valid: bool


def _check_requirement(requirement: Requirement) -> None:
    if not requirement.narrative.strip():
        raise EmptyRequirement("requirement narrative is empty")


def _entry_classes(registry: CapabilityRegistry) -> Tuple[NodeClass, ...]:
    """The classes the registry's entry capability targets, in ``NodeClass``
    order; GenerationFailed names a registry without one."""
    entry = registry.path_capabilities[2]
    if entry is None:
        raise GenerationFailed(
            "the registry has no entry capability: no attack capability "
            "compromises nodes of given classes without a foothold")
    return entry.binding_rule.target_classes


def _preferred_entry_class(requirement: Requirement, registry: CapabilityRegistry) -> NodeClass:
    """The first entry class the requirement asks for, else the first one."""
    classes = _entry_classes(registry)
    return next((cls for cls in classes if cls in requirement.constraints.required_classes),
                classes[0])


# ---------------------------------------------------------------------------
# role behaviors
# ---------------------------------------------------------------------------

def _run_context_analyst(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    constraints = bb.requirement.constraints
    classes = list(dict.fromkeys(constraints.required_classes))
    if constraints.target_class not in classes:
        classes.append(constraints.target_class)
    return ContextProfile(
        asset_classes=tuple(classes),
        vuln_rate=_PROFILE_VULN_RATE[constraints.attacker_profile],
        entry_class=_preferred_entry_class(bb.requirement, registry),
    )


def _run_topology_synthesizer(bb: Blackboard, registry: CapabilityRegistry, seed: int):
    constraints = bb.requirement.constraints
    context = bb.context_profile
    budget = constraints.max_nodes

    # one node per class, in priority order, while the budget allows
    wanted: List[NodeClass] = list(dict.fromkeys(
        context.asset_classes + bb.extra_entry_classes + (context.entry_class,)
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
    return build_topology(recipe, registry, derive_seed(seed, "forge-topology"))


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
    return ThreatPlan(objectives=objectives, capability_refs=tuple(sorted(registry.ids())))


def _semantic_hints(bb: Blackboard, registry: CapabilityRegistry
                    ) -> Tuple[List[Finding], List[RefinementHint]]:
    """Check that every attacker objective is reachable; emit hints if not.

    An objective is reachable when the walk from the draft's entry nodes
    (those of the entry classes) meets one of its matching nodes. A
    target counts as exploitable when it has a vulnerability to use at
    the access level of the registry's exploit capability, the level the
    ADD_VULNERABILITY hint asks for; without an exploit capability no
    such hint is given."""
    topology = bb.topology_draft
    errors: List[Finding] = []
    hints: List[RefinementHint] = []

    entries = tuple(sorted(nid for cls in _entry_classes(registry)
                           for nid in topology.node_ids_of_class(cls)))
    if not entries:
        errors.append(Finding("NoAttackPath", "topology has no entry surface", "topology"))
        hints.append(RefinementHint(HintKind.ADD_ENTRY_SURFACE,
                                    node_class=bb.context_profile.entry_class))
        hints.append(RefinementHint(HintKind.RAISE_NODE_BUDGET))
        return errors, hints

    reached = reachable_set(topology, registry, entries)
    exploit = registry.path_capabilities[0]
    level = exploit.binding_rule.vuln_access if exploit else None
    for i, objective in enumerate(bb.threat_plan.objectives):
        if objective.actor != Actor.ATTACKER:
            continue
        targets = topology.select(objective.target)
        if not targets:
            errors.append(Finding("NoAttackPath", "no node matches the attacker objective", f"objectives[{i}]"))
            hints.append(RefinementHint(HintKind.RAISE_NODE_BUDGET))
            continue
        if not reached.isdisjoint(targets):
            continue
        errors.append(Finding("NoAttackPath", "no attack path reaches the objective", f"objectives[{i}]"))
        unexploitable = [
            t for t in targets
            if level is not None and select_vulnerability(topology, t, level) is None
        ]
        if unexploitable:
            hints.append(RefinementHint(
                HintKind.ADD_VULNERABILITY, node_id=unexploitable[0], access=level,
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
    return ForgeValidation(report=merged, hints=tuple(hints))


PIPELINE: Tuple[AgentRole, ...] = (
    AgentRole(RoleId.CONTEXT_ANALYST, consumes=(), produces="context_profile",
              run=_run_context_analyst),
    AgentRole(RoleId.THREAT_PLANNER, consumes=(), produces="threat_plan",
              run=_run_threat_planner),
    AgentRole(RoleId.TOPOLOGY_SYNTHESIZER, consumes=("context_profile",),
              produces="topology_draft", run=_run_topology_synthesizer),
    AgentRole(RoleId.VALIDATOR, consumes=("context_profile", "threat_plan", "topology_draft"),
              produces="validation_report", run=_run_validator),
)

SLOT_NAMES: Tuple[str, ...] = tuple(role.produces for role in PIPELINE)


def agent_step(role: AgentRole, bb: Blackboard, registry: CapabilityRegistry,
               seed: int) -> Blackboard:
    """Run one role: consumes must be populated; writes only the slot it
    produces."""
    for name in role.consumes:
        if getattr(bb, name) is None:
            raise MissingConsumedSlot(f"role {role.id.value} needs slot {name!r}")
    return replace(bb, revision=bb.revision + 1,
                   **{role.produces: role.run(bb, registry, seed)})


def assemble_spec(bb: Blackboard) -> ScenarioSpec:
    """Assemble the final scenario from a fully populated blackboard."""
    requirement = bb.requirement
    topology = bb.topology_draft
    plan = bb.threat_plan
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
    """The hint refine() will apply: the first of the earliest-declared
    ``HintKind``."""
    if not validation.hints:
        raise NoHintsAvailable("validation produced no refinement hints")
    return next(h for kind in HintKind for h in validation.hints if h.kind == kind)


def _cleared_from(name: str) -> Dict[str, None]:
    """Blackboard changes that empty slot ``name`` and every later one."""
    return dict.fromkeys(SLOT_NAMES[SLOT_NAMES.index(name):])


def refine(bb: Blackboard, validation: ForgeValidation) -> Blackboard:
    """Apply the hint ``select_hint`` picks and clear the slots it
    invalidates: from the topology draft on when the synthesizer must
    re-run (a new entry class or node budget), only the validation report
    when the hint amends the draft itself (a vulnerability or an edge).
    The threat plan comes before the draft and does not read it, so no
    hint clears it."""
    hint = select_hint(validation)
    topology = bb.topology_draft

    if hint.kind == HintKind.ADD_ENTRY_SURFACE:
        changes = _cleared_from("topology_draft")
        changes["extra_entry_classes"] = tuple(
            dict.fromkeys(bb.extra_entry_classes + (hint.node_class,)))
    elif hint.kind == HintKind.RAISE_NODE_BUDGET:
        changes = _cleared_from("topology_draft")
        changes["extra_node_budget"] = bb.extra_node_budget + 1
    elif hint.kind == HintKind.ADD_VULNERABILITY:
        changes = _cleared_from("validation_report")
        vuln = Vulnerability(
            id=f"vuln-forge-{len(topology.vulnerabilities)}",
            technique_tag="T1190",
            access_requirement=hint.access,
            success_prob=0.6,
            detection_prob=0.2,
            gained_privilege=Privilege.ADMIN,
        )
        nodes = tuple(
            replace(n, vulnerability_ids=n.vulnerability_ids + (vuln.id,))
            if n.id == hint.node_id else n
            for n in topology.nodes
        )
        changes["topology_draft"] = replace(
            topology, nodes=nodes,
            vulnerabilities=topology.vulnerabilities + (vuln,),
        )
    else:  # ADD_EDGE
        changes = _cleared_from("validation_report")
        if (hint.src not in topology.in_neighbours(hint.dst)
                and hint.dst not in topology.in_neighbours(hint.src)):
            changes["topology_draft"] = replace(
                topology, edges=topology.edges + (Edge(src=hint.src, dst=hint.dst),))

    return replace(bb, revision=bb.revision + 1, **changes)


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
    _entry_classes(registry)  # refuse a registry without one before any role runs

    bb = Blackboard(requirement=requirement)
    reports: List[ValidationReport] = []
    refinements: List[RefinementHint] = []
    while True:
        for role in PIPELINE:
            if getattr(bb, role.produces) is None:
                bb = agent_step(role, bb, registry, seed)
        validation = bb.validation_report
        reports.append(validation.report)
        valid = not validation.report.errors
        if valid or len(reports) == max_iterations or not validation.hints:
            break
        refinements.append(select_hint(validation))
        bb = refine(bb, validation)

    report = GenerationReport(
        iterations_used=len(reports),
        per_iteration_reports=tuple(reports),
        refinements_applied=tuple(refinements),
        final_valid=valid,
    )
    if not valid:
        raise GenerationFailed(
            f"no valid scenario after {len(reports)} iterations", report=report
        )
    return assemble_spec(bb), report
