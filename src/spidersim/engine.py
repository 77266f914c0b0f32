"""Seeded round-based attack-defense simulation.

Round order: reactive defender actions first, then one attacker action
(skipped while trapped). A run ends early when it is won (the scenario
has an attacker objective and every one is met) or when no attack
capability has been applicable for three consecutive rounds.

A run plays its rounds (``_play``) from a start (``_start``): the deployed
state, and the attacker objectives with the nodes they match. A batch on
an explicit topology builds the start once, since no seed changes it, and
each run inherits the attacker action lists the run before it used
(``capabilities.LastEnumeration``); a recipe batch builds one start per
run and shares nothing across seeds.

The engine schedules and does not restate a capability rule: the reactive
defender plays the registry's ``patch``, the metrics date a compromise by
the capability's compromise effect (``BindingRule.compromises``), and an
action list is reused by what enumeration reads.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .capabilities import (
    CapabilityRegistry,
    DefenseStrategy,
    LastEnumeration,
    apply_capability,
    check_placements,
    deploy,
    deploy_strategy,
    evaluate_preconditions,
)
from .errors import InvalidScenario, RoundLimitExceeded
from .model import (
    Actor,
    NetworkTopology,
    Objective,
    ObjectiveKind,
    ScenarioSpec,
    build_topology,
    recipe_errors,
    scenario_node_ids,
    serialize_scenario,
    validate_spec,
)
from .records import record
from .rng import MASK64, substream
from .state import SimulationState, fresh_state

STALL_ROUNDS = 3

# The enum members the per-round, per-event and per-objective code compares
# against, bound once: on Python 3.10 and 3.11 ``EnumType.__getattr__``
# makes each ``Enum.MEMBER`` lookup several times slower than a global
# read (from 3.12 on it costs what any class attribute does).
_ATTACKER = Actor.ATTACKER
_DEFENDER = Actor.DEFENDER
_COMPROMISE = ObjectiveKind.COMPROMISE
_PROTECT = ObjectiveKind.PROTECT
_DETECT = ObjectiveKind.DETECT


class AttackerPolicy(str, Enum):
    GREEDY_VALUE = "greedy_value"
    CHEAPEST_STEP = "cheapest_step"
    UNIFORM_RANDOM = "uniform_random"


class DefenderPolicy(str, Enum):
    STATIC = "static"
    REACTIVE = "reactive"


# Bound once, like the members above.
_GREEDY_VALUE = AttackerPolicy.GREEDY_VALUE
_CHEAPEST_STEP = AttackerPolicy.CHEAPEST_STEP
_REACTIVE = DefenderPolicy.REACTIVE


@record
class SimulationConfig:
    max_rounds: int = 20
    seed: int = 0
    attacker_policy: AttackerPolicy = AttackerPolicy.GREEDY_VALUE
    defender_policy: DefenderPolicy = DefenderPolicy.STATIC

    def __post_init__(self):
        if self.max_rounds < 1:
            raise InvalidScenario("max_rounds must be >= 1")


@record
class SimEvent:
    round: int
    actor: Actor
    capability_id: str
    target: str
    success: bool
    detected: bool
    trapped_for: int


@record
class SimulationTrace:
    config: SimulationConfig
    scenario_digest: str
    events: Tuple[SimEvent, ...]
    final_state: SimulationState


@record
class Metrics:
    """``detection_count`` counts every detected attack, failed ones too; a
    detect objective needs a successful one (``_detected_attack``)."""

    objectives_met: Tuple[Tuple[int, bool], ...]
    time_to_first_objective: Optional[int]
    compromised_fraction: float
    detection_count: int
    attacker_cost_spent: int

    def attacker_won(self, objectives: Tuple[Objective, ...]) -> bool:
        """Whether the run is won (``_won``) on the objectives measured."""
        return _won([met for i, met in self.objectives_met
                     if objectives[i].actor == _ATTACKER])


@record
class BatchResult:
    """``attacker_success_rate`` is the share of won runs
    (``Metrics.attacker_won``): the rule that also stops a run early."""

    per_seed: Tuple[Metrics, ...]
    mean_compromised_fraction: float
    attacker_success_rate: float
    mean_detection_count: float


def scenario_digest(spec: ScenarioSpec) -> str:
    return hashlib.sha256(serialize_scenario(spec).encode("utf-8")).hexdigest()


def resolve_topology(spec: ScenarioSpec, registry: CapabilityRegistry,
                     seed: int) -> NetworkTopology:
    if spec.scenario_parameters.explicit_topology is not None:
        return spec.scenario_parameters.explicit_topology
    return build_topology(spec.scenario_parameters.recipe, registry, seed)


def _won(attacker_met: List[bool]) -> bool:
    """The win rule: there is an attacker objective, and every one is met."""
    return bool(attacker_met) and all(attacker_met)


def _detected_attack(event: SimEvent) -> bool:
    """What a detect objective needs: a successful attack that was detected."""
    return event.actor == _ATTACKER and event.success and event.detected


def _objective_met(objective: Objective, matched: int, hit: int,
                   detected_any: bool) -> bool:
    """Whether ``objective`` holds when ``hit`` of the ``matched`` nodes its
    target matches are compromised: the one rule for both the early stop
    and the metrics. A compromise objective needs ``hit / matched`` at or
    above its threshold, a protect objective the safe share; detect needs
    a detected attack."""
    kind = objective.kind
    if kind == _DETECT:
        return detected_any
    if not matched:
        return kind == _PROTECT
    if kind == _COMPROMISE:
        return hit / matched >= objective.threshold
    return (matched - hit) / matched >= objective.threshold


def step_round(state: SimulationState, registry: CapabilityRegistry,
               config: SimulationConfig, rng, *,
               _last: Optional[LastEnumeration] = None
               ) -> Tuple[SimulationState, List[SimEvent]]:
    """Advance the simulation by exactly one round on the state's own
    topology (``state.topology``).

    Order within the round: (1) reactive defender actions, (2) one
    attacker action chosen by the configured policy, skipped while
    trapped. The uniform_random policy consumes exactly one selection
    draw before the apply draws.

    After a round that raised an alarm, the reactive defender plays the
    registry's ``patch`` on the most valuable node that is not compromised
    and meets its preconditions: it applies the effects with no draw
    (``capabilities.deploy``). A reactive round on a registry without
    ``patch`` raises UnknownCapability.

    Called alone, it enumerates the attacker's actions afresh. ``_last``
    is private to ``_play``: the action lists of the run and of the run
    before it in a batch (``LastEnumeration``). The attacker's event, if
    any, is the round's last.
    """
    if state.round >= config.max_rounds:
        raise RoundLimitExceeded(f"round {state.round} is already at max_rounds")
    round_number = state.round + 1
    state = state.with_round(round_number)
    events: List[SimEvent] = []

    if config.defender_policy == _REACTIVE:
        patch = registry.get("patch")
        # Alarms are in round order, so the last one says whether any was
        # raised last round.
        if state.alarms and state.alarms[-1][0] == round_number - 1:
            for node_id in state.topology.ids_by_asset_value:
                if (node_id not in state.compromise
                        and evaluate_preconditions(patch, state, {"target": node_id}) is None):
                    state = deploy(state, patch, node_id)
                    events.append(SimEvent(round_number, _DEFENDER, patch.id, node_id,
                                           True, False, 0))
                    break

    if state.trapped_until > round_number:
        return state, events

    applicable = (_last or LastEnumeration()).actions_on(state, registry)
    if not applicable:
        return state, events

    policy = config.attacker_policy
    if policy == _GREEDY_VALUE:
        node_by_id = state.topology.node_by_id
        pick = applicable[0]
        best = node_by_id(pick[1]["target"]).asset_value
        for entry in applicable[1:]:
            value = node_by_id(entry[1]["target"]).asset_value
            if value > best:
                pick, best = entry, value
    elif policy == _CHEAPEST_STEP:
        pick = applicable[0]
    else:  # uniform_random
        draw = rng.random()
        pick = applicable[min(int(draw * len(applicable)), len(applicable) - 1)]

    cap, binding = pick
    state, outcome = apply_capability(state, cap, binding, rng)
    events.append(SimEvent(round_number, _ATTACKER, cap.id, binding["target"],
                           outcome.success, outcome.detected, outcome.trapped_for))
    return state, events


def check_scenario(spec: ScenarioSpec, registry: CapabilityRegistry) -> None:
    """Refuse what ``validate`` rejects, first in every command that runs a
    scenario: a recipe no seed expands with the error ``build_topology``
    raises, any other ``validate_spec`` errors as one InvalidScenario."""
    if spec.scenario_parameters.explicit_topology is None:
        for error in recipe_errors(spec.scenario_parameters.recipe):
            raise error
    report = validate_spec(spec, registry)
    if report.errors:
        raise InvalidScenario(
            "; ".join(f"{f.code}: {f.message}" for f in report.errors)
        )


def _check_inputs(spec: ScenarioSpec, strategy: DefenseStrategy,
                  registry: CapabilityRegistry) -> None:
    """The checks that hold for every seed: scenario, then placements."""
    check_scenario(spec, registry)
    check_placements(registry, strategy.capability_placements, scenario_node_ids(spec))


def _start(spec: ScenarioSpec, strategy: DefenseStrategy, registry: CapabilityRegistry,
           seed: int) -> Tuple[SimulationState, List[Tuple[Objective, Tuple[str, ...]]]]:
    """What a run starts from on checked inputs: the deployed state on the
    seed's topology, and the attacker objectives, each with the nodes its
    target matches. Every part is immutable, so runs may share it."""
    topology = resolve_topology(spec, registry, seed)
    state = deploy_strategy(fresh_state(topology), strategy, registry)
    return state, [(o, topology.select(o.target)) for o in spec.objectives
                   if o.actor == _ATTACKER]


def _play(state: SimulationState, attacker_objectives: List[Tuple[Objective, Tuple[str, ...]]],
          registry: CapabilityRegistry, config: SimulationConfig, last: LastEnumeration
          ) -> Tuple[Tuple[SimEvent, ...], SimulationState]:
    """The rounds of one seeded run from a start (``_start``): its events
    and its final state.

    The run stops early once it is won (``_won``, the rule a batch counts
    wins with) or the attacker stalls.

    Work is skipped where its inputs are the same as before: a round
    reuses an attacker action list that ``last`` holds for the state
    (``LastEnumeration``), and the objectives are checked again only when
    a node was compromised or ``detected_any`` changed. No update removes
    a compromised node, so the count of them says whether one was."""
    rng = substream(config.seed, "simulation")
    events: List[SimEvent] = []
    idle_rounds = 0
    detected_any = False
    checked = (-1, False)  # compromised count and detected_any at the last objective check

    for _ in range(config.max_rounds):
        state, round_events = step_round(state, registry, config, rng, _last=last)
        events.extend(round_events)
        # step_round puts the attacker's event, if any, last.
        attacker_acted = bool(round_events) and round_events[-1].actor == _ATTACKER
        if attacker_acted and not detected_any:
            detected_any = _detected_attack(round_events[-1])
        # A trapped attacker is not idle. A trap set this round came from
        # the attacker's own action, which resets the count anyway.
        if attacker_acted or state.trapped_until > state.round:
            idle_rounds = 0
        else:
            idle_rounds += 1
            if idle_rounds >= STALL_ROUNDS:
                break
        compromised = state.compromise
        if len(compromised) == checked[0] and detected_any == checked[1]:
            continue  # the objectives read nothing else, so none is met yet
        checked = (len(compromised), detected_any)
        if _won([
            _objective_met(o, len(matching), sum(nid in compromised for nid in matching),
                           detected_any)
            for o, matching in attacker_objectives
        ]):
            break
    return tuple(events), state


def run_simulation(spec: ScenarioSpec, strategy: DefenseStrategy,
                   registry: CapabilityRegistry, config: SimulationConfig
                   ) -> Tuple[SimulationTrace, Metrics]:
    """Run one seeded simulation; identical inputs yield identical traces.

    The inputs are checked first. The trace carries the scenario digest,
    and this is the one function that computes it: ``batch_run`` keeps no
    traces.
    """
    _check_inputs(spec, strategy, registry)
    events, final_state = _play(*_start(spec, strategy, registry, config.seed), registry,
                                config, LastEnumeration())
    trace = SimulationTrace(
        config=config,
        scenario_digest=scenario_digest(spec),
        events=events,
        final_state=final_state,
    )
    return trace, compute_metrics(trace, spec.objectives, registry)


def compute_metrics(trace: SimulationTrace, objectives: Tuple[Objective, ...],
                    registry: CapabilityRegistry) -> Metrics:
    """Objective-level outcome measures for one trace; ``attacker_cost_spent``
    sums the registry's costs of the attacker's actions. One pass over the
    events reads what the objectives need: a node is dated by its first
    successful attack with a capability that compromises its target
    (``BindingRule.compromises``). A node the final state compromises that
    no such attack targeted was compromised before round 1, and counts as
    compromised at round 0, the round of the empty prefix below. This
    holds for a capability that refuses a compromised target, as every
    built-in compromising one does; one that compromises a node again
    dates it by that later attack."""
    topology = trace.final_state.topology
    total_nodes = len(topology.nodes)
    compromised = trace.final_state.compromise
    compromised_fraction = len(compromised) / total_nodes if total_nodes else 0.0

    first_rounds: Dict[str, int] = {}
    first_detected: Optional[int] = None
    detection_count = 0
    cost = 0
    for event in trace.events:
        if event.actor != _ATTACKER:
            continue
        cap = registry.get(event.capability_id)
        cost += cap.cost_units
        detection_count += event.detected
        if event.success and cap.binding_rule.compromises:
            first_rounds.setdefault(event.target, event.round)
        if _detected_attack(event) and (first_detected is None or event.round < first_detected):
            first_detected = event.round
    detected_any = first_detected is not None

    met: List[Tuple[int, bool]] = []
    first_objective_round: Optional[int] = None
    final_round = trace.final_state.round

    for i, objective in enumerate(objectives):
        matching = topology.select(objective.target)
        if objective.kind == _COMPROMISE:
            # Met in the round of the shortest prefix of the hit rounds that
            # meets it; the empty prefix stands for round 0.
            hit_rounds = sorted(first_rounds.get(nid, 0) for nid in matching
                                if nid in compromised)
            met_round = next(
                (r for hit, r in enumerate([0, *hit_rounds])
                 if _objective_met(objective, len(matching), hit, detected_any)),
                None,
            )
            is_met = met_round is not None
        else:
            hit = sum(nid in compromised for nid in matching)
            is_met = _objective_met(objective, len(matching), hit, detected_any)
            if not is_met:
                met_round = None
            elif objective.kind == _DETECT:
                met_round = first_detected
            else:  # protect: monotone, so the final-state check covers all rounds
                met_round = final_round if matching else 0
        met.append((i, is_met))
        if objective.actor == _ATTACKER and is_met:
            if first_objective_round is None or met_round < first_objective_round:
                first_objective_round = met_round

    return Metrics(
        objectives_met=tuple(met),
        time_to_first_objective=first_objective_round,
        compromised_fraction=compromised_fraction,
        detection_count=detection_count,
        attacker_cost_spent=cost,
    )


def batch_run(spec: ScenarioSpec, strategy: DefenseStrategy,
              registry: CapabilityRegistry, config: SimulationConfig,
              n: int) -> BatchResult:
    """Run n independent simulations with seeds config.seed + i (mod 2^64).

    The inputs are checked once per batch. Each run's metrics equal those
    ``run_simulation`` returns for its seed, but no scenario digest is
    computed: the batch keeps no traces, and the digest lives only in one.

    On an explicit topology no seed changes the start (``_start``), so it
    is built once, and each run inherits the attacker action lists the
    run before it used: the batch holds at most two runs' lists. A recipe
    expands to one topology per seed, so each run builds its own start
    and enumerates afresh.
    """
    if n < 1:
        raise InvalidScenario("batch size must be >= 1")
    _check_inputs(spec, strategy, registry)
    explicit = spec.scenario_parameters.explicit_topology is not None
    if explicit:
        start = _start(spec, strategy, registry, config.seed)
    last = LastEnumeration()
    per_seed: List[Metrics] = []
    successes = 0
    # Added left to right, as ``sum`` adds floats before Python 3.12 (from
    # 3.12 on it compensates rounding), so the mean has the same bytes on
    # every version.
    fraction_total = 0.0
    for i in range(n):
        run_config = SimulationConfig(config.max_rounds, (config.seed + i) & MASK64,
                                      config.attacker_policy, config.defender_policy)
        if explicit:
            last = LastEnumeration(inherited=last.used)
        else:
            start, last = _start(spec, strategy, registry, run_config.seed), LastEnumeration()
        events, final_state = _play(*start, registry, run_config, last)
        undigested = SimulationTrace(config=run_config, scenario_digest="",
                                     events=events, final_state=final_state)
        metrics = compute_metrics(undigested, spec.objectives, registry)
        per_seed.append(metrics)
        fraction_total += metrics.compromised_fraction
        if metrics.attacker_won(spec.objectives):
            successes += 1
    return BatchResult(
        per_seed=tuple(per_seed),
        mean_compromised_fraction=fraction_total / n,
        attacker_success_rate=successes / n,
        mean_detection_count=sum(m.detection_count for m in per_seed) / n,
    )
