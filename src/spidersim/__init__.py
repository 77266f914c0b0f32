"""spidersim: a lightweight, deterministic cybersecurity scenario simulator.

Structured scenario documents expand into theoretical-level network
topologies; attack paths are enumerated and scored over them; seeded
round-based attacker-vs-defense simulations run on composable atomic
capabilities; and a blackboard agent pipeline auto-generates validated
scenarios from high-level requirements.
"""

from .attackgraph import (
    EXTERNAL,
    AttackPath,
    AttackStep,
    PathQuery,
    enumerate_attack_paths,
    reachable_set,
    suggest_defense_placements,
)
from .capabilities import (
    AtomicCapability,
    CapabilityKind,
    CapabilityOutcome,
    CapabilityRegistry,
    DefenseStrategy,
    Effect,
    EffectKind,
    Placement,
    Predicate,
    PredicateKind,
    applicable_capabilities,
    apply_capability,
    built_in_registry,
    compose_strategy,
    deploy_strategy,
    evaluate_preconditions,
    register_capability,
)
from .engine import (
    AttackerPolicy,
    BatchResult,
    DefenderPolicy,
    Metrics,
    SimEvent,
    SimulationConfig,
    SimulationTrace,
    batch_run,
    compute_metrics,
    run_simulation,
    step_round,
)
from .exports import export_dot, export_trace
from .forge import (
    AttackerProfile,
    Blackboard,
    Constraints,
    GenerationReport,
    Requirement,
    agent_step,
    refine,
    run_pipeline,
)
from .model import (
    AccessRequirement,
    Actor,
    Credential,
    Edge,
    NetworkTopology,
    Node,
    NodeClass,
    Objective,
    ObjectiveKind,
    Privilege,
    ScenarioSpec,
    TargetSelector,
    TopologyRecipe,
    ValidationReport,
    Vulnerability,
    build_topology,
    parse_scenario,
    serialize_scenario,
    validate_spec,
)
from .state import DefenseKind, SimulationState, fresh_state

__version__ = "0.1.0"
