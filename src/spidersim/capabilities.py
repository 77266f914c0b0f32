"""Atomic attack/defense capabilities and the registry that houses them.

A capability is the standardized unit of behavior: preconditions over the
simulation state, effects applied on success, a success probability, a
detection probability, and a cost. Third-party capability definitions use
interface version "cap-1" and the same closed predicate/effect vocabulary
as the built-ins.

Randomness contract for ``apply_capability`` (needed for seeded
reproducibility): exactly two uniform draws on the main path (success,
then detection), plus one draw per defense override present on the target
(honeypot first, then shocktrap), regardless of whether the draw changes
the outcome. A vulnerability-backed capability (an exploit) rolls success
against the vulnerability ``select_vulnerability`` picks and grants its
privilege; detection always rolls against the capability's own
``detection_prob``, so a vulnerability's ``detection_prob`` is
informational.

Each capability is compiled once, on first use, and keeps the result
(``functools.cached_property`` on the capability, so every registry that
holds it shares it, and pickles leave it out): each precondition becomes a check of (state,
binding) with its slot and operands already read, and ``BindingRule``, the
one reading of what it requires, is read from its terms.
``evaluate_preconditions`` runs the checks in declaration order; it is the
one place a precondition is evaluated.

Action enumeration (``applicable_capabilities``) lists the attacker's
actions, binding each slot only over the nodes its preconditions leave
open; its docstring states that narrowing rule and what a round costs.
``LastEnumeration`` reuses a run's lists while the state fields
enumeration reads are unchanged, and ``deploy`` applies a defense's
effects without a draw, for a strategy and for the reactive defender.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
from typing import (
    Callable, Container, Dict, Iterable, Iterator, List, Mapping, Optional, Set,
    Tuple,
)

from .errors import (
    DuplicateId,
    DuplicatePlacement,
    KindEffectMismatch,
    KindMismatch,
    PreconditionViolated,
    UnboundSlot,
    UnknownCapability,
    UnknownEffect,
    UnknownNode,
    UnknownPredicate,
)
from .model import (
    AccessRequirement, NetworkTopology, NodeClass, Privilege, Vulnerability,
    index_by_id,
)
from .records import record
from .state import _PRIV_RANK, DefenseKind, SimulationState

HONEYPOT_ALARM_PROB = 0.9
SHOCKTRAP_TRAP_ROUNDS = 2

# Node classes attackable from outside the topology (phishing surface).
ENTRY_CLASSES = (NodeClass.WORKSTATION, NodeClass.MAINTENANCE_ENDPOINT)


class CapabilityKind(str, Enum):
    ATTACK = "attack"
    DEFENSE = "defense"


class PredicateKind(str, Enum):
    ACTOR_HAS_FOOTHOLD = "actor_has_foothold"
    EDGE_EXISTS = "edge_exists"
    NODE_HAS_VULN_WITH_ACCESS = "node_has_vuln_with_access"
    CREDENTIAL_HELD = "credential_held"
    DEFENSE_ABSENT = "defense_absent"
    DEFENSE_PRESENT = "defense_present"
    NODE_CLASS_IS = "node_class_is"
    NODE_NOT_COMPROMISED = "node_not_compromised"
    NODE_ASSET_VALUE_AT_LEAST = "node_asset_value_at_least"


class EffectKind(str, Enum):
    COMPROMISE = "compromise"
    GAIN_CREDENTIALS = "gain_credentials"
    DEPLOY = "deploy"
    RAISE_ALARM = "raise_alarm"
    TRAP_ACTOR = "trap_actor"
    NULLIFY_CREDENTIAL_THEFT = "nullify_credential_theft"
    REVEAL_VULNERABILITIES = "reveal_vulnerabilities"


# The members ``apply_capability`` and ``_apply_effect`` compare against,
# bound once: on Python 3.10 and 3.11 each ``Enum.MEMBER`` lookup goes
# through ``EnumType.__getattr__`` (from 3.12 on it is a plain class
# attribute read).
_ATTACK = CapabilityKind.ATTACK
_HONEYPOT = DefenseKind.HONEYPOT
_SHOCKTRAP = DefenseKind.SHOCKTRAP
_ENCRYPTION = DefenseKind.ENCRYPTION
_SCANNER = DefenseKind.SCANNER
_COMPROMISE = EffectKind.COMPROMISE
_GAIN_CREDENTIALS = EffectKind.GAIN_CREDENTIALS
_DEPLOY = EffectKind.DEPLOY
_RAISE_ALARM = EffectKind.RAISE_ALARM
_TRAP_ACTOR = EffectKind.TRAP_ACTOR
_NULLIFY_CREDENTIAL_THEFT = EffectKind.NULLIFY_CREDENTIAL_THEFT
_REVEAL_VULNERABILITIES = EffectKind.REVEAL_VULNERABILITIES


@record
class Predicate:
    kind: PredicateKind
    slot: str = "target"
    src_slot: Optional[str] = None  # edge_exists only: the source side
    access: Optional[AccessRequirement] = None
    defense: Optional[DefenseKind] = None
    node_classes: Optional[Tuple[NodeClass, ...]] = None
    min_privilege: Privilege = Privilege.USER
    min_asset_value: int = 0


@record
class Effect:
    kind: EffectKind
    slot: str = "target"
    privilege: Optional[Privilege] = None
    defense: Optional[DefenseKind] = None
    duration_rounds: int = 1


# The one operand each kind of term takes, by field name (None: it takes
# none). The cap-1 reader reads these keys, and ``register_capability``
# refuses a term whose operand is None or not of its type
# (``OPERAND_TYPES``), or that sets another operand field. Every term names
# a ``slot`` except the kinds in SLOTLESS_EFFECTS, which act on the actor.
PREDICATE_OPERANDS: Dict[PredicateKind, Optional[str]] = {
    PredicateKind.ACTOR_HAS_FOOTHOLD: "min_privilege",
    PredicateKind.EDGE_EXISTS: "src_slot",
    PredicateKind.NODE_HAS_VULN_WITH_ACCESS: "access",
    PredicateKind.CREDENTIAL_HELD: None,
    PredicateKind.DEFENSE_ABSENT: "defense",
    PredicateKind.DEFENSE_PRESENT: "defense",
    PredicateKind.NODE_CLASS_IS: "node_classes",
    PredicateKind.NODE_NOT_COMPROMISED: None,
    PredicateKind.NODE_ASSET_VALUE_AT_LEAST: "min_asset_value",
}

EFFECT_OPERANDS: Dict[EffectKind, Optional[str]] = {
    EffectKind.COMPROMISE: "privilege",
    EffectKind.GAIN_CREDENTIALS: None,
    EffectKind.DEPLOY: "defense",
    EffectKind.RAISE_ALARM: None,
    EffectKind.TRAP_ACTOR: "duration_rounds",
    EffectKind.NULLIFY_CREDENTIAL_THEFT: None,
    EffectKind.REVEAL_VULNERABILITIES: None,
}

SLOTLESS_EFFECTS = frozenset({EffectKind.TRAP_ACTOR})

# The type of every operand field of a term, by record; a one-item tuple
# stands for a tuple of that type. An int is never a bool.
OPERAND_TYPES: Dict[type, Dict[str, object]] = {
    Predicate: {"src_slot": str, "access": AccessRequirement, "defense": DefenseKind,
                "node_classes": (NodeClass,), "min_privilege": Privilege,
                "min_asset_value": int},
    Effect: {"privilege": Privilege, "defense": DefenseKind, "duration_rounds": int},
}


@record
class AtomicCapability:
    id: str
    kind: CapabilityKind
    name: str
    technique_tag: str
    preconditions: Tuple[Predicate, ...]
    effects: Tuple[Effect, ...]
    base_success_prob: float
    detection_prob: float
    cost_units: int

    @cached_property
    def _checks(self) -> Tuple[Tuple[Predicate, Callable[..., bool]], ...]:
        """Each precondition with its compiled check, in declaration order."""
        return tuple((pred, _compile_predicate(pred)) for pred in self.preconditions)

    @cached_property
    def binding_rule(self) -> "BindingRule":
        """What the capability's terms require (``BindingRule``)."""
        return _read_binding_rule(self)


@record
class CapabilityOutcome:
    success: bool
    detected: bool
    trapped_for: int


@record
class Placement:
    capability_id: str
    target_node: str


@record
class DefenseStrategy:
    capability_placements: Tuple[Placement, ...] = ()


@record
class BindingRule:
    """What a capability's terms require, read once per capability: the one
    reading enumeration, ``apply_capability``, ``path_capabilities`` and the
    forge share."""

    cap: AtomicCapability
    # Some term reads the source slot, so every binding names a source.
    binds_source: bool
    # actor_has_foothold on target / on source
    target_footholds: bool
    source_footholds: bool
    # The classes every node_class_is on target allows, in ``NodeClass``
    # order, or None without one.
    target_classes: Optional[Tuple[NodeClass, ...]]
    # edge_exists from source to target
    source_edge: bool
    # The access level node_has_vuln_with_access on target needs, or None
    # without one. All of them must hold, so the strictest level decides:
    # the vulnerability ``select_vulnerability`` picks at it meets each.
    vuln_access: Optional[AccessRequirement]
    # credential_held on target
    needs_credential: bool
    # A compromise effect on target (which only an attack may have): a
    # successful use compromises its target, the round ``compute_metrics``
    # dates the target by.
    compromises: bool
    # Launchable from outside: it compromises, needs no foothold and binds
    # no source.
    is_entry: bool


def _named_slots(cap: AtomicCapability) -> List[str]:
    """The slot of every term, then the source slot of every edge_exists."""
    return ([term.slot for term in cap.preconditions + cap.effects]
            + [p.src_slot for p in cap.preconditions if p.src_slot is not None])


def _read_binding_rule(cap: AtomicCapability) -> BindingRule:
    def on(kind: PredicateKind, slot: str) -> List[Predicate]:
        return [p for p in cap.preconditions if p.kind == kind and p.slot == slot]

    class_terms = on(PredicateKind.NODE_CLASS_IS, "target")
    target_classes = None
    if class_terms:
        target_classes = tuple(cls for cls in NodeClass
                               if all(cls in (p.node_classes or ()) for p in class_terms))
    slots = _named_slots(cap)
    needs_foothold = any(p.kind == PredicateKind.ACTOR_HAS_FOOTHOLD for p in cap.preconditions)
    compromises = any(e.kind == EffectKind.COMPROMISE and e.slot == "target" for e in cap.effects)
    return BindingRule(
        cap=cap,
        binds_source="source" in slots,
        target_footholds=bool(on(PredicateKind.ACTOR_HAS_FOOTHOLD, "target")),
        source_footholds=bool(on(PredicateKind.ACTOR_HAS_FOOTHOLD, "source")),
        target_classes=target_classes,
        source_edge=any(p.src_slot == "source"
                        for p in on(PredicateKind.EDGE_EXISTS, "target")),
        vuln_access=min((p.access for p in on(PredicateKind.NODE_HAS_VULN_WITH_ACCESS, "target")),
                        key=_ACCESS_RANK.__getitem__, default=None),
        needs_credential=bool(on(PredicateKind.CREDENTIAL_HELD, "target")),
        compromises=compromises,
        is_entry=compromises and not needs_foothold and "source" not in slots,
    )


@record
class CapabilityRegistry:
    _caps: Tuple[AtomicCapability, ...] = ()

    def capabilities(self) -> Tuple[AtomicCapability, ...]:
        return self._caps

    def ids(self) -> Tuple[str, ...]:
        return tuple(cap.id for cap in self._caps)

    @cached_property
    def _by_id(self) -> Dict[str, AtomicCapability]:
        return index_by_id(self._caps)

    @cached_property
    def _attack_rules(self) -> Tuple[BindingRule, ...]:
        """The attack capabilities' binding rules, in (cost, id) order."""
        ordered = sorted(self._caps, key=lambda c: (c.cost_units, c.id))
        return tuple(c.binding_rule for c in ordered if c.kind == CapabilityKind.ATTACK)

    @cached_property
    def path_capabilities(self) -> Tuple[Optional[AtomicCapability], ...]:
        """The attack capabilities a static path takes: (exploit, lateral,
        entry), each the cheapest by (cost, id) whose binding rule has a
        ``vuln_access``, ``needs_credential``, or ``is_entry`` with
        ``target_classes``; or None."""
        rules = self._attack_rules

        def cheapest(qualifies: Callable[[BindingRule], bool]) -> Optional[AtomicCapability]:
            return next((rule.cap for rule in rules if qualifies(rule)), None)

        return (
            cheapest(lambda rule: rule.vuln_access is not None),
            cheapest(lambda rule: rule.needs_credential),
            cheapest(lambda rule: rule.is_entry and bool(rule.target_classes)),
        )

    def get(self, cap_id: str) -> AtomicCapability:
        cap = self._by_id.get(cap_id)
        if cap is None:
            raise UnknownCapability(f"no capability with id {cap_id!r}")
        return cap

    def has(self, cap_id: str) -> bool:
        return cap_id in self._by_id


def _check_capability(cap: AtomicCapability) -> None:
    if not 0.0 <= cap.base_success_prob <= 1.0 or not 0.0 <= cap.detection_prob <= 1.0:
        raise KindEffectMismatch(f"capability {cap.id!r}: probabilities must be in [0,1]")
    if cap.cost_units < 0:
        raise KindEffectMismatch(f"capability {cap.id!r}: cost must be >= 0")
    for pred in cap.preconditions:
        if not isinstance(pred.kind, PredicateKind):
            raise UnknownPredicate(f"capability {cap.id!r}: {pred.kind!r}")
        _check_operands(cap, pred, PREDICATE_OPERANDS[pred.kind], UnknownPredicate)
    for eff in cap.effects:
        if not isinstance(eff.kind, EffectKind):
            raise UnknownEffect(f"capability {cap.id!r}: {eff.kind!r}")
        _check_operands(cap, eff, EFFECT_OPERANDS[eff.kind], UnknownEffect)
        if eff.kind == EffectKind.TRAP_ACTOR and eff.duration_rounds < 1:
            raise KindEffectMismatch(f"capability {cap.id!r}: trap duration must be >= 1")
        if cap.kind == CapabilityKind.ATTACK and eff.kind == EffectKind.DEPLOY:
            raise KindEffectMismatch(f"attack capability {cap.id!r} must not deploy defenses")
        if cap.kind == CapabilityKind.DEFENSE and eff.kind == EffectKind.COMPROMISE:
            raise KindEffectMismatch(f"defense capability {cap.id!r} must not compromise nodes")
    for slot in _named_slots(cap):  # the slots action enumeration binds
        if slot not in ("target", "source"):
            raise UnboundSlot(f"capability {cap.id!r}: slot {slot!r} is not target or source")


def _of_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, tuple) and all(_of_type(item, kind[0]) for item in value)
    return type(value) is int if kind is int else isinstance(value, kind)


def _check_operands(cap: AtomicCapability, term: Predicate | Effect, operand: Optional[str],
                    error: Callable[[str], Exception]) -> None:
    """``operand`` is set and of its type; every other operand field is at
    its default, so no value is kept that the term's kind ignores."""
    default = type(term)(term.kind)
    for name, kind in OPERAND_TYPES[type(term)].items():
        value = getattr(term, name)
        if name != operand:
            if value != getattr(default, name):
                raise error(f"capability {cap.id!r}: {term.kind.value} takes no {name}")
        elif value is None:
            raise error(f"capability {cap.id!r}: {term.kind.value} needs {operand}")
        elif not _of_type(value, kind):
            wanted = f"tuple[{kind[0].__name__}]" if isinstance(kind, tuple) else kind.__name__
            raise error(f"capability {cap.id!r}: {term.kind.value} {operand} must be of "
                        f"type {wanted}, not {value!r}")


def register_capability(registry: CapabilityRegistry, cap: AtomicCapability) -> CapabilityRegistry:
    """Return a new registry containing ``cap``; the input is unmodified."""
    if registry.has(cap.id):
        raise DuplicateId(f"capability id {cap.id!r} already registered")
    _check_capability(cap)
    return CapabilityRegistry(_caps=registry._caps + (cap,))


# ---------------------------------------------------------------------------
# built-in capability set
# ---------------------------------------------------------------------------

@cache
def built_in_registry() -> CapabilityRegistry:
    """The built-in capabilities, registered and checked on the first call.
    Every call returns that same immutable value, so what it caches (its id
    index, binding rules and path capabilities) is worked out once per
    process."""
    registry = CapabilityRegistry()
    for cap in _BUILT_INS:
        registry = register_capability(registry, cap)
    return registry


_BUILT_INS = (
    # defenses
    AtomicCapability(
        id="honeypot", kind=CapabilityKind.DEFENSE, name="Honeypot decoy",
        technique_tag="D3-DE",
        preconditions=(Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.HONEYPOT),),
        effects=(Effect(EffectKind.DEPLOY, defense=DefenseKind.HONEYPOT),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=2,
    ),
    AtomicCapability(
        id="shocktrap", kind=CapabilityKind.DEFENSE, name="Shocktrap",
        technique_tag="D3-TRAP",
        preconditions=(Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.SHOCKTRAP),),
        effects=(Effect(EffectKind.DEPLOY, defense=DefenseKind.SHOCKTRAP),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=2,
    ),
    AtomicCapability(
        id="vuln_scan", kind=CapabilityKind.DEFENSE, name="Vulnerability scan",
        technique_tag="D3-NVA",
        preconditions=(),
        effects=(Effect(EffectKind.REVEAL_VULNERABILITIES),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=1,
    ),
    AtomicCapability(
        id="data_encryption", kind=CapabilityKind.DEFENSE, name="Data encryption",
        technique_tag="D3-ET",
        preconditions=(Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.ENCRYPTION),),
        effects=(Effect(EffectKind.NULLIFY_CREDENTIAL_THEFT),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=2,
    ),
    AtomicCapability(
        id="patch", kind=CapabilityKind.DEFENSE, name="Patch",
        technique_tag="D3-SU",
        preconditions=(Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.PATCH),),
        effects=(Effect(EffectKind.DEPLOY, defense=DefenseKind.PATCH),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=1,
    ),
    # attacks
    AtomicCapability(
        id="phishing", kind=CapabilityKind.ATTACK, name="Phishing",
        technique_tag="T1566",
        preconditions=(
            Predicate(PredicateKind.NODE_CLASS_IS, node_classes=ENTRY_CLASSES),
            Predicate(PredicateKind.NODE_NOT_COMPROMISED),
        ),
        effects=(Effect(EffectKind.COMPROMISE, privilege=Privilege.USER),),
        base_success_prob=0.4, detection_prob=0.3, cost_units=1,
    ),
    AtomicCapability(
        id="exploit_vuln", kind=CapabilityKind.ATTACK, name="Exploit vulnerability",
        technique_tag="T1190",
        preconditions=(
            Predicate(PredicateKind.ACTOR_HAS_FOOTHOLD, slot="source"),
            Predicate(PredicateKind.EDGE_EXISTS, slot="target", src_slot="source"),
            Predicate(PredicateKind.NODE_HAS_VULN_WITH_ACCESS, access=AccessRequirement.ADJACENT),
            Predicate(PredicateKind.NODE_NOT_COMPROMISED),
            Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.PATCH),
        ),
        effects=(Effect(EffectKind.COMPROMISE, privilege=Privilege.USER),),
        base_success_prob=0.5, detection_prob=0.3, cost_units=2,
    ),
    AtomicCapability(
        id="lateral_move_with_cred", kind=CapabilityKind.ATTACK, name="Lateral movement",
        technique_tag="T1021",
        preconditions=(
            Predicate(PredicateKind.ACTOR_HAS_FOOTHOLD, slot="source"),
            Predicate(PredicateKind.EDGE_EXISTS, slot="target", src_slot="source"),
            Predicate(PredicateKind.CREDENTIAL_HELD),
            Predicate(PredicateKind.NODE_NOT_COMPROMISED),
        ),
        effects=(Effect(EffectKind.COMPROMISE, privilege=Privilege.USER),),
        base_success_prob=0.9, detection_prob=0.2, cost_units=1,
    ),
    AtomicCapability(
        id="credential_theft", kind=CapabilityKind.ATTACK, name="Credential theft",
        technique_tag="T1555",
        preconditions=(
            Predicate(PredicateKind.ACTOR_HAS_FOOTHOLD, min_privilege=Privilege.ADMIN),
            Predicate(PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.ENCRYPTION),
        ),
        effects=(Effect(EffectKind.GAIN_CREDENTIALS),),
        base_success_prob=0.8, detection_prob=0.2, cost_units=1,
    ),
    AtomicCapability(
        id="exfiltrate", kind=CapabilityKind.ATTACK, name="Exfiltration",
        technique_tag="T1041",
        preconditions=(
            Predicate(PredicateKind.ACTOR_HAS_FOOTHOLD),
            Predicate(PredicateKind.NODE_ASSET_VALUE_AT_LEAST, min_asset_value=1),
        ),
        effects=(),
        base_success_prob=0.7, detection_prob=0.4, cost_units=3,
    ),
)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _bound(binding: Dict[str, str], slot: str, cap_id: str) -> str:
    if slot not in binding:
        raise UnboundSlot(f"capability {cap_id!r}: slot {slot!r} not bound")
    return binding[slot]


# A vulnerability requiring no more access than the attacker has is
# exploitable: network-exposed ones from adjacency, everything locally.
_ACCESS_RANK = {
    AccessRequirement.NETWORK: 0,
    AccessRequirement.ADJACENT: 1,
    AccessRequirement.LOCAL: 2,
}


def select_vulnerability(topology: NetworkTopology, node_id: str,
                         level: AccessRequirement) -> Optional[Vulnerability]:
    """The vulnerability an exploit with access ``level`` uses on a node:
    of the node's vulnerabilities exploitable at that level, the one with
    the highest success probability, ties going to the greater id. None
    for an unknown node or when none is exploitable.

    This is the one vulnerability rule: the precondition
    ``node_has_vuln_with_access`` holds when it finds one,
    ``apply_capability`` rolls against its success probability and grants
    its privilege, and the attack graph scores a hop with it."""
    node = topology.node_by_id(node_id)
    if node is None:
        return None
    best = None
    for vid in node.vulnerability_ids:
        vuln = topology.vulnerability_by_id(vid)
        if (vuln is not None
                and _ACCESS_RANK[vuln.access_requirement] <= _ACCESS_RANK[level]
                and (best is None
                     or (vuln.success_prob, vuln.id) > (best.success_prob, best.id))):
            best = vuln
    return best


def _compile_predicate(pred: Predicate) -> Callable[[SimulationState, Mapping[str, str]], bool]:
    """One precondition as a check of (state, binding), with its slot and
    operands read here, once. A check indexes the binding before it reads
    anything else, ``slot`` before ``src_slot``, so a slot the binding
    lacks surfaces as a KeyError naming it."""
    slot = pred.slot
    kind = pred.kind
    if kind == PredicateKind.ACTOR_HAS_FOOTHOLD:
        minimum = _PRIV_RANK[pred.min_privilege]

        def check(state, binding):
            return _PRIV_RANK[state.compromise.get(binding[slot])] >= minimum
    elif kind == PredicateKind.EDGE_EXISTS:
        src_slot = pred.src_slot

        def check(state, binding):
            node_id = binding[slot]
            return binding[src_slot] in state.topology.in_neighbours(node_id)
    elif kind == PredicateKind.NODE_HAS_VULN_WITH_ACCESS:
        access = pred.access

        def check(state, binding):
            return select_vulnerability(state.topology, binding[slot], access) is not None
    elif kind == PredicateKind.CREDENTIAL_HELD:
        def check(state, binding):
            return binding[slot] in state.credential_targets
    elif kind == PredicateKind.DEFENSE_ABSENT:
        defense = pred.defense

        def check(state, binding):
            return defense not in state.deployed.get(binding[slot], ())
    elif kind == PredicateKind.DEFENSE_PRESENT:
        defense = pred.defense

        def check(state, binding):
            return defense in state.deployed.get(binding[slot], ())
    elif kind == PredicateKind.NODE_CLASS_IS:
        classes = pred.node_classes or ()

        def check(state, binding):
            node = state.topology.node_by_id(binding[slot])
            return node is not None and node.node_class in classes
    elif kind == PredicateKind.NODE_NOT_COMPROMISED:
        def check(state, binding):
            return state.compromise.get(binding[slot]) is None
    elif kind == PredicateKind.NODE_ASSET_VALUE_AT_LEAST:
        threshold = pred.min_asset_value

        def check(state, binding):
            node = state.topology.node_by_id(binding[slot])
            return node is not None and node.asset_value >= threshold
    else:
        raise AssertionError(f"unreachable predicate kind {kind!r}")
    return check


def evaluate_preconditions(cap: AtomicCapability, state: SimulationState,
                           binding: Dict[str, str]) -> Optional[Predicate]:
    """Evaluate preconditions in declaration order: the first that fails,
    or None when every one holds.

    Runs the capability's compiled checks. A slot the binding lacks raises
    ``UnboundSlot`` when the first predicate that reads it is reached.
    """
    try:
        for pred, check in cap._checks:
            if not check(state, binding):
                return pred
    except KeyError as exc:
        # Only a slot this predicate reads and the binding lacks is unbound;
        # any other KeyError is not about the binding.
        slot = exc.args[0]
        if isinstance(slot, str) and slot in (pred.slot, pred.src_slot) and slot not in binding:
            raise UnboundSlot(f"capability {cap.id!r}: slot {slot!r} not bound") from None
        raise
    return None


def _apply_effect(state: SimulationState, eff: Effect, binding: Dict[str, str],
                  cap_id: str, privilege_override: Optional[Privilege]) -> SimulationState:
    node_id = _bound(binding, eff.slot, cap_id)
    kind = eff.kind
    if kind == _COMPROMISE:
        return state.with_compromise(node_id, privilege_override or eff.privilege)
    if kind == _GAIN_CREDENTIALS:
        node = state.topology.node_by_id(node_id)
        if node is None:
            return state
        return state.with_credentials(node.credential_ids)
    if kind == _DEPLOY:
        return state.with_defense(node_id, eff.defense)
    if kind == _RAISE_ALARM:
        return state.with_alarm(node_id)
    if kind == _TRAP_ACTOR:
        return state.with_trap(eff.duration_rounds)
    if kind == _NULLIFY_CREDENTIAL_THEFT:
        return state.with_defense(node_id, _ENCRYPTION)
    if kind == _REVEAL_VULNERABILITIES:
        return state.with_defense(node_id, _SCANNER)
    raise AssertionError(f"unreachable effect kind {kind!r}")


def deploy(state: SimulationState, cap: AtomicCapability, node_id: str) -> SimulationState:
    """``cap``'s effects on ``node_id``, unconditionally and without an rng
    draw: how a strategy deploys at round 0 and the reactive defender
    patches, each once it has checked what it deploys."""
    binding = {"target": node_id}
    for eff in cap.effects:
        state = _apply_effect(state, eff, binding, cap.id, None)
    return state


def deploy_strategy(state: SimulationState, strategy: DefenseStrategy,
                    registry: CapabilityRegistry) -> SimulationState:
    """Round-0 deployment: every placement's effects (``deploy``), since
    strategy composition already checked the placements."""
    for p in strategy.capability_placements:
        state = deploy(state, registry.get(p.capability_id), p.target_node)
    return state


def apply_capability(state: SimulationState, cap: AtomicCapability,
                     binding: Dict[str, str], rng) -> Tuple[SimulationState, CapabilityOutcome]:
    """Apply one capability; returns the new state and the outcome.

    Preconditions must already hold (caller-checked); a violation raises
    PreconditionViolated rather than counting as a failed roll. See the
    module docstring for the rng draw budget.
    """
    failed = evaluate_preconditions(cap, state, binding)
    if failed is not None:
        raise PreconditionViolated(f"capability {cap.id!r}: {failed.kind.value} does not hold")
    target = _bound(binding, "target", cap.id)
    level = cap.binding_rule.vuln_access
    vuln = None if level is None else select_vulnerability(state.topology, target, level)

    success = rng.random() < (cap.base_success_prob if vuln is None else vuln.success_prob)
    detected = rng.random() < cap.detection_prob

    # Decoys act on attacks only.
    attack = cap.kind == _ATTACK
    defenses = state.deployed.get(target, ()) if attack else ()
    honeypot = _HONEYPOT in defenses
    shocktrap = _SHOCKTRAP in defenses

    trapped_for = 0
    new_state = state

    if honeypot:
        # Deceptive success: the attacker sees success but gains nothing.
        alarm = rng.random() < HONEYPOT_ALARM_PROB
        success = True
        detected = detected or alarm
    if shocktrap:
        rng.random()  # fixed draw budget; the shocktrap alarm is certain
        detected = True
        trapped_for = SHOCKTRAP_TRAP_ROUNDS
        new_state = new_state.with_trap(SHOCKTRAP_TRAP_ROUNDS)
        if not honeypot:
            success = False

    if success and not honeypot and not shocktrap:
        privilege_override = None if vuln is None else vuln.gained_privilege
        for eff in cap.effects:
            new_state = _apply_effect(new_state, eff, binding, cap.id, privilege_override)

    if attack and detected:
        new_state = new_state.with_alarm(target)

    return new_state, CapabilityOutcome(success, detected, trapped_for)


def _candidate_bindings(rule: BindingRule, topology: NetworkTopology,
                        domain: Tuple[str, ...], in_domain: Set[str],
                        footholds: Set[str]) -> Iterator[Dict[str, str]]:
    """Bindings of ``rule.cap`` worth checking, in (target, source) order,
    under the narrowing rule ``applicable_capabilities`` states.

    ``domain`` is sorted and free of repeats, ``in_domain`` holds the same
    ids, and ``footholds`` the attacker's footholds among them.
    """
    sources = footholds if rule.source_footholds else in_domain
    targets: Optional[Set[str]] = None  # None: the whole domain
    if rule.target_footholds:
        targets = footholds
    if rule.target_classes is not None:
        targets = (in_domain if targets is None else targets).intersection(
            nid for cls in rule.target_classes for nid in topology.node_ids_of_class(cls))
    if rule.source_edge and rule.source_footholds:
        targets = (in_domain if targets is None else targets).intersection(
            nid for src in footholds for nid in topology.out_neighbours(src))
    ordered = domain if targets is None else sorted(targets)
    if not rule.binds_source:
        for target in ordered:
            yield {"target": target}
        return
    every_source = None if rule.source_edge else sorted(sources)
    for target in ordered:
        if rule.source_edge:
            candidates = sorted(sources & topology.in_neighbours(target))
        else:
            candidates = every_source
        for source in candidates:
            if source != target:
                yield {"target": target, "source": source}


def applicable_capabilities(registry: CapabilityRegistry, state: SimulationState
                            ) -> List[Tuple[AtomicCapability, Dict[str, str]]]:
    """Every (attack capability, binding) whose preconditions hold, in
    the engine-wide tie-break order: cost ascending, then capability id,
    then target id, then source id.

    Bindings range over every node of the state's topology. The
    capability's own preconditions narrow them:

    - ``target``: to the attacker's footholds under ``actor_has_foothold``
      on target; to the nodes of the allowed classes under
      ``node_class_is`` on target; to the out-neighbours of the footholds
      under ``edge_exists`` from source to target together with
      ``actor_has_foothold`` on source. Otherwise the whole domain.
    - ``source``: to the target's in-neighbours under ``edge_exists`` from
      source to target, and to the footholds under ``actor_has_foothold``
      on source; otherwise the whole domain. Never equal to ``target``.

    Each binding left is checked with ``evaluate_preconditions``. The
    rules are read once per registry, the node ids once per topology and
    a node's neighbour sets on the first read of that node, so a round
    costs one check per binding left: for the built-in attack set, one
    per entry-class node, two per foothold and two per edge out of a
    foothold.

    The attacker's footholds are the compromised nodes of the domain, the
    keys of ``compromise``. Of the state it reads only the topology,
    ``compromise``, ``deployed`` and ``credentials_held`` (through
    ``credential_targets``). ``LastEnumeration`` relies on this: it reuses
    one returned list while those fields are unchanged. So callers must
    not mutate the list or its binding dicts.
    """
    topology = state.topology
    domain = topology.node_ids
    in_domain = set(domain)
    footholds = state.compromise.keys() & in_domain
    out: List[Tuple[AtomicCapability, Dict[str, str]]] = []
    for rule in registry._attack_rules:
        for binding in _candidate_bindings(rule, topology, domain, in_domain, footholds):
            if evaluate_preconditions(rule.cap, state, binding) is None:
                out.append((rule.cap, binding))
    return out


class LastEnumeration:
    """The attacker's action lists of one run on one topology and registry:
    the list of its last round, with the state it was taken on, and every
    list the run used (``used``) or inherited from the run before it in
    the batch (``inherited``), keyed by the value of the state fields
    ``applicable_capabilities`` reads, which fix the list and its order.

    A state update keeps the very objects of the fields it does not
    change, so while ``compromise``, ``deployed`` and ``credentials_held``
    are the same objects as in ``state`` the last list is reused as is. On
    a miss the list is looked up by their value, and enumerated only when
    neither this run nor the one before it holds it. A run inherits the
    previous run's ``used`` alone, so a batch holds at most two runs'
    lists. Enumeration goes through this module's ``applicable_capabilities``,
    so a wrapper set there sees every list enumerated and no reuse.
    """

    __slots__ = ("state", "actions", "used", "inherited")

    def __init__(self, inherited: Optional[Dict[tuple, list]] = None):
        self.state = None
        self.used: Dict[tuple, list] = {}
        self.inherited = inherited or {}

    def actions_on(self, state: SimulationState, registry: CapabilityRegistry
                   ) -> List[Tuple[AtomicCapability, Dict[str, str]]]:
        last = self.state
        if (last is None or state.compromise is not last.compromise
                or state.deployed is not last.deployed
                or state.credentials_held is not last.credentials_held):
            key = (frozenset(state.compromise.items()), frozenset(state.deployed.items()),
                   state.credentials_held)
            actions = self.used.get(key)
            if actions is None:
                actions = self.inherited.get(key)
                if actions is None:
                    actions = applicable_capabilities(registry, state)
                self.used[key] = actions
            self.state = state
            self.actions = actions
        return self.actions


def check_placements(registry: CapabilityRegistry, placements: Iterable[Placement],
                     node_ids: Optional[Container[str]]) -> None:
    """The one placement rule: each placement names a registered defense
    (UnknownCapability, KindMismatch), once (DuplicatePlacement), on one of
    ``node_ids`` unless it is None (UnknownNode)."""
    seen = set()
    for placement in placements:
        cap_id, node_id = placement.capability_id, placement.target_node
        if registry.get(cap_id).kind != CapabilityKind.DEFENSE:
            raise KindMismatch(f"capability {cap_id!r} is not a defense")
        if (cap_id, node_id) in seen:
            raise DuplicatePlacement(f"duplicate placement ({cap_id!r}, {node_id!r})")
        if node_ids is not None and node_id not in node_ids:
            raise UnknownNode(f"no node {node_id!r} in topology")
        seen.add((cap_id, node_id))


def compose_strategy(registry: CapabilityRegistry,
                     placements: Iterable[Tuple[str, str]],
                     topology: Optional[NetworkTopology] = None) -> DefenseStrategy:
    """A defense strategy from (capability_id, node_id) placements, checked by
    ``check_placements`` against the nodes of ``topology``, if one is given
    (the engine checks them against the scenario's node ids)."""
    strategy = DefenseStrategy(tuple(Placement(capability_id=cap_id, target_node=node_id)
                                     for cap_id, node_id in placements))
    check_placements(registry, strategy.capability_placements,
                     None if topology is None else topology.node_ids)
    return strategy
