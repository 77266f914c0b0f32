"""Capability registry, precondition evaluation, probabilistic application."""

import copy
import json
import math
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidersim as ss
from spidersim.attackgraph import hop_option
from spidersim.capabilities import (
    EFFECT_OPERANDS,
    HONEYPOT_ALARM_PROB,
    OPERAND_TYPES,
    PREDICATE_OPERANDS,
    SHOCKTRAP_TRAP_ROUNDS,
    CapabilityRegistry,
    deploy_strategy,
    select_vulnerability,
)
from spidersim.engine import step_round
from spidersim.errors import (
    DuplicateId,
    DuplicatePlacement,
    InvariantViolation,
    KindEffectMismatch,
    KindMismatch,
    PreconditionViolated,
    UnboundSlot,
    UnknownCapability,
    UnknownEffect,
    UnknownField,
    UnknownNode,
    UnknownPredicate,
)
from spidersim.exports import _state_to_dict, parse_capability
from spidersim.state import DefenseKind, SimulationState, fresh_state

from helpers import (
    CountingRandom,
    StubRandom,
    chain_topology,
    make_topology,
    make_vuln,
    oracle_applicable_capabilities,
    random_topology,
    reference_evaluate_preconditions,
    with_directed_edges,
    with_vulnerabilities,
)


THIRD_PARTY = (
    ss.AtomicCapability(
        id="reverse_pivot", kind=ss.CapabilityKind.ATTACK, name="Reverse pivot",
        technique_tag="T1572",
        preconditions=(
            ss.Predicate(ss.PredicateKind.EDGE_EXISTS, slot="source", src_slot="target"),
            ss.Predicate(ss.PredicateKind.NODE_NOT_COMPROMISED),
        ),
        effects=(ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.USER),),
        base_success_prob=0.6, detection_prob=0.3, cost_units=2,
    ),
    ss.AtomicCapability(
        id="beacon", kind=ss.CapabilityKind.ATTACK, name="Beacon",
        technique_tag="T1071",
        preconditions=(
            ss.Predicate(ss.PredicateKind.ACTOR_HAS_FOOTHOLD, slot="source",
                         min_privilege=ss.Privilege.ADMIN),
            ss.Predicate(ss.PredicateKind.NODE_NOT_COMPROMISED),
        ),
        effects=(ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.ADMIN),),
        base_success_prob=0.5, detection_prob=0.2, cost_units=1,
    ),
    ss.AtomicCapability(
        id="paired_watch", kind=ss.CapabilityKind.DEFENSE, name="Paired watch",
        technique_tag="D3-NTA",
        preconditions=(
            ss.Predicate(ss.PredicateKind.NODE_ASSET_VALUE_AT_LEAST, slot="source",
                         min_asset_value=50),
            ss.Predicate(ss.PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.SCANNER),
        ),
        effects=(ss.Effect(ss.EffectKind.REVEAL_VULNERABILITIES),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=1,
    ),
    ss.AtomicCapability(
        id="escalate", kind=ss.CapabilityKind.ATTACK, name="Escalate",
        technique_tag="T1068",
        preconditions=(
            ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, node_classes=(
                ss.NodeClass.WORKSTATION, ss.NodeClass.SENSOR, ss.NodeClass.GATEWAY)),
            ss.Predicate(ss.PredicateKind.ACTOR_HAS_FOOTHOLD),
            ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, node_classes=(
                ss.NodeClass.SENSOR, ss.NodeClass.WORKSTATION,
                ss.NodeClass.MAINTENANCE_ENDPOINT)),
        ),
        effects=(ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.ADMIN),),
        base_success_prob=0.7, detection_prob=0.2, cost_units=1,
    ),
    ss.AtomicCapability(
        id="decoy_from_desk", kind=ss.CapabilityKind.DEFENSE, name="Decoy from desk",
        technique_tag="D3-DE",
        preconditions=(
            ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, slot="source", node_classes=(
                ss.NodeClass.WORKSTATION, ss.NodeClass.MAINTENANCE_ENDPOINT)),
            ss.Predicate(ss.PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.HONEYPOT),
        ),
        effects=(ss.Effect(ss.EffectKind.DEPLOY, defense=DefenseKind.HONEYPOT),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=2,
    ),
    ss.AtomicCapability(
        id="link_encrypt", kind=ss.CapabilityKind.DEFENSE, name="Link encryption",
        technique_tag="D3-ET",
        preconditions=(
            ss.Predicate(ss.PredicateKind.EDGE_EXISTS, slot="target", src_slot="source"),
            ss.Predicate(ss.PredicateKind.DEFENSE_ABSENT, defense=DefenseKind.ENCRYPTION),
        ),
        effects=(ss.Effect(ss.EffectKind.NULLIFY_CREDENTIAL_THEFT),),
        base_success_prob=1.0, detection_prob=0.0, cost_units=2,
    ),
)


def bare_attack(prob=0.5, detection=0.0, cap_id="probe"):
    """An attack with no preconditions and no effects, for probability tests."""
    return ss.AtomicCapability(
        id=cap_id, kind=ss.CapabilityKind.ATTACK, name="Probe",
        technique_tag="T0000", preconditions=(), effects=(),
        base_success_prob=prob, detection_prob=detection, cost_units=1,
    )


@pytest.fixture
def ws_state():
    topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION),
                                ("s", ss.NodeClass.SENSOR)],
                         edges=[("w", "s")])
    return fresh_state(topo)


class TestRegistration:
    def test_built_in_set(self, registry):
        assert len(registry.capabilities()) == 10
        attacks = {c.id for c in registry.capabilities() if c.kind == ss.CapabilityKind.ATTACK}
        assert attacks == {"phishing", "exploit_vuln", "lateral_move_with_cred",
                           "credential_theft", "exfiltrate"}

    def test_register_returns_new_registry(self, registry):
        before = registry.capabilities()
        bigger = ss.register_capability(registry, bare_attack())
        assert registry.capabilities() == before
        assert len(bigger.capabilities()) == len(before) + 1

    def test_duplicate_id_rejected(self, registry):
        with pytest.raises(DuplicateId):
            ss.register_capability(registry, bare_attack(cap_id="phishing"))

    def test_attack_must_not_deploy(self, registry):
        cap = replace(bare_attack(), effects=(
            ss.Effect(ss.EffectKind.DEPLOY, defense=DefenseKind.HONEYPOT),))
        with pytest.raises(KindEffectMismatch):
            ss.register_capability(registry, cap)

    def test_probability_bounds_checked(self, registry):
        with pytest.raises(KindEffectMismatch):
            ss.register_capability(registry, bare_attack(prob=1.5))

    @pytest.mark.parametrize("amend, error", [
        (dict(cost_units=-1), KindEffectMismatch),
        (dict(preconditions=(ss.Predicate("node_not_compromised"),)), UnknownPredicate),
        (dict(effects=(ss.Effect("raise_alarm"),)), UnknownEffect),
        (dict(effects=(ss.Effect(ss.EffectKind.TRAP_ACTOR, duration_rounds=0),)),
         KindEffectMismatch),
        (dict(kind=ss.CapabilityKind.DEFENSE,
              effects=(ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.USER),)),
         KindEffectMismatch),
    ], ids=["negative_cost", "predicate_kind_not_an_enum", "effect_kind_not_an_enum",
            "trap_of_no_rounds", "defense_that_compromises"])
    def test_refuses_a_capability_built_in_code(self, registry, amend, error):
        """What the cap-1 reader cannot produce, a capability built in code
        can: register refuses it with a domain error."""
        with pytest.raises(error) as err:
            ss.register_capability(registry, replace(bare_attack(), **amend))
        assert err.value.code == error.__name__


# One cap-1 term of every kind, each with its operand key (where the kind
# takes one) set to a value other than the record default.
CAP1_TERMS = (
    {"predicate": "actor_has_foothold", "slot": "source", "min_privilege": "admin"},
    {"predicate": "edge_exists", "src_slot": "source"},
    {"predicate": "node_has_vuln_with_access", "access": "local"},
    {"predicate": "credential_held"},
    {"predicate": "defense_absent", "defense": "honeypot"},
    {"predicate": "defense_present", "defense": "scanner"},
    {"predicate": "node_class_is", "node_classes": ["sensor"]},
    {"predicate": "node_not_compromised"},
    {"predicate": "node_asset_value_at_least", "min_asset_value": 30},
    {"effect": "compromise", "privilege": "admin"},
    {"effect": "gain_credentials"},
    {"effect": "deploy", "defense": "patch"},
    {"effect": "raise_alarm"},
    {"effect": "trap_actor", "duration_rounds": 3},
    {"effect": "nullify_credential_theft"},
    {"effect": "reveal_vulnerabilities"},
)


def one_term_document(term: dict) -> str:
    """A cap-1 file whose one precondition or effect is ``term``; a
    deploying capability is a defense, every other an attack."""
    section = "preconditions" if "predicate" in term else "effects"
    return json.dumps({
        "interface_version": "cap-1", "id": "one_term",
        "kind": "defense" if term.get("effect") == "deploy" else "attack",
        "name": "One term", "technique_tag": "T0001", section: [term],
        "base_success_prob": 0.5, "detection_prob": 0.1, "cost_units": 1,
    })


class TestTermOperands:
    """Which operand each term kind takes is declared once, next to the
    records; the cap-1 reader and ``register_capability`` both read it."""

    def test_every_kind_declares_a_record_field(self):
        assert set(PREDICATE_OPERANDS) == set(ss.PredicateKind)
        assert set(EFFECT_OPERANDS) == set(ss.EffectKind)
        for operands, record in ((PREDICATE_OPERANDS, ss.Predicate),
                                 (EFFECT_OPERANDS, ss.Effect)):
            fields = record.__dataclass_fields__
            assert all(op is None or op in fields for op in operands.values())
        kinds = {term.get("predicate", term.get("effect")) for term in CAP1_TERMS}
        assert kinds == {k.value for k in (*ss.PredicateKind, *ss.EffectKind)}

    def test_register_refuses_a_term_without_its_operand(self, registry):
        """Every kind that takes an operand: the file term registers; the
        same term with its operand set to None is refused by
        ``register_capability`` (UnknownPredicate or UnknownEffect), and
        the file without the operand key is refused by the reader, but
        for ``min_privilege``, which takes the record default USER."""
        refused = set()
        for term in CAP1_TERMS:
            is_predicate = "predicate" in term
            cap = parse_capability(one_term_document(term))
            ss.register_capability(registry, cap)
            record = (cap.preconditions if is_predicate else cap.effects)[0]
            operand = (PREDICATE_OPERANDS if is_predicate else EFFECT_OPERANDS)[record.kind]
            if operand is None:
                continue
            assert getattr(record, operand) is not None
            broken = replace(record, **{operand: None})
            broken_cap = (replace(cap, preconditions=(broken,)) if is_predicate
                          else replace(cap, effects=(broken,)))
            error = UnknownPredicate if is_predicate else UnknownEffect
            with pytest.raises(error, match=f"{record.kind.value} needs {operand}$"):
                ss.register_capability(registry, broken_cap)
            refused.add(record.kind)

            without = {key: value for key, value in term.items() if key != operand}
            if operand == "min_privilege":
                default = parse_capability(one_term_document(without))
                assert default.preconditions[0].min_privilege == ss.Privilege.USER
                ss.register_capability(registry, default)
            else:
                with pytest.raises(InvariantViolation,
                                   match=f"{operand}: missing required field"):
                    parse_capability(one_term_document(without))
        assert refused == {kind for operands in (PREDICATE_OPERANDS, EFFECT_OPERANDS)
                           for kind, operand in operands.items() if operand is not None}

    @pytest.mark.parametrize("term, error, message", [
        (ss.Effect(ss.EffectKind.DEPLOY, defense="patch"), UnknownEffect,
         "deploy defense must be of type DefenseKind, not 'patch'$"),
        (ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, node_classes="camera_server sensor"),
         UnknownPredicate, r"node_class_is node_classes must be of type tuple\[NodeClass\]"),
        (ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, node_classes=(ss.NodeClass.SENSOR, "x")),
         UnknownPredicate, r"node_classes must be of type tuple\[NodeClass\]"),
        (ss.Predicate(ss.PredicateKind.NODE_ASSET_VALUE_AT_LEAST, min_asset_value=True),
         UnknownPredicate, "min_asset_value must be of type int, not True$"),
        (ss.Predicate(ss.PredicateKind.NODE_NOT_COMPROMISED,
                      access=ss.AccessRequirement.LOCAL),
         UnknownPredicate, "node_not_compromised takes no access$"),
        (ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.USER, duration_rounds=3),
         UnknownEffect, "compromise takes no duration_rounds$"),
    ], ids=["defense_as_text", "classes_as_text", "class_as_text", "value_as_bool",
            "access_on_not_compromised", "duration_on_compromise"])
    def test_register_refuses_an_operand_no_file_gives(self, registry, term, error, message):
        """A term built in code may hold an operand of the wrong type, or an
        operand its kind ignores; register refuses both with the error a
        missing operand gets, before any run reads the term."""
        section = "preconditions" if isinstance(term, ss.Predicate) else "effects"
        kind = (ss.CapabilityKind.DEFENSE if term.kind == ss.EffectKind.DEPLOY
                else ss.CapabilityKind.ATTACK)
        cap = replace(bare_attack(), kind=kind, **{section: (term,)})
        with pytest.raises(error, match=message):
            ss.register_capability(registry, cap)

    def test_register_refuses_every_operand_the_kind_does_not_take(self, registry):
        """Each file term of every kind registers; with any other operand
        field set off its default, or its own operand set to a value of
        another type, it is refused."""
        other = {"src_slot": "source", "access": ss.AccessRequirement.LOCAL,
                 "defense": DefenseKind.SCANNER, "node_classes": (ss.NodeClass.SENSOR,),
                 "min_privilege": ss.Privilege.ADMIN, "min_asset_value": 7,
                 "privilege": ss.Privilege.ADMIN, "duration_rounds": 5}
        refused = 0
        for term in CAP1_TERMS:
            is_predicate = "predicate" in term
            cap = parse_capability(one_term_document(term))
            record = (cap.preconditions if is_predicate else cap.effects)[0]
            operand = (PREDICATE_OPERANDS if is_predicate else EFFECT_OPERANDS)[record.kind]
            error = UnknownPredicate if is_predicate else UnknownEffect
            for name in OPERAND_TYPES[type(record)]:
                if name == operand:
                    broken = replace(record, **{name: 1.5})
                else:
                    broken = replace(record, **{name: other[name]})
                broken_cap = (replace(cap, preconditions=(broken,)) if is_predicate
                              else replace(cap, effects=(broken,)))
                with pytest.raises(error, match=f"(takes no {name}|{name} must be of type .*)$"):
                    ss.register_capability(registry, broken_cap)
                refused += 1
        assert refused == 9 * 6 + 7 * 3

    def test_register_refuses_a_slot_enumeration_never_binds(self, registry):
        """Action enumeration binds ``target`` and ``source`` only, so a
        ``slot`` or ``src_slot`` naming any other is refused with
        UnboundSlot naming it, whether the term comes from a file or from
        code."""
        refused = 0
        for term in CAP1_TERMS:
            if term.get("effect") == "trap_actor":
                continue  # it takes no slot
            for key in ("slot", "src_slot") if term.get("predicate") == "edge_exists" else ("slot",):
                for slot in ("target", "source"):
                    cap = parse_capability(one_term_document({**term, key: slot}))
                    ss.register_capability(registry, cap)
                cap = parse_capability(one_term_document({**term, key: "relay"}))
                with pytest.raises(UnboundSlot, match="slot 'relay' is not target or source$"):
                    ss.register_capability(registry, cap)
                refused += 1
        assert refused == len(CAP1_TERMS)  # trap_actor skipped, edge_exists twice

    def test_trap_actor_takes_no_slot(self):
        term = {"effect": "trap_actor", "slot": "target", "duration_rounds": 2}
        with pytest.raises(UnknownField, match=r"effects\[0\]\.slot"):
            parse_capability(one_term_document(term))


class TestSharedBuiltInRegistry:
    """``built_in_registry`` builds its value once and shares it."""

    def test_every_call_returns_the_same_value(self):
        assert ss.built_in_registry() is ss.built_in_registry()

    def test_registering_leaves_the_shared_value_unchanged(self):
        shared = ss.built_in_registry()
        ids = shared.ids()
        bigger = ss.register_capability(ss.built_in_registry(), bare_attack())
        assert bigger.has("probe") and not shared.has("probe")
        assert ss.built_in_registry() is shared
        assert shared.ids() == ids and len(shared.capabilities()) == 10

    def test_used_value_pickles_as_a_fresh_one(self, marine_spec):
        shared = ss.built_in_registry()
        ss.batch_run(marine_spec, ss.DefenseStrategy(), shared,
                     ss.SimulationConfig(max_rounds=20, seed=3), 2)
        ss.enumerate_attack_paths(
            marine_spec.scenario_parameters.explicit_topology, shared,
            ss.PathQuery(entries=("maint-0",),
                         target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)))
        fresh = CapabilityRegistry(tuple(replace(cap) for cap in shared.capabilities()))
        assert pickle.dumps(shared) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(shared)) == fresh


class TestPreconditions:
    def test_phishing_on_workstation_holds(self, registry, ws_state):
        cap = registry.get("phishing")
        assert ss.evaluate_preconditions(cap, ws_state, {"target": "w"}) is None

    def test_phishing_on_sensor_fails_on_class(self, registry, ws_state):
        cap = registry.get("phishing")
        failed = ss.evaluate_preconditions(cap, ws_state, {"target": "s"})
        assert failed.kind == ss.PredicateKind.NODE_CLASS_IS

    def test_exploit_needs_foothold_first(self, registry):
        topo = chain_topology()
        state = fresh_state(topo)
        cap = registry.get("exploit_vuln")
        failed = ss.evaluate_preconditions(cap, state, {"target": "b", "source": "a"})
        assert failed.kind == ss.PredicateKind.ACTOR_HAS_FOOTHOLD

    def test_apply_rejects_violated_preconditions(self, registry, ws_state):
        cap = registry.get("phishing")
        with pytest.raises(PreconditionViolated):
            ss.apply_capability(ws_state, cap, {"target": "s"},
                                random.Random(0))

    def test_credential_theft_needs_admin(self, registry):
        topo = chain_topology()
        cap = registry.get("credential_theft")
        user = fresh_state(topo).with_compromise("a", ss.Privilege.USER)
        admin = fresh_state(topo).with_compromise("a", ss.Privilege.ADMIN)
        assert ss.evaluate_preconditions(cap, user, {"target": "a"}) is not None
        assert ss.evaluate_preconditions(cap, admin, {"target": "a"}) is None


def random_predicate(rng: random.Random) -> ss.Predicate:
    """Any of the nine predicate kinds, on target, source or a slot no
    enumeration binds, with random operands (rarely a vulnerability
    predicate without an access level, which no parsed one lacks)."""
    kind = rng.choice(list(ss.PredicateKind))
    slots = ("target", "source", "pivot")
    return ss.Predicate(
        kind, slot=rng.choice(slots),
        src_slot=rng.choice(slots) if kind == ss.PredicateKind.EDGE_EXISTS else None,
        access=rng.choice(list(ss.AccessRequirement) * 4 + [None]),
        defense=rng.choice(list(DefenseKind)),
        node_classes=tuple(rng.sample(list(ss.NodeClass), rng.randint(0, 3))),
        min_privilege=rng.choice([ss.Privilege.USER, ss.Privilege.ADMIN]),
        min_asset_value=rng.randint(0, 100),
    )


def random_state(rng: random.Random, topo) -> SimulationState:
    """A state built directly, not through updates: compromised nodes
    with unknown ids among them, random defenses and credentials (one
    unknown)."""
    ids = [n.id for n in topo.nodes] + ["ghost"]
    return SimulationState(
        topology=topo,
        compromise={nid: rng.choice([ss.Privilege.USER, ss.Privilege.ADMIN])
                    for nid in rng.sample(ids, rng.randint(0, len(ids)))},
        deployed={nid: frozenset(rng.sample(list(DefenseKind), rng.randint(1, 3)))
                  for nid in rng.sample(ids, rng.randint(0, len(ids)))},
        credentials_held=frozenset(
            [c.id for c in topo.credentials if rng.random() < 0.6] + ["cred-ghost"]),
    )


class TestCompiledChecks:
    def test_match_reference_interpreter(self):
        """``evaluate_preconditions`` against the reference interpreter in
        tests/helpers.py: the same first failing predicate (or None), and
        ``UnboundSlot`` (same message) for the same inputs, and a KeyError
        that is not about the binding stays a KeyError. Random
        capabilities of one to four predicates over all nine kinds, each
        evaluated on several random states and bindings, some of which
        leave a slot unbound or name an unknown node."""
        held = {kind: set() for kind in ss.PredicateKind}
        errors = {"UnboundSlot": 0, "KeyError": 0}
        for seed in range(400):
            rng = random.Random(seed)
            topo = with_directed_edges(random_topology(rng, max_nodes=6, max_edges=10), rng)
            ids = [n.id for n in topo.nodes] + ["ghost"]
            cap = ss.AtomicCapability(
                id=f"random-{seed}", kind=rng.choice(list(ss.CapabilityKind)),
                name="Random", technique_tag="T0000",
                preconditions=tuple(random_predicate(rng) for _ in range(rng.randint(1, 4))),
                effects=(), base_success_prob=0.5, detection_prob=0.5, cost_units=1,
            )
            for _ in range(6):
                state = random_state(rng, topo)
                binding = {slot: rng.choice(ids) for slot in ("target", "source", "pivot")
                           if rng.random() < 0.85}
                outcomes = []
                for evaluate in (ss.evaluate_preconditions, reference_evaluate_preconditions):
                    try:
                        outcomes.append(evaluate(cap, state, binding))
                    except UnboundSlot as exc:
                        outcomes.append(("UnboundSlot", exc.message))
                    except KeyError:
                        outcomes.append(("KeyError",))
                assert outcomes[0] == outcomes[1], (seed, cap.preconditions, binding)
                failed = outcomes[1]
                if isinstance(failed, tuple):
                    errors[failed[0]] += 1
                    continue
                # Record, per kind, the truth values seen on the predicates
                # the evaluation reached.
                reached = cap.preconditions
                if failed is not None:
                    reached = reached[:reached.index(failed) + 1]
                for pred in reached:
                    held[pred.kind].add(pred is not failed)
        assert all(values == {True, False} for values in held.values()), held
        assert all(errors.values()), errors

    def test_built_in_and_third_party_match_reference(self, registry):
        """The same comparison for every built-in and third-party
        capability on every (target, source) pair of random states."""
        caps = registry.capabilities() + THIRD_PARTY
        for seed in range(60):
            rng = random.Random(seed)
            topo = with_directed_edges(random_topology(rng, max_nodes=6, max_edges=10), rng)
            ids = [n.id for n in topo.nodes] + ["ghost"]
            state = random_state(rng, topo)
            for cap in caps:
                for target in ids:
                    for source in ids:
                        binding = {"target": target, "source": source}
                        assert (ss.evaluate_preconditions(cap, state, binding)
                                == reference_evaluate_preconditions(cap, state, binding))

    def test_state_built_directly_derives_credential_targets(self, registry):
        """Lateral movement binds through credentials given to the
        constructor, not only through ``with_credentials``."""
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.DATA_SERVER),
                   ("c", ss.NodeClass.CONTROLLER)],
            edges=[("a", "b"), ("a", "c")],
            creds=[ss.Credential(id="cred-b", stored_on="a", grants_access_to=("b",))],
        )
        state = SimulationState(topology=topo, compromise={"a": ss.Privilege.USER},
                                credentials_held=frozenset({"cred-b"}))
        found = ss.applicable_capabilities(registry, state)
        lateral = [b for cap, b in found if cap.id == "lateral_move_with_cred"]
        assert lateral == [{"target": "b", "source": "a"}]
        assert found == oracle_applicable_capabilities(registry, state, "abc")
        assert state == fresh_state(topo).with_credentials(["cred-b"]).with_compromise(
            "a", ss.Privilege.USER)

    def test_retheft_returns_the_state_itself(self):
        """Credentials already held leave the state, and so its derived
        ``credential_targets``, as they are; a new one makes a new state."""
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.DATA_SERVER)],
            edges=[("a", "b")],
            creds=[ss.Credential(id="cred-b", stored_on="a", grants_access_to=("b",))],
        )
        state = fresh_state(topo).with_credentials(["cred-b"])
        assert state.credential_targets == {"b"}
        assert state.with_credentials(["cred-b"]) is state
        assert state.with_credentials(iter(["cred-b", "cred-b"])) is state
        assert state.with_credentials([]) is state
        more = state.with_credentials(["cred-b", "cred-x"])
        assert more is not state
        assert more.credentials_held == {"cred-b", "cred-x"}
        assert state.credentials_held == {"cred-b"}

    def test_states_are_immutable_values(self):
        """Equal states compare and hash alike, whatever the order of the
        updates that made them (a lower privilege never replaces a higher
        one) or the form given to the constructor;
        neither a field nor a mapping of one can be changed; they pickle
        and deep-copy."""
        topo = chain_topology()
        one = (fresh_state(topo).with_compromise("a", ss.Privilege.USER)
               .with_defense("b", DefenseKind.PATCH).with_defense("b", DefenseKind.HONEYPOT)
               .with_compromise("a", ss.Privilege.ADMIN).with_credentials(["x"]))
        two = (fresh_state(topo).with_credentials(["x"])
               .with_defense("b", DefenseKind.HONEYPOT)
               .with_compromise("a", ss.Privilege.ADMIN).with_defense("b", DefenseKind.PATCH)
               .with_compromise("a", ss.Privilege.USER))
        built = SimulationState(
            topology=topo, compromise=(("a", ss.Privilege.ADMIN),),
            deployed={"b": (DefenseKind.PATCH, DefenseKind.HONEYPOT)}, credentials_held={"x"})
        assert one == two == built
        assert len({one, two, built}) == 1
        assert one != one.with_round(1) and one.with_round(1) == two.with_round(1)
        assert hash(one.with_alarm("a")) == hash(two.with_alarm("a"))
        with pytest.raises(AttributeError):
            one.round = 3
        with pytest.raises(TypeError):
            one.compromise["b"] = ss.Privilege.USER
        with pytest.raises(TypeError):
            one.deployed["a"] = frozenset()
        assert one.compromise.get("b") is None and "a" not in one.deployed
        assert pickle.loads(pickle.dumps(one)) == copy.deepcopy(one) == one

    @pytest.mark.parametrize("round_, alarms", [
        (3, ((2, "a"), (1, "b"))),
        (1, ((2, "a"),)),
        (2, ((0, "a"), (3, "b"))),
    ], ids=["out_of_order", "after_the_round", "last_after_the_round"])
    def test_alarms_out_of_round_order_are_refused(self, round_, alarms):
        """The reactive defender reads only the last alarm, which is exact
        only when alarms are in round order and none is from a later round."""
        with pytest.raises(InvariantViolation) as caught:
            SimulationState(topology=chain_topology(), round=round_, alarms=alarms)
        assert caught.value.path == "alarms"
        state = SimulationState(topology=chain_topology(), round=3,
                                alarms=((0, "a"), (2, "b"), (2, "a"), (3, "c")))
        assert pickle.loads(pickle.dumps(state)).alarms == state.alarms

    @pytest.mark.parametrize("field_name, bad", [
        ("compromise", None), ("compromise", "user"), ("deployed", "patch"), ("deployed", None),
    ])
    def test_values_that_are_not_members_are_refused(self, field_name, bad):
        """A compromised node holds a ``Privilege`` and a defense is a
        ``DefenseKind``: anything else (a None that ``node_not_compromised``
        would read as not compromised, or the text of a member) is refused
        by the constructor and by the update of that field."""
        if field_name == "compromise":
            entries, update = {"a": bad}, "with_compromise"
        else:
            entries, update = {"a": [DefenseKind.PATCH, bad]}, "with_defense"
        with pytest.raises(InvariantViolation) as caught:
            SimulationState(topology=chain_topology(), **{field_name: entries})
        assert caught.value.path == field_name
        with pytest.raises(InvariantViolation) as caught:
            getattr(fresh_state(chain_topology()), update)("a", bad)
        assert caught.value.path == field_name and "'a'" in caught.value.detail

    @pytest.mark.parametrize("field_name, bad", [
        ("credentials_held", {"cred-x", None}), ("credentials_held", [3]),
        ("compromise", {None: ss.Privilege.USER}), ("deployed", {3: [DefenseKind.PATCH]}),
        ("round", -3), ("round", None), ("round", "2"), ("trapped_until", -5),
        ("alarms", ((1, None),)), ("alarms", ((-1, "a"),)), ("alarms", ([0, "a"],)),
        ("alarms", ((0,),)), ("alarms", ((0, "a", "b"),)),
    ])
    def test_other_malformed_values_are_refused(self, field_name, bad):
        """Node and credential ids are strings, a round counter is a
        non-negative int and an alarm a (round, node id) pair: the trace
        export sorts the ids and writes the rest, so anything else would
        fail there, or write a value no run can produce."""
        with pytest.raises(InvariantViolation) as caught:
            SimulationState(topology=chain_topology(), **{"round": 3, field_name: bad})
        assert caught.value.path == field_name
        state = SimulationState(topology=chain_topology(), round=3, credentials_held={"x"},
                                trapped_until=5, alarms=((0, "a"), (3, "b")))
        assert _state_to_dict(state)["alarms"] == [[0, "a"], [3, "b"]]


class TestPickles:
    def test_used_values_pickle_as_fresh_ones(self):
        """Compiled checks, binding rules, path capabilities and topology
        indexes are derived from the fields: a used value keeps them, but
        pickles to the same bytes as a fresh one and round-trips equal."""
        from spidersim.data import marine_ranch_scenario_text
        used_spec = ss.parse_scenario(marine_ranch_scenario_text())
        fresh_spec = ss.parse_scenario(marine_ranch_scenario_text())
        registry = ss.built_in_registry()
        ss.batch_run(used_spec, ss.DefenseStrategy(), registry,
                     ss.SimulationConfig(max_rounds=20, seed=1), 3)
        topology = used_spec.scenario_parameters.explicit_topology
        ss.enumerate_attack_paths(topology, registry, ss.PathQuery(
            entries=("maint-0",), target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)))
        fresh_registry = ss.CapabilityRegistry(
            tuple(replace(cap) for cap in registry.capabilities()))
        pairs = [(topology, fresh_spec.scenario_parameters.explicit_topology),
                 (registry, fresh_registry),
                 *zip(registry.capabilities(), fresh_registry.capabilities())]
        for used, fresh in pairs:
            assert len(vars(used)) > len(vars(fresh))
            assert pickle.dumps(used) == pickle.dumps(fresh)
            assert pickle.loads(pickle.dumps(used)) == used == copy.deepcopy(used)


class TestVulnerabilityMatching:
    def test_network_vuln_matches_at_adjacent_level(self):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.GATEWAY)], edges=[],
            vulns=[make_vuln("a", 0.7, access=ss.AccessRequirement.NETWORK)])
        assert select_vulnerability(
            topo, "a", ss.AccessRequirement.ADJACENT).id == "vuln-a"

    def test_local_vuln_needs_local_access(self):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.GATEWAY)], edges=[],
            vulns=[make_vuln("a", 0.7, access=ss.AccessRequirement.LOCAL)])
        assert select_vulnerability(
            topo, "a", ss.AccessRequirement.ADJACENT) is None
        assert select_vulnerability(
            topo, "a", ss.AccessRequirement.LOCAL).id == "vuln-a"

    def test_exploit_takes_most_likely_vuln(self, registry):
        """The exploit rolls against the most likely exploitable
        vulnerability (0.9, which grants user), not the first by id (0.3,
        admin): the rule the attack graph scores the hop with."""
        first = replace(make_vuln("t", 0.3, privilege=ss.Privilege.ADMIN),
                        id="vuln-aa")
        second = replace(make_vuln("t", 0.9), id="vuln-zz")
        topo = make_topology(
            nodes=[("s", ss.NodeClass.WORKSTATION), ("t", ss.NodeClass.SENSOR)],
            edges=[("s", "t")])
        node = replace(topo.node_by_id("t"),
                       vulnerability_ids=("vuln-zz", "vuln-aa"))
        topo = replace(topo, nodes=(topo.nodes[0], node),
                       vulnerabilities=(first, second))
        state = fresh_state(topo).with_compromise("s", ss.Privilege.USER)
        cap = registry.get("exploit_vuln")
        binding = {"target": "t", "source": "s"}
        assert select_vulnerability(topo, "t", ss.AccessRequirement.ADJACENT) == second
        assert hop_option(topo, registry, "t") == ("exploit_vuln", 0.9, cap.cost_units)

        # a success draw between the two probabilities succeeds, and the
        # selected vulnerability also sets the granted privilege
        new_state, outcome = ss.apply_capability(state, cap, binding, StubRandom([0.5]))
        assert outcome.success
        assert new_state.compromise["t"] == ss.Privilege.USER

    def test_engine_rolls_against_the_step_probability(self, registry):
        """For every one-step attack path on random topologies with one to
        three vulnerabilities per node, of mixed access levels, applying
        the step's capability succeeds on a success draw just below
        ``step_prob`` and fails on one exactly at it: the engine uses the
        probability the attack graph scored. An exploit grants the
        privilege of the most likely exploitable vulnerability, ties going
        to the greater id."""
        exploitable_access = (ss.AccessRequirement.NETWORK, ss.AccessRequirement.ADJACENT)
        seen = Counter()
        for seed in range(150):
            rng = random.Random(seed)
            topo = with_vulnerabilities(random_topology(rng, max_nodes=6), rng)
            vuln_by_id = {v.id: v for v in topo.vulnerabilities}
            for entry in topo.nodes:
                for target in topo.nodes:
                    query = ss.PathQuery(entries=(entry.id,), max_len=1,
                                         target=ss.TargetSelector(node_id=target.id))
                    for path in ss.enumerate_attack_paths(topo, registry, query):
                        (step,) = path.steps
                        cap = registry.get(step.capability_id)
                        state = fresh_state(topo)
                        binding = {"target": step.target}
                        if step.source != ss.EXTERNAL:
                            binding["source"] = step.source
                            state = (state.with_compromise(step.source, ss.Privilege.USER)
                                     .with_credentials(c.id for c in topo.credentials))
                        below = StubRandom([math.nextafter(step.step_prob, 0.0)])
                        won, outcome = ss.apply_capability(state, cap, binding, below)
                        assert outcome.success, (seed, step)
                        _, outcome = ss.apply_capability(state, cap, binding,
                                                         StubRandom([step.step_prob]))
                        assert not outcome.success, (seed, step)
                        seen[cap.id] += 1
                        if cap.id == "exploit_vuln":
                            usable = sorted(
                                (vuln_by_id[vid] for vid in target.vulnerability_ids
                                 if vuln_by_id[vid].access_requirement in exploitable_access),
                                key=lambda v: v.id)
                            best = max(usable, key=lambda v: (v.success_prob, v.id))
                            assert won.compromise[step.target] == best.gained_privilege
                            seen["first id is not the best"] += (
                                usable[0].success_prob < best.success_prob)
        assert min(seen[cap_id] for cap_id in
                   ("phishing", "exploit_vuln", "lateral_move_with_cred")) >= 20, seen
        assert seen["first id is not the best"] >= 20, seen

    def test_patch_gates_exploit(self, registry):
        topo = chain_topology()
        state = fresh_state(topo).with_compromise("a", ss.Privilege.USER)
        cap = registry.get("exploit_vuln")
        binding = {"target": "b", "source": "a"}
        assert ss.evaluate_preconditions(cap, state, binding) is None
        patched = state.with_defense("b", DefenseKind.PATCH)
        assert (ss.evaluate_preconditions(cap, patched, binding).kind
                == ss.PredicateKind.DEFENSE_ABSENT)

    def test_encryption_gates_credential_theft(self, registry):
        topo = chain_topology()
        state = fresh_state(topo).with_compromise("a", ss.Privilege.ADMIN)
        cap = registry.get("credential_theft")
        assert ss.evaluate_preconditions(cap, state, {"target": "a"}) is None
        encrypted = state.with_defense("a", DefenseKind.ENCRYPTION)
        assert (ss.evaluate_preconditions(cap, encrypted, {"target": "a"}).kind
                == ss.PredicateKind.DEFENSE_ABSENT)


class TestApplication:
    def test_p_zero_never_succeeds(self, ws_state):
        cap = bare_attack(prob=0.0)
        rng = random.Random(1)
        assert not any(
            ss.apply_capability(ws_state, cap, {"target": "w"}, rng)[1].success
            for _ in range(200)
        )

    def test_p_one_always_succeeds(self, ws_state):
        cap = bare_attack(prob=1.0)
        rng = random.Random(1)
        assert all(
            ss.apply_capability(ws_state, cap, {"target": "w"}, rng)[1].success
            for _ in range(200)
        )

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_frequency_tracks_probability(self, ws_state, p):
        cap = bare_attack(prob=p)
        rng = random.Random(42)
        trials = 20_000
        hits = sum(
            ss.apply_capability(ws_state, cap, {"target": "w"}, rng)[1].success
            for _ in range(trials)
        )
        assert abs(hits / trials - p) < 0.015

    def test_effects_on_the_actor_and_on_a_missing_node(self, ws_state):
        """``raise_alarm`` records the target at the current round,
        ``trap_actor`` traps for its duration, and ``gain_credentials`` on a
        node the topology lacks gains nothing."""
        def applied(effect, target):
            cap = replace(bare_attack(prob=1.0), effects=(effect,))
            return ss.apply_capability(ws_state, cap, {"target": target}, random.Random(0))[0]

        alarmed = applied(ss.Effect(ss.EffectKind.RAISE_ALARM), "s")
        assert alarmed.alarms == ws_state.alarms + ((ws_state.round, "s"),)
        trapped = applied(ss.Effect(ss.EffectKind.TRAP_ACTOR, duration_rounds=3), "s")
        assert trapped.trapped_until == ws_state.round + 3
        assert applied(ss.Effect(ss.EffectKind.GAIN_CREDENTIALS), "ghost") == ws_state

    def test_draw_budget_plain_attack(self, ws_state):
        rng = CountingRandom(0)
        ss.apply_capability(ws_state, bare_attack(), {"target": "w"}, rng)
        assert rng.draws == 2

    def test_draw_budget_with_honeypot(self, ws_state):
        state = ws_state.with_defense("w", DefenseKind.HONEYPOT)
        rng = CountingRandom(0)
        ss.apply_capability(state, bare_attack(), {"target": "w"}, rng)
        assert rng.draws == 3

    def test_draw_budget_with_shocktrap(self, ws_state):
        state = ws_state.with_defense("w", DefenseKind.SHOCKTRAP)
        rng = CountingRandom(0)
        ss.apply_capability(state, bare_attack(), {"target": "w"}, rng)
        assert rng.draws == 3

    def test_draw_budget_with_both_defenses(self, ws_state):
        state = (ws_state.with_defense("w", DefenseKind.HONEYPOT)
                 .with_defense("w", DefenseKind.SHOCKTRAP))
        rng = CountingRandom(0)
        ss.apply_capability(state, bare_attack(), {"target": "w"}, rng)
        assert rng.draws == 4

    def test_decoys_act_on_attacks_only(self, ws_state):
        """A defense applied to a node holding a honeypot and a shocktrap
        rolls only its two draws, applies its effect, and is neither
        trapped nor alarmed, though it is detected."""
        state = (ws_state.with_defense("w", DefenseKind.HONEYPOT)
                 .with_defense("w", DefenseKind.SHOCKTRAP))
        cap = ss.AtomicCapability(
            id="guard", kind=ss.CapabilityKind.DEFENSE, name="Guard",
            technique_tag="T0000", preconditions=(),
            effects=(ss.Effect(ss.EffectKind.DEPLOY, defense=DefenseKind.PATCH),),
            base_success_prob=1.0, detection_prob=1.0, cost_units=1,
        )
        rng = CountingRandom(0)
        new_state, outcome = ss.apply_capability(state, cap, {"target": "w"}, rng)
        assert rng.draws == 2
        assert outcome == ss.CapabilityOutcome(success=True, detected=True, trapped_for=0)
        assert new_state.deployed["w"] == {DefenseKind.HONEYPOT, DefenseKind.SHOCKTRAP,
                                           DefenseKind.PATCH}
        assert new_state.trapped_until == state.trapped_until
        assert new_state.alarms == ()

    def test_honeypot_deceptive_success(self, registry, ws_state):
        state = ws_state.with_defense("w", DefenseKind.HONEYPOT)
        cap = registry.get("phishing")
        rng = random.Random(5)
        for _ in range(50):
            new_state, outcome = ss.apply_capability(
                state, cap, {"target": "w"}, rng)
            assert outcome.success
            assert not new_state.compromise

    def test_honeypot_alarm_frequency(self, ws_state):
        state = ws_state.with_defense("w", DefenseKind.HONEYPOT)
        cap = bare_attack(prob=1.0, detection=0.0)
        rng = random.Random(9)
        trials = 5000
        alarms = sum(
            ss.apply_capability(state, cap, {"target": "w"}, rng)[1].detected
            for _ in range(trials)
        )
        assert abs(alarms / trials - HONEYPOT_ALARM_PROB) < 0.02

    def test_shocktrap_certain_alarm_and_trap(self, registry, ws_state):
        state = ws_state.with_defense("w", DefenseKind.SHOCKTRAP)
        cap = registry.get("phishing")
        new_state, outcome = ss.apply_capability(
            state, cap, {"target": "w"}, random.Random(0))
        assert outcome.detected
        assert not outcome.success
        assert outcome.trapped_for == SHOCKTRAP_TRAP_ROUNDS
        assert new_state.trapped_until == state.round + SHOCKTRAP_TRAP_ROUNDS
        assert not new_state.compromise

    def test_detected_attack_raises_alarm(self, ws_state):
        cap = bare_attack(prob=1.0, detection=1.0)
        new_state, outcome = ss.apply_capability(
            ws_state, cap, {"target": "w"}, random.Random(0))
        assert outcome.detected
        assert new_state.alarms == ((0, "w"),)

    def test_reproducible_from_seed(self, registry, ws_state):
        cap = registry.get("phishing")

        def run():
            rng = random.Random(123)
            return [ss.apply_capability(ws_state, cap, {"target": "w"}, rng)[1]
                    for _ in range(20)]

        assert run() == run()


class TestApplicableAndStrategy:
    def test_order_is_total(self, registry, marine_topology):
        state = fresh_state(marine_topology).with_compromise(
            "maint-0", ss.Privilege.ADMIN)
        entries = ss.applicable_capabilities(registry, state)
        keys = [(cap.cost_units, cap.id, b["target"], b.get("source", ""))
                for cap, b in entries]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_deploy_needs_every_effect_slot_bound(self, registry, ws_state):
        """A placement binds only ``target``: a defense whose effect acts on
        ``source`` cannot be deployed."""
        watch = ss.AtomicCapability(
            id="watch_source", kind=ss.CapabilityKind.DEFENSE, name="Watch source",
            technique_tag="D3-NTA", preconditions=(),
            effects=(ss.Effect(ss.EffectKind.DEPLOY, defense=DefenseKind.HONEYPOT,
                               slot="source"),),
            base_success_prob=1.0, detection_prob=0.0, cost_units=1)
        registry = ss.register_capability(registry, watch)
        strategy = ss.compose_strategy(registry, [("watch_source", "w")])
        with pytest.raises(UnboundSlot):
            deploy_strategy(ws_state, strategy, registry)

    def test_matches_exhaustive_oracle(self, registry):
        """Same ordered list as trying every (source, target) pair, on
        random topologies with directed edges and a self-loop, in states
        reached by random defenses and by random attacks that have an
        effect.
        Third-party capabilities: an edge running target->source; source
        bound through neither an edge nor a foothold, or only through a
        class; an edge from a source without a foothold predicate; a
        foothold and two overlapping class predicates on target. The
        narrowing rule does not read a capability's kind, so each
        third-party defense takes part as an attack with its
        preconditions and no effects."""
        for cap in THIRD_PARTY:
            if cap.kind == ss.CapabilityKind.DEFENSE:
                cap = replace(cap, kind=ss.CapabilityKind.ATTACK, effects=())
            registry = ss.register_capability(registry, cap)
        found = set()
        for seed in range(150):
            rng = random.Random(seed)
            topo = with_directed_edges(
                random_topology(rng, max_nodes=8, max_edges=16), rng)
            ids = [n.id for n in topo.nodes]
            # Stolen credentials make lateral movement reachable in a few steps.
            state = fresh_state(topo).with_credentials(
                c.id for c in topo.credentials if rng.random() < 0.5)
            for _ in range(8):
                want = oracle_applicable_capabilities(registry, state, ids)
                assert ss.applicable_capabilities(registry, state) == want
                found.update(cap.id for cap, _ in want)
                moves = [action for action in want if action[0].effects]
                if rng.random() < 0.5:
                    state = state.with_defense(rng.choice(ids), rng.choice(list(DefenseKind)))
                elif moves:
                    cap, binding = rng.choice(moves)
                    state, _ = ss.apply_capability(state, cap, binding, rng)
        assert {"exploit_vuln", "lateral_move_with_cred"} <= found
        assert {cap.id for cap in THIRD_PARTY} <= found

    @pytest.mark.parametrize("policy", list(ss.AttackerPolicy))
    def test_matches_oracle_every_round(self, registry, policy):
        """Runs driven by ``step_round`` under each attacker policy and the
        reactive defender, from random round-0 deployments and one admin
        foothold: after every round the list equals the oracle's. The runs
        raise alarms, patch nodes, trap the attacker and steal
        credentials mid-run."""
        seen = {"alarm": 0, "patch": 0, "trap": 0, "credentials": 0}
        for seed in range(40):
            rng = random.Random(seed)
            topo = with_directed_edges(random_topology(rng, max_nodes=8, max_edges=16), rng)
            ids = [n.id for n in topo.nodes]
            placements = [(cap_id, nid) for cap_id in ("honeypot", "shocktrap", "data_encryption")
                          for nid in ids if rng.random() < 0.2]
            state = ss.deploy_strategy(fresh_state(topo),
                                       ss.compose_strategy(registry, placements, topo), registry)
            # An admin foothold where credentials are stored lets them be
            # stolen mid-run.
            holders = [n.id for n in topo.nodes if n.credential_ids] or ids
            state = state.with_compromise(rng.choice(holders), ss.Privilege.ADMIN)
            config = ss.SimulationConfig(max_rounds=12, seed=seed, attacker_policy=policy,
                                         defender_policy=ss.DefenderPolicy.REACTIVE)
            sim_rng = random.Random(seed)
            for _ in range(config.max_rounds):
                before = state
                state, events = step_round(state, registry, config, sim_rng)
                assert (ss.applicable_capabilities(registry, state)
                        == oracle_applicable_capabilities(registry, state, ids))
                seen["alarm"] += len(state.alarms) > len(before.alarms)
                seen["patch"] += any(e.capability_id == "patch" for e in events)
                seen["trap"] += state.trapped_until > before.trapped_until
                seen["credentials"] += state.credentials_held != before.credentials_held
        assert all(seen.values()), seen

    def test_compose_strategy_example(self, registry, marine_topology):
        strategy = ss.compose_strategy(
            registry,
            [("data_encryption", "ws-0"), ("honeypot", "maint-0"),
             ("shocktrap", "gateway-0")],
            marine_topology,
        )
        assert len(strategy.capability_placements) == 3

    def test_attack_capability_rejected(self, registry, marine_topology):
        with pytest.raises(KindMismatch):
            ss.compose_strategy(registry, [("phishing", "ws-0")],
                                marine_topology)

    def test_duplicate_placement_rejected(self, registry, marine_topology):
        with pytest.raises(DuplicatePlacement):
            ss.compose_strategy(
                registry, [("honeypot", "ws-0"), ("honeypot", "ws-0")],
                marine_topology)

    def test_unknown_capability(self, registry, marine_topology):
        with pytest.raises(UnknownCapability):
            ss.compose_strategy(registry, [("forcefield", "ws-0")],
                                marine_topology)

    def test_unknown_node_with_topology(self, registry, marine_topology):
        with pytest.raises(UnknownNode):
            ss.compose_strategy(registry, [("honeypot", "ghost")],
                                marine_topology)


@given(prob=st.floats(0.0, 1.0), detection=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_outcome_fields_are_consistent(prob, detection, seed):
    topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
    state = fresh_state(topo)
    cap = bare_attack(prob=prob, detection=detection)
    _, outcome = ss.apply_capability(state, cap, {"target": "w"},
                                     random.Random(seed))
    assert outcome.trapped_for == 0
    if prob == 0.0:
        assert not outcome.success
    if prob == 1.0:
        assert outcome.success
