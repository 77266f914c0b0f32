"""Blackboard agent pipeline: generation, refinement, failure modes."""

import hashlib
import itertools
import json
import random
from dataclasses import fields, replace

import pytest

import spidersim as ss
import spidersim.attackgraph as attackgraph
import spidersim.forge as forge
from spidersim.capabilities import ENTRY_CLASSES, PredicateKind
from spidersim.forge import (
    PIPELINE,
    SLOT_NAMES,
    AttackerProfile,
    Blackboard,
    Constraints,
    ForgeValidation,
    HintKind,
    RefinementHint,
    Requirement,
    RoleId,
    agent_step,
    refine,
    select_hint,
)
from spidersim.errors import (
    EmptyRequirement,
    GenerationFailed,
    InvariantViolation,
    MissingConsumedSlot,
    NoHintsAvailable,
)
from spidersim.exports import parse_requirement
from spidersim.model import ValidationReport

from helpers import (
    builtin_reg,
    make_topology,
    make_vuln,
    random_topology,
    reference_edge_exists,
    reference_objective_reached,
    with_directed_edges,
    with_vulnerabilities,
)


def requirement(max_nodes=10, required=(ss.NodeClass.SENSOR,
                                        ss.NodeClass.CONTROLLER,
                                        ss.NodeClass.MAINTENANCE_ENDPOINT),
                target=ss.NodeClass.CONTROLLER, narrative="Exercise the site."):
    return Requirement(
        domain_tag="test-site",
        narrative=narrative,
        constraints=Constraints(
            max_nodes=max_nodes,
            required_classes=tuple(required),
            attacker_profile=AttackerProfile.TARGETED,
            target_class=target,
        ),
    )


class TestPipeline:
    def test_marine_requirement_generates_valid_spec(self, marine_requirement,
                                                     registry):
        spec, report = ss.run_pipeline(marine_requirement, registry, seed=7,
                                       max_iterations=5)
        assert report.final_valid
        assert report.iterations_used == len(report.per_iteration_reports)
        assert ss.validate_spec(spec, registry).errors == ()

        topo = spec.scenario_parameters.explicit_topology
        present = {n.node_class for n in topo.nodes}
        for cls in marine_requirement.constraints.required_classes:
            assert cls in present

        entries = sorted(n.id for n in topo.nodes
                         if n.node_class == ss.NodeClass.MAINTENANCE_ENDPOINT)
        paths = ss.enumerate_attack_paths(
            topo, registry,
            ss.PathQuery(entries=tuple(entries),
                         target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)))
        assert paths

    def test_determinism(self, marine_requirement, registry):
        first = ss.run_pipeline(marine_requirement, registry, seed=7)
        second = ss.run_pipeline(marine_requirement, registry, seed=7)
        assert ss.serialize_scenario(first[0]) == ss.serialize_scenario(second[0])
        assert first[1] == second[1]

    def test_empty_narrative(self, registry):
        with pytest.raises(EmptyRequirement):
            ss.run_pipeline(requirement(narrative="   "), registry, seed=1)

    def test_adversarial_requirement_fails_after_max_iterations(self, registry):
        # the target class is not required and the budget cannot fit it
        req = requirement(max_nodes=1, required=(ss.NodeClass.SENSOR,),
                          target=ss.NodeClass.CONTROLLER)
        with pytest.raises(GenerationFailed) as exc:
            ss.run_pipeline(req, registry, seed=3, max_iterations=4)
        report = exc.value.report
        assert report is not None
        assert not report.final_valid
        assert report.iterations_used == 4

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_iteration_limit_below_one_is_refused(self, marine_requirement, registry,
                                                  max_iterations):
        with pytest.raises(GenerationFailed, match="max_iterations"):
            ss.run_pipeline(marine_requirement, registry, seed=7,
                            max_iterations=max_iterations)

    def test_constraints_must_cover_required_classes(self):
        with pytest.raises(InvariantViolation):
            Constraints(max_nodes=1,
                        required_classes=(ss.NodeClass.SENSOR,
                                          ss.NodeClass.CONTROLLER),
                        attacker_profile=AttackerProfile.TARGETED,
                        target_class=ss.NodeClass.CONTROLLER)

    @pytest.mark.parametrize("max_nodes", [0, -1])
    def test_constraints_need_a_node(self, max_nodes):
        """A budget below one node is refused by the requirement itself,
        not later by the synthesizer as an empty recipe."""
        with pytest.raises(InvariantViolation) as err:
            Constraints(max_nodes=max_nodes, required_classes=(),
                        attacker_profile=AttackerProfile.TARGETED,
                        target_class=ss.NodeClass.CONTROLLER)
        assert err.value.path == "constraints.max_nodes"

    def test_path_search_bug_propagates(self, marine_requirement, registry,
                                        monkeypatch):
        import spidersim.forge as forge

        def broken(*args, **kwargs):
            raise RuntimeError("path search bug")

        monkeypatch.setattr(forge, "reachable_set", broken)
        with pytest.raises(RuntimeError, match="path search bug"):
            ss.run_pipeline(marine_requirement, registry, seed=7)

    def test_generates_with_only_the_built_in_attacks(self, marine_requirement, registry):
        """No role needs a defense capability: a registry without them
        still yields a scenario that validates against it."""
        attacks = ss.CapabilityRegistry(tuple(
            cap for cap in registry.capabilities() if cap.kind == ss.CapabilityKind.ATTACK))
        spec, report = ss.run_pipeline(marine_requirement, attacks, seed=7)
        assert report.final_valid
        assert ss.validate_spec(spec, attacks).errors == ()

    def test_refinement_monotonicity(self, marine_requirement, registry):
        # the marine run needs refinement; hints only ever grow the topology
        _, report = ss.run_pipeline(marine_requirement, registry, seed=7)
        assert report.refinements_applied
        assert all(h.kind in (HintKind.ADD_VULNERABILITY, HintKind.ADD_EDGE,
                              HintKind.ADD_ENTRY_SURFACE,
                              HintKind.RAISE_NODE_BUDGET)
                   for h in report.refinements_applied)


def role_of(role_id):
    return next(role for role in PIPELINE if role.id == role_id)


class TestAgentStep:
    def run_roles(self, req, registry, seed, upto):
        bb = Blackboard(requirement=req)
        for role in PIPELINE:
            bb = agent_step(role, bb, registry, seed)
            if role.id == upto:
                break
        return bb

    def test_dependency_order_enforced(self, marine_requirement, registry):
        bb = Blackboard(requirement=marine_requirement)
        synthesizer = role_of(RoleId.TOPOLOGY_SYNTHESIZER)
        with pytest.raises(MissingConsumedSlot):
            agent_step(synthesizer, bb, registry, seed=7)

    def test_slots_are_the_pipeline_outputs_in_order(self):
        """The roles' outputs name the blackboard's slot fields, in order,
        and each role consumes only slots written before its own."""
        assert SLOT_NAMES == tuple(role.produces for role in PIPELINE)
        blackboard_fields = [f.name for f in fields(Blackboard)]
        assert blackboard_fields[1:1 + len(SLOT_NAMES)] == list(SLOT_NAMES)
        for role in PIPELINE:
            assert set(role.consumes) <= set(SLOT_NAMES[:SLOT_NAMES.index(role.produces)])

    def test_validator_needs_the_context_profile(self, registry):
        """The validator reads the profile's entry class when the draft has
        no entry surface, so it declares the slot: without it the step
        is refused before the role runs."""
        req = requirement(max_nodes=2, required=(ss.NodeClass.SENSOR, ss.NodeClass.CONTROLLER))
        bb = self.run_roles(req, registry, 0, RoleId.TOPOLOGY_SYNTHESIZER)
        assert not [n for n in bb.topology_draft.nodes
                    if n.node_class in ENTRY_CLASSES]
        with pytest.raises(MissingConsumedSlot, match="context_profile"):
            agent_step(role_of(RoleId.VALIDATOR), replace(bb, context_profile=None),
                       registry, seed=0)

    def test_local_only_vulnerability_gets_add_vulnerability(self, registry):
        """A target whose only vulnerability needs LOCAL access cannot be
        exploited from an adjacent foothold, so the validator asks for an
        ADJACENT one as well as the edge."""
        req = requirement(required=(ss.NodeClass.MAINTENANCE_ENDPOINT, ss.NodeClass.CONTROLLER))
        topology = make_topology(
            nodes=[("m", ss.NodeClass.MAINTENANCE_ENDPOINT), ("c", ss.NodeClass.CONTROLLER)],
            edges=[("m", "c")],
            vulns=[make_vuln("c", 0.9, access=ss.AccessRequirement.LOCAL)],
        )
        bb = Blackboard(requirement=req, topology_draft=topology)
        for role in PIPELINE:
            if role.id != RoleId.TOPOLOGY_SYNTHESIZER:
                bb = agent_step(role, bb, registry, seed=0)
        assert ss.enumerate_attack_paths(
            bb.topology_draft, registry,
            ss.PathQuery(entries=("m",), target=bb.threat_plan.objectives[0].target)) == []
        assert bb.validation_report.hints == (
            RefinementHint(HintKind.ADD_VULNERABILITY, node_id="c",
                           access=ss.AccessRequirement.ADJACENT),
            RefinementHint(HintKind.ADD_EDGE, src="m", dst="c"),
        )

    def test_context_analyst_lists_required_classes(self, marine_requirement,
                                                    registry):
        bb = self.run_roles(marine_requirement, registry, 7,
                            RoleId.CONTEXT_ANALYST)
        profile = bb.context_profile
        for cls in marine_requirement.constraints.required_classes:
            assert cls in profile.asset_classes
        assert profile.entry_class == ss.NodeClass.MAINTENANCE_ENDPOINT

    def test_revision_increments_by_one_per_step(self, marine_requirement,
                                                 registry):
        bb = Blackboard(requirement=marine_requirement)
        for i, role in enumerate(PIPELINE, start=1):
            bb = agent_step(role, bb, registry, seed=7)
            assert bb.revision == i

    def test_slot_ownership_from_log(self, marine_requirement, registry, monkeypatch):
        """Each step writes only its own role's slot and runs exactly that
        role, once: the roles run in the order they are stepped."""
        owner = {role.produces: role.id.value for role in PIPELINE}
        ran = []

        def recording(role):
            def run(bb, *args):
                ran.append(role.id)
                return role.run(bb, *args)
            return replace(role, run=run)

        monkeypatch.setattr(forge, "PIPELINE", tuple(map(recording, PIPELINE)))
        bb = Blackboard(requirement=marine_requirement)
        written = {}
        for role in forge.PIPELINE:
            before = {name: getattr(bb, name) for name in SLOT_NAMES}
            bb = agent_step(role, bb, registry, seed=7)
            for key in SLOT_NAMES:
                if getattr(bb, key) is not before[key]:
                    written.setdefault(key, role.id.value)
        assert written == {slot: owner[slot] for slot in written}
        assert ran == [r.id for r in PIPELINE]

    def test_validator_emits_hints_when_no_path(self, marine_requirement,
                                                registry):
        # seed 7 is known to need refinement on the first iteration
        bb = self.run_roles(marine_requirement, registry, 7, RoleId.VALIDATOR)
        validation = bb.validation_report
        assert validation.report.errors
        assert any(h.kind in (HintKind.ADD_EDGE, HintKind.ADD_VULNERABILITY)
                   for h in validation.hints)


class TestRefine:
    def validation(self, *hints):
        report = ValidationReport(errors=(), warnings=())
        return ForgeValidation(report=report, hints=tuple(hints))

    def test_hint_precedence(self):
        validation = self.validation(
            RefinementHint(HintKind.ADD_EDGE, src="a", dst="b"),
            RefinementHint(HintKind.ADD_ENTRY_SURFACE,
                           node_class=ss.NodeClass.WORKSTATION),
        )
        assert select_hint(validation).kind == HintKind.ADD_ENTRY_SURFACE

    def test_no_hints(self):
        with pytest.raises(NoHintsAvailable):
            select_hint(self.validation())

    @pytest.mark.parametrize("kind, fields, missing", [
        (HintKind.ADD_ENTRY_SURFACE, {}, "node_class"),
        (HintKind.ADD_VULNERABILITY, {"access": ss.AccessRequirement.ADJACENT}, "node_id"),
        (HintKind.ADD_VULNERABILITY, {"node_id": "sensor-0"}, "access"),
        (HintKind.ADD_EDGE, {"dst": "sensor-0"}, "src"),
        (HintKind.ADD_EDGE, {"src": "maint-0"}, "dst"),
    ])
    def test_a_hint_lacking_a_field_its_kind_needs_is_refused(self, kind, fields,
                                                              missing):
        with pytest.raises(InvariantViolation) as err:
            RefinementHint(kind, **fields)
        assert err.value.path == f"hint.{missing}"
        RefinementHint(HintKind.RAISE_NODE_BUDGET)

    def test_add_vulnerability_updates_draft_and_clears_downstream(
            self, marine_requirement, registry):
        bb = Blackboard(requirement=marine_requirement)
        for role in PIPELINE:
            bb = agent_step(role, bb, registry, seed=7)
        topo_before = bb.topology_draft
        target = topo_before.nodes[0].id
        validation = self.validation(
            RefinementHint(HintKind.ADD_VULNERABILITY, node_id=target,
                           access=ss.AccessRequirement.NETWORK))
        refined = refine(bb, validation)
        topo_after = refined.topology_draft
        assert len(topo_after.vulnerabilities) == len(topo_before.vulnerabilities) + 1
        node = topo_after.node_by_id(target)
        assert topo_after.vulnerabilities[-1].id in node.vulnerability_ids
        assert refined.threat_plan is bb.threat_plan
        assert refined.validation_report is None
        assert refined.context_profile is not None
        assert refined.revision == bb.revision + 1

    def test_add_entry_surface_clears_topology(self, marine_requirement,
                                               registry):
        bb = Blackboard(requirement=marine_requirement)
        for role in PIPELINE:
            bb = agent_step(role, bb, registry, seed=7)
        validation = self.validation(
            RefinementHint(HintKind.ADD_ENTRY_SURFACE,
                           node_class=ss.NodeClass.WORKSTATION))
        refined = refine(bb, validation)
        assert refined.topology_draft is None
        assert ss.NodeClass.WORKSTATION in refined.extra_entry_classes

    def test_add_edge_adds_one_exactly_where_no_edge_joins_the_pair(
            self, marine_requirement):
        """On random drafts with one-way edges, self-loops and an edge to a
        missing node, an ADD_EDGE hint adds ``src -> dst`` exactly when a
        scan of the edge list finds no edge between the two, either way."""
        outcomes = set()
        for seed in range(100):
            rng = random.Random(seed)
            topology = with_directed_edges(random_topology(rng), rng)
            ids = [n.id for n in topology.nodes] + ["ghost"]
            topology = replace(topology, edges=topology.edges
                               + (ss.Edge(src=rng.choice(ids[:-1]), dst="ghost"),))
            bb = Blackboard(requirement=marine_requirement, topology_draft=topology)
            for src, dst in itertools.product(ids, ids):
                draft = refine(bb, self.validation(
                    RefinementHint(HintKind.ADD_EDGE, src=src, dst=dst))).topology_draft
                exists = reference_edge_exists(topology, src, dst)
                assert draft.edges == topology.edges + (
                    () if exists else (ss.Edge(src=src, dst=dst),)), (seed, src, dst)
                outcomes.add(exists)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("hint, first_cleared", [
        (RefinementHint(HintKind.ADD_ENTRY_SURFACE, node_class=ss.NodeClass.WORKSTATION),
         "topology_draft"),
        (RefinementHint(HintKind.RAISE_NODE_BUDGET), "topology_draft"),
        (RefinementHint(HintKind.ADD_VULNERABILITY, node_id="sensor-0",
                        access=ss.AccessRequirement.ADJACENT), "validation_report"),
        (RefinementHint(HintKind.ADD_EDGE, src="maint-0", dst="sensor-0"), "validation_report"),
    ])
    def test_clears_a_slot_and_every_later_one(self, marine_requirement, registry,
                                               hint, first_cleared):
        bb = Blackboard(requirement=marine_requirement)
        for role in PIPELINE:
            bb = agent_step(role, bb, registry, seed=7)
        refined = refine(bb, self.validation(hint))
        cut = SLOT_NAMES.index(first_cleared)
        assert all(getattr(refined, name) is not None for name in SLOT_NAMES[:cut])
        assert all(getattr(refined, name) is None for name in SLOT_NAMES[cut:])
        assert refined.context_profile is bb.context_profile


class TestRequirementFormat:
    def test_roundtrip(self, marine_requirement):
        constraints = marine_requirement.constraints
        text = json.dumps({
            "domain_tag": marine_requirement.domain_tag,
            "narrative": marine_requirement.narrative,
            "constraints": {
                "max_nodes": constraints.max_nodes,
                "required_classes": [c.value for c in constraints.required_classes],
                "attacker_profile": constraints.attacker_profile.value,
                "target_class": constraints.target_class.value,
            },
        })
        assert parse_requirement(text) == marine_requirement


# ---------------------------------------------------------------------------
# output pin over a fixed grid of requirements, seeds and iteration limits
# ---------------------------------------------------------------------------

PIN_CLASSES = tuple(c for c in ss.NodeClass if c != ss.NodeClass.GATEWAY)
PIN_SEEDS = (0, 1, 2)
PIN_MAX_ITERATIONS = (1, 3, 5)


def pin_requirements():
    """40 requirements drawn from a fixed rng. Every fifth is budget-starved:
    ``max_nodes`` leaves no node for a target class it does not require,
    and may leave none for an entry surface either."""
    rng = random.Random(2026)
    reqs = []
    for i in range(40):
        target = rng.choice(PIN_CLASSES)
        if i % 5 == 4:
            others = [c for c in PIN_CLASSES if c != target]
            required = rng.sample(others, rng.randint(1, 3))
            max_nodes = len(required)
        else:
            required = rng.sample(PIN_CLASSES, rng.randint(1, 4))
            max_nodes = len(set(required) | {target}) + rng.randint(0, 3)
        reqs.append(Requirement(
            domain_tag="pin-site", narrative="Exercise the site.",
            constraints=Constraints(
                max_nodes=max_nodes, required_classes=tuple(required),
                attacker_profile=rng.choice(list(AttackerProfile)),
                target_class=target)))
    return reqs


def pin_outcome(req, registry, seed, max_iterations):
    """The scenario text or the failure message, then ``repr`` of the
    generation report."""
    try:
        spec, report = ss.run_pipeline(req, registry, seed=seed,
                                       max_iterations=max_iterations)
        text = ss.serialize_scenario(spec)
    except GenerationFailed as exc:
        text, report = f"{exc.code}: {exc.message}\n", exc.report
    return text + repr(report) + "\n"


class TestOutputPin:
    def test_grid_digest(self, registry):
        """sha256 over 360 generations (40 requirements x 3 seeds x 3
        iteration limits), successes and failures alike."""
        digest = hashlib.sha256()
        outcomes = {"ok": 0, "failed": 0}
        for req in pin_requirements():
            for seed in PIN_SEEDS:
                for max_iterations in PIN_MAX_ITERATIONS:
                    text = pin_outcome(req, registry, seed, max_iterations)
                    outcomes["failed" if text.startswith("GenerationFailed") else "ok"] += 1
                    digest.update(text.encode("utf-8"))
        assert outcomes["ok"] and outcomes["failed"], outcomes
        assert digest.hexdigest() == (
            "3ad5280f9bc53c62b27b4291732760152436fb816cb87ee8e401a5906c5f4a80")


class TestPathSearch:
    """The validator answers reachability with one ``reachable_set`` walk
    per step from the draft's entry nodes, and no role searches paths."""

    def test_one_walk_per_validator_step(self, registry, monkeypatch):
        """Over the pin requirements, a walk runs once in each validator
        step whose draft has an entry node, from those nodes, and nowhere
        else; the path search never runs."""
        walks = []
        expected = []
        running = [None]
        walk, step = forge.reachable_set, forge.agent_step

        def recording_walk(topology, registry, entries):
            walks.append((running[0], tuple(entries)))
            return walk(topology, registry, entries)

        def recording_step(role, bb, *args, **kwargs):
            running[0] = role.id
            bb = step(role, bb, *args, **kwargs)
            running[0] = None
            if role.id == RoleId.VALIDATOR:
                entries = tuple(sorted(n.id for n in bb.topology_draft.nodes
                                       if n.node_class in ENTRY_CLASSES))
                if entries:
                    expected.append((RoleId.VALIDATOR, entries))
            return bb

        def no_search(*args, **kwargs):
            raise AssertionError("a role searched for attack paths")

        monkeypatch.setattr(forge, "reachable_set", recording_walk)
        monkeypatch.setattr(forge, "agent_step", recording_step)
        monkeypatch.setattr(attackgraph, "enumerate_attack_paths", no_search)
        for req in pin_requirements():
            pin_outcome(req, registry, seed=0, max_iterations=5)
        assert expected
        assert walks == expected
        assert not hasattr(forge, "enumerate_attack_paths")
        assert not hasattr(forge, "PathQuery")

    def test_the_walk_meets_a_target_exactly_when_a_path_reaches_it(self):
        """On random topologies and registries, from entry nodes the entry
        capability targets (so each has an entry hop): the walk meets a
        selector's nodes exactly when a ``k=1`` search over paths as long
        as the node count finds a path to them."""
        classes = list(ss.NodeClass)
        outcomes = set()
        for seed in range(500):
            rng = random.Random(seed)
            registry = registry_with(
                entry_classes=tuple(rng.sample(classes, rng.randint(1, len(classes)))),
                exploit_access=rng.choice(list(ss.AccessRequirement)))
            topology = random_topology(rng)
            if rng.random() < 0.5:
                topology = with_directed_edges(topology, rng)
            if rng.random() < 0.5:
                topology = with_vulnerabilities(topology, rng)
            candidates = entry_nodes(topology, registry)
            if not candidates:
                continue
            entries = tuple(sorted(rng.sample(candidates, rng.randint(1, len(candidates)))))
            reached = ss.reachable_set(topology, registry, entries)
            selectors = [ss.TargetSelector(node_class=cls) for cls in classes]
            selectors += [ss.TargetSelector(node_id=n.id) for n in topology.nodes]
            for selector in selectors:
                targets = topology.select(selector)
                if targets:
                    met = not reached.isdisjoint(targets)
                    assert met == reference_objective_reached(
                        topology, registry, entries, selector), (seed, selector)
                    outcomes.add(met)
        assert outcomes == {True, False}

    def test_a_large_draft_without_a_path_gets_its_hints(self, registry):
        """A maintenance endpoint, a clique of 12 exploitable sensors and a
        controller with no vulnerability: no attack path reaches the
        controller, and proving that by listing the simple paths through
        the clique grows about elevenfold per sensor. The walk answers in
        one pass over the edges."""
        sensors = [f"s{i:02d}" for i in range(12)]
        topology = make_topology(
            nodes=[("m", ss.NodeClass.MAINTENANCE_ENDPOINT)]
            + [(s, ss.NodeClass.SENSOR) for s in sensors]
            + [("c", ss.NodeClass.CONTROLLER)],
            edges=[("m", s) for s in sensors] + list(itertools.combinations(sensors, 2))
            + [(s, "c") for s in sensors],
            vulns=[make_vuln(s, 0.5) for s in sensors],
        )
        req = requirement(max_nodes=len(topology.nodes))
        bb = Blackboard(requirement=req, topology_draft=topology)
        for role in PIPELINE:
            if role.id != RoleId.TOPOLOGY_SYNTHESIZER:
                bb = agent_step(role, bb, registry, seed=0)
        assert [f.code for f in bb.validation_report.report.errors] == ["NoAttackPath"]
        assert bb.validation_report.hints == (
            RefinementHint(HintKind.ADD_VULNERABILITY, node_id="c",
                           access=ss.AccessRequirement.ADJACENT),
            RefinementHint(HintKind.ADD_EDGE, src="m", dst="c"),
        )


class TestRoleRuns:
    def test_context_and_threat_roles_run_once_per_generation(self, registry, monkeypatch):
        """Neither the context profile nor the threat plan reads the draft,
        so no refinement re-runs the context analyst or the threat
        planner: each steps once per generation, however often the
        validator runs."""
        step = forge.agent_step
        generations = []  # the role ids stepped, one list per generation

        def recording_step(role, bb, *args, **kwargs):
            generations[-1].append(role.id)
            return step(role, bb, *args, **kwargs)

        monkeypatch.setattr(forge, "agent_step", recording_step)
        for req in pin_requirements():
            for seed in PIN_SEEDS:
                generations.append([])
                pin_outcome(req, registry, seed, max(PIN_MAX_ITERATIONS))
        for roles in generations:
            assert roles.count(RoleId.CONTEXT_ANALYST) == 1, roles
            assert roles.count(RoleId.THREAT_PLANNER) == 1, roles
        assert any(roles.count(RoleId.VALIDATOR) > 1 for roles in generations)


class SlotRead(Exception):
    pass


class Unreadable:
    """Stands in for a blackboard slot: any attribute access raises."""

    def __getattribute__(self, name):
        raise SlotRead(name)


class TestConsumedSlots:
    def test_every_consumed_slot_is_read(self, registry):
        """For each role and each slot it consumes, some pinned requirement
        and seed make the role read that slot: with the slot replaced by an
        object that raises on any attribute access, the role raises."""
        drafts = []  # (blackboard before the role runs, role, seed)
        for req in pin_requirements():
            for seed in PIN_SEEDS:
                bb = Blackboard(requirement=req)
                for role in PIPELINE:
                    drafts.append((bb, role, seed))
                    bb = agent_step(role, bb, registry, seed)

        def reads(bb, role, slot, seed):
            try:
                role.run(replace(bb, **{slot: Unreadable()}), registry, seed)
            except SlotRead:
                return True
            return False

        unread = [
            (role.id.value, slot) for role in PIPELINE for slot in role.consumes
            if not any(reads(bb, role, slot, seed)
                       for bb, ran, seed in drafts if ran is role)
        ]
        assert unread == []


# ---------------------------------------------------------------------------
# entry and exploit rules read from the registry
# ---------------------------------------------------------------------------

def registry_with(entry_classes=None, exploit_access=None, drop=()):
    """The built-in set with phishing's ``node_class_is`` and the exploit's
    access level replaced where given, and the ``drop`` ids left out."""
    def amended(cap):
        terms = []
        for pred in cap.preconditions:
            if cap.id == "phishing" and pred.kind == PredicateKind.NODE_CLASS_IS:
                pred = replace(pred, node_classes=tuple(entry_classes or pred.node_classes))
            elif pred.kind == PredicateKind.NODE_HAS_VULN_WITH_ACCESS:
                pred = replace(pred, access=exploit_access or pred.access)
            terms.append(pred)
        return replace(cap, preconditions=tuple(terms))

    registry = ss.CapabilityRegistry()
    for cap in builtin_reg().capabilities():
        if cap.id not in drop:
            registry = ss.register_capability(registry, amended(cap))
    return registry


def entry_nodes(topology, registry):
    """The nodes the registry's cheapest entry capability targets."""
    rule = registry.path_capabilities[2].binding_rule
    return [n.id for n in topology.nodes if n.node_class in rule.target_classes]


PROBE_SEEDS = range(40)


class TestRegistryRules:
    """The forge reads its entry classes and exploit access level from the
    registry, as the engine and the attack graph do. The probe
    requirement: six nodes, sensor, controller and maintenance endpoint
    required, controller targeted."""

    def test_workstation_only_phishing(self):
        registry = registry_with(entry_classes=(ss.NodeClass.WORKSTATION,))
        for seed in PROBE_SEEDS:
            spec, _ = ss.run_pipeline(requirement(max_nodes=6), registry, seed)
            topology = spec.scenario_parameters.explicit_topology
            assert any(n.node_class == ss.NodeClass.WORKSTATION for n in topology.nodes)
            batch = ss.batch_run(spec, ss.DefenseStrategy(), registry,
                                 ss.SimulationConfig(seed=seed), 20)
            assert any(m.compromised_fraction > 0 for m in batch.per_seed), seed

    def test_network_access_exploit(self):
        registry = registry_with(exploit_access=ss.AccessRequirement.NETWORK)
        for seed in PROBE_SEEDS:
            spec, _ = ss.run_pipeline(requirement(max_nodes=6), registry, seed)
            assert ss.validate_spec(spec, registry).errors == ()

    @pytest.mark.parametrize("registry", [
        registry_with(drop=("phishing",)),
        registry_with(drop=("phishing", "exploit_vuln", "lateral_move_with_cred")),
        ss.CapabilityRegistry(tuple(
            replace(cap, preconditions=tuple(p for p in cap.preconditions
                                             if p.kind != PredicateKind.NODE_CLASS_IS))
            for cap in builtin_reg().capabilities())),
    ], ids=["no_phishing", "no_path_capability", "unlimited_phishing"])
    def test_no_class_limited_entry_capability(self, registry, monkeypatch):
        """Refused with the reason named, before the first role runs."""
        steps = []
        monkeypatch.setattr(forge, "agent_step", lambda *args: steps.append(args))
        with pytest.raises(GenerationFailed, match="no entry capability"):
            ss.run_pipeline(requirement(max_nodes=6), registry, seed=0)
        assert steps == []

    def test_no_exploit_capability_gets_no_vulnerability_hint(self, registry):
        """Without an exploit capability no vulnerability can open a path,
        so the validator asks for none."""
        no_exploit = registry_with(drop=("exploit_vuln",))
        req = requirement(required=(ss.NodeClass.MAINTENANCE_ENDPOINT, ss.NodeClass.CONTROLLER))
        topology = make_topology(
            nodes=[("m", ss.NodeClass.MAINTENANCE_ENDPOINT), ("c", ss.NodeClass.CONTROLLER)],
            edges=[])
        for reg, kinds in ((registry, [HintKind.ADD_VULNERABILITY, HintKind.ADD_EDGE]),
                           (no_exploit, [HintKind.ADD_EDGE])):
            bb = Blackboard(requirement=req, topology_draft=topology)
            for role in PIPELINE:
                if role.id != RoleId.TOPOLOGY_SYNTHESIZER:
                    bb = agent_step(role, bb, reg, seed=0)
            assert [h.kind for h in bb.validation_report.hints] == kinds

    def test_random_registries(self):
        """Phishing limited to a random non-empty set of classes and the
        exploit at a random access level: in every scenario the pipeline
        returns, the attacker's target is reachable from the nodes the
        entry capability targets, and a batch of ten runs compromises a
        node."""
        classes = list(ss.NodeClass)
        generated = 0
        for seed in range(80):
            rng = random.Random(seed)
            registry = registry_with(
                entry_classes=tuple(rng.sample(classes, rng.randint(1, len(classes)))),
                exploit_access=rng.choice(list(ss.AccessRequirement)))
            target = rng.choice(PIN_CLASSES)
            required = rng.sample(PIN_CLASSES, rng.randint(1, 3))
            req = requirement(max_nodes=len(set(required) | {target}) + rng.randint(1, 3),
                              required=required, target=target)
            try:
                spec, _ = ss.run_pipeline(req, registry, seed)
            except GenerationFailed:
                continue
            generated += 1
            topology = spec.scenario_parameters.explicit_topology
            reached = ss.reachable_set(topology, registry, entry_nodes(topology, registry))
            objective = next(o for o in spec.objectives if o.actor == ss.Actor.ATTACKER)
            assert reached & set(topology.select(objective.target)), seed
            batch = ss.batch_run(spec, ss.DefenseStrategy(), registry,
                                 ss.SimulationConfig(seed=seed), 10)
            assert any(m.compromised_fraction > 0 for m in batch.per_seed), seed
        assert generated >= 60
