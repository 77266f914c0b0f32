"""Blackboard agent pipeline: generation, refinement, failure modes."""

import pytest

import spidersim as ss
from spidersim.forge import (
    PIPELINE,
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
from spidersim.exports import serialize_requirement
from spidersim.model import ValidationReport


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

    def test_constraints_must_cover_required_classes(self):
        with pytest.raises(InvariantViolation):
            Constraints(max_nodes=1,
                        required_classes=(ss.NodeClass.SENSOR,
                                          ss.NodeClass.CONTROLLER),
                        attacker_profile=AttackerProfile.TARGETED,
                        target_class=ss.NodeClass.CONTROLLER)

    def test_path_search_bug_propagates(self, marine_requirement, registry,
                                        monkeypatch):
        import spidersim.forge as forge

        def broken(*args, **kwargs):
            raise RuntimeError("path search bug")

        monkeypatch.setattr(forge, "enumerate_attack_paths", broken)
        with pytest.raises(RuntimeError, match="path search bug"):
            ss.run_pipeline(marine_requirement, registry, seed=7)

    def test_refinement_monotonicity(self, marine_requirement, registry):
        # the marine run needs refinement; hints only ever grow the topology
        _, report = ss.run_pipeline(marine_requirement, registry, seed=7)
        assert report.refinements_applied
        assert all(h.kind in (HintKind.ADD_VULNERABILITY, HintKind.ADD_EDGE,
                              HintKind.ADD_ENTRY_SURFACE,
                              HintKind.RAISE_NODE_BUDGET)
                   for h in report.refinements_applied)


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
        synthesizer = PIPELINE[1]
        with pytest.raises(MissingConsumedSlot):
            agent_step(synthesizer, bb, registry, seed=7)

    def test_context_analyst_lists_required_classes(self, marine_requirement,
                                                    registry):
        bb = self.run_roles(marine_requirement, registry, 7,
                            RoleId.CONTEXT_ANALYST)
        profile = bb.slot("context_profile")
        for cls in marine_requirement.constraints.required_classes:
            assert cls in profile.asset_classes
        assert profile.entry_class == ss.NodeClass.MAINTENANCE_ENDPOINT

    def test_revision_increments_by_one_per_step(self, marine_requirement,
                                                 registry):
        bb = Blackboard(requirement=marine_requirement)
        for i, role in enumerate(PIPELINE, start=1):
            bb = agent_step(role, bb, registry, seed=7)
            assert bb.revision == i

    def test_slot_ownership_from_log(self, marine_requirement, registry):
        owner = {slot: role.id.value for role in PIPELINE
                 for slot in role.produces}
        bb = Blackboard(requirement=marine_requirement)
        written = {}
        for role in PIPELINE:
            before = dict(bb.slots)
            bb = agent_step(role, bb, registry, seed=7)
            for key, value in bb.slots:
                if before.get(key) is not value:
                    written.setdefault(key, role.id.value)
        assert written == {slot: owner[slot] for slot in written}
        assert [entry[0] for entry in bb.agent_log] == [
            r.id.value for r in PIPELINE]

    def test_validator_emits_hints_when_no_path(self, marine_requirement,
                                                registry):
        # seed 7 is known to need refinement on the first iteration
        bb = self.run_roles(marine_requirement, registry, 7, RoleId.VALIDATOR)
        validation = bb.slot("validation_report")
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

    def test_add_vulnerability_updates_draft_and_clears_downstream(
            self, marine_requirement, registry):
        bb = Blackboard(requirement=marine_requirement)
        for role in PIPELINE:
            bb = agent_step(role, bb, registry, seed=7)
        topo_before = bb.slot("topology_draft")
        target = topo_before.nodes[0].id
        validation = self.validation(
            RefinementHint(HintKind.ADD_VULNERABILITY, node_id=target,
                           access=ss.AccessRequirement.NETWORK))
        refined = refine(bb, validation)
        topo_after = refined.slot("topology_draft")
        assert len(topo_after.vulnerabilities) == len(topo_before.vulnerabilities) + 1
        node = topo_after.node_by_id(target)
        assert topo_after.vulnerabilities[-1].id in node.vulnerability_ids
        assert refined.slot("threat_plan") is None
        assert refined.slot("defense_plan") is None
        assert refined.slot("validation_report") is None
        assert refined.slot("context_profile") is not None
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
        assert refined.slot("topology_draft") is None
        assert ss.NodeClass.WORKSTATION in refined.extra_entry_classes


class TestRequirementFormat:
    def test_roundtrip(self, marine_requirement):
        from spidersim.exports import parse_requirement
        text = serialize_requirement(marine_requirement)
        assert parse_requirement(text) == marine_requirement
