"""Scenario document model: parsing, serialization, validation, expansion."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidersim as ss
from spidersim.errors import (
    EmptyRecipe,
    InsufficientGateways,
    InvariantViolation,
    MalformedDocument,
    MissingSection,
    UnknownField,
)
from spidersim.model import Finding, check_topology

from helpers import (
    builtin_reg,
    make_topology,
    make_vuln,
    random_topology,
    spec_around,
    with_directed_edges,
)


def recipe(counts, zone_count=1, density=0.5, gateways=0,
           vuln_rate=0.5, credential_rate=0.25):
    return ss.TopologyRecipe(
        node_counts=tuple(counts.items()),
        zone_count=zone_count,
        intra_zone_density=density,
        inter_zone_gateways=gateways,
        vuln_rate=vuln_rate,
        credential_rate=credential_rate,
    )


class TestRoundTrip:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_parse_serialize_roundtrip(self, seed):
        spec = spec_around(random_topology(random.Random(seed)))
        assert ss.parse_scenario(ss.serialize_scenario(spec)) == spec

    def test_marine_fixture_roundtrip(self, marine_spec):
        text = ss.serialize_scenario(marine_spec)
        assert ss.parse_scenario(text) == marine_spec
        # canonical form is a fixpoint
        assert ss.serialize_scenario(ss.parse_scenario(text)) == text

    def test_serialized_form_is_json_with_trailing_newline(self, marine_spec):
        text = ss.serialize_scenario(marine_spec)
        assert text.endswith("\n")
        data = json.loads(text)
        assert list(data) == ["schema_version", "domain_context",
                              "problem_decomposition", "scenario_parameters",
                              "objectives", "elements"]


class TestParseErrors:
    def test_missing_objectives_section(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        del data["objectives"]
        with pytest.raises(MissingSection):
            ss.parse_scenario(json.dumps(data))

    def test_unknown_field_rejected(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["extra"] = 1
        with pytest.raises(UnknownField):
            ss.parse_scenario(json.dumps(data))

    def test_unknown_nested_field_rejected(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["scenario_parameters"]["explicit_topology"]["nodes"][0]["color"] = "red"
        with pytest.raises(UnknownField):
            ss.parse_scenario(json.dumps(data))

    def test_bad_enum_value(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["scenario_parameters"]["explicit_topology"]["nodes"][0]["class"] = "toaster"
        with pytest.raises(InvariantViolation):
            ss.parse_scenario(json.dumps(data))

    def test_threshold_out_of_range(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["objectives"][0]["threshold"] = 1.5
        with pytest.raises(InvariantViolation):
            ss.parse_scenario(json.dumps(data))

    def test_self_loop_edge_rejected(self, marine_spec):
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["scenario_parameters"]["explicit_topology"]["edges"].append(
            {"src": "ws-0", "dst": "ws-0"}
        )
        with pytest.raises(InvariantViolation):
            ss.parse_scenario(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            ss.parse_scenario("this is not json")


class TestConstructorInvariants:
    def test_selector_needs_exactly_one_field(self):
        with pytest.raises(InvariantViolation):
            ss.TargetSelector()
        with pytest.raises(InvariantViolation):
            ss.TargetSelector(node_id="a", node_class=ss.NodeClass.SENSOR)

    def test_parameters_need_exactly_one_source(self, marine_topology):
        from spidersim.model import ScenarioParameters
        with pytest.raises(InvariantViolation):
            ScenarioParameters()
        with pytest.raises(InvariantViolation):
            ScenarioParameters(
                recipe=recipe({ss.NodeClass.SENSOR: 1}),
                explicit_topology=marine_topology,
            )

    def test_duplicate_subproblem_id(self, marine_spec):
        from dataclasses import replace
        dup = marine_spec.problem_decomposition[:1] * 2
        with pytest.raises(InvariantViolation):
            replace(marine_spec, problem_decomposition=dup)


class TestCheckTopology:
    def codes(self, topo):
        return sorted({f.code for f in check_topology(topo)})

    def test_clean_topology_has_no_findings(self, marine_topology):
        assert list(check_topology(marine_topology)) == []
        ss.assert_topology_valid(marine_topology)

    def test_duplicate_node_id(self):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.SENSOR)], edges=[])
        topo = ss.NetworkTopology(nodes=topo.nodes * 2, edges=(),
                                  zones=("z0",))
        assert "DuplicateNodeId" in self.codes(topo)

    def test_lookups_return_first_of_repeated_ids(self):
        first = ss.Node(id="a", node_class=ss.NodeClass.SENSOR, zone="z0")
        second = ss.Node(id="a", node_class=ss.NodeClass.CONTROLLER, zone="z0")
        vulns = (make_vuln("a", 0.3), make_vuln("a", 0.9))
        creds = (ss.Credential(id="c", stored_on="a", grants_access_to=("a",)),
                 ss.Credential(id="c", stored_on="a", grants_access_to=("b",)))
        topo = ss.NetworkTopology(nodes=(first, second), edges=(), zones=("z0",),
                                  vulnerabilities=vulns, credentials=creds)
        assert topo.node_by_id("a") is first
        assert topo.vulnerability_by_id("vuln-a") is vulns[0]
        assert topo.credential_by_id("c") is creds[0]
        assert topo.node_by_id("b") is None
        assert topo.node_ids == ("a",)
        assert topo.node_ids_of_class(ss.NodeClass.SENSOR) == ("a",)
        assert topo.node_ids_of_class(ss.NodeClass.CONTROLLER) == ()

    def test_in_neighbours_follow_edge_direction(self):
        for seed in range(100):
            rng = random.Random(seed)
            topo = with_directed_edges(random_topology(rng), rng)
            for node_id in [n.id for n in topo.nodes] + ["ghost"]:
                want = {e.src for e in topo.edges if e.dst == node_id}
                want |= {e.dst for e in topo.edges
                         if e.bidirectional and e.src == node_id}
                assert topo.in_neighbours(node_id) == want
                want_out = {e.dst for e in topo.edges if e.src == node_id}
                want_out |= {e.src for e in topo.edges
                             if e.bidirectional and e.dst == node_id}
                assert topo.out_neighbours(node_id) == tuple(sorted(want_out))

    def test_dangling_edge(self):
        topo = make_topology(nodes=[("a", ss.NodeClass.SENSOR)],
                             edges=[("a", "ghost")])
        assert "DanglingEdge" in self.codes(topo)

    def test_unknown_zone(self):
        node = ss.Node(id="a", node_class=ss.NodeClass.SENSOR, zone="nowhere")
        topo = ss.NetworkTopology(nodes=(node,), edges=(), zones=("z0",))
        assert "UnknownZone" in self.codes(topo)

    def test_unknown_vulnerability_ref(self):
        node = ss.Node(id="a", node_class=ss.NodeClass.SENSOR, zone="z0",
                       vulnerability_ids=("vuln-ghost",))
        topo = ss.NetworkTopology(nodes=(node,), edges=(), zones=("z0",))
        assert "UnknownVulnerabilityRef" in self.codes(topo)

    def test_bad_credential_host(self):
        cred = ss.Credential(id="c", stored_on="ghost", grants_access_to=("a",))
        topo = make_topology(nodes=[("a", ss.NodeClass.SENSOR)], edges=[])
        from dataclasses import replace
        topo = replace(topo, credentials=(cred,))
        assert "BadCredentialHost" in self.codes(topo)

    def test_assert_raises_on_first_problem(self):
        topo = make_topology(nodes=[("a", ss.NodeClass.SENSOR)],
                             edges=[("a", "ghost")])
        with pytest.raises(InvariantViolation):
            ss.assert_topology_valid(topo)


class TestValidateSpec:
    def test_marine_is_clean(self, marine_spec, registry):
        report = ss.validate_spec(marine_spec, registry)
        assert report.errors == ()
        assert report.warnings == ()

    def test_unresolved_capability(self, marine_spec, registry):
        from dataclasses import replace
        elements = replace(marine_spec.elements,
                           capability_refs=("no_such_capability",))
        spec = replace(marine_spec, elements=elements)
        report = ss.validate_spec(spec, registry)
        assert any(f.code == "UnresolvedCapability" for f in report.errors)

    def test_objective_target_unknown(self, marine_spec, registry):
        from dataclasses import replace
        bad = ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                           ss.TargetSelector(node_id="ghost"), 0.5)
        spec = replace(marine_spec, objectives=(bad,))
        report = ss.validate_spec(spec, registry)
        assert any(f.code == "ObjectiveTargetUnknown" for f in report.errors)

    def test_disconnected_topology_warns(self, registry):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.SENSOR)],
            edges=[])
        spec = spec_around(topo)
        report = ss.validate_spec(spec, registry)
        assert report.errors == ()
        assert any(f.code == "DisconnectedTopology" for f in report.warnings)


class TestBuildTopology:
    COUNTS = {
        ss.NodeClass.SENSOR: 2,
        ss.NodeClass.CONTROLLER: 1,
        ss.NodeClass.GATEWAY: 1,
        ss.NodeClass.CAMERA_SERVER: 1,
        ss.NodeClass.MAINTENANCE_ENDPOINT: 1,
    }

    def test_count_preservation_example(self, registry):
        r = recipe(self.COUNTS, zone_count=2, gateways=1)
        topo = ss.build_topology(r, registry, 42)
        assert len(topo.nodes) == 6
        for cls, want in self.COUNTS.items():
            assert sum(1 for n in topo.nodes if n.node_class == cls) == want

    def test_determinism_100_calls(self, registry):
        r = recipe(self.COUNTS, zone_count=2, gateways=1)
        first = ss.build_topology(r, registry, 42)
        for _ in range(100):
            assert ss.build_topology(r, registry, 42) == first

    @given(seed=st.integers(0, 2**32 - 1),
           sensors=st.integers(0, 4), controllers=st.integers(0, 3),
           gateways=st.integers(1, 2), zones=st.integers(1, 3),
           density=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_built_topologies_are_structurally_sound(self, seed, sensors,
                                                     controllers, gateways,
                                                     zones, density):
        counts = {ss.NodeClass.SENSOR: sensors,
                  ss.NodeClass.CONTROLLER: controllers,
                  ss.NodeClass.GATEWAY: gateways}
        r = recipe(counts, zone_count=zones, density=density,
                   gateways=1 if zones > 1 else 0)
        topo = ss.build_topology(r, builtin_reg(), seed)
        ss.assert_topology_valid(topo)
        for cls, want in counts.items():
            assert sum(1 for n in topo.nodes if n.node_class == cls) == want

    def test_monotone_density(self, registry):
        counts = {ss.NodeClass.SENSOR: 4, ss.NodeClass.CONTROLLER: 2}

        def intra_edges(density):
            topo = ss.build_topology(recipe(counts, density=density),
                                     registry, 7)
            zone_of = {n.id: n.zone for n in topo.nodes}
            return sum(1 for e in topo.edges if zone_of[e.src] == zone_of[e.dst])

        edge_counts = [intra_edges(d) for d in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert edge_counts == sorted(edge_counts)
        assert edge_counts[0] == 0
        assert edge_counts[-1] == 15  # all same-zone pairs of 6 nodes

    def test_empty_recipe(self, registry):
        with pytest.raises(EmptyRecipe):
            ss.build_topology(recipe({ss.NodeClass.SENSOR: 0}), registry, 1)

    def test_insufficient_gateways(self, registry):
        r = recipe({ss.NodeClass.SENSOR: 2}, zone_count=2, gateways=1)
        with pytest.raises(InsufficientGateways):
            ss.build_topology(r, registry, 1)

    def test_recipe_spec_validates_against_name_pattern(self, registry):
        r = recipe(self.COUNTS, zone_count=2, gateways=1)
        from spidersim.model import ScenarioParameters
        from dataclasses import replace
        base = spec_around(ss.build_topology(r, registry, 42))
        objectives = (
            ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                         ss.TargetSelector(node_id="controller-0"), 1.0),
        )
        spec = replace(base, scenario_parameters=ScenarioParameters(recipe=r),
                       objectives=objectives)
        assert ss.validate_spec(spec, registry).errors == ()
