"""File formats: DOT, trace JSON, capability/strategy/path codecs."""

import json

import pytest

import spidersim as ss
from spidersim.errors import (
    MalformedDocument,
    UnknownField,
    UnknownPathNode,
    UnsupportedInterfaceVersion,
)
from spidersim.exports import (
    export_dot,
    export_trace,
    parse_capability,
    parse_paths,
    parse_requirement,
    parse_strategy,
    serialize_paths,
)

from helpers import builtin_reg, chain_topology, make_topology, sure_entry_reg


class TestDot:
    def test_empty_topology(self):
        topo = ss.NetworkTopology(nodes=(), edges=(), zones=())
        assert export_dot(topo) == "digraph spidersim {\n}\n"

    def test_two_node_golden(self):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.SENSOR), ("b", ss.NodeClass.GATEWAY)],
            edges=[("a", "b")])
        expected = "\n".join([
            "digraph spidersim {",
            "  subgraph cluster_z0 {",
            '    label="z0"',
            '    "a" [label="a\\nsensor"]',
            '    "b" [label="b\\ngateway"]',
            "  }",
            '  "a" -> "b"',
            "}",
        ]) + "\n"
        assert export_dot(topo) == expected

    def test_highlighted_path_edges_are_red(self):
        topo = chain_topology()
        paths = ss.enumerate_attack_paths(
            topo, sure_entry_reg(),
            ss.PathQuery(entries=("a",), target=ss.TargetSelector(node_id="c")))
        rendered = export_dot(topo, highlighted_paths=paths)
        assert '"EXTERNAL" [shape=diamond]' in rendered
        assert '"EXTERNAL" -> "a" [color="red", penwidth=2]' in rendered
        assert '"a" -> "b" [color="red", penwidth=2]' in rendered
        # unhighlighted render of the same topology has no red edges
        assert "red" not in export_dot(topo)

    def test_zone_name_sanitized_but_label_exact(self):
        from dataclasses import replace
        topo = chain_topology()
        nodes = tuple(replace(n, zone="dmz-1") for n in topo.nodes)
        topo = replace(topo, nodes=nodes, zones=("dmz-1",))
        rendered = export_dot(topo)
        assert "subgraph cluster_dmz_1 {" in rendered
        assert 'label="dmz-1"' in rendered

    def test_unknown_path_node(self):
        topo = chain_topology()
        step = ss.AttackStep(source="a", capability_id="exploit_vuln",
                             target="ghost", step_prob=0.5, step_cost=2)
        bad = ss.AttackPath(steps=(step,), success_prob=0.5, total_cost=2)
        with pytest.raises(UnknownPathNode):
            export_dot(topo, highlighted_paths=[bad])

    def test_bit_stability(self, marine_topology):
        assert export_dot(marine_topology) == export_dot(marine_topology)


class TestTrace:
    def run(self, marine_spec, registry, seed=4):
        cfg = ss.SimulationConfig(max_rounds=10, seed=seed)
        trace, _ = ss.run_simulation(marine_spec, ss.DefenseStrategy(),
                                     registry, cfg)
        return trace

    def test_byte_identical_across_runs(self, marine_spec, registry):
        a = export_trace(self.run(marine_spec, registry))
        b = export_trace(self.run(marine_spec, registry))
        assert a == b

    def test_key_order_and_shape(self, marine_spec, registry):
        text = export_trace(self.run(marine_spec, registry))
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["config", "scenario_digest", "events",
                             "final_state"]
        assert list(doc["config"]) == ["max_rounds", "seed", "attacker_policy",
                                       "defender_policy"]
        for event in doc["events"]:
            assert list(event) == ["round", "actor", "capability_id",
                                   "target", "outcome"]
            assert list(event["outcome"]) == ["success", "detected",
                                              "trapped_for"]
        assert list(doc["final_state"]) == [
            "round", "compromise", "footholds", "deployed",
            "credentials_held", "trapped_until", "alarms"]


class TestCapabilityFiles:
    GOOD = {
        "interface_version": "cap-1",
        "id": "usb_drop",
        "kind": "attack",
        "name": "USB drop",
        "technique_tag": "T1091",
        "preconditions": [
            {"predicate": "node_class_is", "node_classes": ["workstation"]},
        ],
        "effects": [
            {"effect": "compromise", "privilege": "user"},
        ],
        "base_success_prob": 0.3,
        "detection_prob": 0.1,
        "cost_units": 2,
    }

    def test_parse_good_capability(self):
        cap = parse_capability(json.dumps(self.GOOD))
        assert cap.id == "usb_drop"
        assert cap.kind == ss.CapabilityKind.ATTACK
        assert cap.preconditions[0].kind == ss.PredicateKind.NODE_CLASS_IS
        assert cap.effects[0].privilege == ss.Privilege.USER
        # and it registers cleanly
        bigger = ss.register_capability(builtin_reg(), cap)
        assert bigger.has("usb_drop")

    def test_wrong_interface_version(self):
        doc = dict(self.GOOD, interface_version="cap-2")
        with pytest.raises(UnsupportedInterfaceVersion):
            parse_capability(json.dumps(doc))

    def test_unknown_predicate_field(self):
        doc = json.loads(json.dumps(self.GOOD))
        doc["preconditions"][0]["frobnicate"] = True
        with pytest.raises(UnknownField):
            parse_capability(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            parse_capability("nope")


@pytest.mark.parametrize("parse", [ss.parse_scenario, parse_requirement,
                                   parse_capability, parse_strategy, parse_paths])
@pytest.mark.parametrize("document, message", [
    ("nope", "not valid JSON: "),
    ("[1, 2]", "top level must be an object"),
    (None, "not valid JSON: "),
])
def test_every_parser_wants_a_json_object(parse, document, message):
    with pytest.raises(MalformedDocument) as caught:
        parse(document)
    assert caught.value.code == "MalformedDocument"
    assert caught.value.message.startswith(message)


class TestStrategyFiles:
    def test_roundtrip(self, registry, marine_topology):
        strategy = ss.compose_strategy(
            registry,
            [("honeypot", "maint-0"), ("shocktrap", "gateway-0")],
            marine_topology)
        text = json.dumps({"capability_placements": [
            {"capability_id": p.capability_id, "target_node": p.target_node}
            for p in strategy.capability_placements]})
        assert parse_strategy(text) == [("honeypot", "maint-0"),
                                        ("shocktrap", "gateway-0")]

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownField):
            parse_strategy(json.dumps({"capability_placements": [],
                                       "color": "blue"}))


class TestPathFiles:
    def test_roundtrip(self, marine_topology, registry):
        paths = ss.enumerate_attack_paths(
            marine_topology, registry,
            ss.PathQuery(entries=("maint-0",),
                         target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER),
                         k=5))
        text = serialize_paths(paths)
        assert parse_paths(text) == paths
        assert serialize_paths(parse_paths(text)) == text
