"""File formats: DOT, trace JSON, capability/strategy/path codecs."""

import json
import random
from dataclasses import replace

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

from helpers import (
    builtin_reg,
    chain_topology,
    label_text,
    make_topology,
    make_vuln,
    random_topology,
    read_dot,
    reference_export_dot,
    sure_entry_reg,
    with_directed_edges,
)


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

    def test_unknown_path_source(self):
        step = ss.AttackStep(source="ghost", capability_id="exploit_vuln",
                             target="b", step_prob=0.5, step_cost=2)
        bad = ss.AttackPath(steps=(step,), success_prob=0.5, total_cost=2)
        with pytest.raises(UnknownPathNode, match="'ghost'"):
            export_dot(chain_topology(), highlighted_paths=[bad])

    def test_bit_stability(self, marine_topology):
        assert export_dot(marine_topology) == export_dot(marine_topology)


def _graphviz_name(node_id):
    r"""The name Graphviz gives a node whose id the export escaped: a quoted
    string keeps ``\\`` as written and reads ``\"`` as ``"``."""
    return node_id.replace("\\", "\\\\")


class TestDotEscaping:
    """Ids and zone names holding ``"`` and ``\\`` stay inside their quoted
    strings, and zones whose names sanitize alike get clusters of their own."""

    ZONES = {'ws"0': "z-1", "back\\slash": "z_1", "trail\\": 'quote"zone\\', 'esc\\"': "z-1"}

    def _topology(self):
        ids = list(self.ZONES)
        topology = make_topology(
            nodes=[(ids[0], ss.NodeClass.WORKSTATION), (ids[1], ss.NodeClass.DATA_SERVER),
                   (ids[2], ss.NodeClass.CONTROLLER), (ids[3], ss.NodeClass.SENSOR)],
            edges=[(ids[0], ids[1]), (ids[1], ids[2]), (ids[3], ids[2])],
            vulns=[make_vuln(ids[1], 0.5), make_vuln(ids[2], 0.5)])
        return replace(topology,
                       nodes=tuple(replace(n, zone=self.ZONES[n.id]) for n in topology.nodes),
                       zones=tuple(sorted(set(self.ZONES.values()))))

    def test_one_statement_per_node_edge_and_zone(self):
        topology = self._topology()
        paths = ss.enumerate_attack_paths(
            topology, sure_entry_reg(),
            ss.PathQuery(entries=('ws"0',), target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)))
        assert paths and paths[0].steps[0].source == ss.EXTERNAL
        graph = read_dot(export_dot(topology, paths))

        names = {_graphviz_name(n.id): n for n in topology.nodes}
        stated = [name for name, _ in graph["nodes"]]
        assert sorted(stated) == sorted([*names, "EXTERNAL"])
        for name, attrs in graph["nodes"]:
            if name != "EXTERNAL":
                node = names[name]
                assert label_text(attrs["label"]) == f"{node.id}\n{node.node_class.value}"

        expected_edges = [(_graphviz_name(e.src), _graphviz_name(e.dst)) for e in topology.edges]
        expected_edges.append(("EXTERNAL", _graphviz_name('ws"0')))
        assert sorted((src, dst) for src, dst, _ in graph["edges"]) == sorted(expected_edges)
        red = {(src, dst) for src, dst, attrs in graph["edges"] if attrs.get("color") == "red"}
        assert ("EXTERNAL", _graphviz_name('ws"0')) in red

        clusters = graph["clusters"]
        assert len({cluster for cluster, _, _ in clusters}) == len(clusters) == len(topology.zones)
        assert sorted(label_text(label) for _, label, _ in clusters) == sorted(topology.zones)
        for _, label, members in clusters:
            assert sorted(members) == sorted(
                _graphviz_name(n.id) for n in topology.nodes if n.zone == label_text(label))

    def test_colliding_zones_take_the_first_free_suffix(self):
        topology = replace(chain_topology(), zones=("z_1", "z-1", "z.1", "z_1_1"))
        topology = replace(topology, nodes=tuple(
            replace(n, zone=zone) for n, zone in zip(topology.nodes, ("z-1", "z_1", "z.1"))))
        clusters = [(cluster, label) for cluster, label, _ in read_dot(export_dot(topology))["clusters"]]
        # In name order: "z-1" keeps its id, and each later zone takes the
        # first suffix its id leaves free.
        assert clusters == [("cluster_z_1", "z-1"), ("cluster_z_1_1", "z.1"),
                            ("cluster_z_1_2", "z_1"), ("cluster_z_1_1_1", "z_1_1")]


def _renamed(topology, old, new):
    """The topology with node ``old`` called ``new`` everywhere."""
    name = {old: new}.get
    return replace(
        topology,
        nodes=tuple(replace(n, id=name(n.id, n.id)) for n in topology.nodes),
        edges=tuple(replace(e, src=name(e.src, e.src), dst=name(e.dst, e.dst))
                    for e in topology.edges),
        credentials=tuple(
            replace(c, stored_on=name(c.stored_on, c.stored_on),
                    grants_access_to=tuple(name(t, t) for t in c.grants_access_to))
            for c in topology.credentials),
    )


def _all_paths(topology, max_len=3, k=None):
    """Every path from every node to the class of the last node."""
    return ss.enumerate_attack_paths(
        topology, builtin_reg(),
        ss.PathQuery(entries=tuple(n.id for n in topology.nodes),
                     target=ss.TargetSelector(node_class=topology.nodes[-1].node_class),
                     k=k, max_len=max_len))


class TestDotMatchesReference:
    """``export_dot`` groups the nodes by zone in one pass and sorts the
    edge lines once; its bytes equal those of the former export, which
    scanned every node for every zone and sorted the edges twice."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_topologies(self, seed):
        # Zones listed in any order, some twice, some with no node; nodes in
        # an unlisted zone; repeated edges differing in protocol tag or
        # direction; sometimes a node named like the EXTERNAL token.
        rng = random.Random(seed)
        topology = with_directed_edges(random_topology(rng, max_nodes=10, max_edges=20), rng)
        zones = [f"z-{i}" for i in range(rng.randint(1, 5))]
        listed = rng.sample(zones, len(zones)) + rng.choices(zones, k=rng.randint(0, 2))
        repeats = tuple(
            replace(e, protocol_tag=rng.choice(("tcp", "udp")),
                    bidirectional=rng.random() < 0.5)
            for e in rng.sample(topology.edges, min(4, len(topology.edges))))
        topology = replace(
            topology,
            nodes=tuple(replace(n, zone=rng.choice(zones + ["unlisted"]))
                        for n in topology.nodes),
            edges=topology.edges + repeats, zones=tuple(listed))
        if rng.random() < 0.3:
            topology = _renamed(topology, topology.nodes[0].id, "EXTERNAL")
        paths = _all_paths(topology)
        assert export_dot(topology) == reference_export_dot(topology)
        assert export_dot(topology, paths) == reference_export_dot(topology, paths)

    def test_external_node_edge_precedes_the_entry_step(self):
        topology = make_topology(
            nodes=[("EXTERNAL", ss.NodeClass.WORKSTATION), ("a", ss.NodeClass.WORKSTATION)],
            edges=[("EXTERNAL", "a")])
        paths = _all_paths(topology, max_len=1)
        rendered = export_dot(topology, paths)
        assert rendered == reference_export_dot(topology, paths)
        assert '  "EXTERNAL" -> "a"\n  "EXTERNAL" -> "a" [color' in rendered

    @pytest.mark.parametrize("zone_count", [1, 2, 3, 7, 50, 120, 200])
    def test_recipes(self, zone_count):
        recipe = ss.TopologyRecipe(
            node_counts=((ss.NodeClass.SENSOR, 90), (ss.NodeClass.CONTROLLER, 40),
                         (ss.NodeClass.GATEWAY, 30), (ss.NodeClass.WORKSTATION, 40)),
            zone_count=zone_count, intra_zone_density=0.3,
            inter_zone_gateways=1 if zone_count > 1 else 0,
            vuln_rate=0.5, credential_rate=0.25)
        topology = ss.build_topology(recipe, builtin_reg(), seed=zone_count)
        assert len(set(topology.zones)) == min(zone_count, 200)
        paths = _all_paths(topology, max_len=2, k=20)
        assert paths
        assert export_dot(topology) == reference_export_dot(topology)
        assert export_dot(topology, paths) == reference_export_dot(topology, paths)


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
