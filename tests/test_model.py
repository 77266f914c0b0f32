"""Scenario document model: parsing, serialization, validation, expansion."""

import dataclasses
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
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
from spidersim.canonical import canonical_json
from spidersim import attackgraph
from spidersim.model import (
    EXTERNAL, MAX_RECIPE_WORK, Finding, ScenarioParameters, _is_connected, check_topology,
    scenario_node_ids,
)

from helpers import (
    builtin_reg,
    make_topology,
    make_vuln,
    matching_nodes,
    random_topology,
    reference_build_topology,
    reference_in_neighbours,
    reference_is_connected,
    reference_out_neighbours,
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


SPECIAL_CHARS = '"\\/\x00\x08\x1f\x7f\t\n \u00e9\u2028\U0001f600\ud800\udfff'
SPECIAL_FLOATS = (-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324)
BIG_INTS = (2**64, -(2**64) - 1, 10**40)

json_text = st.text(st.sampled_from(SPECIAL_CHARS) | st.characters(exclude_categories=()),
                    max_size=8)
json_scalars = (st.none() | st.booleans() | st.integers() | st.sampled_from(BIG_INTS)
                | st.floats() | st.sampled_from(SPECIAL_FLOATS) | json_text)
json_trees = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


WRAPPERS = (lambda doc: {"é": doc}, lambda doc: [doc], lambda doc: (doc, None))


@st.composite
def json_documents(draw):
    """A tree, a quarter of the time wrapped in 30 more containers."""
    doc = draw(json_trees)
    depth = draw(st.sampled_from([0, 1, 2, 30]))
    for wrap in draw(st.lists(st.sampled_from(WRAPPERS), min_size=depth, max_size=depth)):
        doc = wrap(doc)
    return doc


def json_features(doc, depth=0):
    """The cases of the canonical writer a document exercises."""
    found = set()
    if depth > 20:
        found.add("deep nesting")
    if isinstance(doc, (list, tuple, dict)) and not doc:
        found.add("empty " + type(doc).__name__)
    if isinstance(doc, dict):
        for key, value in doc.items():
            if any(ord(c) > 127 for c in key):
                found.add("non-ASCII key")
            found |= json_features(value, depth + 1)
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            found |= json_features(value, depth + 1)
    elif isinstance(doc, float):
        found.add({"nan": "NaN", "inf": "inf", "-inf": "-inf", "-0.0": "-0.0"}.get(
            repr(doc), "float"))
    elif isinstance(doc, int) and not isinstance(doc, bool) and abs(doc) >= 2**64:
        found.add("big int")
    elif isinstance(doc, str):
        for name, hit in (("quote", '"' in doc), ("backslash", "\\" in doc),
                          ("control", any(ord(c) < 32 for c in doc)),
                          ("non-ASCII", any(ord(c) > 127 for c in doc)),
                          ("lone surrogate", any(0xD800 <= ord(c) < 0xE000 for c in doc))):
            if hit:
                found.add(name)
    return found


class TestCanonicalJson:
    CASES = {"deep nesting", "empty list", "empty tuple", "empty dict", "non-ASCII key",
             "NaN", "inf", "-inf", "-0.0", "float", "big int", "quote", "backslash",
             "control", "non-ASCII", "lone surrogate", "top-level scalar"}
    # Each case at least once, however the generated documents fall.
    EXAMPLES = ([], (), {}, {"é": [{"k": ()}] * 2}, [float(x) for x in ("nan", "inf", "-inf")],
                {"a": -0.0, "b": 2**64, "c": 0.1}, '"\\\x00\u00e9\ud800', 7, None)

    def test_matches_json_dumps(self):
        seen = set()
        deep = 1
        for _ in range(40):
            deep = {"k": [deep]}

        @given(doc=json_documents())
        @settings(max_examples=200, deadline=None)
        def check(doc):
            expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
            assert canonical_json(doc) == expected
            seen.update(json_features(doc))
            if not isinstance(doc, (list, tuple, dict)):
                seen.add("top-level scalar")

        for doc in (*self.EXAMPLES, deep):
            check = example(doc=doc)(check)
        check()
        assert seen >= self.CASES, self.CASES - seen

    def test_subclasses_encode_as_json_encodes_them(self):
        """By their base type's text, whatever their own ``repr``."""
        class Text(str):
            pass

        class Doc(dict):
            pass

        class Items(list):
            pass

        class Count(int):
            __repr__ = lambda self: "Count"

        class Ratio(float):
            __repr__ = lambda self: "Ratio"

        count, ratio = Count(3), Ratio(0.5)
        doc = Doc({Text("k"): Items([ss.NodeClass.SENSOR, ss.Privilege.USER, Text("x"),
                                     True, count, ratio, (), Doc()]), "n": count, "r": ratio})
        assert canonical_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [b"bytes"], {1: "int key"}])
    def test_other_values_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            canonical_json(doc)


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

    @pytest.mark.parametrize("make, path", [
        (lambda spec: ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                                   ss.TargetSelector(node_id="a"), 1.5),
         "objective.threshold"),
        (lambda spec: recipe({ss.NodeClass.SENSOR: 1}, density=1.5),
         "recipe.intra_zone_density"),
        (lambda spec: recipe({ss.NodeClass.SENSOR: 1}, vuln_rate=-0.1), "recipe.vuln_rate"),
        (lambda spec: recipe({ss.NodeClass.SENSOR: 1}, credential_rate=2.0),
         "recipe.credential_rate"),
        (lambda spec: dataclasses.replace(spec, objectives=()), "objectives"),
    ], ids=["threshold", "density", "vuln_rate", "credential_rate", "no_objectives"])
    def test_record_refuses_a_value_out_of_range(self, marine_spec, make, path):
        """Records built in code check what the reader checks for a document."""
        with pytest.raises(InvariantViolation) as err:
            make(marine_spec)
        assert err.value.path == path

    def test_recipe_refuses_a_repeated_node_class(self):
        """A class named twice would count twice in ``total_nodes`` and
        ``expansion_work`` but be built once."""
        with pytest.raises(InvariantViolation) as err:
            ss.TopologyRecipe(
                node_counts=((ss.NodeClass.SENSOR, 1), (ss.NodeClass.CONTROLLER, 1),
                             (ss.NodeClass.SENSOR, 2)),
                zone_count=1, intra_zone_density=0.5, inter_zone_gateways=0,
                vuln_rate=0.5, credential_rate=0.3)
        assert err.value.path == "recipe.node_counts[sensor]"

    def test_duplicate_subproblem_id(self, marine_spec):
        from dataclasses import replace
        dup = marine_spec.problem_decomposition[:1] * 2
        with pytest.raises(InvariantViolation):
            replace(marine_spec, problem_decomposition=dup)


class TestSelect:
    """``NetworkTopology.select`` answers which nodes a target selector
    picks from the topology's indexes."""

    def test_equals_a_scan(self):
        for seed in range(300):
            rng = random.Random(seed)
            topo = random_topology(rng, max_nodes=12, max_edges=20)
            selectors = [ss.TargetSelector(node_id=nid)
                         for nid in [n.id for n in topo.nodes] + ["ghost"]]
            selectors += [ss.TargetSelector(node_class=cls) for cls in ss.NodeClass]
            for selector in selectors:
                assert topo.select(selector) == tuple(sorted(matching_nodes(topo, selector)))

    def test_repeated_ids_follow_the_first_node(self, registry):
        """Where an id repeats, the first node with it stands for all, as
        ``node_by_id`` does. Such a topology fails ``check_topology``
        (DuplicateNodeId), so only the path search, which does not
        validate, sees the difference from a scan over every node: the
        second "a" is a controller, but the search does not end a path on
        it."""
        topo = make_topology(
            nodes=[("w", ss.NodeClass.WORKSTATION), ("a", ss.NodeClass.SENSOR),
                   ("b", ss.NodeClass.CONTROLLER), ("a", ss.NodeClass.CONTROLLER)],
            edges=[("w", "a"), ("a", "b")],
            vulns=[make_vuln("a", 0.5), make_vuln("b", 0.5)])
        controllers = ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)
        assert topo.select(ss.TargetSelector(node_id="a")) == ("a",)
        assert topo.select(ss.TargetSelector(node_class=ss.NodeClass.SENSOR)) == ("a",)
        assert topo.select(controllers) == ("b",)
        assert matching_nodes(topo, controllers) == ["b", "a"]
        assert "DuplicateNodeId" in {f.code for f in check_topology(topo)}
        paths = ss.enumerate_attack_paths(
            topo, registry, ss.PathQuery(entries=("w",), target=controllers))
        assert [[s.target for s in p.steps] for p in paths] == [["w", "a", "b"]]


class TestCheckTopology:
    def codes(self, topo):
        return sorted({f.code for f in check_topology(topo)})

    def test_clean_topology_has_no_findings(self, marine_topology):
        assert list(check_topology(marine_topology)) == []

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
                assert topo.in_neighbours(node_id) == reference_in_neighbours(topo, node_id)
                assert topo.out_neighbours(node_id) == reference_out_neighbours(topo, node_id)

    def test_reserved_node_id(self):
        """``EXTERNAL`` names the source of entry steps, so no node may
        take it; the package and ``attackgraph`` re-export the constant."""
        topo = make_topology(nodes=[("EXTERNAL", ss.NodeClass.GATEWAY),
                                    ("a", ss.NodeClass.SENSOR)], edges=[("EXTERNAL", "a")])
        assert self.codes(topo) == ["ReservedNodeId"]
        assert ss.EXTERNAL == attackgraph.EXTERNAL == EXTERNAL == "EXTERNAL"

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
        assert [f.code for f in check_topology(topo)] == ["DanglingEdge"]


class TestNeighbourSets:
    @staticmethod
    def topology(seed: int) -> ss.NetworkTopology:
        """A random topology with one-way edges and a self-loop, plus
        repeated edges (some reversed or one-way) and edges to ids that
        are not nodes."""
        rng = random.Random(seed)
        topo = with_directed_edges(random_topology(rng), rng)
        repeated = tuple(
            ss.Edge(edge.dst, edge.src, bidirectional=rng.random() < 0.5)
            if rng.random() < 0.5 else edge
            for edge in rng.sample(topo.edges, min(3, len(topo.edges))))
        dangling = (ss.Edge(topo.nodes[0].id, "ghost"),
                    ss.Edge("phantom", topo.nodes[-1].id, bidirectional=False))
        return dataclasses.replace(topo, edges=topo.edges + repeated + dangling)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_each_read_matches_a_scan_of_the_edges(self, seed):
        """``in_neighbours`` and ``out_neighbours`` equal a scan of the
        edge list, with their types, whatever the order of the reads:
        nodes in random order, each read in one direction, the other,
        or both, some twice, and ids that are not nodes."""
        topo = self.topology(seed)
        rng = random.Random(seed)
        reads = [(node_id, direction)
                 for node_id in [n.id for n in topo.nodes] + ["ghost", "phantom", "absent"]
                 for direction in ("in", "out") if rng.random() < 0.7]
        reads += rng.sample(reads, len(reads) // 3)
        rng.shuffle(reads)
        for node_id, direction in reads:
            if direction == "in":
                got = topo.in_neighbours(node_id)
                assert type(got) is frozenset
                assert got == reference_in_neighbours(topo, node_id)
            else:
                got = topo.out_neighbours(node_id)
                assert type(got) is tuple
                assert got == reference_out_neighbours(topo, node_id)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_reads_leave_the_value_alone(self, seed):
        """A topology whose neighbour sets were read equals, hashes and
        pickles like a fresh one with the same fields."""
        topo = self.topology(seed)
        fresh = ss.NetworkTopology(*(getattr(topo, f.name) for f in dataclasses.fields(topo)))
        for node_id in topo.node_ids[::2]:
            topo.out_neighbours(node_id)
        for node_id in topo.node_ids[::3]:
            topo.in_neighbours(node_id)
        assert topo == fresh and hash(topo) == hash(fresh)
        assert pickle.dumps(topo) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(topo))
        assert [copy.out_neighbours(n) for n in copy.node_ids] == [
            reference_out_neighbours(topo, n) for n in topo.node_ids]


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

    @pytest.mark.parametrize("amend, code", [
        (lambda t: dataclasses.replace(t, zones=t.zones * 2), "DuplicateZoneId"),
        (lambda t: dataclasses.replace(t, edges=t.edges + t.edges[:1]), "DuplicateEdge"),
        (lambda t: dataclasses.replace(t, nodes=(dataclasses.replace(
            t.nodes[0], credential_ids=("cred-ghost",)),) + t.nodes[1:]),
         "UnknownCredentialRef"),
        (lambda t: dataclasses.replace(t, nodes=(dataclasses.replace(
            t.nodes[0], credential_ids=("cred-a",)),) + t.nodes[1:], credentials=(ss.Credential(
                id="cred-a", stored_on="a", grants_access_to=("ghost",)),)),
         "BadCredentialHost"),
        (lambda t: dataclasses.replace(t, credentials=(ss.Credential(
            id="cred-a", stored_on="a", grants_access_to=("b",)),)),
         "BadCredentialHost"),
        (lambda t: dataclasses.replace(t, nodes=tuple(
            dataclasses.replace(n, credential_ids=("cred-b",)) for n in t.nodes),
            credentials=(ss.Credential(id="cred-b", stored_on="b", grants_access_to=("a",)),)),
         "BadCredentialHost"),
    ], ids=["zone", "edge", "credential_ref", "grant_to_missing_node", "host_does_not_list",
            "listed_off_its_host"])
    def test_topology_finding(self, registry, amend, code):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.SENSOR)],
            edges=[("a", "b")])
        assert ss.validate_spec(spec_around(topo), registry).errors == ()
        report = ss.validate_spec(spec_around(amend(topo)), registry)
        assert [f.code for f in report.errors] == [code]

    def test_disconnected_topology_warns(self, registry):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.SENSOR)],
            edges=[])
        spec = spec_around(topo)
        report = ss.validate_spec(spec, registry)
        assert report.errors == ()
        assert any(f.code == "DisconnectedTopology" for f in report.warnings)

    def test_repeated_node_id_alone_does_not_warn(self, marine_spec, registry):
        """The marine fixture with ``maint-0`` listed twice is an error, and
        still connected: a repeat is one id, not an unreached node."""
        topo = marine_spec.scenario_parameters.explicit_topology
        twin = topo.node_by_id("maint-0")
        spec = dataclasses.replace(marine_spec, scenario_parameters=ScenarioParameters(
            explicit_topology=dataclasses.replace(topo, nodes=topo.nodes + (twin,))))
        report = ss.validate_spec(spec, registry)
        assert "DuplicateNodeId" in {f.code for f in report.errors}
        assert "DisconnectedTopology" not in {f.code for f in report.warnings}

    def test_repeated_node_id_keeps_a_disconnection(self, registry):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.WORKSTATION), ("b", ss.NodeClass.SENSOR),
                   ("c", ss.NodeClass.SENSOR)],
            edges=[("a", "b")])
        topo = dataclasses.replace(topo, nodes=topo.nodes + (topo.nodes[0],))
        report = ss.validate_spec(spec_around(topo), registry)
        assert "DuplicateNodeId" in {f.code for f in report.errors}
        assert "DisconnectedTopology" in {f.code for f in report.warnings}

    def test_connectivity_equals_a_walk_over_the_edge_list(self):
        """On random topologies with one-way edges, self-loops, edges to a
        missing node and repeated node ids, ``_is_connected`` answers as a
        walk over an adjacency built from the edge list does."""
        outcomes = set()
        for seed in range(500):
            rng = random.Random(seed)
            topo = with_directed_edges(random_topology(rng, max_edges=6), rng)
            nodes = topo.nodes
            if rng.random() < 0.5:
                ids = [n.id for n in nodes]
                topo = dataclasses.replace(topo, edges=topo.edges + (
                    ss.Edge(src=rng.choice(ids), dst="ghost"),
                    ss.Edge(src="ghost", dst=rng.choice(ids), bidirectional=False)))
            if rng.random() < 0.2:
                twin = dataclasses.replace(rng.choice(nodes),
                                           node_class=rng.choice(list(ss.NodeClass)))
                topo = dataclasses.replace(topo, nodes=nodes + (twin,))
            connected = _is_connected(topo)
            assert connected == reference_is_connected(topo), seed
            outcomes.add((connected, len(topo.nodes) > 1))
        assert outcomes == {(True, False), (True, True), (False, True)}


    def test_recipe_findings_are_the_errors_expansion_raises(self, marine_spec, registry):
        """Over a grid of recipes, ``validate_spec`` reports an error with
        the code of what ``build_topology`` raises (for every seed), at the
        recipe, and reports none exactly when it expands; an empty recipe
        asking for links also gets InsufficientGateways, after EmptyRecipe."""
        outcomes = set()
        for controllers, gateways, zones, links in itertools.product(
                (0, 1), (0, 1), (1, 2, 3), (0, 1, 2)):
            r = recipe({ss.NodeClass.CONTROLLER: controllers, ss.NodeClass.GATEWAY: gateways},
                       zone_count=zones, gateways=links)
            spec = dataclasses.replace(
                marine_spec, scenario_parameters=ScenarioParameters(recipe=r))
            found = [f for f in ss.validate_spec(spec, registry).errors
                     if f.location == "scenario_parameters.recipe"]
            codes = [f.code for f in found]
            for seed in (0, 1, 2):
                try:
                    ss.build_topology(r, registry, seed)
                except (EmptyRecipe, InsufficientGateways) as exc:
                    assert codes[0] == exc.code and found[0].message == str(exc)
                else:
                    assert codes == []
            outcomes.add(tuple(codes))
        assert outcomes == {(), ("EmptyRecipe",), ("InsufficientGateways",),
                            ("EmptyRecipe", "InsufficientGateways")}


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
        assert list(check_topology(topo)) == []
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


def expand(expansion, r, seed):
    """The topology ``expansion`` makes of ``r``, or the error it raises."""
    try:
        return expansion(r, builtin_reg(), seed)
    except (EmptyRecipe, InsufficientGateways) as exc:
        return exc


def expansion_outcome(result) -> str:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return repr(result)


@st.composite
def random_recipes(draw):
    """1-6 zones (often more than nodes), 0-3 gateways with up to 5 links
    per zone pair, and every rate at 0, between, and 1."""
    counts = {cls: draw(st.integers(0, 3)) for cls in ss.NodeClass}
    return recipe(counts,
                  zone_count=draw(st.integers(1, 6)),
                  density=draw(st.sampled_from([0.0, 0.3, 1.0])),
                  gateways=draw(st.integers(0, 5)),
                  vuln_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
                  credential_rate=draw(st.sampled_from([0.0, 0.4, 1.0])))


ONE_NODE = recipe({ss.NodeClass.SENSOR: 1}, credential_rate=1.0)
FEW_GATEWAYS = recipe({ss.NodeClass.SENSOR: 2, ss.NodeClass.GATEWAY: 1,
                       ss.NodeClass.WORKSTATION: 1},
                      zone_count=6, density=1.0, gateways=4, credential_rate=1.0)


def expansion_grid():
    """A fixed set of (recipe, seed): one node with every credential gate
    open, a 12-node mix, and 39 nodes whose gateway ids sort out of
    creation order, each under 1, 2, 3 and 6 zones, 0, 1 and 3 links per
    zone pair, density 0, 0.3 and 1, and two seeds."""
    sizes = (
        ({ss.NodeClass.SENSOR: 1}, 1.0),
        ({ss.NodeClass.SENSOR: 3, ss.NodeClass.CONTROLLER: 2, ss.NodeClass.GATEWAY: 2,
          ss.NodeClass.CAMERA_SERVER: 1, ss.NodeClass.MAINTENANCE_ENDPOINT: 2,
          ss.NodeClass.WORKSTATION: 1, ss.NodeClass.DATA_SERVER: 1}, 0.4),
        ({ss.NodeClass.SENSOR: 14, ss.NodeClass.GATEWAY: 12,
          ss.NodeClass.WORKSTATION: 10, ss.NodeClass.DATA_SERVER: 3}, 0.4),
    )
    for (counts, credential_rate), zones, links, density, seed in itertools.product(
            sizes, (1, 2, 3, 6), (0, 1, 3), (0.0, 0.3, 1.0), (0, 1)):
        yield recipe(counts, zone_count=zones, density=density, gateways=links,
                     credential_rate=credential_rate), seed


# sha256 over the newline-joined outcomes of expansion_grid(), computed
# with the pair-scanning expansion: a change to the draws or their order
# fails here even if build_topology and the reference drift together.
EXPANSION_GRID_SHA256 = "79d680d734c189cf7db5a9b54de5e6b58ebdd3a51fa67fd79bebff01f176e33a"


class TestExpansionMatchesReference:
    @given(r=random_recipes(), seed=st.integers(0, 2**32 - 1))
    @example(r=ONE_NODE, seed=0)
    @example(r=FEW_GATEWAYS, seed=3)
    @settings(max_examples=300, deadline=None)
    def test_random_recipes(self, r, seed):
        got = expand(ss.build_topology, r, seed)
        want = expand(reference_build_topology, r, seed)
        assert expansion_outcome(got) == expansion_outcome(want)
        if not isinstance(want, Exception):
            assert got == want

    def test_pinned_grid(self):
        outcomes = "\n".join(expansion_outcome(expand(ss.build_topology, r, seed))
                              for r, seed in expansion_grid())
        assert hashlib.sha256(outcomes.encode("utf-8")).hexdigest() == EXPANSION_GRID_SHA256


class TestRecipeLayout:
    @given(r=random_recipes(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_scenario_node_ids_match_every_expansion(self, r, seeds):
        spec = dataclasses.replace(spec_around(make_topology([("a", ss.NodeClass.SENSOR)], [])),
                                   scenario_parameters=ScenarioParameters(recipe=r))
        for seed in seeds:
            topo = expand(ss.build_topology, r, seed)
            if isinstance(topo, Exception):
                continue
            assert scenario_node_ids(spec) == {n.id for n in topo.nodes}

    def test_layout_is_not_part_of_the_value(self, registry):
        fresh = recipe(TestBuildTopology.COUNTS, zone_count=2, gateways=1)
        laid_out = recipe(TestBuildTopology.COUNTS, zone_count=2, gateways=1)
        ss.build_topology(laid_out, registry, 5)
        assert "layout" in vars(laid_out) and "layout" not in vars(fresh)
        with pytest.raises(TypeError):
            laid_out.layout.members["zone-0"] = ()
        assert laid_out == fresh and hash(laid_out) == hash(fresh)
        assert repr(laid_out) == repr(fresh)
        assert pickle.dumps(laid_out) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(laid_out)) == fresh
        base = spec_around(make_topology([("a", ss.NodeClass.SENSOR)], []))
        specs = [dataclasses.replace(base, scenario_parameters=ScenarioParameters(recipe=r))
                 for r in (laid_out, fresh)]
        assert ss.serialize_scenario(specs[0]) == ss.serialize_scenario(specs[1])

    @given(counts=st.lists(st.integers(0, 40), min_size=len(ss.NodeClass),
                           max_size=len(ss.NodeClass)),
           zones=st.integers(1, 60), links=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_expansion_work_counts_the_layout(self, counts, zones, links):
        """``expansion_work`` follows from the fields alone, and equals
        the count taken from the layout: nodes + zones + same-zone node
        pairs + zone pairs × inter_zone_gateways."""
        r = recipe(dict(zip(ss.NodeClass, counts)), zone_count=zones, gateways=links)
        pairs = sum(len(ids) * (len(ids) - 1) // 2 for ids in r.layout.members.values())
        assert r.expansion_work() == (len(r.layout.placements) + zones + pairs
                                      + zones * (zones - 1) // 2 * links)

    def test_a_recipe_over_the_bound_is_refused(self, marine_spec):
        """A recipe may ask for MAX_RECIPE_WORK expansion steps, not one
        more; the check builds no layout, so a huge count is refused at
        once, by the constructor and by the reader."""
        at_bound = recipe({ss.NodeClass.SENSOR: 1}, zone_count=MAX_RECIPE_WORK - 1)
        assert at_bound.expansion_work() == MAX_RECIPE_WORK
        roadmap_point = recipe({ss.NodeClass.SENSOR: 20_000}, zone_count=200, gateways=1)
        assert roadmap_point.expansion_work() == 1_030_100
        for over in ({"zone_count": MAX_RECIPE_WORK}, {"zone_count": 2 ** 64},
                     {"zone_count": 2_000, "inter_zone_gateways": 1},
                     {"node_counts": ((ss.NodeClass.SENSOR, 2 ** 64),)},
                     {"node_counts": ((ss.NodeClass.SENSOR, 2_829),), "zone_count": 2}):
            with pytest.raises(InvariantViolation, match=r"^recipe: asks for \d+ expansion steps, "
                                                         rf"more than {MAX_RECIPE_WORK}$"):
                dataclasses.replace(at_bound, **over)
        data = json.loads(ss.serialize_scenario(marine_spec))
        data["scenario_parameters"] = {"recipe": {
            "node_counts": {"sensor": 1}, "zone_count": 2 ** 64, "intra_zone_density": 0.5,
            "inter_zone_gateways": 1, "vuln_rate": 0.5, "credential_rate": 0.3}}
        with pytest.raises(InvariantViolation, match="^recipe: asks for "):
            ss.parse_scenario(json.dumps(data))

    def test_validation_does_not_grow_with_the_zone_count(self, registry):
        # The layout names only the zones that hold nodes, so checking a
        # spec costs one step per node however many zones the recipe names,
        # up to the most that MAX_RECIPE_WORK admits: one node per zone.
        one_zone = recipe(TestBuildTopology.COUNTS)
        nodes = one_zone.total_nodes()
        many_zones = dataclasses.replace(one_zone, zone_count=MAX_RECIPE_WORK - nodes)
        assert many_zones.expansion_work() == MAX_RECIPE_WORK
        assert len(many_zones.layout.members) == nodes
        objectives = (ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                                   ss.TargetSelector(node_id="controller-0"), 1.0),)
        base = spec_around(make_topology([("a", ss.NodeClass.SENSOR)], []), objectives)
        specs = [dataclasses.replace(base, scenario_parameters=ScenarioParameters(recipe=r))
                 for r in (one_zone, many_zones)]
        assert scenario_node_ids(specs[1]) == scenario_node_ids(specs[0])
        assert ss.validate_spec(specs[1], registry).errors == ()

    def test_replace_expands_under_the_new_zone_count(self, registry):
        r = recipe(TestBuildTopology.COUNTS, zone_count=2, gateways=1)
        ss.build_topology(r, registry, 5)
        wider = dataclasses.replace(r, zone_count=4)
        topo = ss.build_topology(wider, registry, 5)
        assert topo.zones == ("zone-0", "zone-1", "zone-2", "zone-3")
        assert {n.zone for n in topo.nodes} == set(topo.zones)
        assert topo == reference_build_topology(wider, registry, 5)
