"""Attack path enumeration, scoring, and defense placement."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidersim as ss
import spidersim.attackgraph as attackgraph
from spidersim.attackgraph import hop_option
from spidersim.errors import (
    InvalidQueryBound,
    TargetSelectorEmpty,
    UnknownEntryNode,
)
from spidersim.state import DefenseKind

from helpers import (
    builtin_reg,
    chain_topology,
    diamond_topology,
    make_topology,
    make_vuln,
    matching_nodes,
    oracle_paths,
    path_to_oracle_steps,
    random_topology,
    score_path,
    sure_entry_reg,
)


# Vulnerability probabilities for tie-heavy oracle cases: 0.4 equals the
# built-in phishing probability and 0.5 and 1.0 multiply exactly, so many
# paths share a probability and a length.
TIE_PROBS = (0.4, 0.5, 1.0)


def query(entries, target, **kwargs):
    return ss.PathQuery(entries=tuple(entries), target=target, **kwargs)


def path_key(path):
    """The documented total order of enumerate_attack_paths."""
    first = path.steps[0]
    entry = first.target if first.source == ss.EXTERNAL else first.source
    return (-path.success_prob, len(path.steps),
            tuple(s.target for s in path.steps), entry)


class TestExamples:
    def test_chain_probability(self):
        """Entry with certainty, then two 0.5 exploits: 1.0 * 0.5 * 0.5."""
        paths = ss.enumerate_attack_paths(
            chain_topology(), sure_entry_reg(),
            query(["a"], ss.TargetSelector(node_id="c")))
        assert len(paths) == 1
        path = paths[0]
        assert [s.capability_id for s in path.steps] == [
            "phishing", "exploit_vuln", "exploit_vuln"]
        assert path.steps[0].source == ss.EXTERNAL
        assert path.success_prob == pytest.approx(0.25)
        assert path.total_cost == 1 + 2 + 2

    def test_diamond_ordering(self):
        """Two branches to the same target, ranked by probability."""
        paths = ss.enumerate_attack_paths(
            diamond_topology(), builtin_reg(),
            query(["g"], ss.TargetSelector(node_id="t")))
        probs = [p.success_prob for p in paths]
        assert probs == [pytest.approx(0.9 * 0.9), pytest.approx(0.5 * 0.9)]
        assert [s.target for s in paths[0].steps] == ["m", "t"]

    def test_non_phishable_entry_starts_free(self):
        paths = ss.enumerate_attack_paths(
            diamond_topology(), builtin_reg(),
            query(["g"], ss.TargetSelector(node_id="m")))
        assert paths[0].steps[0].source == "g"

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryNode):
            ss.enumerate_attack_paths(
                chain_topology(), builtin_reg(),
                query(["ghost"], ss.TargetSelector(node_id="c")))

    def test_selector_matching_nothing(self):
        with pytest.raises(TargetSelectorEmpty):
            ss.enumerate_attack_paths(
                chain_topology(), builtin_reg(),
                query(["a"], ss.TargetSelector(node_id="nope")))

    def test_query_without_entries(self):
        with pytest.raises(TargetSelectorEmpty) as err:
            query([], ss.TargetSelector(node_id="c"))
        assert err.value.code == "TargetSelectorEmpty"

    def test_without_an_entry_capability_paths_start_at_the_entry(self):
        """With no entry capability there is no step from EXTERNAL: the
        entry node is an assumed foothold and its path starts there."""
        no_entry = ss.CapabilityRegistry(tuple(
            cap for cap in builtin_reg().capabilities() if cap.id != "phishing"))
        assert no_entry.path_capabilities[2] is None
        paths = ss.enumerate_attack_paths(
            chain_topology(), no_entry, query(["a"], ss.TargetSelector(node_id="c")))
        assert [[(s.source, s.target) for s in p.steps] for p in paths] == [
            [("a", "b"), ("b", "c")]]

    @pytest.mark.parametrize("bounds", [{"k": 0}, {"k": -1},
                                        {"max_len": 0}, {"max_len": -3}])
    def test_query_bound_below_one(self, bounds):
        with pytest.raises(InvalidQueryBound):
            query(["a"], ss.TargetSelector(node_id="c"), **bounds)

    def test_hop_prefers_higher_probability(self):
        topo = make_topology(
            nodes=[("s", ss.NodeClass.WORKSTATION), ("t", ss.NodeClass.SENSOR)],
            edges=[("s", "t")],
            vulns=[make_vuln("t", 0.5)],
            creds=[ss.Credential(id="c", stored_on="s", grants_access_to=("t",))])
        cap_id, prob, cost = hop_option(topo, builtin_reg(), "t")
        assert (cap_id, prob, cost) == ("lateral_move_with_cred", 0.9, 1)

    def test_duplicate_entries_list_each_path_once(self):
        twice = query(["a", "a"], ss.TargetSelector(node_id="c"))
        assert twice.entries == ("a",)
        paths = ss.enumerate_attack_paths(chain_topology(), sure_entry_reg(), twice)
        assert len(paths) == 1

    def test_entry_breaks_ties(self):
        """Phishing a (0.4) and hopping x -> a (0.4) reach b along the same
        target sequence with the same probability: entry a comes first,
        whatever the order of the query's entries."""
        topo = make_topology(
            nodes=[("x", ss.NodeClass.GATEWAY), ("a", ss.NodeClass.WORKSTATION),
                   ("b", ss.NodeClass.CONTROLLER)],
            edges=[("x", "a"), ("a", "b")],
            vulns=[make_vuln("a", 0.4), make_vuln("b", 0.5)])
        for entries in (["x", "a"], ["a", "x"]):
            paths = ss.enumerate_attack_paths(
                topo, builtin_reg(), query(entries, ss.TargetSelector(node_id="b")))
            assert [p.steps[0].source for p in paths] == [ss.EXTERNAL, "x"]
            assert paths[0].success_prob == paths[1].success_prob

    def test_long_chain_needs_no_recursion(self):
        ids = [f"n{i:04d}" for i in range(1200)]
        topo = make_topology(
            nodes=[(i, ss.NodeClass.DATA_SERVER) for i in ids],
            edges=list(zip(ids, ids[1:])),
            vulns=[make_vuln(i, 1.0) for i in ids[1:]])
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(),
            query([ids[0]], ss.TargetSelector(node_id=ids[-1]), k=1, max_len=len(ids)))
        assert len(paths) == 1
        assert [s.target for s in paths[0].steps] == ids[1:]

    def test_dangling_edges_are_not_followed(self):
        topo = make_topology(
            nodes=[("a", ss.NodeClass.GATEWAY), ("c", ss.NodeClass.CONTROLLER)],
            edges=[("a", "ghost"), ("ghost", "c")],
            creds=[ss.Credential(id="k", stored_on="a", grants_access_to=("ghost", "c"))])
        assert ss.enumerate_attack_paths(
            topo, builtin_reg(), query(["a"], ss.TargetSelector(node_id="c"))) == []
        assert ss.reachable_set(topo, builtin_reg(), ["a"]) == {"a"}

    def test_only_phishable_entries_are_entered_from_outside(self):
        """A phishable entry's path opens with the entry capability from
        EXTERNAL onto it; a path from any other entry starts at the entry."""
        topo = chain_topology()
        to_c = ss.TargetSelector(node_id="c")
        (phished,) = ss.enumerate_attack_paths(topo, builtin_reg(), query(["a"], to_c))
        first = phished.steps[0]
        assert (first.source, first.capability_id, first.target) == (ss.EXTERNAL, "phishing", "a")
        (held,) = ss.enumerate_attack_paths(topo, builtin_reg(), query(["b"], to_c))
        assert [(s.source, s.target) for s in held.steps] == [("b", "c")]

    def test_path_capabilities_are_the_cheapest_by_cost_then_id(self):
        built_ins = builtin_reg()
        assert [cap.id for cap in built_ins.path_capabilities] == [
            "exploit_vuln", "lateral_move_with_cred", "phishing"]
        exploit, lateral, entry = built_ins.path_capabilities
        # A cheaper exploit wins; one at the same cost wins on its id only.
        for cap_id, cost, chosen in (("zz_exploit", 1, "zz_exploit"),
                                     ("aa_exploit", 2, "aa_exploit"),
                                     ("zz_exploit", 2, "exploit_vuln")):
            registry = ss.register_capability(
                built_ins, replace(exploit, id=cap_id, cost_units=cost))
            assert registry.path_capabilities == (registry.get(chosen), lateral, entry)
            topo = make_topology(
                nodes=[("s", ss.NodeClass.WORKSTATION), ("t", ss.NodeClass.SENSOR)],
                edges=[("s", "t")], vulns=[make_vuln("t", 0.5)])
            assert hop_option(topo, registry, "t") == (
                chosen, 0.5, registry.get(chosen).cost_units)
        defenses_only = ss.CapabilityRegistry(tuple(
            cap for cap in built_ins.capabilities() if cap.kind == ss.CapabilityKind.DEFENSE))
        assert defenses_only.path_capabilities == (None, None, None)


class TestProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        entries = sorted(rng.sample([n.id for n in topo.nodes],
                                    rng.randint(1, len(topo.nodes))))
        target = rng.choice(topo.nodes)
        try:
            paths = ss.enumerate_attack_paths(
                topo, builtin_reg(),
                query(entries, ss.TargetSelector(node_id=target.id), max_len=8))
        except TargetSelectorEmpty:
            pytest.fail("target always exists")
        got = [path_to_oracle_steps(p) for p in paths]
        want = oracle_paths(topo, entries, {target.id}, max_len=8)
        assert sorted(got) == sorted(want)
        # and the implementation emits them in the documented order
        keys = [(-p.success_prob, len(p.steps),
                 tuple(s.target for s in p.steps)) for p in paths]
        assert keys == sorted(keys)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_score_monotone_k_simplicity_reachability(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng, probs=TIE_PROBS)
        ids = [n.id for n in topo.nodes]
        entries = rng.sample(ids, min(len(ids), 3))
        # one phishable entry and, whenever there are two, one that is not
        classes = {entries[-1]: ss.NodeClass.GATEWAY,
                   entries[0]: ss.NodeClass.WORKSTATION}
        topo = replace(topo, nodes=tuple(
            replace(n, node_class=classes.get(n.id, n.node_class)) for n in topo.nodes))
        target = ss.TargetSelector(node_class=topo.nodes[-1].node_class)
        max_len = len(topo.nodes)
        full = ss.enumerate_attack_paths(topo, builtin_reg(),
                                         query(entries, target, max_len=max_len))
        reachable = ss.reachable_set(topo, builtin_reg(), entries)
        for path in full:
            prob, cost = score_path(path.steps)
            assert prob == path.success_prob
            assert cost == path.total_cost
            targets = [s.target for s in path.steps]
            assert len(set(targets)) == len(targets)
            assert targets[-1] in reachable
        keys = [path_key(p) for p in full]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        target_ids = set(matching_nodes(topo, target))
        assert sorted(path_to_oracle_steps(p) for p in full) == sorted(
            oracle_paths(topo, entries, target_ids, max_len=max_len))
        for k in range(1, len(full) + 2):
            assert ss.enumerate_attack_paths(
                topo, builtin_reg(),
                query(entries, target, k=k, max_len=max_len)) == full[:k]
        short = rng.randint(1, max_len)
        assert ss.enumerate_attack_paths(
            topo, builtin_reg(), query(entries, target, max_len=short)
        ) == [p for p in full if len(p.steps) <= short]

    def test_steps_built_only_for_returned_paths(self, monkeypatch):
        """The search carries hop tuples and builds an ``AttackStep`` only
        for a step of a path it returns, in top-k and exhaustive queries."""
        built = [0]
        step_record = attackgraph.AttackStep

        def counting_step(*args, **kwargs):
            built[0] += 1
            return step_record(*args, **kwargs)

        monkeypatch.setattr(attackgraph, "AttackStep", counting_step)
        recipe = ss.TopologyRecipe(
            node_counts=((ss.NodeClass.SENSOR, 12), (ss.NodeClass.CONTROLLER, 6),
                         (ss.NodeClass.MAINTENANCE_ENDPOINT, 4),
                         (ss.NodeClass.WORKSTATION, 4), (ss.NodeClass.DATA_SERVER, 4)),
            zone_count=1, intra_zone_density=0.2, inter_zone_gateways=0,
            vuln_rate=0.8, credential_rate=0.3)
        topologies = [ss.build_topology(recipe, builtin_reg(), seed) for seed in range(4)]
        rng = random.Random(5)
        topologies += [random_topology(rng, max_nodes=10, max_edges=24) for _ in range(12)]
        returned = 0
        for topo in topologies:
            entries = tuple(n.id for n in topo.nodes
                            if n.node_class in (ss.NodeClass.MAINTENANCE_ENDPOINT,
                                                ss.NodeClass.WORKSTATION, ss.NodeClass.SENSOR))
            if not entries:
                continue
            target = ss.TargetSelector(node_class=topo.nodes[-1].node_class)
            for k, max_len in ((1, 4), (5, 4), (None, 3)):
                built[0] = 0
                paths = ss.enumerate_attack_paths(
                    topo, builtin_reg(), query(entries, target, k=k, max_len=max_len))
                steps = sum(len(p.steps) for p in paths)
                assert built[0] <= steps, (k, max_len)
                returned += steps
        assert returned > 0

    def test_entry_steps_are_engine_actions(self):
        """Registries with extra entry capabilities, each cheaper than
        phishing: two overlapping ``node_class_is`` on target, or one on
        source. Every step from EXTERNAL the path search returns is an
        action ``applicable_capabilities`` lists on the fresh state."""
        classes = list(ss.NodeClass)
        external = {"phishing": 0, "extra": 0}
        for seed in range(300):
            rng = random.Random(seed)
            topo = random_topology(rng, max_nodes=8, max_edges=12)
            registry = builtin_reg()
            for i in range(rng.randint(1, 2)):
                if rng.random() < 0.7:
                    on_class = tuple(
                        ss.Predicate(ss.PredicateKind.NODE_CLASS_IS,
                                     node_classes=tuple(rng.sample(classes, rng.randint(1, 4))))
                        for _ in range(2))
                else:
                    on_class = (ss.Predicate(ss.PredicateKind.NODE_CLASS_IS, slot="source",
                                             node_classes=tuple(rng.sample(classes, 2))),)
                registry = ss.register_capability(registry, ss.AtomicCapability(
                    id=f"entry-{i}", kind=ss.CapabilityKind.ATTACK, name="Entry",
                    technique_tag="T1566",
                    preconditions=on_class + (ss.Predicate(ss.PredicateKind.NODE_NOT_COMPROMISED),),
                    effects=(ss.Effect(ss.EffectKind.COMPROMISE, privilege=ss.Privilege.USER),),
                    base_success_prob=0.9, detection_prob=0.1, cost_units=0))
            actions = {(cap.id, binding["target"]) for cap, binding
                       in ss.applicable_capabilities(registry, ss.fresh_state(topo))}
            for node in topo.nodes:
                paths = ss.enumerate_attack_paths(topo, registry, query(
                    [n.id for n in topo.nodes], ss.TargetSelector(node_id=node.id), max_len=2))
                for path in paths:
                    first = path.steps[0]
                    if first.source == ss.EXTERNAL:
                        assert (first.capability_id, first.target) in actions, (seed, first)
                        external["phishing" if first.capability_id == "phishing" else "extra"] += 1
        assert all(external.values()), external


class TestPlacements:
    def test_shared_node_wins(self):
        topo = diamond_topology()
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(), query(["g"], ss.TargetSelector(node_id="t")))
        assert len(paths) == 2
        placements = ss.suggest_defense_placements(paths, budget=1)
        assert placements == [("t", DefenseKind.SHOCKTRAP)]

    def test_empty_paths(self):
        assert ss.suggest_defense_placements([], 3) == []

    def test_budget_exhaustion_covers_all_paths(self):
        topo = diamond_topology()
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(), query(["g"], ss.TargetSelector(node_id="t")))
        placements = ss.suggest_defense_placements(paths, budget=10)
        # one placement already hits both paths, so greedy stops there
        assert placements == [("t", DefenseKind.SHOCKTRAP)]

    def test_entry_node_is_never_picked(self):
        paths = ss.enumerate_attack_paths(
            chain_topology(), builtin_reg(),
            query(["a"], ss.TargetSelector(node_id="c")))
        placements = ss.suggest_defense_placements(paths, 5)
        assert all(node != "a" for node, _ in placements)
        # one pick suffices: the greedy loop stops once every path is hit
        assert placements == [("b", DefenseKind.SHOCKTRAP)]

    def test_disjoint_paths_need_one_placement_each(self):
        topo = make_topology(
            nodes=[("e", ss.NodeClass.GATEWAY), ("p", ss.NodeClass.SENSOR),
                   ("q", ss.NodeClass.SENSOR)],
            edges=[("e", "p"), ("e", "q")],
            vulns=[make_vuln("p", 0.5), make_vuln("q", 0.5)])
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(),
            query(["e"], ss.TargetSelector(node_class=ss.NodeClass.SENSOR)))
        placements = ss.suggest_defense_placements(paths, budget=5)
        assert {node for node, _ in placements} == {"p", "q"}

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_greedy_first_pick_is_optimal_single_placement(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        entries = [topo.nodes[0].id]
        target = ss.TargetSelector(node_class=rng.choice(topo.nodes).node_class)
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(), query(entries, target, k=6))
        placements = ss.suggest_defense_placements(paths, budget=1)

        def nonentry_nodes(path):
            nodes = {s.target for s in path.steps}
            nodes.update(s.source for s in path.steps
                         if s.source != ss.EXTERNAL)
            entry = (path.steps[0].target
                     if path.steps[0].source == ss.EXTERNAL
                     else path.steps[0].source)
            return nodes - {entry}

        candidate_sets = [nonentry_nodes(p) for p in paths]
        all_candidates = set().union(*candidate_sets) if candidate_sets else set()
        if not all_candidates:
            assert placements == []
            return
        best = max(sum(1 for s in candidate_sets if v in s)
                   for v in all_candidates)
        node, kind = placements[0]
        assert kind == DefenseKind.SHOCKTRAP
        assert sum(1 for s in candidate_sets if node in s) == best
