"""Seeded round-based simulation: traces, metrics, batches."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spidersim as ss
import spidersim.capabilities as capabilities
import spidersim.engine as engine
from spidersim.engine import STALL_ROUNDS, SimulationTrace, scenario_digest, step_round
from spidersim.errors import (
    DuplicatePlacement,
    InvalidScenario,
    KindMismatch,
    RoundLimitExceeded,
    UnknownCapability,
    UnknownNode,
)
from spidersim.exports import export_trace
from spidersim.rng import substream
from spidersim.state import DefenseKind, SimulationState, fresh_state

from helpers import (
    CountingRandom,
    builtin_reg,
    chain_topology,
    make_topology,
    make_vuln,
    random_topology,
    reference_compute_metrics,
    reference_play,
    reference_reactive_pick,
    reference_rounds,
    spec_around,
    sure_entry_reg,
    with_directed_edges,
    with_vulnerabilities,
)


def config(**kwargs):
    kwargs.setdefault("max_rounds", 15)
    kwargs.setdefault("seed", 1)
    return ss.SimulationConfig(**kwargs)


def marine_strategy(registry, topology):
    return ss.compose_strategy(
        registry,
        [("data_encryption", "ws-0"), ("honeypot", "maint-0"),
         ("shocktrap", "gateway-0")],
        topology,
    )


class TestRunSimulation:
    def test_deterministic_traces(self, marine_spec, marine_topology, registry):
        strategy = marine_strategy(registry, marine_topology)
        first = ss.run_simulation(marine_spec, strategy, registry, config())
        second = ss.run_simulation(marine_spec, strategy, registry, config())
        assert export_trace(first[0]) == export_trace(second[0])
        assert first[1] == second[1]

    def test_round_monotonicity(self, marine_spec, registry):
        trace, _ = ss.run_simulation(marine_spec, ss.DefenseStrategy(),
                                     registry, config(max_rounds=10))
        rounds = [e.round for e in trace.events]
        assert rounds == sorted(rounds)
        assert trace.final_state.round <= 10

    def test_one_step_win(self):
        topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
        spec = spec_around(topo, objectives=(
            ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                         ss.TargetSelector(node_id="w"), 1.0),
        ))
        trace, metrics = ss.run_simulation(
            spec, ss.DefenseStrategy(), sure_entry_reg(), config())
        assert trace.final_state.round == 1
        assert dict(metrics.objectives_met)[0]
        assert metrics.time_to_first_objective == 1
        assert metrics.compromised_fraction == 1.0

    def test_run_ends_in_the_round_the_objective_is_met(self, registry):
        """A run whose attacker objective is met (a share of the nodes of
        the topology's most common class) ends in the round the metrics
        give for it, under every attacker policy."""
        ended = 0
        for seed in range(120):
            rng = random.Random(seed)
            topo = random_topology(rng, max_nodes=8)
            classes = [n.node_class for n in topo.nodes]
            target = max(set(classes), key=lambda c: (classes.count(c), c.value))
            spec = spec_around(topo, objectives=(
                ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                             ss.TargetSelector(node_class=target), rng.choice([0.3, 0.5, 0.7])),
            ))
            cfg = config(seed=seed, attacker_policy=rng.choice(list(ss.AttackerPolicy)))
            trace, metrics = ss.run_simulation(spec, ss.DefenseStrategy(), registry, cfg)
            if dict(metrics.objectives_met)[0]:
                assert trace.final_state.round == metrics.time_to_first_objective
                ended += classes.count(target) > 1
        assert ended >= 10

    def test_stall_rule_exactly_three_idle_rounds(self, registry):
        # sensors are not phishable and carry no vulnerabilities: the
        # attacker can never act
        topo = make_topology(nodes=[("s0", ss.NodeClass.SENSOR),
                                    ("s1", ss.NodeClass.SENSOR)],
                             edges=[("s0", "s1")])
        spec = spec_around(topo)
        trace, metrics = ss.run_simulation(spec, ss.DefenseStrategy(),
                                           registry, config(max_rounds=20))
        assert trace.events == ()
        assert trace.final_state.round == STALL_ROUNDS
        assert not metrics.attacker_won(spec.objectives)

    def test_trapped_rounds_are_not_idle(self, registry):
        """An attacker trapped from round 0 to 4 by a placed defense skips
        rounds 1 to 3 without stalling; the stall count starts after."""
        lockdown = ss.AtomicCapability(
            id="lockdown", kind=ss.CapabilityKind.DEFENSE, name="Lockdown",
            technique_tag="D0001", preconditions=(),
            effects=(ss.Effect(ss.EffectKind.TRAP_ACTOR, duration_rounds=4),),
            base_success_prob=1.0, detection_prob=0.0, cost_units=1)
        registry = ss.register_capability(registry, lockdown)
        topo = make_topology(nodes=[("s0", ss.NodeClass.SENSOR),
                                    ("s1", ss.NodeClass.SENSOR)],
                             edges=[("s0", "s1")])
        strategy = ss.compose_strategy(registry, [("lockdown", "s0")])
        trace, _ = ss.run_simulation(spec_around(topo), strategy, registry,
                                     config(max_rounds=20))
        assert trace.events == ()
        assert trace.final_state.round == 3 + STALL_ROUNDS

    def test_trap_soundness(self, marine_spec, marine_topology, registry):
        strategy = marine_strategy(registry, marine_topology)
        for seed in range(30):
            trace, _ = ss.run_simulation(marine_spec, strategy, registry,
                                         config(seed=seed))
            attacker_rounds = {e.round for e in trace.events
                               if e.actor == ss.Actor.ATTACKER}
            for event in trace.events:
                if event.trapped_for > 0:
                    # the round after a trap fires is fully skipped
                    assert event.round + 1 not in attacker_rounds

    def test_conservation_of_compromise(self, marine_spec, marine_topology,
                                        registry):
        state = fresh_state(marine_topology)
        rng = substream(3, "simulation")
        seen = frozenset()
        for _ in range(12):
            state, _ = step_round(state, registry, config(seed=3), rng)
            assert seen <= state.compromise.keys()
            seen = frozenset(state.compromise)

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_round_limit_below_one_is_refused(self, max_rounds):
        with pytest.raises(InvalidScenario) as err:
            ss.SimulationConfig(max_rounds=max_rounds)
        assert err.value.code == "InvalidScenario"

    def test_invalid_scenario_rejected(self, marine_spec, registry):
        from dataclasses import replace
        elements = replace(marine_spec.elements, capability_refs=("ghost",))
        broken = replace(marine_spec, elements=elements)
        with pytest.raises(InvalidScenario):
            ss.run_simulation(broken, ss.DefenseStrategy(), registry, config())

    def test_invalid_strategy_rejected(self, marine_spec, registry):
        """One placement rule: each bad placement raises the same error
        from ``compose_strategy``, ``run_simulation`` and ``batch_run``, on
        the explicit scenario and on a recipe one (``NODE`` stands for a
        node of the scenario)."""
        recipe = ss.TopologyRecipe(((ss.NodeClass.CONTROLLER, 1), (ss.NodeClass.WORKSTATION, 1)),
                                   1, 0.5, 0, 0.5, 0.3)
        from_recipe = replace(marine_spec, scenario_parameters=replace(
            marine_spec.scenario_parameters, explicit_topology=None, recipe=recipe))
        for placements, error in (([("forcefield", "NODE")], UnknownCapability),
                                  ([("phishing", "NODE")], KindMismatch),
                                  ([("honeypot", "ghost")], UnknownNode),
                                  ([("honeypot", "NODE"), ("honeypot", "NODE")], DuplicatePlacement)):
            for spec, node in ((marine_spec, "ws-0"), (from_recipe, "workstation-0")):
                pairs = [(cap_id, node if node_id == "NODE" else node_id)
                         for cap_id, node_id in placements]
                with pytest.raises(error):
                    ss.compose_strategy(registry, pairs, engine.resolve_topology(spec, registry, 1))
                strategy = ss.DefenseStrategy(tuple(ss.Placement(*pair) for pair in pairs))
                with pytest.raises(error):
                    ss.run_simulation(spec, strategy, registry, config())
                with pytest.raises(error):
                    ss.batch_run(spec, strategy, registry, config(), 3)


class TestStepRound:
    def test_round_limit(self, marine_topology, registry):
        state = fresh_state(marine_topology).with_round(5)
        with pytest.raises(RoundLimitExceeded):
            step_round(state, registry, config(max_rounds=5), random.Random(0))

    def test_uniform_random_uses_one_selection_draw(self, registry):
        topo = chain_topology()
        state = fresh_state(topo)
        rng = CountingRandom(0)
        cfg = config(attacker_policy=ss.AttackerPolicy.UNIFORM_RANDOM)
        _, events = step_round(state, registry, cfg, rng)
        assert len(events) == 1
        assert rng.draws == 3  # selection + success + detection

    def test_greedy_value_prefers_high_asset_target(self, registry):
        topo = make_topology(
            nodes=[("w0", ss.NodeClass.WORKSTATION),
                   ("w1", ss.NodeClass.WORKSTATION)],
            edges=[], values={"w0": 10, "w1": 90})
        _, events = step_round(fresh_state(topo), registry, config(), random.Random(0))
        assert events[0].target == "w1"

    def test_cheapest_step_follows_tie_break(self, registry):
        topo = make_topology(
            nodes=[("w0", ss.NodeClass.WORKSTATION),
                   ("w1", ss.NodeClass.WORKSTATION)],
            edges=[], values={"w0": 10, "w1": 90})
        cfg = config(attacker_policy=ss.AttackerPolicy.CHEAPEST_STEP)
        _, events = step_round(fresh_state(topo), registry, cfg, random.Random(0))
        assert events[0].target == "w0"

    def test_reactive_defender_patches_after_alarm(self, registry):
        topo = chain_topology()
        state = fresh_state(topo).with_round(1).with_alarm("a")
        cfg = config(defender_policy=ss.DefenderPolicy.REACTIVE)
        new_state, events = step_round(state, registry, cfg, random.Random(0))
        defender_events = [e for e in events if e.actor == ss.Actor.DEFENDER]
        assert len(defender_events) == 1
        patched = defender_events[0].target
        assert DefenseKind.PATCH in new_state.deployed[patched]

    def test_reactive_pick_equals_a_min_over_every_node(self, registry):
        """On random states with compromises, patches, tied asset values,
        shuffled node order and (sometimes) a repeated node id, the
        reactive defender patches ``reference_reactive_pick`` exactly when
        an alarm was raised the round before, and nothing otherwise."""
        cfg = config(defender_policy=ss.DefenderPolicy.REACTIVE, max_rounds=20)
        outcomes = set()
        for seed in range(400):
            rng = random.Random(seed)
            topo = random_topology(rng, max_nodes=8)
            nodes = [replace(n, asset_value=rng.choice((10, 20, 20, 50)))
                     for n in topo.nodes]
            if rng.random() < 0.2:
                nodes.append(replace(rng.choice(nodes), asset_value=rng.choice((10, 90))))
            rng.shuffle(nodes)
            topo = replace(topo, nodes=tuple(nodes))
            ids = [n.id for n in nodes]
            current = rng.randint(1, 10)
            rounds = sorted(rng.randint(0, current) for _ in range(rng.randint(0, 3)))
            state = SimulationState(
                topology=topo, round=current,
                compromise={nid: ss.Privilege.USER for nid in ids if rng.random() < 0.3},
                deployed={nid: {DefenseKind.PATCH} for nid in ids if rng.random() < 0.3},
                alarms=tuple((r, rng.choice(ids)) for r in rounds))
            expected = reference_reactive_pick(state) if current in rounds else None
            new_state, events = step_round(state, registry, cfg, random.Random(seed))
            patched = [e.target for e in events if e.actor == ss.Actor.DEFENDER]
            assert patched == ([] if expected is None else [expected]), seed
            if expected is not None:
                assert DefenseKind.PATCH in new_state.deployed[expected]
            outcomes.add((current in rounds, expected is not None))
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_reactive_defender_plays_the_registrys_patch(self, registry):
        """A registry whose ``patch`` also needs an asset value of 50 and
        deploys a scanner too: the defender skips the nodes below 50 and
        deploys both, with no draw (the attacker is trapped); once every
        node of 50 or more is patched or compromised, it patches nothing."""
        patch = registry.get("patch")
        strict = replace(patch, preconditions=patch.preconditions + (
            ss.Predicate(ss.PredicateKind.NODE_ASSET_VALUE_AT_LEAST, min_asset_value=50),),
            effects=patch.effects + (ss.Effect(ss.EffectKind.DEPLOY, defense=DefenseKind.SCANNER),))
        custom = ss.CapabilityRegistry()
        for cap in registry.capabilities():
            custom = ss.register_capability(custom, strict if cap.id == "patch" else cap)
        topo = make_topology(
            nodes=[(nid, ss.NodeClass.SENSOR) for nid in ("a", "b", "c", "d")], edges=[],
            values={"a": 90, "b": 70, "c": 45, "d": 55})
        state = SimulationState(topology=topo, round=1, compromise={"a": ss.Privilege.USER},
                                alarms=((1, "a"),), trapped_until=10)
        cfg = config(defender_policy=ss.DefenderPolicy.REACTIVE)
        rng = CountingRandom(0)
        patched, events = step_round(state, custom, cfg, rng)
        assert [(e.actor, e.capability_id, e.target) for e in events] == [
            (ss.Actor.DEFENDER, "patch", "b")]
        assert patched.deployed["b"] == {DefenseKind.PATCH, DefenseKind.SCANNER}
        assert rng.draws == 0
        again, events = step_round(patched.with_alarm("a"), custom, cfg, rng)
        assert [e.target for e in events] == ["d"]
        last, events = step_round(again.with_alarm("a"), custom, cfg, rng)
        assert events == [] and last.deployed == again.deployed
        assert reference_reactive_pick(again) == "c"  # the built-in patch takes c

    def test_reactive_defender_needs_a_patch(self, registry):
        """A reactive round on a registry without ``patch`` fails, alarm or
        not; the static defender never reads it."""
        custom = ss.CapabilityRegistry()
        for cap in registry.capabilities():
            if cap.id != "patch":
                custom = ss.register_capability(custom, cap)
        state = fresh_state(chain_topology())
        with pytest.raises(UnknownCapability, match="'patch'"):
            step_round(state, custom, config(defender_policy=ss.DefenderPolicy.REACTIVE),
                       random.Random(0))
        step_round(state, custom, config(), random.Random(0))


@pytest.fixture
def enumerations(monkeypatch):
    """Every attacker action list the engine enumerates, in call order, as
    (state, list, a copy of its entries taken when it was returned).
    ``LastEnumeration`` looks the function up through its module, so the
    wrapper sees every real enumeration and no reuse."""
    calls = []
    enumerate_actions = capabilities.applicable_capabilities

    def recording(registry, state):
        found = enumerate_actions(registry, state)
        calls.append((state, found, [(cap, dict(binding)) for cap, binding in found]))
        return found

    monkeypatch.setattr(capabilities, "applicable_capabilities", recording)
    return calls


@pytest.fixture
def run_lookups(monkeypatch):
    """Every ``capabilities.LastEnumeration`` the engine makes, in order: a
    batch makes one before its first run, then one per run."""
    made = []

    class Recording(capabilities.LastEnumeration):
        __slots__ = ()

        def __init__(self, inherited=None):
            super().__init__(inherited)
            made.append(self)

    monkeypatch.setattr(engine, "LastEnumeration", Recording)
    return made


def random_scenarios(count):
    """(seed, spec, strategy) on random topologies of up to eight nodes,
    with one-way edges and a self-loop (a one-way edge that repeats an
    edge is dropped: a scenario may not hold both), every other one with
    one to three vulnerabilities per node, every third one with an
    attacker detect objective besides the compromise one; each topology
    without defenses and with random honeypot and shocktrap placements."""
    for seed in range(count):
        rng = random.Random(seed)
        topo = with_directed_edges(random_topology(rng, max_nodes=8, max_edges=16), rng)
        unique = {}
        for edge in topo.edges:
            unique.setdefault((edge.src, edge.dst, edge.protocol_tag), edge)
        topo = replace(topo, edges=tuple(unique.values()))
        if seed % 2:
            topo = with_vulnerabilities(topo, rng)
        placements = [(cap_id, n.id) for cap_id in ("honeypot", "shocktrap")
                      for n in topo.nodes if rng.random() < 0.3]
        spec = spec_around(topo)
        if seed % 3 == 2:
            # Two attacker objectives: the run stops once both are met.
            spec = replace(spec, objectives=spec.objectives[:1] + (
                ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.DETECT,
                             spec.objectives[0].target, 1.0),))
        yield seed, spec, ss.DefenseStrategy()
        yield seed, spec, ss.compose_strategy(builtin_reg(), placements, topo)


def reference_metrics(spec, strategy, registry, cfg):
    events, final_state = reference_play(spec, strategy, registry, cfg)
    trace = SimulationTrace(config=cfg, scenario_digest="", events=events,
                            final_state=final_state)
    return ss.compute_metrics(trace, spec.objectives, registry)


class TestEnumerationReuse:
    """The engine reuses a round's attacker action list while the state
    fields enumeration reads are unchanged; ``reference_play`` enumerates
    every round."""

    def test_runs_equal_the_reference_loop(self, registry, enumerations):
        """Traces of ``run_simulation`` and metrics of ``batch_run`` equal
        the reference loop's on random scenarios, under every attacker and
        defender policy, with and without honeypot and shocktrap
        placements, and the engine enumerated less often than it."""
        seen = {"patch": 0, "trap": 0, "honeypot": 0}
        engine_calls = reference_calls = runs_with_reuse = 0
        for seed, spec, strategy in random_scenarios(40):
            honeypots = {p.target_node for p in strategy.capability_placements
                         if p.capability_id == "honeypot"}
            for attacker in ss.AttackerPolicy:
                for defender in ss.DefenderPolicy:
                    cfg = config(max_rounds=12, seed=seed, attacker_policy=attacker,
                                 defender_policy=defender)
                    before = len(enumerations)
                    trace, _ = ss.run_simulation(spec, strategy, registry, cfg)
                    middle = len(enumerations)
                    events, final_state = reference_play(spec, strategy, registry, cfg)
                    assert trace.events == events
                    assert trace.final_state == final_state
                    used, fresh = middle - before, len(enumerations) - middle
                    assert used <= fresh
                    engine_calls += used
                    reference_calls += fresh
                    runs_with_reuse += used < fresh

                    batch = ss.batch_run(spec, strategy, registry, cfg, 3)
                    assert batch.per_seed == tuple(
                        reference_metrics(spec, strategy, registry, config(
                            max_rounds=12, seed=seed + i, attacker_policy=attacker,
                            defender_policy=defender))
                        for i in range(3))

                    seen["patch"] += any(e.capability_id == "patch" for e in events)
                    seen["trap"] += any(e.trapped_for for e in events)
                    seen["honeypot"] += any(e.actor == ss.Actor.ATTACKER
                                            and e.target in honeypots for e in events)
        assert all(count >= 20 for count in seen.values()), seen
        assert runs_with_reuse >= 200
        assert engine_calls < 0.6 * reference_calls, (engine_calls, reference_calls)

    def test_marine_batches_equal_the_reference_loop(self, marine_spec, marine_topology,
                                                     registry, enumerations):
        """The defended greedy attacker phishes the honeypot on maint-0
        every round: the state it enumerates on never changes, and each run
        inherits the list the run before it used, so the batch enumerates
        once."""
        strategy = marine_strategy(registry, marine_topology)
        for attacker in ss.AttackerPolicy:
            for defender in ss.DefenderPolicy:
                for defenses in (ss.DefenseStrategy(), strategy):
                    cfg = config(max_rounds=20, seed=7, attacker_policy=attacker,
                                 defender_policy=defender)
                    batch = ss.batch_run(marine_spec, defenses, registry, cfg, 8)
                    assert batch.per_seed == tuple(
                        reference_metrics(marine_spec, defenses, registry,
                                          config(max_rounds=20, seed=7 + i,
                                                 attacker_policy=attacker,
                                                 defender_policy=defender))
                        for i in range(8))
        enumerations.clear()
        ss.batch_run(marine_spec, strategy, registry, config(max_rounds=20, seed=7), 8)
        assert len(enumerations) == 1

    def test_recipe_batches_equal_the_reference_loop(self, marine_spec, registry,
                                                     enumerations, run_lookups):
        """A recipe expands to one topology per seed, so a recipe batch
        shares no start and no action list across runs: under every
        attacker and defender policy, with and without decoys, each run's
        metrics equal the reference loop's, every run enumerates on its
        own topology at least once, and no run inherits a list."""
        recipe = ss.TopologyRecipe(
            ((ss.NodeClass.WORKSTATION, 2), (ss.NodeClass.MAINTENANCE_ENDPOINT, 1),
             (ss.NodeClass.GATEWAY, 2), (ss.NodeClass.CONTROLLER, 2), (ss.NodeClass.SENSOR, 3)),
            3, 0.6, 1, 0.6, 0.4)
        spec = replace(marine_spec, scenario_parameters=replace(
            marine_spec.scenario_parameters, explicit_topology=None, recipe=recipe))
        decoys = ss.DefenseStrategy((ss.Placement("honeypot", "maintenance_endpoint-0"),
                                     ss.Placement("shocktrap", "gateway-0")))
        n = 4
        for seed in range(3):
            for attacker in ss.AttackerPolicy:
                for defender in ss.DefenderPolicy:
                    for strategy in (ss.DefenseStrategy(), decoys):
                        cfg = config(max_rounds=15, seed=seed, attacker_policy=attacker,
                                     defender_policy=defender)
                        enumerations.clear()
                        run_lookups.clear()
                        batch = ss.batch_run(spec, strategy, registry, cfg, n)
                        assert len({id(state.topology) for state, _, _ in enumerations}) == n
                        assert len(run_lookups) == 1 + n
                        assert all(not lookup.inherited for lookup in run_lookups)
                        assert batch.per_seed == tuple(
                            reference_metrics(spec, strategy, registry, replace(cfg, seed=seed + i))
                            for i in range(n))

    def test_diverging_explicit_batches_equal_the_reference_loop(
            self, marine_spec, marine_topology, registry, enumerations, run_lookups):
        """Runs of one explicit batch that take different paths (uniform
        random attacker, reactive patches, honeypot and shocktrap hits)
        share one start and inherit lists from the run before: metrics
        still equal the reference loop's for batches of 1 to 8 runs, a
        batch enumerates exactly the lists no run inherited, and some
        batches reuse an inherited list."""
        cases = list(random_scenarios(16))
        cases += [(seed, marine_spec, defenses) for seed in range(4)
                  for defenses in (ss.DefenseStrategy(), marine_strategy(registry, marine_topology))]
        diverged = inherited_hits = 0
        for i, (seed, spec, strategy) in enumerate(cases):
            n = 1 + i % 8
            for attacker in (ss.AttackerPolicy.UNIFORM_RANDOM, ss.AttackerPolicy.GREEDY_VALUE):
                for defender in ss.DefenderPolicy:
                    cfg = config(max_rounds=12, seed=seed, attacker_policy=attacker,
                                 defender_policy=defender)
                    enumerations.clear()
                    run_lookups.clear()
                    batch = ss.batch_run(spec, strategy, registry, cfg, n)
                    runs = run_lookups[1:]
                    assert len(runs) == n
                    assert len(enumerations) == sum(
                        len(run.used.keys() - run.inherited.keys()) for run in runs)
                    inherited_hits += sum(
                        len(run.used.keys() & run.inherited.keys()) for run in runs)
                    plays = [reference_play(spec, strategy, registry, replace(cfg, seed=seed + j))
                             for j in range(n)]
                    assert batch.per_seed == tuple(
                        reference_metrics(spec, strategy, registry, replace(cfg, seed=seed + j))
                        for j in range(n))
                    diverged += len({events for events, _ in plays}) > 1
        assert diverged >= 80, diverged
        assert inherited_hits >= 600, inherited_hits

    def test_a_run_inherits_only_the_lists_the_run_before_used(
            self, marine_spec, marine_topology, registry, run_lookups):
        """Each run of an explicit batch inherits no more lists than the
        run before it used, and the first inherits none: a batch holds at
        most two runs' lists."""
        strategy = marine_strategy(registry, marine_topology)
        for attacker in ss.AttackerPolicy:
            for defender in ss.DefenderPolicy:
                for defenses in (ss.DefenseStrategy(), strategy):
                    run_lookups.clear()
                    ss.batch_run(marine_spec, defenses, registry,
                                 config(max_rounds=20, seed=3, attacker_policy=attacker,
                                        defender_policy=defender), 12)
                    runs = run_lookups[1:]
                    assert not runs[0].inherited
                    for before, run in zip(runs, runs[1:]):
                        assert len(run.inherited) <= len(before.used)
                        assert run.inherited.keys() <= before.used.keys()

    def test_retheft_keeps_the_reused_list(self, marine_spec, registry, enumerations):
        """A uniform-random attacker steals the same credentials again and
        again; the state stays the same object, so no run enumerates twice
        in a row on the same compromise, defenses and credentials."""
        thefts = 0
        for seed in range(200):
            enumerations.clear()
            trace, _ = ss.run_simulation(
                marine_spec, ss.DefenseStrategy(), registry,
                config(max_rounds=20, seed=seed,
                       attacker_policy=ss.AttackerPolicy.UNIFORM_RANDOM))
            thefts += sum(e.capability_id == "credential_theft" for e in trace.events) > 1
            fields = [(dict(s.compromise), dict(s.deployed), s.credentials_held)
                      for s, _, _ in enumerations]
            assert all(a != b for a, b in zip(fields, fields[1:])), seed
        assert thefts >= 10

    def test_patch_invalidates_the_reused_list(self, enumerations):
        """Round 1 phishes w and is detected, so round 2 patches x, the
        most valuable node; round 2's exploit of c from w fails and is
        detected, so round 3 patches c. Only the patch changes the state
        enumeration reads between rounds 2 and 3, and round 3's list no
        longer offers the exploit. Round 4 changes none of those fields
        and enumerates nothing."""
        registry = ss.CapabilityRegistry()
        for cap in builtin_reg().capabilities():
            if cap.kind == ss.CapabilityKind.ATTACK:
                cap = replace(cap, detection_prob=1.0,
                              base_success_prob=1.0 if cap.id == "phishing"
                              else cap.base_success_prob)
            registry = ss.register_capability(registry, cap)
        topo = make_topology(
            nodes=[("w", ss.NodeClass.WORKSTATION), ("c", ss.NodeClass.CONTROLLER),
                   ("x", ss.NodeClass.DATA_SERVER)],
            edges=[("w", "c")], vulns=[make_vuln("c", 0.0)],
            values={"w": 10, "c": 50, "x": 100})
        spec = spec_around(topo, objectives=(
            ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                         ss.TargetSelector(node_id="c"), 1.0),
        ))
        cfg = config(max_rounds=4, attacker_policy=ss.AttackerPolicy.CHEAPEST_STEP,
                     defender_policy=ss.DefenderPolicy.REACTIVE)
        trace, _ = ss.run_simulation(spec, ss.DefenseStrategy(), registry, cfg)

        assert [(e.round, e.capability_id, e.target) for e in trace.events] == [
            (1, "phishing", "w"), (2, "patch", "x"), (2, "exploit_vuln", "c"),
            (3, "patch", "c"), (3, "exfiltrate", "w"), (4, "exfiltrate", "w"),
        ]
        offered = [(state.round, [(cap.id, binding) for cap, binding in found])
                   for state, found, _ in enumerations]
        exploit = ("exploit_vuln", {"target": "c", "source": "w"})
        assert [r for r, _ in offered] == [1, 2, 3]
        assert exploit in offered[1][1]
        assert exploit not in offered[2][1]
        assert offered[2][1] == [("exfiltrate", {"target": "w"})]
        second, third = enumerations[1][0], enumerations[2][0]
        assert third.compromise is second.compromise
        assert third.credentials_held is second.credentials_held
        assert third.deployed is not second.deployed

        events, final_state = reference_play(spec, ss.DefenseStrategy(), registry, cfg)
        assert trace.events == events and trace.final_state == final_state

    def test_step_round_alone_enumerates_every_round(self, marine_topology, registry,
                                                     enumerations):
        """Called alone, ``step_round`` enumerates on every round the
        attacker is not trapped, even on an unchanged state."""
        state = fresh_state(marine_topology)
        cfg = config(max_rounds=6)
        for _ in range(cfg.max_rounds):
            state, _ = step_round(state, registry, cfg, random.Random(0))
        assert len(enumerations) == cfg.max_rounds
        state = fresh_state(marine_topology).with_round(1)
        for _ in range(3):
            step_round(state, registry, cfg, random.Random(0))
        assert len(enumerations) == cfg.max_rounds + 3

    def test_action_lists_are_left_unchanged(self, marine_spec, marine_topology,
                                             registry, enumerations):
        """Neither ``step_round`` nor ``apply_capability`` writes to an
        enumerated list or its binding dicts, which the engine reuses over
        rounds: each list still equals the copy taken when it was
        returned, after whole runs under every policy and after applying
        every entry."""
        strategy = marine_strategy(registry, marine_topology)
        for attacker in ss.AttackerPolicy:
            for defender in ss.DefenderPolicy:
                for defenses in (ss.DefenseStrategy(), strategy):
                    ss.batch_run(marine_spec, defenses, registry,
                                 config(max_rounds=20, attacker_policy=attacker,
                                        defender_policy=defender), 10)
        for _, spec, defenses in random_scenarios(10):
            ss.batch_run(spec, defenses, registry, config(
                max_rounds=12, defender_policy=ss.DefenderPolicy.REACTIVE), 5)
        for state, found, _ in enumerations:
            for cap, binding in found:
                ss.apply_capability(state, cap, binding, random.Random(0))
        assert len(enumerations) > 100
        for _, found, copy in enumerations:
            assert [(cap, dict(binding)) for cap, binding in found] == copy


class TestMetrics:
    def test_protect_objective_fraction(self, registry):
        topo = make_topology(
            nodes=[(f"c{i}", ss.NodeClass.CONTROLLER) for i in range(4)],
            edges=[])
        state = fresh_state(topo).with_compromise("c0", ss.Privilege.USER)
        trace = ss.SimulationTrace(
            config=config(), scenario_digest="x", events=(),
            final_state=state.with_round(3))
        protect = ss.Objective(ss.Actor.DEFENDER, ss.ObjectiveKind.PROTECT,
                               ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER),
                               0.5)
        metrics = ss.compute_metrics(trace, (protect,), registry)
        assert dict(metrics.objectives_met)[0]  # 3 of 4 safe: 0.75 >= 0.5
        strict = ss.Objective(ss.Actor.DEFENDER, ss.ObjectiveKind.PROTECT,
                              ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER),
                              0.9)
        assert not dict(ss.compute_metrics(trace, (strict,), registry).objectives_met)[0]

    def test_compromise_threshold_uses_kth_round(self, registry):
        topo = make_topology(
            nodes=[("c0", ss.NodeClass.CONTROLLER),
                   ("c1", ss.NodeClass.CONTROLLER)],
            edges=[])
        state = (fresh_state(topo)
                 .with_compromise("c0", ss.Privilege.USER)
                 .with_compromise("c1", ss.Privilege.USER)
                 .with_round(5))
        events = (
            ss.SimEvent(2, ss.Actor.ATTACKER, "phishing", "c0",
                        success=True, detected=False, trapped_for=0),
            ss.SimEvent(4, ss.Actor.ATTACKER, "phishing", "c1",
                        success=True, detected=False, trapped_for=0),
        )
        trace = ss.SimulationTrace(config=config(), scenario_digest="x",
                                   events=events, final_state=state)
        half = ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                            ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER),
                            0.5)
        full = ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                            ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER),
                            1.0)
        assert ss.compute_metrics(trace, (half,), registry).time_to_first_objective == 2
        assert ss.compute_metrics(trace, (full,), registry).time_to_first_objective == 4

    def test_a_node_compromised_before_round_one_counts_at_round_zero(self, registry):
        """``step_round`` plays from a state that already compromises c0,
        which no attack can target afterwards (user privilege, asset value
        0): c0 counts as compromised at round 0, and alone it meets half
        of the controllers."""
        topo = make_topology(
            nodes=[("c0", ss.NodeClass.CONTROLLER), ("c1", ss.NodeClass.CONTROLLER),
                   ("w", ss.NodeClass.WORKSTATION)],
            edges=[], values={"c0": 0})
        state = fresh_state(topo).with_compromise("c0", ss.Privilege.USER)
        cfg = config(max_rounds=6)
        rng = substream(cfg.seed, "simulation")
        events = []
        for _ in range(cfg.max_rounds):
            state, round_events = step_round(state, registry, cfg, rng)
            events.extend(round_events)
        phished = [e.round for e in events if e.capability_id == "phishing" and e.success]
        assert phished and all(e.target != "c0" for e in events)
        trace = ss.SimulationTrace(config=cfg, scenario_digest="x", events=tuple(events),
                                   final_state=state)
        half, full, workstation = (
            ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE, target, threshold)
            for target, threshold in (
                (ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER), 0.5),
                (ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER), 1.0),
                (ss.TargetSelector(node_id="w"), 1.0)))
        assert ss.compute_metrics(trace, (half,), registry).time_to_first_objective == 0
        metrics = ss.compute_metrics(trace, (full, workstation), registry)
        assert metrics.objectives_met == ((0, False), (1, True))
        assert metrics.time_to_first_objective == phished[0]

    def test_a_node_compromised_before_round_one_and_then_attacked(self, registry):
        """``step_round`` plays from a state that already compromises c0
        (asset value 10), and a certain exfiltration of c0 succeeds in
        round 1. Exfiltration compromises nothing, so c0 still counts as
        compromised at round 0, and alone it meets half of the
        controllers at round 0."""
        custom = ss.CapabilityRegistry()
        for cap in registry.capabilities():
            if cap.id == "exfiltrate":
                cap = replace(cap, base_success_prob=1.0)
            custom = ss.register_capability(custom, cap)
        topo = make_topology(
            nodes=[("c0", ss.NodeClass.CONTROLLER), ("c1", ss.NodeClass.CONTROLLER)],
            edges=[], values={"c0": 10})
        state = fresh_state(topo).with_compromise("c0", ss.Privilege.USER)
        cfg = config(max_rounds=1)
        state, events = step_round(state, custom, cfg, substream(cfg.seed, "simulation"))
        assert [(e.round, e.capability_id, e.target, e.success) for e in events] == [
            (1, "exfiltrate", "c0", True)]
        trace = ss.SimulationTrace(config=cfg, scenario_digest="x", events=tuple(events),
                                   final_state=state)
        half = ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                            ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER), 0.5)
        metrics = ss.compute_metrics(trace, (half,), custom)
        assert metrics.objectives_met == ((0, True),)
        assert metrics.time_to_first_objective == 0

    def test_compromise_threshold_grid_matches_the_early_stop_rule(self, registry):
        """With h of n targets compromised, a compromise objective is met
        exactly when ``h / n >= threshold``, the comparison the run's early
        stop makes, for every threshold i/100 and n up to 50 (a rounded-up
        ``threshold * n`` count disagrees at, e.g., 7 of 50 at 0.14)."""
        thresholds = [i / 100 for i in range(101)]
        objectives = tuple(
            ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                         ss.TargetSelector(node_class=ss.NodeClass.SENSOR), t)
            for t in thresholds)
        for n in range(1, 51):
            topo = make_topology(nodes=[(f"s{i}", ss.NodeClass.SENSOR) for i in range(n)],
                                 edges=[])
            state = fresh_state(topo)
            events = []
            for h in range(n + 1):
                if h:
                    state = state.with_compromise(f"s{h - 1}", ss.Privilege.USER)
                    events.append(ss.SimEvent(h, ss.Actor.ATTACKER, "exploit_vuln", f"s{h - 1}",
                                              success=True, detected=False, trapped_for=0))
                trace = ss.SimulationTrace(config=config(), scenario_digest="x",
                                           events=tuple(events), final_state=state.with_round(h))
                met = dict(ss.compute_metrics(trace, objectives, registry).objectives_met)
                assert [met[i] for i in range(len(thresholds))] == [
                    h / n >= t for t in thresholds], (n, h)

    def test_cost_needs_registry(self, marine_spec, registry):
        trace, metrics = ss.run_simulation(marine_spec, ss.DefenseStrategy(),
                                           registry, config())
        if any(e.actor == ss.Actor.ATTACKER for e in trace.events):
            assert metrics.attacker_cost_spent > 0

    def test_detect_objective(self, registry):
        topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
        state = fresh_state(topo).with_round(1)
        event = ss.SimEvent(1, ss.Actor.ATTACKER, "phishing", "w",
                            success=True, detected=True, trapped_for=0)
        trace = ss.SimulationTrace(config=config(), scenario_digest="x",
                                   events=(event,), final_state=state)
        detect = ss.Objective(ss.Actor.DEFENDER, ss.ObjectiveKind.DETECT,
                              ss.TargetSelector(node_id="w"), 1.0)
        metrics = ss.compute_metrics(trace, (detect,), registry)
        assert dict(metrics.objectives_met)[0]
        assert metrics.detection_count == 1


def random_trace(rng, registry):
    """A trace of random events on a random topology (none, now and then):
    rounds out of order, defender events, repeated targets and targets no
    node has. The final state compromises some of the topology's nodes
    that a successful attack targeted."""
    topo = (random_topology(rng, max_nodes=6) if rng.random() < 0.9 else
            ss.NetworkTopology(nodes=(), edges=(), zones=(), vulnerabilities=(),
                               credentials=()))
    ids = [n.id for n in topo.nodes]
    attacks = [cap.id for cap in registry.capabilities()
               if cap.kind == ss.CapabilityKind.ATTACK]
    events = []
    for _ in range(rng.randint(0, 12)):
        attacker = rng.random() < 0.8
        events.append(ss.SimEvent(
            round=rng.randint(1, 10),
            actor=ss.Actor.ATTACKER if attacker else ss.Actor.DEFENDER,
            capability_id=rng.choice(attacks) if attacker else "patch",
            target=rng.choice(ids + ["ghost"]) if ids else "ghost",
            success=rng.random() < 0.6, detected=rng.random() < 0.4,
            trapped_for=rng.choice((0, 0, 2)),
        ))
    hit = sorted({e.target for e in events if e.actor == ss.Actor.ATTACKER
                  and e.success and e.target in ids})
    state = fresh_state(topo)
    for node_id in rng.sample(hit, rng.randint(0, len(hit))):
        state = state.with_compromise(node_id, ss.Privilege.USER)
    state = state.with_round(max([e.round for e in events], default=0))
    return SimulationTrace(config=config(), scenario_digest="x", events=tuple(events),
                           final_state=state)


def random_objectives(rng, topology, count):
    selectors = [ss.TargetSelector(node_class=cls) for cls in ss.NodeClass]
    selectors += [ss.TargetSelector(node_id=nid)
                  for nid in [n.id for n in topology.nodes] + ["ghost"]]
    return tuple(
        ss.Objective(rng.choice(list(ss.Actor)), rng.choice(list(ss.ObjectiveKind)),
                     rng.choice(selectors), rng.choice((0.0, 0.3, 0.5, 0.7, 1.0)))
        for _ in range(count))


class TestOnePassMetrics:
    def test_equals_the_reference_on_random_traces(self, registry):
        """``compute_metrics`` equals the five-scan reference computation
        on 600 random traces, empty ones included."""
        kinds = {"empty": 0, "out_of_order": 0, "defender": 0, "repeated": 0, "unknown": 0}
        for seed in range(600):
            rng = random.Random(seed)
            trace = random_trace(rng, registry)
            topology = trace.final_state.topology
            objectives = random_objectives(rng, topology, rng.randint(0, 4))
            assert (ss.compute_metrics(trace, objectives, registry)
                    == reference_compute_metrics(trace, objectives, registry))
            rounds = [e.round for e in trace.events]
            targets = [e.target for e in trace.events]
            kinds["empty"] += not trace.events
            kinds["out_of_order"] += rounds != sorted(rounds)
            kinds["defender"] += any(e.actor == ss.Actor.DEFENDER for e in trace.events)
            kinds["repeated"] += len(set(targets)) < len(targets)
            kinds["unknown"] += any(topology.node_by_id(t) is None for t in targets)
        assert min(kinds.values()) >= 20, kinds

    def test_unknown_capability_raises_as_the_reference(self, registry):
        """An attacker event naming no capability of the registry raises
        the reference's error; a defender event's id is not looked up."""
        rng = random.Random(5)
        checked = 0
        for seed in range(60):
            trace = random_trace(random.Random(seed), registry)
            attacker = [i for i, e in enumerate(trace.events) if e.actor == ss.Actor.ATTACKER]
            if not attacker:
                continue
            events = list(trace.events)
            i = rng.choice(attacker)
            events[i] = replace(events[i], capability_id="no_such_capability")
            bad = replace(trace, events=tuple(events))
            with pytest.raises(UnknownCapability) as reference:
                reference_compute_metrics(bad, (), registry)
            with pytest.raises(UnknownCapability) as one_pass:
                ss.compute_metrics(bad, (), registry)
            assert one_pass.value.message == reference.value.message
            checked += 1
        assert checked >= 30
        topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
        defender = ss.SimEvent(1, ss.Actor.DEFENDER, "no_such_capability", "w",
                               success=True, detected=False, trapped_for=0)
        trace = SimulationTrace(config=config(), scenario_digest="x", events=(defender,),
                                final_state=fresh_state(topo).with_round(1))
        assert ss.compute_metrics(trace, (), registry).attacker_cost_spent == 0


class TestWinRule:
    def test_every_attacker_objective_must_hold(self, marine_spec, registry):
        """An extra attacker objective on ``camera-0``, which no attack
        path reaches, is never met: no run stops early and none counts as
        won, though the controller objective alone is met in every run."""
        camera = ss.Objective(ss.Actor.ATTACKER, ss.ObjectiveKind.COMPROMISE,
                              ss.TargetSelector(node_id="camera-0"), 1.0)
        spec = replace(marine_spec, objectives=marine_spec.objectives + (camera,))
        cfg = config(max_rounds=20)
        batch = ss.batch_run(spec, ss.DefenseStrategy(), registry, cfg, 200)
        assert batch.attacker_success_rate == 0.0
        assert all(dict(m.objectives_met)[0] for m in batch.per_seed)
        for seed in range(10):
            trace, _ = ss.run_simulation(spec, ss.DefenseStrategy(), registry,
                                         config(max_rounds=20, seed=seed))
            assert trace.final_state.round == 20

    def test_won_exactly_when_the_reference_loop_stops_on_its_objectives(self, registry):
        """On random scenarios with one to three attacker objectives, a run
        is won exactly when the reference round loop stopped on its
        objective check, and a batch's success rate is the share of such
        runs."""
        outcomes = set()
        split = 0  # runs where some but not every attacker objective is met
        for seed in range(150):
            rng = random.Random(seed)
            topo = random_topology(rng, max_nodes=6)
            attacker = tuple(replace(o, actor=ss.Actor.ATTACKER) for o in
                             random_objectives(rng, topo, rng.randint(1, 3)))
            objectives = attacker + random_objectives(rng, topo, rng.randint(0, 2))
            objectives = tuple(o for o in objectives if topo.select(o.target))
            if not any(o.actor == ss.Actor.ATTACKER for o in objectives):
                continue
            spec = spec_around(topo, objectives=objectives)
            cfg = config(max_rounds=10, seed=seed,
                         attacker_policy=rng.choice(list(ss.AttackerPolicy)))
            batch = ss.batch_run(spec, ss.DefenseStrategy(), registry, cfg, 4)
            wins = 0
            for i, metrics in enumerate(batch.per_seed):
                _, _, won = reference_rounds(spec, ss.DefenseStrategy(), registry,
                                             replace(cfg, seed=seed + i))
                assert metrics.attacker_won(objectives) == won, (seed, i)
                wins += won
                outcomes.add(won)
                met = [m for j, m in metrics.objectives_met
                       if objectives[j].actor == ss.Actor.ATTACKER]
                split += any(met) and not all(met)
            assert batch.attacker_success_rate == wins / 4
        assert outcomes == {False, True}
        assert split >= 10


class TestBatch:
    def test_singleton_equals_single_run(self, marine_spec, registry):
        cfg = config(seed=11)
        batch = ss.batch_run(marine_spec, ss.DefenseStrategy(), registry,
                             cfg, 1)
        _, metrics = ss.run_simulation(marine_spec, ss.DefenseStrategy(),
                                       registry, cfg)
        assert batch.per_seed == (metrics,)
        assert batch.mean_compromised_fraction == metrics.compromised_fraction

    def test_per_seed_matches_individual_runs(self, marine_spec, registry):
        batch = ss.batch_run(marine_spec, ss.DefenseStrategy(), registry,
                             config(seed=100), 5)
        for i in range(5):
            _, metrics = ss.run_simulation(marine_spec, ss.DefenseStrategy(),
                                           registry, config(seed=100 + i))
            assert batch.per_seed[i] == metrics

    def test_batch_computes_no_digest(self, marine_spec, marine_topology,
                                      registry, monkeypatch):
        import spidersim.engine as engine
        strategy = marine_strategy(registry, marine_topology)
        want = tuple(
            ss.run_simulation(marine_spec, strategy, registry, config(seed=40 + i))[1]
            for i in range(4))

        def no_digest(spec):
            raise AssertionError("batch_run computed a scenario digest")

        monkeypatch.setattr(engine, "scenario_digest", no_digest)
        batch = ss.batch_run(marine_spec, strategy, registry, config(seed=40), 4)
        assert batch.per_seed == want

    def test_zero_probability_registry(self, marine_spec):
        from dataclasses import replace
        from spidersim.capabilities import CapabilityRegistry
        zeroed = CapabilityRegistry()
        for cap in builtin_reg().capabilities():
            if cap.kind == ss.CapabilityKind.ATTACK:
                cap = replace(cap, base_success_prob=0.0)
            zeroed = ss.register_capability(zeroed, cap)
        # zero out the vulnerability probabilities too
        spec = marine_spec
        topo = spec.scenario_parameters.explicit_topology
        vulns = tuple(replace(v, success_prob=0.0) for v in topo.vulnerabilities)
        from spidersim.model import ScenarioParameters
        spec = replace(
            spec,
            scenario_parameters=ScenarioParameters(
                explicit_topology=replace(topo, vulnerabilities=vulns)),
        )
        batch = ss.batch_run(spec, ss.DefenseStrategy(), zeroed,
                             config(max_rounds=8), 20)
        assert batch.attacker_success_rate == 0.0

    def test_batch_size_must_be_positive(self, marine_spec, registry):
        with pytest.raises(InvalidScenario):
            ss.batch_run(marine_spec, ss.DefenseStrategy(), registry,
                         config(), 0)


PHISHABLE = (ss.NodeClass.WORKSTATION, ss.NodeClass.MAINTENANCE_ENDPOINT)


def phishable_nodes(topology):
    return tuple(sorted(n.id for n in topology.nodes if n.node_class in PHISHABLE))


def attacker_target(spec):
    return next(o.target for o in spec.objectives if o.actor == ss.Actor.ATTACKER)


def exhaustive_paths(topology, registry, entries, target):
    """Every simple attack path from ``entries`` to ``target``."""
    return ss.enumerate_attack_paths(topology, registry, ss.PathQuery(
        entries=entries, target=target, k=None, max_len=len(topology.nodes)))


def hits_every_path(paths, trapped):
    """Whether every path crosses a trapped node other than its entry."""
    def inner(path):
        steps = path.steps[1:] if path.steps[0].source == ss.EXTERNAL else path.steps
        return {step.target for step in steps}
    return all(inner(path) & trapped for path in paths)


def success_rates(spec, strategy, registry, seed, n):
    return [ss.batch_run(spec, strategy, registry,
                         config(max_rounds=20, seed=seed, attacker_policy=policy),
                         n).attacker_success_rate
            for policy in ss.AttackerPolicy]


class TestStaticViewBoundsTheRuns:
    """Whole runs stay inside what the static attack graph allows."""

    def test_compromise_lies_in_the_reachable_set(self, registry):
        """Every node a run compromises is reachable by attack hops from
        the phishable nodes: 400 random topologies, every attacker
        policy, 20 rounds."""
        compromised = 0
        for seed in range(400):
            topo = random_topology(random.Random(seed))
            spec = spec_around(topo)
            reachable = ss.reachable_set(topo, registry, phishable_nodes(topo))
            for policy in ss.AttackerPolicy:
                trace, _ = ss.run_simulation(
                    spec, ss.DefenseStrategy(), registry,
                    config(max_rounds=20, seed=seed, attacker_policy=policy))
                assert set(trace.final_state.compromise) <= reachable, (seed, policy)
                compromised += len(trace.final_state.compromise)
        assert compromised > 400

    def test_traps_on_every_path_stop_every_policy(self, registry):
        """When the shocktraps ``suggest_defense_placements`` picks hit
        every exhaustive path from the phishable nodes to the attacker
        target, no run of any policy meets the attacker objective. Random
        topologies until 30 qualify, 20 runs per policy; without the
        traps some of them are won."""
        qualified = won_without = 0
        seed = 0
        while qualified < 30:
            seed += 1
            topo = random_topology(random.Random(seed))
            spec = spec_around(topo)
            entries = phishable_nodes(topo)
            if not entries:
                continue
            paths = exhaustive_paths(topo, registry, entries, attacker_target(spec))
            trapped = {node for node, _ in ss.suggest_defense_placements(paths, len(topo.nodes))}
            if not paths or not hits_every_path(paths, trapped):
                continue
            qualified += 1
            strategy = ss.compose_strategy(
                registry, [("shocktrap", node) for node in sorted(trapped)], topo)
            assert success_rates(spec, strategy, registry, seed, 20) == [0.0] * 3, seed
            won_without += any(success_rates(spec, ss.DefenseStrategy(), registry, seed, 20))
        assert won_without >= 10

    def test_one_trap_cuts_the_marine_ranch(self, marine_spec, marine_topology, registry):
        """On the marine-ranch fixture every path to a controller crosses
        gateway-0: a shocktrap there takes every policy's success to 0."""
        paths = exhaustive_paths(marine_topology, registry, phishable_nodes(marine_topology),
                                 attacker_target(marine_spec))
        assert paths and hits_every_path(paths, {"gateway-0"})
        trap = ss.compose_strategy(registry, [("shocktrap", "gateway-0")], marine_topology)
        assert all(success_rates(marine_spec, ss.DefenseStrategy(), registry, 0, 100))
        assert success_rates(marine_spec, trap, registry, 0, 100) == [0.0] * 3


class TestDigest:
    def test_digest_is_stable_and_spec_sensitive(self, marine_spec):
        from dataclasses import replace
        assert scenario_digest(marine_spec) == scenario_digest(marine_spec)
        other = replace(marine_spec, domain_context=replace(
            marine_spec.domain_context, narrative="changed"))
        assert scenario_digest(other) != scenario_digest(marine_spec)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_scenarios_simulate_deterministically(seed):
    rng = random.Random(seed)
    topo = random_topology(rng)
    spec = spec_around(topo)
    cfg = ss.SimulationConfig(max_rounds=8, seed=rng.randint(0, 2**32),
                              attacker_policy=rng.choice(list(ss.AttackerPolicy)),
                              defender_policy=rng.choice(list(ss.DefenderPolicy)))
    first = ss.run_simulation(spec, ss.DefenseStrategy(), builtin_reg(), cfg)
    second = ss.run_simulation(spec, ss.DefenseStrategy(), builtin_reg(), cfg)
    assert export_trace(first[0]) == export_trace(second[0])
    rounds = [e.round for e in first[0].events]
    assert rounds == sorted(rounds)
    assert first[0].final_state.round <= 8
