"""Acceptance suite: seven end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Tolerances are pinned in each test and stated in the printed line.
"""

import random
import time

import pytest

import spidersim as ss
from spidersim.engine import STALL_ROUNDS
from spidersim.exports import export_dot, export_trace
from spidersim.state import fresh_state

from helpers import (
    CountingRandom,
    builtin_reg,
    make_topology,
    oracle_paths,
    path_to_oracle_steps,
    random_topology,
    score_path,
    spec_around,
)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def test_criterion_1_path_oracle_equivalence():
    """Brute-force path-set equality over 200 random topologies (<10 s)."""
    start = time.time()
    mismatches = 0
    cases = 200
    for seed in range(cases):
        rng = random.Random(seed)
        topo = random_topology(rng, max_nodes=8, max_edges=16)
        ids = [n.id for n in topo.nodes]
        entries = sorted(rng.sample(ids, rng.randint(1, len(ids))))
        target = rng.choice(ids)
        paths = ss.enumerate_attack_paths(
            topo, builtin_reg(),
            ss.PathQuery(entries=tuple(entries),
                         target=ss.TargetSelector(node_id=target),
                         k=None, max_len=8))
        got = sorted(path_to_oracle_steps(p) for p in paths)
        want = sorted(oracle_paths(topo, entries, {target}, max_len=8))
        keys = [(-p.success_prob, len(p.steps),
                 tuple(s.target for s in p.steps)) for p in paths]
        if got != want or keys != sorted(keys):
            mismatches += 1
    elapsed = time.time() - start
    verdict(1, mismatches == 0 and elapsed < 10.0,
            f"{cases} random topologies, {mismatches} mismatches, "
            f"{elapsed:.1f}s (budget 10s)")


def test_criterion_2_determinism_suite(marine_requirement):
    """50 simulation triples and the generation pipeline, run twice each,
    byte-identical outputs (<30 s)."""
    start = time.time()
    mismatches = 0
    for case in range(50):
        rng = random.Random(1000 + case)
        spec = spec_around(random_topology(rng))
        placements = []
        defense_ids = ["honeypot", "shocktrap", "data_encryption", "patch"]
        for node in rng.sample([n.id for n in spec_nodes(spec)],
                               k=min(2, len(spec_nodes(spec)))):
            placements.append((rng.choice(defense_ids), node))
        strategy = ss.compose_strategy(builtin_reg(), placements)
        cfg = ss.SimulationConfig(
            max_rounds=rng.randint(1, 12), seed=rng.randint(0, 2**32),
            attacker_policy=rng.choice(list(ss.AttackerPolicy)),
            defender_policy=rng.choice(list(ss.DefenderPolicy)))
        first = ss.run_simulation(spec, strategy, builtin_reg(), cfg)
        second = ss.run_simulation(spec, strategy, builtin_reg(), cfg)
        if export_trace(first[0]) != export_trace(second[0]):
            mismatches += 1
    for seed in (0, 7, 99):
        a = ss.run_pipeline(marine_requirement, builtin_reg(), seed)
        b = ss.run_pipeline(marine_requirement, builtin_reg(), seed)
        if ss.serialize_scenario(a[0]) != ss.serialize_scenario(b[0]) or a[1] != b[1]:
            mismatches += 1
    elapsed = time.time() - start
    verdict(2, mismatches == 0 and elapsed < 30.0,
            f"50 simulation triples + 3 pipeline seeds run twice, "
            f"{mismatches} mismatches, {elapsed:.1f}s (budget 30s)")


def spec_nodes(spec):
    return spec.scenario_parameters.explicit_topology.nodes


def test_criterion_3_probability_calibration():
    """apply_capability frequency within +/-0.01 of p over 100,000 trials
    for p in {0.1, 0.5, 0.9} (<10 s)."""
    start = time.time()
    topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
    state = fresh_state(topo)
    worst = 0.0
    trials = 100_000
    for p in (0.1, 0.5, 0.9):
        cap = ss.AtomicCapability(
            id="probe", kind=ss.CapabilityKind.ATTACK, name="Probe",
            technique_tag="T0000", preconditions=(), effects=(),
            base_success_prob=p, detection_prob=0.0, cost_units=1)
        rng = random.Random(20_000 + int(p * 10))
        hits = 0
        for _ in range(trials):
            _, outcome = ss.apply_capability(state, cap, {"target": "w"}, rng)
            hits += outcome.success
        worst = max(worst, abs(hits / trials - p))
    elapsed = time.time() - start
    verdict(3, worst < 0.01 and elapsed < 10.0,
            f"3 x {trials} trials, worst deviation {worst:.4f} "
            f"(tolerance 0.01), {elapsed:.1f}s (budget 10s)")


def test_criterion_4_defense_direction(marine_spec, marine_topology):
    """With the encryption+honeypot+shocktrap strategy, 1,000-run batches
    show strictly lower attacker success and strictly higher mean
    detections than the undefended baseline (<60 s)."""
    start = time.time()
    registry = builtin_reg()
    cfg = ss.SimulationConfig(max_rounds=20, seed=0,
                              attacker_policy=ss.AttackerPolicy.GREEDY_VALUE)
    baseline = ss.batch_run(marine_spec, ss.DefenseStrategy(), registry,
                            cfg, 1000)
    strategy = ss.compose_strategy(
        registry,
        [("data_encryption", "ws-0"), ("honeypot", "maint-0"),
         ("shocktrap", "gateway-0")],
        marine_topology)
    defended = ss.batch_run(marine_spec, strategy, registry, cfg, 1000)
    elapsed = time.time() - start
    ok = (defended.attacker_success_rate < baseline.attacker_success_rate
          and defended.mean_detection_count > baseline.mean_detection_count
          and elapsed < 60.0)
    verdict(4, ok,
            f"success rate {baseline.attacker_success_rate:.3f} -> "
            f"{defended.attacker_success_rate:.3f} (must drop), "
            f"mean detections {baseline.mean_detection_count:.2f} -> "
            f"{defended.mean_detection_count:.2f} (must rise), "
            f"n=1000 each, {elapsed:.1f}s (budget 60s)")


def test_criterion_5_scenario_generation(marine_requirement):
    """run_pipeline(seed=7, max_iterations=5) yields a valid scenario with
    the four required classes and a maintenance-to-controller path (<5 s)."""
    start = time.time()
    registry = builtin_reg()
    spec, report = ss.run_pipeline(marine_requirement, registry, seed=7,
                                   max_iterations=5)
    topo = spec.scenario_parameters.explicit_topology
    present = {n.node_class for n in topo.nodes}
    required_ok = all(
        cls in present for cls in (ss.NodeClass.SENSOR, ss.NodeClass.CONTROLLER,
                                   ss.NodeClass.CAMERA_SERVER,
                                   ss.NodeClass.MAINTENANCE_ENDPOINT))
    entries = tuple(sorted(
        n.id for n in topo.nodes
        if n.node_class == ss.NodeClass.MAINTENANCE_ENDPOINT))
    paths = ss.enumerate_attack_paths(
        topo, registry,
        ss.PathQuery(entries=entries,
                     target=ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)))
    errors = ss.validate_spec(spec, registry).errors
    elapsed = time.time() - start
    ok = (report.final_valid and required_ok and len(paths) >= 1
          and errors == () and elapsed < 5.0)
    verdict(5, ok,
            f"final_valid={report.final_valid}, required classes "
            f"present={required_ok}, {len(paths)} maintenance-to-controller "
            f"path(s), {len(errors)} validation errors, {elapsed:.1f}s "
            f"(budget 5s)")


def test_criterion_6_invariant_suites(marine_requirement):
    """A bundle of module invariants over >= 1,000 generated cases (<60 s):
    round-trips, graph properties, draw budgets, trace monotonicity and
    conservation, trap soundness, bit-exact exports, pipeline progress."""
    start = time.time()
    registry = builtin_reg()
    cases = 0
    failures = []

    # serialization round-trips (300 cases)
    for seed in range(300):
        spec = spec_around(random_topology(random.Random(seed)))
        if ss.parse_scenario(ss.serialize_scenario(spec)) != spec:
            failures.append(f"roundtrip seed {seed}")
        cases += 1

    # attack-graph properties: monotone k, simplicity, score
    # recomputability, reachability (200 cases)
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        topo = random_topology(rng)
        entries = [topo.nodes[0].id]
        target = ss.TargetSelector(node_class=rng.choice(topo.nodes).node_class)
        full = ss.enumerate_attack_paths(
            topo, registry, ss.PathQuery(entries=tuple(entries), target=target))
        reachable = ss.reachable_set(topo, registry, entries)
        for path in full:
            prob, cost = score_path(path.steps)
            targets = [s.target for s in path.steps]
            if (prob != path.success_prob or cost != path.total_cost
                    or len(set(targets)) != len(targets)
                    or targets[-1] not in reachable):
                failures.append(f"graph property seed {seed}")
                break
        for k in (1, 2, 3):
            if ss.enumerate_attack_paths(
                    topo, registry,
                    ss.PathQuery(entries=tuple(entries), target=target,
                                 k=k)) != full[:k]:
                failures.append(f"monotone k seed {seed}")
                break
        cases += 1

    # capability draw budget (100 cases)
    probe = ss.AtomicCapability(
        id="probe", kind=ss.CapabilityKind.ATTACK, name="Probe",
        technique_tag="T0000", preconditions=(), effects=(),
        base_success_prob=0.5, detection_prob=0.5, cost_units=1)
    topo = make_topology(nodes=[("w", ss.NodeClass.WORKSTATION)], edges=[])
    for seed in range(100):
        rng = CountingRandom(seed)
        ss.apply_capability(fresh_state(topo), probe, {"target": "w"}, rng)
        if rng.draws != 2:
            failures.append(f"draw budget seed {seed}")
        cases += 1

    # trace invariants: round monotonicity, conservation of compromise,
    # trap soundness, stall bound (150 cases)
    for seed in range(150):
        rng = random.Random(20_000 + seed)
        spec = spec_around(random_topology(rng))
        cfg = ss.SimulationConfig(max_rounds=10, seed=seed)
        trace, _ = ss.run_simulation(spec, ss.DefenseStrategy(), registry, cfg)
        rounds = [e.round for e in trace.events]
        if rounds != sorted(rounds) or trace.final_state.round > 10:
            failures.append(f"round monotonicity seed {seed}")
        attacker_rounds = {e.round for e in trace.events
                           if e.actor == ss.Actor.ATTACKER}
        for event in trace.events:
            if event.trapped_for > 0 and event.round + 1 in attacker_rounds:
                failures.append(f"trap soundness seed {seed}")
        if not attacker_rounds and trace.final_state.round > STALL_ROUNDS:
            failures.append(f"stall bound seed {seed}")
        cases += 1

    # bit-exact exports (100 cases)
    for seed in range(100):
        topo = random_topology(random.Random(30_000 + seed))
        if export_dot(topo) != export_dot(topo):
            failures.append(f"dot stability seed {seed}")
        cases += 1

    # pipeline progress and slot ownership (50 cases)
    from spidersim.forge import PIPELINE, SLOT_NAMES, Blackboard, agent_step
    owner = {role.produces: role.id.value for role in PIPELINE}
    for seed in range(50):
        bb = Blackboard(requirement=marine_requirement)
        for i, role in enumerate(PIPELINE, start=1):
            before = {name: getattr(bb, name) for name in SLOT_NAMES}
            bb = agent_step(role, bb, registry, seed)
            if bb.revision != i:
                failures.append(f"revision progress seed {seed}")
            for key in SLOT_NAMES:
                if getattr(bb, key) is not before[key] and owner[key] != role.id.value:
                    failures.append(f"slot ownership seed {seed}")
        cases += 1

    # state conservation under direct stepping (100 cases)
    from spidersim.engine import step_round
    from spidersim.rng import substream
    for seed in range(100):
        rng_top = random.Random(40_000 + seed)
        topo = random_topology(rng_top)
        state = fresh_state(topo)
        sim_rng = substream(seed, "simulation")
        cfg = ss.SimulationConfig(max_rounds=6, seed=seed)
        seen = frozenset()
        for _ in range(6):
            state, _ = step_round(state, registry, cfg, sim_rng)
            if not seen <= state.compromise.keys():
                failures.append(f"conservation seed {seed}")
                break
            seen = frozenset(state.compromise)
        cases += 1

    elapsed = time.time() - start
    verdict(6, cases >= 1000 and not failures and elapsed < 60.0,
            f"{cases} generated cases across 7 invariant families, "
            f"{len(failures)} failures{': ' + failures[0] if failures else ''}, "
            f"{elapsed:.1f}s (budget 60s)")


def test_criterion_7_greedy_placement_oracle():
    """For 100 random path sets, the budget-1 greedy placement hits at
    least as many paths as every alternative single placement (<5 s)."""
    start = time.time()
    registry = builtin_reg()
    checked = 0
    violations = 0
    seed = 0
    while checked < 100 and seed < 3000:
        seed += 1
        rng = random.Random(seed)
        topo = random_topology(rng, max_nodes=8)
        entries = [topo.nodes[0].id]
        target = ss.TargetSelector(node_class=rng.choice(topo.nodes).node_class)
        paths = ss.enumerate_attack_paths(
            topo, registry,
            ss.PathQuery(entries=tuple(entries), target=target, k=6))
        if not paths:
            continue

        def nonentry(path):
            nodes = {s.target for s in path.steps}
            nodes.update(s.source for s in path.steps if s.source != ss.EXTERNAL)
            entry = (path.steps[0].target if path.steps[0].source == ss.EXTERNAL
                     else path.steps[0].source)
            return nodes - {entry}

        sets = [nonentry(p) for p in paths]
        candidates = set().union(*sets)
        placements = ss.suggest_defense_placements(paths, budget=1)
        if not candidates:
            if placements:
                violations += 1
            checked += 1
            continue
        best = max(sum(1 for s in sets if v in s) for v in candidates)
        node = placements[0][0]
        if sum(1 for s in sets if node in s) < best:
            violations += 1
        checked += 1
    elapsed = time.time() - start
    verdict(7, checked >= 100 and violations == 0 and elapsed < 5.0,
            f"{checked} random path sets, {violations} suboptimal "
            f"placements, {elapsed:.1f}s (budget 5s)")
