"""The four benchmark workloads: inputs, one operation, and output checks.

An operation calls spidersim's library the way one CLI invocation does:
parse the input document, run, serialize the payload. ``lib`` is a
namespace of freshly imported spidersim modules; operations look every
function up through it at call time so that the tracer's wrappers apply.

Inputs are plain data made from the benchmark seed alone. A pass is the
fixed list of operations ``make_inputs`` returns; every pass repeats it
exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

import checks

ATTACKERS = ("greedy_value", "uniform_random", "cheapest_step")
DEFENDERS = ("static", "reactive")
TARGET = "controller"
NARRATIVE = "Benchmark scenario for a monitored industrial site."


@dataclass
class Outcome:
    payload: str            # what the CLI would print
    keep: object = None     # program objects the check needs
    failed: bool = False    # the operation ended in a domain error


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[object, int], List[dict]]  # one pass, from the seed
    run_op: Callable[[object, dict], Outcome]
    check: Callable[[object, List[dict], List[Outcome]], List[str]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _batch_doc(n: int, result) -> str:
    doc = {
        "runs": n,
        "attacker_success_rate": result.attacker_success_rate,
        "mean_compromised_fraction": result.mean_compromised_fraction,
        "mean_detection_count": result.mean_detection_count,
    }
    return json.dumps(doc, indent=2) + "\n"


def _strategy(lib, registry, placements, topology):
    if not placements:
        return lib.capabilities.DefenseStrategy()
    return lib.capabilities.compose_strategy(registry, placements, topology)


def _facts(topology) -> checks.Facts:
    """checks.Facts from a NetworkTopology, read field by field."""
    return checks.facts_from_doc({
        "nodes": [{"id": n.id, "class": n.node_class.value,
                   "vulnerability_ids": list(n.vulnerability_ids)}
                  for n in topology.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "bidirectional": e.bidirectional}
                  for e in topology.edges],
        "vulnerabilities": [{"id": v.id, "access_requirement": v.access_requirement.value,
                             "success_prob": v.success_prob}
                            for v in topology.vulnerabilities],
        "credentials": [{"grants_access_to": list(c.grants_access_to)}
                        for c in topology.credentials],
    })


# ---------------------------------------------------------------------------
# marine_batch: `batch` on the marine-ranch fixture, undefended then defended
# ---------------------------------------------------------------------------

MARINE_OPS = 50
MARINE_RUNS = 2
MARINE_STRATEGY = (("data_encryption", "ws-0"), ("honeypot", "maint-0"),
                   ("shocktrap", "gateway-0"))
MARINE_SAMPLED_OPS = 32


def marine_inputs(lib, seed: int) -> List[dict]:
    text = lib.data.marine_ranch_scenario_text()
    base = _rng("marine_batch", seed).randrange(2 ** 32)
    return [{"scenario": text, "seed": base + j * MARINE_RUNS, "n": MARINE_RUNS}
            for j in range(MARINE_OPS)]


def marine_op(lib, inp: dict) -> Outcome:
    halves = []
    for placements in ((), MARINE_STRATEGY):
        registry = lib.capabilities.built_in_registry()
        spec = lib.model.parse_scenario(inp["scenario"])
        topology = lib.engine.resolve_topology(spec, registry, inp["seed"])
        strategy = _strategy(lib, registry, placements, topology)
        config = lib.engine.SimulationConfig(max_rounds=20, seed=inp["seed"])
        result = lib.engine.batch_run(spec, strategy, registry, config, inp["n"])
        halves.append((_batch_doc(inp["n"], result), result))
    return Outcome("".join(text for text, _ in halves), halves)


def marine_check(lib, inputs: List[dict], outcomes: List[Outcome]) -> List[str]:
    problems: List[str] = []
    doc = json.loads(inputs[0]["scenario"])
    attacker = [i for i, o in enumerate(doc["objectives"]) if o["actor"] == "attacker"]
    facts = checks.facts_from_doc(doc["scenario_parameters"]["explicit_topology"])
    decoys = {node for cap, node in MARINE_STRATEGY if cap in ("honeypot", "shocktrap")}
    undefended_wins = defended_wins = 0
    for j, (inp, out) in enumerate(zip(inputs, outcomes)):
        docs = [json.loads(text) for text, _ in out.keep]
        for half, (batch_doc, (_, result)) in enumerate(zip(docs, out.keep)):
            per_seed = [{
                "attacker_met": any(met for i, met in m.objectives_met if i in attacker),
                "compromised_fraction": m.compromised_fraction,
                "detection_count": m.detection_count,
            } for m in result.per_seed]
            problems += [f"op {j} half {half}: {p}"
                         for p in checks.aggregate_problems(batch_doc, per_seed)]
        undefended, defended = docs
        if defended["attacker_success_rate"] > undefended["attacker_success_rate"]:
            problems.append(f"op {j}: defended success rate above undefended")
        undefended_wins += round(undefended["attacker_success_rate"] * inp["n"])
        defended_wins += round(defended["attacker_success_rate"] * inp["n"])
    if defended_wins > undefended_wins:
        problems.append("defended success rate above undefended over the pass")

    # Re-run sampled seeds one by one: each run must match its batch entry,
    # and success frequencies must match the documented probabilities.
    registry = lib.capabilities.built_in_registry()
    spec = lib.model.parse_scenario(inputs[0]["scenario"])
    topology = spec.scenario_parameters.explicit_topology
    events = []
    for j, (inp, out) in enumerate(zip(inputs[:MARINE_SAMPLED_OPS], outcomes)):
        for placements, (_, result) in zip(((), MARINE_STRATEGY), out.keep):
            strategy = _strategy(lib, registry, placements, topology)
            for i in range(inp["n"]):
                config = lib.engine.SimulationConfig(max_rounds=20, seed=inp["seed"] + i)
                trace, metrics = lib.engine.run_simulation(spec, strategy, registry, config)
                if metrics != result.per_seed[i]:
                    problems.append(f"op {j} seed {inp['seed'] + i}: run differs from batch")
                for e in trace.events:
                    if e.actor.value != "attacker" or (placements and e.target in decoys):
                        continue
                    if e.capability_id == "exploit_vuln":
                        vulns = facts.vulns[e.target]
                        if len(vulns) != 1:
                            continue
                        p = vulns[0][2]
                    else:
                        p = checks.BASE_PROB[e.capability_id]
                    events.append((e.capability_id, p, e.success))
    return problems + checks.binomial_problems(events)


# ---------------------------------------------------------------------------
# recipe_sim: `simulate` on recipe scenarios of growing size
# ---------------------------------------------------------------------------

# (nodes, rounds, operations per pass). The 12-node class plays the CLI's
# default 20 rounds, so some runs end early on met objectives; the larger
# ones play 3, which keeps a pass short. The two smallest classes cost about
# the same; the shares keep the pass median inside the 48-node class and
# the 80th percentile inside the 64-node class, away from the class edges.
RECIPE_SIZES = ((12, 20, 10), (32, 3, 10), (48, 3, 10), (64, 3, 14), (96, 3, 6))
# The greedy and cheapest-step attackers phish maintenance_endpoint-0 first,
# so the shocktrap fires.
RECIPE_TRAP = (("shocktrap", "maintenance_endpoint-0"), ("honeypot", "workstation-0"))


def _node_counts(nodes: int, zones: int) -> Dict[str, int]:
    share = max(1, nodes // 8)
    counts = {"controller": share, "camera_server": share, "workstation": share,
              "data_server": share, "maintenance_endpoint": 2,
              "gateway": zones if zones > 1 else 0}
    counts["sensor"] = nodes - sum(counts.values())
    return counts


def recipe_document(nodes: int, zones: int, density: float, vuln_rate: float) -> str:
    """A scenario document whose topology is a recipe."""
    counts = _node_counts(nodes, zones)
    return json.dumps({
        "schema_version": "1",
        "domain_context": {"domain_tag": "bench-site", "narrative": NARRATIVE},
        "problem_decomposition": [{"id": "protect-control", "description": "Keep controllers safe.",
                                   "related_asset_classes": [TARGET]}],
        "scenario_parameters": {"recipe": {
            "node_counts": counts, "zone_count": zones, "intra_zone_density": density,
            "inter_zone_gateways": 1 if zones > 1 else 0, "vuln_rate": vuln_rate,
            "credential_rate": 0.2}},
        "objectives": [
            {"actor": "attacker", "kind": "compromise", "target": {"node_class": TARGET},
             "threshold": 0.5},
            {"actor": "defender", "kind": "detect", "target": {"node_class": TARGET},
             "threshold": 1.0}],
        "elements": {"asset_classes": sorted(c for c, n in counts.items() if n),
                     "threat_actors": ["intruder"],
                     "capability_refs": ["exploit_vuln", "lateral_move_with_cred", "phishing"]},
    }, indent=2) + "\n"


def _round_robin(classes) -> List[tuple]:
    left = {c: c[-1] for c in classes}
    order: List[tuple] = []
    while any(left.values()):
        for c in classes:
            if left[c]:
                order.append(c)
                left[c] -= 1
    return order


def recipe_inputs(lib, seed: int) -> List[dict]:
    rng = _rng("recipe_sim", seed)
    return [{
        "nodes": size, "rounds": rounds, "scenario": recipe_document(size, 3, 0.3, 0.5),
        "seed": rng.randrange(2 ** 32),
        "attacker": ATTACKERS[j % 3], "defender": DEFENDERS[j % 2],
        "placements": RECIPE_TRAP if j % 4 == 3 else (),
    } for j, (size, rounds, _) in enumerate(_round_robin(RECIPE_SIZES))]


def recipe_op(lib, inp: dict) -> Outcome:
    registry = lib.capabilities.built_in_registry()
    spec = lib.model.parse_scenario(inp["scenario"])
    topology = lib.engine.resolve_topology(spec, registry, inp["seed"])
    strategy = _strategy(lib, registry, inp["placements"], topology)
    config = lib.engine.SimulationConfig(
        max_rounds=inp["rounds"], seed=inp["seed"],
        attacker_policy=lib.engine.AttackerPolicy(inp["attacker"]),
        defender_policy=lib.engine.DefenderPolicy(inp["defender"]))
    trace, _ = lib.engine.run_simulation(spec, strategy, registry, config)
    return Outcome(lib.exports.export_trace(trace))


def recipe_check(lib, inputs: List[dict], outcomes: List[Outcome]) -> List[str]:
    problems: List[str] = []
    for j, (inp, out) in enumerate(zip(inputs, outcomes)):
        counts = _node_counts(inp["nodes"], 3)
        honeypots = {node for cap, node in inp["placements"] if cap == "honeypot"}
        problems += [f"op {j}: {p}" for p in checks.trace_problems(
            json.loads(out.payload), inp["rounds"], honeypots,
            counts[TARGET], TARGET + "-", 0.5)]
    return problems


# ---------------------------------------------------------------------------
# paths_topk: `paths` top-k and exhaustive queries on recipe topologies
# ---------------------------------------------------------------------------

# One size keeps the cost of a query unimodal, so the pass median does not
# hinge on which sizes a seed's topologies make cheap or dear.
PATHS_OPS = 150
PATHS_NODES = 30
PATHS_K, PATHS_MAX_LEN = 5, 4
PATHS_EXHAUSTIVE_MAX_LEN = 3


def paths_inputs(lib, seed: int) -> List[dict]:
    rng = _rng("paths_topk", seed)
    scenario = recipe_document(PATHS_NODES, 1, 0.2, 0.8)
    counts = _node_counts(PATHS_NODES, 1)
    inputs = []
    for j in range(PATHS_OPS):
        exhaustive = j % 5 == 4
        inputs.append({
            "scenario": scenario, "seed": rng.randrange(2 ** 32),
            "entries": tuple(f"{cls}-{i}" for cls in checks.ENTRY_CLASSES
                             for i in range(counts[cls])),
            "k": None if exhaustive else PATHS_K,
            "max_len": PATHS_EXHAUSTIVE_MAX_LEN if exhaustive else PATHS_MAX_LEN,
        })
    return inputs


def paths_op(lib, inp: dict) -> Outcome:
    registry = lib.capabilities.built_in_registry()
    spec = lib.model.parse_scenario(inp["scenario"])
    topology = lib.engine.resolve_topology(spec, registry, inp["seed"])
    query = lib.attackgraph.PathQuery(
        entries=inp["entries"],
        target=lib.model.TargetSelector(node_class=lib.model.NodeClass(TARGET)),
        k=inp["k"], max_len=inp["max_len"])
    paths = lib.attackgraph.enumerate_attack_paths(topology, registry, query)
    text = lib.exports.serialize_paths(paths)
    return Outcome(text + lib.exports.export_dot(topology, paths), (topology, text))


def paths_check(lib, inputs: List[dict], outcomes: List[Outcome]) -> List[str]:
    problems: List[str] = []
    for j, (inp, out) in enumerate(zip(inputs, outcomes)):
        topology, text = out.keep
        facts = _facts(topology)
        targets = {nid for nid, cls in facts.classes.items() if cls == TARGET}
        problems += [f"op {j}: {p}" for p in checks.paths_problems(
            facts, inp["entries"], targets, inp["k"], inp["max_len"], json.loads(text))]
    return problems


# ---------------------------------------------------------------------------
# forge_generate: `generate` on varied requirements
# ---------------------------------------------------------------------------

FORGE_OPS = 200
FORGE_CLASSES = ("sensor", "controller", "camera_server", "maintenance_endpoint",
                 "workstation", "data_server")
# Every 25th requirement leaves no node for the target class. Generation
# fails on it today whatever the seed: refinement raises a node budget that
# the topology synthesizer never reads.
FORGE_STARVED_EVERY = 25
FORGE_STARVED = {"max_nodes": 2, "required_classes": ["sensor", "maintenance_endpoint"],
                 "attacker_profile": "targeted", "target_class": "controller"}


def requirement_document(constraints: dict) -> str:
    return json.dumps({"domain_tag": "bench-forge", "narrative": NARRATIVE,
                       "constraints": constraints}, indent=2) + "\n"


def forge_inputs(lib, seed: int) -> List[dict]:
    rng = _rng("forge_generate", seed)
    inputs = []
    for j in range(FORGE_OPS):
        if j % FORGE_STARVED_EVERY == FORGE_STARVED_EVERY - 1:
            inputs.append({"requirement": requirement_document(FORGE_STARVED),
                           "constraints": FORGE_STARVED, "seed": 0, "starved": True})
            continue
        required = rng.sample(FORGE_CLASSES, rng.randint(2, 5))
        target = rng.choice(FORGE_CLASSES)
        has_entry = any(c in checks.ENTRY_CLASSES for c in required)
        # Room for one entry node when no required class offers one.
        slack = rng.randint(0, 4) if has_entry else rng.randint(1, 4)
        constraints = {
            "max_nodes": len(set(required) | {target}) + slack,
            "required_classes": required,
            "attacker_profile": rng.choice(("opportunistic", "targeted")),
            "target_class": target,
        }
        inputs.append({"requirement": requirement_document(constraints),
                       "constraints": constraints, "seed": rng.randrange(2 ** 32),
                       "starved": False})
    return inputs


def forge_op(lib, inp: dict) -> Outcome:
    registry = lib.capabilities.built_in_registry()
    requirement = lib.exports.parse_requirement(inp["requirement"])
    try:
        spec, report = lib.forge.run_pipeline(requirement, registry, inp["seed"])
    except lib.errors.GenerationFailed as exc:
        return Outcome(f"{exc.code}: {exc.message}\n", exc.report, failed=True)
    return Outcome(lib.model.serialize_scenario(spec), report)


def forge_check(lib, inputs: List[dict], outcomes: List[Outcome]) -> List[str]:
    problems: List[str] = []
    registry = lib.capabilities.built_in_registry()
    for j, (inp, out) in enumerate(zip(inputs, outcomes)):
        if out.failed:
            if not inp["starved"]:
                problems.append(f"op {j}: generation failed: {out.payload.strip()}")
            continue
        problems += [f"op {j}: {p}" for p in generated_problems(
            lib, registry, inp["constraints"], out.payload)]
    return problems


def generated_problems(lib, registry, constraints: dict, payload: str) -> List[str]:
    """A generated scenario must round-trip, validate, hold the required
    classes, and let an attacker reach every attacker objective."""
    problems: List[str] = []
    spec = lib.model.parse_scenario(payload)
    if lib.model.serialize_scenario(spec) != payload:
        problems.append("does not round-trip through parse_scenario")
    errors = lib.model.validate_spec(spec, registry).errors
    if errors:
        problems.append(f"validation errors: {[f.code for f in errors]}")
    doc = json.loads(payload)
    topology = doc["scenario_parameters"]["explicit_topology"]
    facts = checks.facts_from_doc(topology)
    missing = set(constraints["required_classes"]) - set(facts.classes.values())
    if missing:
        problems.append(f"required classes missing: {sorted(missing)}")
    entries = [nid for nid, cls in facts.classes.items() if cls in checks.ENTRY_CLASSES]
    reached = checks.reachable_targets(facts, entries)
    for i, objective in enumerate(doc["objectives"]):
        if objective["actor"] != "attacker":
            continue
        selector = objective["target"]
        matching = {nid for nid, cls in facts.classes.items()
                    if nid == selector.get("node_id") or cls == selector.get("node_class")}
        if not matching & reached:
            problems.append(f"objective {i}: no attack path from an entry node")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("marine_batch", marine_inputs, marine_op, marine_check),
    Workload("recipe_sim", recipe_inputs, recipe_op, recipe_check),
    Workload("paths_topk", paths_inputs, paths_op, paths_check),
    Workload("forge_generate", forge_inputs, forge_op, forge_check),
)}
