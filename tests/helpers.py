"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive expected results from first
principles (explicit enumeration, hand-coded hop rules) rather than
calling back into the library, so they can catch algorithmic mistakes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import replace
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from spidersim import (
    AccessRequirement,
    Actor,
    AtomicCapability,
    AttackerProfile,
    AttackPath,
    AttackStep,
    CapabilityKind,
    Constraints,
    Credential,
    Edge,
    Effect,
    EffectKind,
    NetworkTopology,
    Node,
    NodeClass,
    Objective,
    ObjectiveKind,
    PathQuery,
    Privilege,
    Requirement,
    ScenarioSpec,
    TargetSelector,
    TopologyRecipe,
    Vulnerability,
    built_in_registry,
    enumerate_attack_paths,
)
from spidersim.capabilities import (
    CapabilityRegistry,
    DefenseStrategy,
    Predicate,
    PredicateKind,
    deploy_strategy,
)
from spidersim.errors import (
    EmptyRecipe,
    InsufficientGateways,
    InvariantViolation,
    MalformedDocument,
    MissingSection,
    UnboundSlot,
    UnknownPathNode,
    UnknownField,
    UnsupportedInterfaceVersion,
)
from spidersim.engine import (
    STALL_ROUNDS,
    Metrics,
    SimEvent,
    _objective_met,
    resolve_topology,
    step_round,
)
from spidersim.exports import INTERFACE_VERSION
from spidersim.state import DefenseKind, SimulationState, fresh_state
from spidersim.model import DomainContext, Elements, ScenarioParameters, Service, SubProblem
from spidersim.rng import substream

EXTERNAL = "EXTERNAL"
PHISHABLE = {NodeClass.WORKSTATION, NodeClass.MAINTENANCE_ENDPOINT}


class CountingRandom:
    """random.Random wrapper that counts uniform draws.

    Audits the documented per-operation draw budget. Only ``random()`` is
    exposed: every draw in the engine goes through it.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


class StubRandom:
    """Returns the given uniform draws in order, then ``rest`` for every
    later draw."""

    def __init__(self, draws: Sequence[float], rest: float = 0.999):
        self._draws = list(draws)[::-1]
        self._rest = rest

    def random(self) -> float:
        return self._draws.pop() if self._draws else self._rest


@lru_cache(maxsize=1)
def builtin_reg() -> CapabilityRegistry:
    return built_in_registry()


@lru_cache(maxsize=1)
def sure_entry_reg() -> CapabilityRegistry:
    """The built-in set with a certain (p=1.0) phishing entry.

    Lets path-score examples be computed from vulnerability probabilities
    alone.
    """
    registry = CapabilityRegistry()
    for cap in builtin_reg().capabilities():
        if cap.id == "phishing":
            cap = replace(cap, base_success_prob=1.0)
        registry = CapabilityRegistry(_caps=registry._caps + (cap,))
    return registry


def make_vuln(node_id: str, prob: float, *, access=AccessRequirement.ADJACENT,
              privilege=Privilege.USER, detection=0.2) -> Vulnerability:
    return Vulnerability(
        id=f"vuln-{node_id}",
        technique_tag="T1190",
        access_requirement=access,
        success_prob=prob,
        detection_prob=detection,
        gained_privilege=privilege,
    )


def make_topology(nodes: Sequence[Tuple[str, NodeClass]],
                  edges: Sequence[Tuple[str, str]],
                  vulns: Sequence[Vulnerability] = (),
                  creds: Sequence[Credential] = (),
                  values: Optional[Dict[str, int]] = None) -> NetworkTopology:
    values = values or {}
    vuln_on: Dict[str, Tuple[str, ...]] = {}
    for v in vulns:
        owner = v.id.removeprefix("vuln-")
        vuln_on[owner] = vuln_on.get(owner, ()) + (v.id,)
    cred_on: Dict[str, Tuple[str, ...]] = {}
    for c in creds:
        cred_on[c.stored_on] = cred_on.get(c.stored_on, ()) + (c.id,)
    return NetworkTopology(
        nodes=tuple(
            Node(id=nid, node_class=cls, zone="z0",
                 vulnerability_ids=vuln_on.get(nid, ()),
                 credential_ids=cred_on.get(nid, ()),
                 asset_value=values.get(nid, 10))
            for nid, cls in nodes
        ),
        edges=tuple(Edge(src=a, dst=b) for a, b in edges),
        zones=("z0",),
        vulnerabilities=tuple(vulns),
        credentials=tuple(creds),
    )


def chain_topology() -> NetworkTopology:
    """ws-a -- srv-b -- srv-c with 0.5 vulns on b and c."""
    return make_topology(
        nodes=[("a", NodeClass.WORKSTATION), ("b", NodeClass.DATA_SERVER),
               ("c", NodeClass.CONTROLLER)],
        edges=[("a", "b"), ("b", "c")],
        vulns=[make_vuln("b", 0.5), make_vuln("c", 0.5)],
    )


def diamond_topology() -> NetworkTopology:
    """gateway entry g with two branches to controller t."""
    return make_topology(
        nodes=[("g", NodeClass.GATEWAY), ("m", NodeClass.DATA_SERVER),
               ("n", NodeClass.CAMERA_SERVER), ("t", NodeClass.CONTROLLER)],
        edges=[("g", "m"), ("g", "n"), ("m", "t"), ("n", "t")],
        vulns=[make_vuln("m", 0.9), make_vuln("n", 0.5), make_vuln("t", 0.9)],
    )


def random_topology(rng: random.Random, max_nodes: int = 8,
                    max_edges: int = 16,
                    probs: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
                    ) -> NetworkTopology:
    """A random small topology for oracle and property tests; vulnerability
    success probabilities are drawn from ``probs``."""
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    classes = [rng.choice(list(NodeClass)) for _ in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_edges, len(pairs)))
    edges = tuple(Edge(src=a, dst=b) for a, b in sorted(pairs[:m]))

    vulns: List[Vulnerability] = []
    vuln_on: Dict[str, Tuple[str, ...]] = {}
    for nid in ids:
        if rng.random() < 0.6:
            v = make_vuln(
                nid,
                rng.choice(probs),
                access=rng.choice(list(AccessRequirement)),
                privilege=rng.choice([Privilege.USER, Privilege.ADMIN]),
            )
            vulns.append(v)
            vuln_on[nid] = (v.id,)

    creds: List[Credential] = []
    cred_on: Dict[str, Tuple[str, ...]] = {}
    if n >= 2:
        for nid in ids:
            if rng.random() < 0.25:
                target = rng.choice([o for o in ids if o != nid])
                c = Credential(id=f"cred-{nid}", stored_on=nid,
                               grants_access_to=(target,))
                creds.append(c)
                cred_on[nid] = (c.id,)

    nodes = tuple(
        Node(id=nid, node_class=cls, zone="z0",
             vulnerability_ids=vuln_on.get(nid, ()),
             credential_ids=cred_on.get(nid, ()),
             asset_value=rng.randint(0, 100))
        for nid, cls in zip(ids, classes)
    )
    return NetworkTopology(nodes=nodes, edges=edges, zones=("z0",),
                           vulnerabilities=tuple(vulns), credentials=tuple(creds))


def with_directed_edges(topology: NetworkTopology, rng: random.Random,
                        count: int = 3) -> NetworkTopology:
    """The topology plus ``count`` random one-way edges and a self-loop
    edge, neither of which ``random_topology`` makes."""
    ids = [n.id for n in topology.nodes]
    directed = tuple(Edge(*rng.sample(ids, 2), bidirectional=False)
                     for _ in range(count if len(ids) >= 2 else 0))
    loop = rng.choice(ids)
    return replace(topology, edges=topology.edges + directed
                   + (Edge(src=loop, dst=loop),))


def with_vulnerabilities(topology, rng: random.Random) -> NetworkTopology:
    """The topology with one to three vulnerabilities on every node, of
    random access levels, probabilities and granted privileges, with ids
    in an order unrelated to their probabilities."""
    nodes, vulns = [], []
    for node in topology.nodes:
        own = [
            Vulnerability(
                id=f"vuln-{node.id}-{tag}", technique_tag="T1190",
                access_requirement=rng.choice(list(AccessRequirement)),
                success_prob=rng.choice((0.2, 0.35, 0.5, 0.65, 0.8, 0.95)),
                detection_prob=0.2,
                gained_privilege=rng.choice([Privilege.USER, Privilege.ADMIN]),
            )
            for tag in rng.sample("abcdef", rng.randint(1, 3))
        ]
        nodes.append(replace(node, vulnerability_ids=tuple(v.id for v in own)))
        vulns += own
    return replace(topology, nodes=tuple(nodes), vulnerabilities=tuple(vulns))


def spec_around(topology: NetworkTopology,
                objectives: Optional[Tuple[Objective, ...]] = None) -> ScenarioSpec:
    """Wrap a topology into a minimal valid scenario."""
    if objectives is None:
        target_class = topology.nodes[0].node_class
        objectives = (
            Objective(Actor.ATTACKER, ObjectiveKind.COMPROMISE,
                      TargetSelector(node_class=target_class), 0.5),
            Objective(Actor.DEFENDER, ObjectiveKind.DETECT,
                      TargetSelector(node_class=target_class), 1.0),
        )
    present = tuple(dict.fromkeys(n.node_class for n in topology.nodes))
    return ScenarioSpec(
        schema_version="1",
        domain_context=DomainContext(domain_tag="test-domain",
                                     narrative="Synthetic test scenario."),
        problem_decomposition=(
            SubProblem(id="keep-safe", description="Keep assets safe.",
                       related_asset_classes=present[:1]),
        ),
        scenario_parameters=ScenarioParameters(explicit_topology=topology),
        objectives=objectives,
        elements=Elements(
            asset_classes=present,
            threat_actors=("intruder",),
            capability_refs=tuple(sorted(builtin_reg().ids())),
        ),
    )


# ---------------------------------------------------------------------------
# independent attack-path oracle
# ---------------------------------------------------------------------------

OracleStep = Tuple[str, str, str, float, int]  # source, cap, target, prob, cost


def _oracle_hop(topology: NetworkTopology, target: str
                ) -> Optional[Tuple[str, float, int]]:
    """Hand-coded hop rule for the built-in capability set."""
    options: List[Tuple[float, int, str]] = []
    exploitable = [
        v for v in topology.vulnerabilities
        if v.id in (topology.node_by_id(target).vulnerability_ids or ())
        and v.access_requirement in (AccessRequirement.NETWORK,
                                     AccessRequirement.ADJACENT)
    ]
    if exploitable:
        best = max(exploitable, key=lambda v: (v.success_prob, v.id))
        options.append((best.success_prob, 2, "exploit_vuln"))
    if any(target in c.grants_access_to for c in topology.credentials):
        options.append((0.9, 1, "lateral_move_with_cred"))
    if not options:
        return None
    options.sort(key=lambda o: (-o[0], o[1], o[2]))
    prob, cost, cap = options[0]
    return cap, prob, cost


def oracle_paths(topology: NetworkTopology, entries: Sequence[str],
                 target_ids: Set[str], max_len: int = 8,
                 entry_prob: float = 0.4) -> List[Tuple[OracleStep, ...]]:
    """Brute-force simple-path enumeration, sorted by the documented order."""
    adj: Dict[str, Set[str]] = {n.id: set() for n in topology.nodes}
    for e in topology.edges:
        adj[e.src].add(e.dst)
        if e.bidirectional:
            adj[e.dst].add(e.src)

    results: List[Tuple[OracleStep, ...]] = []

    def walk(node: str, steps: List[OracleStep], visited: Set[str]) -> None:
        if steps and node in target_ids:
            results.append(tuple(steps))
        if len(steps) >= max_len:
            return
        for nbr in adj[node]:
            if nbr in visited:
                continue
            option = _oracle_hop(topology, nbr)
            if option is None:
                continue
            cap, prob, cost = option
            walk(nbr, steps + [(node, cap, nbr, prob, cost)], visited | {nbr})

    for entry in entries:
        node = topology.node_by_id(entry)
        if node.node_class in PHISHABLE:
            first = (EXTERNAL, "phishing", entry, entry_prob, 1)
            walk(entry, [first], {entry})
        else:
            walk(entry, [], {entry})

    def key(steps: Tuple[OracleStep, ...]):
        prob = math.prod(s[3] for s in steps)
        return (-prob, len(steps), tuple(s[2] for s in steps))

    results.sort(key=key)
    return results


def score_path(steps: Sequence[AttackStep]) -> Tuple[float, int]:
    """(success_prob, total_cost) of a step sequence, recomputed from its
    steps: the product of the step probabilities left to right and the
    sum of the step costs. The steps must chain, each source the target
    before it."""
    assert steps, "a path needs at least one step"
    for prev, cur in zip(steps, steps[1:]):
        assert cur.source == prev.target, (prev, cur)
    return math.prod(s.step_prob for s in steps), sum(s.step_cost for s in steps)


def path_to_oracle_steps(path) -> Tuple[OracleStep, ...]:
    return tuple(
        (s.source, s.capability_id, s.target, s.step_prob, s.step_cost)
        for s in path.steps
    )


# ---------------------------------------------------------------------------
# reference graph walks over the edge list
# ---------------------------------------------------------------------------

def reference_objective_reached(topology: NetworkTopology, registry: CapabilityRegistry,
                                entries: Tuple[str, ...], target: TargetSelector) -> bool:
    """Whether a best-first search finds one attack path from ``entries``
    to ``target``: the forge's reachability check before it became one
    ``reachable_set`` walk per draft."""
    return bool(enumerate_attack_paths(
        topology, registry,
        PathQuery(entries=entries, target=target, k=1,
                  max_len=max(1, len(topology.nodes)))))


def reference_is_connected(topo: NetworkTopology) -> bool:
    """``model._is_connected`` with its own adjacency built from the edge
    list."""
    if len(topo.nodes) <= 1:
        return True
    adjacency: Dict[str, set] = {n.id: set() for n in topo.nodes}
    for edge in topo.edges:
        if edge.src in adjacency and edge.dst in adjacency:
            adjacency[edge.src].add(edge.dst)
            adjacency[edge.dst].add(edge.src)
    start = topo.nodes[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(adjacency)


def reference_reactive_pick(state: SimulationState) -> Optional[str]:
    """The node the reactive defender patches in an alarmed round, as a
    ``min`` over every node: not compromised and not patched, highest
    asset value first, then lowest id; None when no node qualifies."""
    node = min(
        (n for n in state.topology.nodes
         if n.id not in state.compromise
         and DefenseKind.PATCH not in state.deployed.get(n.id, ())),
        key=lambda n: (-n.asset_value, n.id), default=None,
    )
    return None if node is None else node.id


def reference_edge_exists(topology: NetworkTopology, src: str, dst: str) -> bool:
    """Whether ``refine`` finds an edge between ``src`` and ``dst`` (either
    way) by a scan of the edge list, so that an ADD_EDGE hint adds none."""
    return any({e.src, e.dst} == {src, dst} for e in topology.edges)


def reference_in_neighbours(topology: NetworkTopology, node_id: str) -> FrozenSet[str]:
    """``in_neighbours`` by a scan of the edge list: every ``src`` of an
    edge into ``node_id``, and every ``dst`` of a bidirectional edge out
    of it."""
    return frozenset({e.src for e in topology.edges if e.dst == node_id}
                     | {e.dst for e in topology.edges if e.bidirectional and e.src == node_id})


def reference_out_neighbours(topology: NetworkTopology, node_id: str) -> Tuple[str, ...]:
    """``out_neighbours`` by a scan of the edge list: every ``dst`` of an
    edge out of ``node_id``, and every ``src`` of a bidirectional edge
    into it, in id order."""
    return tuple(sorted({e.dst for e in topology.edges if e.src == node_id}
                        | {e.src for e in topology.edges if e.bidirectional and e.dst == node_id}))


# ---------------------------------------------------------------------------
# reference predicate interpreter
# ---------------------------------------------------------------------------

_ACCESS_ORDER = {AccessRequirement.NETWORK: 0, AccessRequirement.ADJACENT: 1,
                 AccessRequirement.LOCAL: 2}
_PRIVILEGE_RANK = {None: 0, Privilege.USER: 1, Privilege.ADMIN: 2}


def _bound(binding: Dict[str, str], slot: str, cap_id: str) -> str:
    if slot not in binding:
        raise UnboundSlot(f"capability {cap_id!r}: slot {slot!r} not bound")
    return binding[slot]


def _reference_predicate(pred: Predicate, state: SimulationState,
                         binding: Dict[str, str], cap_id: str) -> bool:
    """One predicate, dispatched on its kind at every call and read from
    the state's public lookups: no compiled check, no derived
    credential set."""
    topo = state.topology
    node_id = _bound(binding, pred.slot, cap_id)
    if pred.kind == PredicateKind.ACTOR_HAS_FOOTHOLD:
        return (node_id in state.compromise
                and _PRIVILEGE_RANK[state.compromise.get(node_id)] >= _PRIVILEGE_RANK[pred.min_privilege])
    if pred.kind == PredicateKind.EDGE_EXISTS:
        src = _bound(binding, pred.src_slot, cap_id)
        return any(
            (e.src == src and e.dst == node_id)
            or (e.bidirectional and e.src == node_id and e.dst == src)
            for e in topo.edges)
    if pred.kind == PredicateKind.NODE_HAS_VULN_WITH_ACCESS:
        node = topo.node_by_id(node_id)
        vulns = [topo.vulnerability_by_id(vid) for vid in node.vulnerability_ids] if node else []
        return any(
            v is not None and _ACCESS_ORDER[v.access_requirement] <= _ACCESS_ORDER[pred.access]
            for v in vulns)
    if pred.kind == PredicateKind.CREDENTIAL_HELD:
        for cred_id in state.credentials_held:
            cred = topo.credential_by_id(cred_id)
            if cred is not None and node_id in cred.grants_access_to:
                return True
        return False
    if pred.kind == PredicateKind.DEFENSE_ABSENT:
        return pred.defense not in state.deployed.get(node_id, ())
    if pred.kind == PredicateKind.DEFENSE_PRESENT:
        return pred.defense in state.deployed.get(node_id, ())
    if pred.kind == PredicateKind.NODE_CLASS_IS:
        node = topo.node_by_id(node_id)
        return node is not None and node.node_class in (pred.node_classes or ())
    if pred.kind == PredicateKind.NODE_NOT_COMPROMISED:
        return state.compromise.get(node_id) is None
    if pred.kind == PredicateKind.NODE_ASSET_VALUE_AT_LEAST:
        node = topo.node_by_id(node_id)
        return node is not None and node.asset_value >= pred.min_asset_value
    raise AssertionError(f"unreachable predicate kind {pred.kind!r}")


def reference_evaluate_preconditions(cap: AtomicCapability, state: SimulationState,
                                     binding: Dict[str, str]) -> Optional[Predicate]:
    """What ``evaluate_preconditions`` must return: the preconditions in
    declaration order, the first that fails (None when all hold), and
    ``UnboundSlot`` for a slot the binding lacks once a predicate reading
    it is reached."""
    for pred in cap.preconditions:
        if not _reference_predicate(pred, state, binding, cap.id):
            return pred
    return None


# ---------------------------------------------------------------------------
# exhaustive action-enumeration oracle
# ---------------------------------------------------------------------------

def _slots(cap: AtomicCapability) -> Tuple[str, ...]:
    """Parameter slots the capability binds, "target" always included."""
    names = {"target"}
    for pred in cap.preconditions:
        names.add(pred.slot)
        if pred.src_slot is not None:
            names.add(pred.src_slot)
    for eff in cap.effects:
        names.add(eff.slot)
    return tuple(sorted(names))


def oracle_applicable_capabilities(registry: CapabilityRegistry,
                                   state: SimulationState, binding_domain: Iterable[str]
                                   ) -> List[Tuple[AtomicCapability, Dict[str, str]]]:
    """Every (attack capability, binding) whose preconditions hold, found
    by trying every (source, target) pair of the domain with the reference
    interpreter, sorted by cost, capability id, target id, then source
    id."""
    domain = sorted(set(binding_domain))
    out: List[Tuple[AtomicCapability, Dict[str, str]]] = []
    caps = sorted((c for c in registry.capabilities() if c.kind == CapabilityKind.ATTACK),
                  key=lambda c: (c.cost_units, c.id))
    for cap in caps:
        needs_source = "source" in _slots(cap)
        for target in domain:
            if needs_source:
                for source in domain:
                    if source == target:
                        continue
                    binding = {"target": target, "source": source}
                    if reference_evaluate_preconditions(cap, state, binding) is None:
                        out.append((cap, binding))
            else:
                binding = {"target": target}
                if reference_evaluate_preconditions(cap, state, binding) is None:
                    out.append((cap, binding))
    out.sort(key=lambda item: (
        item[0].cost_units, item[0].id,
        item[1]["target"], item[1].get("source", ""),
    ))
    return out


# ---------------------------------------------------------------------------
# reference recipe expansion
# ---------------------------------------------------------------------------

# The per-class defaults build_topology documents, restated here so the
# reference does not read the library's tables.
_REFERENCE_CLASS_SERVICES: Dict[NodeClass, Tuple[str, int]] = {
    NodeClass.SENSOR: ("telemetry", 9000),
    NodeClass.CONTROLLER: ("modbus", 502),
    NodeClass.GATEWAY: ("routing", 443),
    NodeClass.CAMERA_SERVER: ("rtsp", 554),
    NodeClass.MAINTENANCE_ENDPOINT: ("ssh", 22),
    NodeClass.WORKSTATION: ("smb", 445),
    NodeClass.DATA_SERVER: ("db", 5432),
}

_REFERENCE_CLASS_ASSET_VALUE: Dict[NodeClass, int] = {
    NodeClass.SENSOR: 20,
    NodeClass.CONTROLLER: 90,
    NodeClass.GATEWAY: 50,
    NodeClass.CAMERA_SERVER: 60,
    NodeClass.MAINTENANCE_ENDPOINT: 40,
    NodeClass.WORKSTATION: 30,
    NodeClass.DATA_SERVER: 80,
}


def _reference_recipe_node_ids(recipe: TopologyRecipe):
    for cls in NodeClass:
        for i in range(recipe.count(cls)):
            yield f"{cls.value}-{i}", cls


def reference_build_topology(recipe: TopologyRecipe, registry, seed: int) -> NetworkTopology:
    """What ``build_topology`` must return, by the pair-scanning expansion:
    every node pair is visited in stage 2, every id scanned for each
    inter-zone link's peers and each credential's targets, and every
    value built by keyword."""
    if recipe.total_nodes() < 1:
        raise EmptyRecipe("recipe places no nodes")
    if (recipe.zone_count > 1 and recipe.inter_zone_gateways > 0
            and recipe.count(NodeClass.GATEWAY) == 0):
        raise InsufficientGateways(
            "inter-zone links requested but the recipe places no gateways"
        )

    zones = tuple(f"zone-{i}" for i in range(recipe.zone_count))
    placements: List[Tuple[str, NodeClass, str]] = []
    for k, (node_id, cls) in enumerate(_reference_recipe_node_ids(recipe)):
        placements.append((node_id, cls, zones[k % recipe.zone_count]))

    zone_of = {nid: zone for nid, _, zone in placements}
    class_of = {nid: cls for nid, cls, _ in placements}
    all_ids = sorted(zone_of)

    edges: List[Edge] = []
    edge_keys = set()

    def add_edge(src: str, dst: str, protocol: str = "tcp") -> None:
        if (src, dst, protocol) in edge_keys or (dst, src, protocol) in edge_keys:
            return
        edge_keys.add((src, dst, protocol))
        edges.append(Edge(src=src, dst=dst, protocol_tag=protocol, bidirectional=True))

    edge_rng = substream(seed, "edges")
    for i, u in enumerate(all_ids):
        for v in all_ids[i + 1:]:
            if zone_of[u] != zone_of[v]:
                continue
            if edge_rng.random() < recipe.intra_zone_density:
                add_edge(u, v)

    gateways = sorted(nid for nid in all_ids if class_of[nid] == NodeClass.GATEWAY)
    if recipe.zone_count > 1 and recipe.inter_zone_gateways > 0 and gateways:
        pair_index = 0
        for i, za in enumerate(zones):
            for zb in zones[i + 1:]:
                for t in range(recipe.inter_zone_gateways):
                    g = gateways[(pair_index * recipe.inter_zone_gateways + t) % len(gateways)]
                    sides = []
                    if zone_of[g] != za:
                        sides.append(za)
                    if zone_of[g] != zb:
                        sides.append(zb)
                    for side in sides:
                        peers = sorted(nid for nid in all_ids if zone_of[nid] == side and nid != g)
                        if peers:
                            add_edge(g, peers[t % len(peers)])
                pair_index += 1

    tags = sorted({cap.technique_tag for cap in registry.capabilities()
                   if cap.kind.value == "attack"}) or ["T0000"]
    vulnerabilities: List[Vulnerability] = []
    vuln_on: Dict[str, Tuple[str, ...]] = {}
    vuln_rng = substream(seed, "vulns")
    for nid in all_ids:
        if class_of[nid] == NodeClass.GATEWAY:
            continue
        if vuln_rng.random() < recipe.vuln_rate:
            tag = tags[min(int(vuln_rng.random() * len(tags)), len(tags) - 1)]
            success = round(0.4 + 0.5 * vuln_rng.random(), 2)
            privilege = Privilege.ADMIN if vuln_rng.random() < 0.3 else Privilege.USER
            vuln = Vulnerability(
                id=f"vuln-{nid}",
                technique_tag=tag,
                access_requirement=AccessRequirement.ADJACENT,
                success_prob=success,
                detection_prob=0.2,
                gained_privilege=privilege,
            )
            vulnerabilities.append(vuln)
            vuln_on[nid] = (vuln.id,)

    credentials: List[Credential] = []
    cred_on: Dict[str, Tuple[str, ...]] = {}
    cred_rng = substream(seed, "credentials")
    for nid in all_ids:
        if cred_rng.random() < recipe.credential_rate:
            others = [o for o in all_ids if o != nid]
            if not others:
                continue
            target = others[min(int(cred_rng.random() * len(others)), len(others) - 1)]
            cred = Credential(id=f"cred-{nid}", stored_on=nid, grants_access_to=(target,))
            credentials.append(cred)
            cred_on[nid] = (cred.id,)

    nodes = tuple(
        Node(
            id=nid,
            node_class=cls,
            zone=zone,
            services=(Service(*_REFERENCE_CLASS_SERVICES[cls]),),
            vulnerability_ids=vuln_on.get(nid, ()),
            credential_ids=cred_on.get(nid, ()),
            asset_value=_REFERENCE_CLASS_ASSET_VALUE[cls],
        )
        for nid, cls, zone in placements
    )
    return NetworkTopology(
        nodes=nodes,
        edges=tuple(edges),
        zones=zones,
        vulnerabilities=tuple(vulnerabilities),
        credentials=tuple(credentials),
    )

# ---------------------------------------------------------------------------
# reference scenario parser
# ---------------------------------------------------------------------------
# The scenario parser as it was before its checks named their paths only on
# failure, kept verbatim: ``parse_scenario`` must return an equal value, or
# raise the same error class with the same message, on every document. The
# one intended difference: a huge integer in a fraction field raises
# OverflowError here and InvariantViolation in ``parse_scenario``.

def load_json_object(document: str) -> dict:
    """The JSON object a document holds; anything else is MalformedDocument."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, TypeError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise MalformedDocument("top level must be an object")
    return raw


def _check_identifier(value, path: str) -> str:
    # str.split() cuts at exactly the characters str.isspace() accepts, so
    # a non-empty string without whitespace is the one piece it returns.
    if not isinstance(value, str) or value.split() != [value]:
        raise InvariantViolation(path, "must be a non-empty identifier")
    return value


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InvariantViolation(path, "must be an object")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InvariantViolation(path, "must be a list")
    return value


def _expect_text(value, path: str) -> str:
    if not isinstance(value, str):
        raise InvariantViolation(path, "must be a string")
    return value


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvariantViolation(path, "must be an integer")
    return value


def _expect_fraction(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvariantViolation(path, "must be a number")
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise InvariantViolation(path, "must be in [0,1]")
    return value


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise InvariantViolation(path, "must be a boolean")
    return value


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise UnknownField(f"{path}.{key}" if path else key)


def _require(d: dict, key: str, path: str):
    if key not in d:
        if not path:
            raise MissingSection(key)
        raise InvariantViolation(f"{path}.{key}", "missing required field")
    return d[key]


def _parse_enum(enum_cls, value, path: str):
    try:
        return enum_cls(value)
    except (ValueError, TypeError):
        allowed = ", ".join(e.value for e in enum_cls)
        raise InvariantViolation(path, f"must be one of: {allowed}")


def _parse_selector(raw, path: str) -> TargetSelector:
    d = _expect_dict(raw, path)
    _reject_unknown(d, {"node_id", "node_class"}, path)
    if ("node_id" in d) == ("node_class" in d):
        raise InvariantViolation(path, "exactly one of node_id / node_class")
    if "node_id" in d:
        return TargetSelector(node_id=_check_identifier(d["node_id"], f"{path}.node_id"))
    return TargetSelector(node_class=_parse_enum(NodeClass, d["node_class"], f"{path}.node_class"))


def _parse_node(raw, path: str) -> Node:
    d = _expect_dict(raw, path)
    allowed = {"id", "class", "zone", "services", "vulnerability_ids",
               "credential_ids", "asset_value"}
    _reject_unknown(d, allowed, path)
    services = []
    for i, raw_svc in enumerate(_expect_list(d.get("services", []), f"{path}.services")):
        sd = _expect_dict(raw_svc, f"{path}.services[{i}]")
        _reject_unknown(sd, {"name", "port"}, f"{path}.services[{i}]")
        port = _expect_int(_require(sd, "port", f"{path}.services[{i}]"), f"{path}.services[{i}].port")
        if not 1 <= port <= 65535:
            raise InvariantViolation(f"{path}.services[{i}].port", "must be in 1..65535")
        services.append(Service(
            name=_check_identifier(_require(sd, "name", f"{path}.services[{i}]"), f"{path}.services[{i}].name"),
            port=port,
        ))
    asset_value = _expect_int(d.get("asset_value", 0), f"{path}.asset_value")
    if not 0 <= asset_value <= 100:
        raise InvariantViolation(f"{path}.asset_value", "must be in 0..100")
    return Node(
        id=_check_identifier(_require(d, "id", path), f"{path}.id"),
        node_class=_parse_enum(NodeClass, _require(d, "class", path), f"{path}.class"),
        zone=_check_identifier(_require(d, "zone", path), f"{path}.zone"),
        services=tuple(services),
        vulnerability_ids=tuple(
            _check_identifier(v, f"{path}.vulnerability_ids")
            for v in _expect_list(d.get("vulnerability_ids", []), f"{path}.vulnerability_ids")
        ),
        credential_ids=tuple(
            _check_identifier(c, f"{path}.credential_ids")
            for c in _expect_list(d.get("credential_ids", []), f"{path}.credential_ids")
        ),
        asset_value=asset_value,
    )


def _parse_topology(raw, path: str) -> NetworkTopology:
    d = _expect_dict(raw, path)
    _reject_unknown(d, {"nodes", "edges", "zones", "vulnerabilities", "credentials"}, path)
    nodes = tuple(
        _parse_node(n, f"{path}.nodes[{i}]")
        for i, n in enumerate(_expect_list(_require(d, "nodes", path), f"{path}.nodes"))
    )
    edges = []
    for i, raw_edge in enumerate(_expect_list(d.get("edges", []), f"{path}.edges")):
        ed = _expect_dict(raw_edge, f"{path}.edges[{i}]")
        _reject_unknown(ed, {"src", "dst", "protocol_tag", "bidirectional"}, f"{path}.edges[{i}]")
        src = _check_identifier(_require(ed, "src", f"{path}.edges[{i}]"), f"{path}.edges[{i}].src")
        dst = _check_identifier(_require(ed, "dst", f"{path}.edges[{i}]"), f"{path}.edges[{i}].dst")
        if src == dst:
            raise InvariantViolation(f"{path}.edges[{i}]", "self-loop edges are not allowed")
        edges.append(Edge(
            src=src,
            dst=dst,
            protocol_tag=_check_identifier(ed.get("protocol_tag", "tcp"), f"{path}.edges[{i}].protocol_tag"),
            bidirectional=_expect_bool(ed.get("bidirectional", True), f"{path}.edges[{i}].bidirectional"),
        ))
    vulns = []
    for i, raw_vuln in enumerate(_expect_list(d.get("vulnerabilities", []), f"{path}.vulnerabilities")):
        vp = f"{path}.vulnerabilities[{i}]"
        vd = _expect_dict(raw_vuln, vp)
        _reject_unknown(vd, {"id", "technique_tag", "access_requirement",
                             "success_prob", "detection_prob", "gained_privilege"}, vp)
        vulns.append(Vulnerability(
            id=_check_identifier(_require(vd, "id", vp), f"{vp}.id"),
            technique_tag=_check_identifier(_require(vd, "technique_tag", vp), f"{vp}.technique_tag"),
            access_requirement=_parse_enum(AccessRequirement, _require(vd, "access_requirement", vp), f"{vp}.access_requirement"),
            success_prob=_expect_fraction(_require(vd, "success_prob", vp), f"{vp}.success_prob"),
            detection_prob=_expect_fraction(_require(vd, "detection_prob", vp), f"{vp}.detection_prob"),
            gained_privilege=_parse_enum(Privilege, _require(vd, "gained_privilege", vp), f"{vp}.gained_privilege"),
        ))
    creds = []
    for i, raw_cred in enumerate(_expect_list(d.get("credentials", []), f"{path}.credentials")):
        cp = f"{path}.credentials[{i}]"
        cd = _expect_dict(raw_cred, cp)
        _reject_unknown(cd, {"id", "stored_on", "grants_access_to"}, cp)
        grants = tuple(
            _check_identifier(g, f"{cp}.grants_access_to")
            for g in _expect_list(_require(cd, "grants_access_to", cp), f"{cp}.grants_access_to")
        )
        if not grants:
            raise InvariantViolation(f"{cp}.grants_access_to", "must be non-empty")
        creds.append(Credential(
            id=_check_identifier(_require(cd, "id", cp), f"{cp}.id"),
            stored_on=_check_identifier(_require(cd, "stored_on", cp), f"{cp}.stored_on"),
            grants_access_to=grants,
        ))
    topo = NetworkTopology(
        nodes=nodes,
        edges=tuple(edges),
        zones=tuple(
            _check_identifier(z, f"{path}.zones")
            for z in _expect_list(_require(d, "zones", path), f"{path}.zones")
        ),
        vulnerabilities=tuple(vulns),
        credentials=tuple(creds),
    )
    return topo


def _parse_recipe(raw, path: str) -> TopologyRecipe:
    d = _expect_dict(raw, path)
    allowed = {"node_counts", "zone_count", "intra_zone_density",
               "inter_zone_gateways", "vuln_rate", "credential_rate"}
    _reject_unknown(d, allowed, path)
    counts_raw = _expect_dict(_require(d, "node_counts", path), f"{path}.node_counts")
    counts = []
    for key, value in counts_raw.items():
        cls = _parse_enum(NodeClass, key, f"{path}.node_counts")
        counts.append((cls, _expect_int(value, f"{path}.node_counts.{key}")))
    counts.sort(key=lambda pair: pair[0].value)
    return TopologyRecipe(
        node_counts=tuple(counts),
        zone_count=_expect_int(_require(d, "zone_count", path), f"{path}.zone_count"),
        intra_zone_density=_expect_fraction(_require(d, "intra_zone_density", path), f"{path}.intra_zone_density"),
        inter_zone_gateways=_expect_int(_require(d, "inter_zone_gateways", path), f"{path}.inter_zone_gateways"),
        vuln_rate=_expect_fraction(_require(d, "vuln_rate", path), f"{path}.vuln_rate"),
        credential_rate=_expect_fraction(_require(d, "credential_rate", path), f"{path}.credential_rate"),
    )


def reference_parse_scenario(document: str) -> ScenarioSpec:
    """Parse a scenario document (canonical JSON, schema version "1").

    Unknown fields anywhere in the document are rejected with UnknownField.
    """
    raw = load_json_object(document)
    sections = ("schema_version", "domain_context", "problem_decomposition",
                "scenario_parameters", "objectives", "elements")
    _reject_unknown(raw, set(sections), "")
    for section in sections:
        if section not in raw:
            raise MissingSection(section)

    version = _expect_text(raw["schema_version"], "schema_version")

    ctx_raw = _expect_dict(raw["domain_context"], "domain_context")
    _reject_unknown(ctx_raw, {"domain_tag", "narrative"}, "domain_context")
    context = DomainContext(
        domain_tag=_check_identifier(_require(ctx_raw, "domain_tag", "domain_context"), "domain_context.domain_tag"),
        narrative=_expect_text(_require(ctx_raw, "narrative", "domain_context"), "domain_context.narrative"),
    )

    subs = []
    for i, raw_sub in enumerate(_expect_list(raw["problem_decomposition"], "problem_decomposition")):
        sp = f"problem_decomposition[{i}]"
        sd = _expect_dict(raw_sub, sp)
        _reject_unknown(sd, {"id", "description", "related_asset_classes"}, sp)
        subs.append(SubProblem(
            id=_check_identifier(_require(sd, "id", sp), f"{sp}.id"),
            description=_expect_text(_require(sd, "description", sp), f"{sp}.description"),
            related_asset_classes=tuple(
                _parse_enum(NodeClass, c, f"{sp}.related_asset_classes")
                for c in _expect_list(_require(sd, "related_asset_classes", sp), f"{sp}.related_asset_classes")
            ),
        ))

    params_raw = _expect_dict(raw["scenario_parameters"], "scenario_parameters")
    _reject_unknown(params_raw, {"recipe", "explicit_topology"}, "scenario_parameters")
    if ("recipe" in params_raw) == ("explicit_topology" in params_raw):
        raise InvariantViolation(
            "scenario_parameters", "exactly one of recipe / explicit_topology"
        )
    if "recipe" in params_raw:
        params = ScenarioParameters(recipe=_parse_recipe(params_raw["recipe"], "scenario_parameters.recipe"))
    else:
        params = ScenarioParameters(
            explicit_topology=_parse_topology(params_raw["explicit_topology"], "scenario_parameters.explicit_topology")
        )

    objectives = []
    for i, raw_obj in enumerate(_expect_list(raw["objectives"], "objectives")):
        op = f"objectives[{i}]"
        od = _expect_dict(raw_obj, op)
        _reject_unknown(od, {"actor", "kind", "target", "threshold"}, op)
        objectives.append(Objective(
            actor=_parse_enum(Actor, _require(od, "actor", op), f"{op}.actor"),
            kind=_parse_enum(ObjectiveKind, _require(od, "kind", op), f"{op}.kind"),
            target=_parse_selector(_require(od, "target", op), f"{op}.target"),
            threshold=_expect_fraction(_require(od, "threshold", op), f"{op}.threshold"),
        ))
    if not objectives:
        raise InvariantViolation("objectives", "must be non-empty")

    el_raw = _expect_dict(raw["elements"], "elements")
    _reject_unknown(el_raw, {"asset_classes", "threat_actors", "capability_refs"}, "elements")
    elements = Elements(
        asset_classes=tuple(
            _parse_enum(NodeClass, c, "elements.asset_classes")
            for c in _expect_list(_require(el_raw, "asset_classes", "elements"), "elements.asset_classes")
        ),
        threat_actors=tuple(
            _check_identifier(a, "elements.threat_actors")
            for a in _expect_list(_require(el_raw, "threat_actors", "elements"), "elements.threat_actors")
        ),
        capability_refs=tuple(
            _check_identifier(r, "elements.capability_refs")
            for r in _expect_list(_require(el_raw, "capability_refs", "elements"), "elements.capability_refs")
        ),
    )

    return ScenarioSpec(
        schema_version=version,
        domain_context=context,
        problem_decomposition=tuple(subs),
        scenario_parameters=params,
        objectives=tuple(objectives),
        elements=elements,
    )


# The readers of requirement, capability, strategy and path files as they
# were before the same change, kept verbatim on the reference helpers above.

def reference_parse_requirement(document: str) -> Requirement:
    raw = load_json_object(document)
    _reject_unknown(raw, {"domain_tag", "narrative", "constraints"}, "")
    cd = _expect_dict(_require(raw, "constraints", ""), "constraints")
    _reject_unknown(cd, {"max_nodes", "required_classes", "attacker_profile",
                         "target_class"}, "constraints")
    constraints = Constraints(
        max_nodes=_expect_int(_require(cd, "max_nodes", "constraints"), "constraints.max_nodes"),
        required_classes=tuple(
            _parse_enum(NodeClass, c, "constraints.required_classes")
            for c in _expect_list(_require(cd, "required_classes", "constraints"), "constraints.required_classes")
        ),
        attacker_profile=_parse_enum(AttackerProfile, _require(cd, "attacker_profile", "constraints"), "constraints.attacker_profile"),
        target_class=_parse_enum(NodeClass, _require(cd, "target_class", "constraints"), "constraints.target_class"),
    )
    return Requirement(
        domain_tag=_check_identifier(_require(raw, "domain_tag", ""), "domain_tag"),
        narrative=_expect_text(_require(raw, "narrative", ""), "narrative"),
        constraints=constraints,
    )


_PREDICATE_FIELDS = {
    PredicateKind.ACTOR_HAS_FOOTHOLD: {"slot", "min_privilege"},
    PredicateKind.EDGE_EXISTS: {"slot", "src_slot"},
    PredicateKind.NODE_HAS_VULN_WITH_ACCESS: {"slot", "access"},
    PredicateKind.CREDENTIAL_HELD: {"slot"},
    PredicateKind.DEFENSE_ABSENT: {"slot", "defense"},
    PredicateKind.DEFENSE_PRESENT: {"slot", "defense"},
    PredicateKind.NODE_CLASS_IS: {"slot", "node_classes"},
    PredicateKind.NODE_NOT_COMPROMISED: {"slot"},
    PredicateKind.NODE_ASSET_VALUE_AT_LEAST: {"slot", "min_asset_value"},
}

_EFFECT_FIELDS = {
    EffectKind.COMPROMISE: {"slot", "privilege"},
    EffectKind.GAIN_CREDENTIALS: {"slot"},
    EffectKind.DEPLOY: {"slot", "defense"},
    EffectKind.RAISE_ALARM: {"slot"},
    EffectKind.TRAP_ACTOR: {"duration_rounds"},
    EffectKind.NULLIFY_CREDENTIAL_THEFT: {"slot"},
    EffectKind.REVEAL_VULNERABILITIES: {"slot"},
}


def _parse_predicate(raw, path: str) -> Predicate:
    d = _expect_dict(raw, path)
    kind = _parse_enum(PredicateKind, _require(d, "predicate", path), f"{path}.predicate")
    _reject_unknown(d, {"predicate"} | _PREDICATE_FIELDS[kind], path)
    kwargs: dict = {"kind": kind}
    if "slot" in d:
        kwargs["slot"] = _check_identifier(d["slot"], f"{path}.slot")
    if kind == PredicateKind.EDGE_EXISTS:
        kwargs["src_slot"] = _check_identifier(_require(d, "src_slot", path), f"{path}.src_slot")
    if kind == PredicateKind.NODE_HAS_VULN_WITH_ACCESS:
        kwargs["access"] = _parse_enum(AccessRequirement, _require(d, "access", path), f"{path}.access")
    if kind in (PredicateKind.DEFENSE_ABSENT, PredicateKind.DEFENSE_PRESENT):
        kwargs["defense"] = _parse_enum(DefenseKind, _require(d, "defense", path), f"{path}.defense")
    if kind == PredicateKind.NODE_CLASS_IS:
        kwargs["node_classes"] = tuple(
            _parse_enum(NodeClass, c, f"{path}.node_classes")
            for c in _expect_list(_require(d, "node_classes", path), f"{path}.node_classes")
        )
    if kind == PredicateKind.ACTOR_HAS_FOOTHOLD and "min_privilege" in d:
        kwargs["min_privilege"] = _parse_enum(Privilege, d["min_privilege"], f"{path}.min_privilege")
    if kind == PredicateKind.NODE_ASSET_VALUE_AT_LEAST:
        kwargs["min_asset_value"] = _expect_int(_require(d, "min_asset_value", path), f"{path}.min_asset_value")
    return Predicate(**kwargs)


def _parse_effect(raw, path: str) -> Effect:
    d = _expect_dict(raw, path)
    kind = _parse_enum(EffectKind, _require(d, "effect", path), f"{path}.effect")
    _reject_unknown(d, {"effect"} | _EFFECT_FIELDS[kind], path)
    kwargs: dict = {"kind": kind}
    if "slot" in d:
        kwargs["slot"] = _check_identifier(d["slot"], f"{path}.slot")
    if kind == EffectKind.COMPROMISE:
        kwargs["privilege"] = _parse_enum(Privilege, _require(d, "privilege", path), f"{path}.privilege")
    if kind == EffectKind.DEPLOY:
        kwargs["defense"] = _parse_enum(DefenseKind, _require(d, "defense", path), f"{path}.defense")
    if kind == EffectKind.TRAP_ACTOR:
        duration = _expect_int(_require(d, "duration_rounds", path), f"{path}.duration_rounds")
        if duration < 1:
            raise InvariantViolation(f"{path}.duration_rounds", "must be >= 1")
        kwargs["duration_rounds"] = duration
    return Effect(**kwargs)


def reference_parse_capability(document: str) -> AtomicCapability:
    raw = load_json_object(document)
    allowed = {"id", "kind", "name", "technique_tag", "preconditions", "effects",
               "base_success_prob", "detection_prob", "cost_units", "interface_version"}
    _reject_unknown(raw, allowed, "")
    version = _expect_text(_require(raw, "interface_version", ""), "interface_version")
    if version != INTERFACE_VERSION:
        raise UnsupportedInterfaceVersion(
            f"capability file declares {version!r}, expected {INTERFACE_VERSION!r}"
        )
    return AtomicCapability(
        id=_check_identifier(_require(raw, "id", ""), "id"),
        kind=_parse_enum(CapabilityKind, _require(raw, "kind", ""), "kind"),
        name=_expect_text(_require(raw, "name", ""), "name"),
        technique_tag=_check_identifier(_require(raw, "technique_tag", ""), "technique_tag"),
        preconditions=tuple(
            _parse_predicate(p, f"preconditions[{i}]")
            for i, p in enumerate(_expect_list(raw.get("preconditions", []), "preconditions"))
        ),
        effects=tuple(
            _parse_effect(e, f"effects[{i}]")
            for i, e in enumerate(_expect_list(raw.get("effects", []), "effects"))
        ),
        base_success_prob=_expect_fraction(_require(raw, "base_success_prob", ""), "base_success_prob"),
        detection_prob=_expect_fraction(_require(raw, "detection_prob", ""), "detection_prob"),
        cost_units=_expect_int(_require(raw, "cost_units", ""), "cost_units"),
    )


def reference_parse_strategy(document: str) -> List[Tuple[str, str]]:
    """Strategy file: {"capability_placements": [{"capability_id", "target_node"}]}.
    Returns raw pairs; callers run compose_strategy for validation."""
    raw = load_json_object(document)
    _reject_unknown(raw, {"capability_placements"}, "")
    pairs: List[Tuple[str, str]] = []
    for i, item in enumerate(_expect_list(_require(raw, "capability_placements", ""), "capability_placements")):
        path = f"capability_placements[{i}]"
        d = _expect_dict(item, path)
        _reject_unknown(d, {"capability_id", "target_node"}, path)
        pairs.append((
            _check_identifier(_require(d, "capability_id", path), f"{path}.capability_id"),
            _check_identifier(_require(d, "target_node", path), f"{path}.target_node"),
        ))
    return pairs


def reference_parse_paths(document: str) -> List[AttackPath]:
    raw = load_json_object(document)
    _reject_unknown(raw, {"paths"}, "")
    paths: List[AttackPath] = []
    for i, item in enumerate(_expect_list(_require(raw, "paths", ""), "paths")):
        path = f"paths[{i}]"
        d = _expect_dict(item, path)
        _reject_unknown(d, {"steps", "success_prob", "total_cost"}, path)
        steps = []
        for j, raw_step in enumerate(_expect_list(_require(d, "steps", path), f"{path}.steps")):
            sp = f"{path}.steps[{j}]"
            sd = _expect_dict(raw_step, sp)
            _reject_unknown(sd, {"source", "capability_id", "target", "step_prob", "step_cost"}, sp)
            steps.append(AttackStep(
                source=_check_identifier(_require(sd, "source", sp), f"{sp}.source"),
                capability_id=_check_identifier(_require(sd, "capability_id", sp), f"{sp}.capability_id"),
                target=_check_identifier(_require(sd, "target", sp), f"{sp}.target"),
                step_prob=_expect_fraction(_require(sd, "step_prob", sp), f"{sp}.step_prob"),
                step_cost=_expect_int(_require(sd, "step_cost", sp), f"{sp}.step_cost"),
            ))
        paths.append(AttackPath(
            steps=tuple(steps),
            success_prob=_expect_fraction(_require(d, "success_prob", path), f"{path}.success_prob"),
            total_cost=_expect_int(_require(d, "total_cost", path), f"{path}.total_cost"),
        ))
    return paths


# ---------------------------------------------------------------------------
# DOT reader
# ---------------------------------------------------------------------------

# DOT's quoted-string rule: a backslash and the character after it are one
# unit, so ``\"`` is a quote inside the string and ``\\`` cannot end it; a
# bare ``"`` ends it. Inside, ``\"`` reads as ``"`` and every other character
# stays as written.
_DOT_TOKEN = re.compile(r'\s+|"((?:[^"\\]|\\.)*)"|->|[{}\[\]=;,]|[A-Za-z0-9_.]+', re.DOTALL)


def _dot_tokens(text: str) -> List[Tuple[str, str]]:
    """(kind, value) tokens: kind "id" for a bare or quoted id (a quoted one
    unescaped by the rule above), else the punctuation itself."""
    tokens, pos = [], 0
    while pos < len(text):
        match = _DOT_TOKEN.match(text, pos)
        assert match, f"no DOT token at {text[pos:pos + 20]!r}"
        pos = match.end()
        if match.group(1) is not None:
            tokens.append(("id", match.group(1).replace('\\"', '"')))
        elif not match.group(0).isspace():
            token = match.group(0)
            tokens.append(("id", token) if token[0].isalnum() or token[0] in "_." else (token, token))
    return tokens


def label_text(label: str) -> str:
    r"""What Graphviz draws for a label: ``\\`` is a backslash, ``\n`` a line
    break."""
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), label)


def read_dot(text: str) -> dict:
    """The statements of a ``digraph`` as Graphviz reads them: its clusters
    as (id, label, names of the nodes stated in it), its node statements as
    (name, attributes) and its edge statements as (src, dst, attributes),
    each in text order."""
    tokens = _dot_tokens(text)
    pos = 0

    def take(kind: Optional[str] = None) -> str:
        nonlocal pos
        got_kind, value = tokens[pos]
        assert kind is None or got_kind == kind, (kind, tokens[pos])
        pos += 1
        return value

    def attributes() -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        if pos < len(tokens) and tokens[pos][0] == "[":
            take("[")
            while tokens[pos][0] != "]":
                key = take("id")
                take("=")
                attrs[key] = take("id")
                if tokens[pos][0] == ",":
                    take(",")
            take("]")
        return attrs

    assert take("id") == "digraph"
    graph: dict = {"name": take("id"), "clusters": [], "nodes": [], "edges": []}
    take("{")
    open_clusters: List[list] = []
    while True:
        kind, value = tokens[pos]
        if kind == "}":
            take("}")
            if not open_clusters:
                break
            graph["clusters"].append(tuple(open_clusters.pop()))
        elif kind == "id" and value == "subgraph":
            take()
            open_clusters.append([take("id"), None, []])
            take("{")
        elif kind == "id" and tokens[pos + 1][0] == "=":
            key = take("id")
            take("=")
            value = take("id")
            if key == "label" and open_clusters:
                open_clusters[-1][1] = value
        elif kind == "id" and tokens[pos + 1][0] == "->":
            src = take("id")
            take("->")
            dst = take("id")
            graph["edges"].append((src, dst, attributes()))
        else:
            name = take("id")
            graph["nodes"].append((name, attributes()))
            if open_clusters:
                open_clusters[-1][2].append(name)
    assert pos == len(tokens), f"text after the graph: {tokens[pos:pos + 5]}"
    return graph


# ---------------------------------------------------------------------------
# reference DOT export
# ---------------------------------------------------------------------------

# ``exports.export_dot`` as it was before it grouped the nodes by zone in
# one pass and sorted the edge lines once, kept verbatim.

def _reference_cluster_id(zone: str) -> str:
    return "cluster_" + re.sub(r"[^0-9A-Za-z_]", "_", zone)


def reference_export_dot(topology: NetworkTopology,
                         highlighted_paths: Optional[Iterable[AttackPath]] = None) -> str:
    paths = list(highlighted_paths or [])
    node_ids = {n.id for n in topology.nodes}
    hot: set = set()
    external_edges: set = set()
    for path in paths:
        for step in path.steps:
            if step.target not in node_ids:
                raise UnknownPathNode(f"path references unknown node {step.target!r}")
            if step.source == EXTERNAL:
                external_edges.add((EXTERNAL, step.target))
            else:
                if step.source not in node_ids:
                    raise UnknownPathNode(f"path references unknown node {step.source!r}")
                hot.add((step.source, step.target))

    lines: List[str] = ["digraph spidersim {"]
    if external_edges:
        lines.append('  "EXTERNAL" [shape=diamond]')
    for zone in sorted(topology.zones):
        members = sorted((n for n in topology.nodes if n.zone == zone), key=lambda n: n.id)
        lines.append(f"  subgraph {_reference_cluster_id(zone)} {{")
        lines.append(f'    label="{zone}"')
        for node in members:
            lines.append(f'    "{node.id}" [label="{node.id}\\n{node.node_class.value}"]')
        lines.append("  }")

    edge_lines: List[Tuple[str, str, str]] = []
    for edge in sorted(topology.edges, key=lambda e: (e.src, e.dst, e.protocol_tag)):
        highlighted = (edge.src, edge.dst) in hot or (
            edge.bidirectional and (edge.dst, edge.src) in hot
        )
        suffix = ' [color="red", penwidth=2]' if highlighted else ""
        edge_lines.append((edge.src, edge.dst, f'  "{edge.src}" -> "{edge.dst}"{suffix}'))
    for src, dst in sorted(external_edges):
        edge_lines.append((src, dst, f'  "{src}" -> "{dst}" [color="red", penwidth=2]'))
    edge_lines.sort(key=lambda item: (item[0], item[1]))
    lines.extend(text for _, _, text in edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference round loop
# ---------------------------------------------------------------------------

def selector_matches(selector: TargetSelector, node: Node) -> bool:
    """Whether ``selector`` picks ``node``, decided on the node alone."""
    if selector.node_id is not None:
        return node.id == selector.node_id
    return node.node_class == selector.node_class


def matching_nodes(topology: NetworkTopology, selector: TargetSelector) -> List[str]:
    """The ids a scan over every node finds, in node order, once per
    node: what ``NetworkTopology.select`` answers from its indexes
    wherever no id repeats."""
    return [n.id for n in topology.nodes if selector_matches(selector, n)]


def reference_play(spec: ScenarioSpec, strategy: DefenseStrategy,
                   registry: CapabilityRegistry, config
                   ) -> Tuple[Tuple[SimEvent, ...], SimulationState]:
    """What ``engine._play`` must return: the events and final state of
    ``reference_rounds``."""
    events, state, _ = reference_rounds(spec, strategy, registry, config)
    return events, state


def reference_rounds(spec: ScenarioSpec, strategy: DefenseStrategy,
                     registry: CapabilityRegistry, config
                     ) -> Tuple[Tuple[SimEvent, ...], SimulationState, bool]:
    """The round loop that calls the public ``step_round`` every round, so
    every round enumerates the attacker's actions afresh, and checks the
    objectives after every round: its events, its final state, and
    whether it stopped on that objective check."""
    topology = resolve_topology(spec, registry, config.seed)
    state = deploy_strategy(fresh_state(topology), strategy, registry)
    rng = substream(config.seed, "simulation")

    attacker_objectives = [
        (o, matching_nodes(topology, o.target)) for o in spec.objectives
        if o.actor == Actor.ATTACKER
    ]
    events: List[SimEvent] = []
    idle_rounds = 0
    detected_any = False

    for _ in range(config.max_rounds):
        trapped = state.trapped_until > state.round + 1
        state, round_events = step_round(state, registry, config, rng)
        events.extend(round_events)
        attacker_acted = any(e.actor == Actor.ATTACKER for e in round_events)
        detected_any = detected_any or any(
            e.actor == Actor.ATTACKER and e.success and e.detected
            for e in round_events
        )
        if attacker_acted or trapped:
            idle_rounds = 0
        else:
            idle_rounds += 1
            if idle_rounds >= STALL_ROUNDS:
                break
        compromised = state.compromise
        if attacker_objectives and all(
            _objective_met(o, len(matching), sum(nid in compromised for nid in matching),
                           detected_any)
            for o, matching in attacker_objectives
        ):
            return tuple(events), state, True
    return tuple(events), state, False


# ---------------------------------------------------------------------------
# reference metrics: the two-rule, five-scan computation the engine's
# one-pass ``compute_metrics`` replaced, kept as written
# ---------------------------------------------------------------------------

def _reference_compromise_rounds(trace, registry: CapabilityRegistry) -> Dict[str, int]:
    """The round each finally-compromised node was compromised: the first
    successful attack on it whose capability has a compromise effect on
    target, or round 0 when none targeted it (it was compromised before
    round 1). Every built-in compromising capability refuses a
    compromised target, so no later attack re-dates a node.
    """
    compromised = trace.final_state.compromise
    rounds: Dict[str, int] = {}
    for event in trace.events:
        if event.actor != Actor.ATTACKER or not event.success:
            continue
        compromising = any(eff.kind == EffectKind.COMPROMISE and eff.slot == "target"
                           for eff in registry.get(event.capability_id).effects)
        if compromising and event.target in compromised and event.target not in rounds:
            rounds[event.target] = event.round
    return {nid: rounds.get(nid, 0) for nid in compromised}


def reference_compute_metrics(trace, objectives: Tuple[Objective, ...],
                              registry: CapabilityRegistry) -> Metrics:
    """Objective-level outcome measures for one trace; ``attacker_cost_spent``
    sums the registry's costs of the attacker's actions."""
    topology = trace.final_state.topology
    total_nodes = len(topology.nodes)
    compromised = trace.final_state.compromise
    compromised_fraction = len(compromised) / total_nodes if total_nodes else 0.0

    detected_any = any(
        e.actor == Actor.ATTACKER and e.success and e.detected for e in trace.events
    )
    first_rounds = _reference_compromise_rounds(trace, registry)

    met: List[Tuple[int, bool]] = []
    first_objective_round: Optional[int] = None
    final_round = trace.final_state.round

    for i, objective in enumerate(objectives):
        matching = topology.select(objective.target)
        if objective.kind == ObjectiveKind.COMPROMISE:
            # Met in the round of the shortest prefix of the hit rounds that
            # meets it; the empty prefix stands for round 0.
            hit_rounds = sorted(first_rounds[nid] for nid in matching if nid in compromised)
            met_round = next(
                (r for hit, r in enumerate([0, *hit_rounds])
                 if _objective_met(objective, len(matching), hit, detected_any)),
                None,
            )
            is_met = met_round is not None
        else:
            hit = sum(nid in compromised for nid in matching)
            is_met = _objective_met(objective, len(matching), hit, detected_any)
            if not is_met:
                met_round = None
            elif objective.kind == ObjectiveKind.DETECT:
                met_round = min(e.round for e in trace.events
                                if e.actor == Actor.ATTACKER and e.success and e.detected)
            else:  # protect: monotone, so the final-state check covers all rounds
                met_round = final_round if matching else 0
        met.append((i, is_met))
        if objective.actor == Actor.ATTACKER and is_met:
            if first_objective_round is None or met_round < first_objective_round:
                first_objective_round = met_round

    detection_count = sum(
        1 for e in trace.events if e.actor == Actor.ATTACKER and e.detected
    )
    cost = sum(
        registry.get(e.capability_id).cost_units
        for e in trace.events if e.actor == Actor.ATTACKER
    )

    return Metrics(
        objectives_met=tuple(met),
        time_to_first_objective=first_objective_round,
        compromised_fraction=compromised_fraction,
        detection_count=detection_count,
        attacker_cost_spent=cost,
    )
