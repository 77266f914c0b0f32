"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive expected results from first
principles (explicit enumeration, hand-coded hop rules) rather than
calling back into the library, so they can catch algorithmic mistakes.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from spidersim import (
    AccessRequirement,
    Actor,
    AtomicCapability,
    CapabilityKind,
    Credential,
    Edge,
    NetworkTopology,
    Node,
    NodeClass,
    Objective,
    ObjectiveKind,
    Privilege,
    ScenarioSpec,
    TargetSelector,
    TopologyRecipe,
    Vulnerability,
    built_in_registry,
)
from spidersim.capabilities import (
    CapabilityRegistry,
    Predicate,
    PredicateKind,
    PreconditionResult,
)
from spidersim.errors import EmptyRecipe, InsufficientGateways, UnboundSlot
from spidersim.state import SimulationState
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


def path_to_oracle_steps(path) -> Tuple[OracleStep, ...]:
    return tuple(
        (s.source, s.capability_id, s.target, s.step_prob, s.step_cost)
        for s in path.steps
    )


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
        return (node_id in state.footholds
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
        return pred.defense not in state.defenses_on(node_id)
    if pred.kind == PredicateKind.DEFENSE_PRESENT:
        return pred.defense in state.defenses_on(node_id)
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
                                     binding: Dict[str, str]) -> PreconditionResult:
    """What ``evaluate_preconditions`` must return: the preconditions in
    declaration order, the first that fails reported, and ``UnboundSlot``
    for a slot the binding lacks once a predicate reading it is reached."""
    for pred in cap.preconditions:
        if not _reference_predicate(pred, state, binding, cap.id):
            return PreconditionResult(holds=False, first_failed=pred)
    return PreconditionResult(holds=True)


# ---------------------------------------------------------------------------
# exhaustive action-enumeration oracle
# ---------------------------------------------------------------------------

def oracle_applicable_capabilities(registry: CapabilityRegistry,
                                   state: SimulationState, actor: str,
                                   binding_domain: Iterable[str]
                                   ) -> List[Tuple[AtomicCapability, Dict[str, str]]]:
    """Every (capability, binding) whose preconditions hold, found by
    trying every (source, target) pair of the domain with the reference
    interpreter, sorted by cost, capability id, target id, then source
    id."""
    kind = CapabilityKind.ATTACK if actor == "attacker" else CapabilityKind.DEFENSE
    domain = sorted(set(binding_domain))
    out: List[Tuple[AtomicCapability, Dict[str, str]]] = []
    caps = sorted(registry.by_kind(kind), key=lambda c: (c.cost_units, c.id))
    for cap in caps:
        needs_source = "source" in cap.slots()
        for target in domain:
            if needs_source:
                for source in domain:
                    if source == target:
                        continue
                    binding = {"target": target, "source": source}
                    if reference_evaluate_preconditions(cap, state, binding).holds:
                        out.append((cap, binding))
            else:
                binding = {"target": target}
                if reference_evaluate_preconditions(cap, state, binding).holds:
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
