"""Attack path enumeration, reachability, and greedy placement.

Paths are a static, pre-simulation view: a hop is realizable when the
topology alone supports it (an edge plus either an exploitable
vulnerability on the hop target or a credential granting access to it).
An exploit hop is scored with the vulnerability that
``capabilities.select_vulnerability`` picks, the one the engine rolls
against.
Entry nodes reached from outside get a first step from the distinguished
EXTERNAL token when an entry-class capability (phishing) applies to them;
otherwise the entry node itself is treated as an assumed foothold and the
path starts there.

The search works on hops, plain ``(target, capability_id, step_prob,
step_cost)`` tuples memoised per source node; a hop's source is the
target of the hop before it (the entry node, or EXTERNAL for an entry
step). ``AttackStep`` records are built only for the paths returned.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .capabilities import CapabilityRegistry, select_vulnerability
from .errors import (
    InvalidQueryBound,
    TargetSelectorEmpty,
    UnknownEntryNode,
)
from .model import EXTERNAL, NetworkTopology, TargetSelector
from .records import record
from .state import DefenseKind

Hop = Tuple[str, str, float, int]  # (target, capability_id, step_prob, step_cost)


@record
class AttackStep:
    source: str  # node id or EXTERNAL
    capability_id: str
    target: str
    step_prob: float
    step_cost: int


@record
class AttackPath:
    steps: Tuple[AttackStep, ...]
    success_prob: float
    total_cost: int


@record
class PathQuery:
    entries: Tuple[str, ...]
    target: TargetSelector
    k: Optional[int] = None  # None means unbounded
    max_len: int = 8

    def __post_init__(self):
        if not self.entries:
            raise TargetSelectorEmpty("query needs at least one entry node")
        if self.k is not None and self.k < 1:
            raise InvalidQueryBound("k must be >= 1")
        if self.max_len < 1:
            raise InvalidQueryBound("max_len must be >= 1")
        # An entry listed twice would start the same paths twice.
        object.__setattr__(self, "entries", tuple(dict.fromkeys(self.entries)))


class _HopTable:
    """The hop rule of one (topology, registry) pair. The exploit, lateral
    and entry capabilities are the registry's ``path_capabilities``, read
    through the rule the engine enumerates with, and the set of
    credential-granted nodes is resolved once; the option for
    each target and the hops out of each node are memoised on first use.
    A hop is a plain ``(target, capability_id, step_prob, step_cost)``
    tuple: it leaves out its source, so one tuple serves every path
    through it."""

    def __init__(self, topology: NetworkTopology, registry: CapabilityRegistry):
        self._topology = topology
        self._exploit, self._lateral, self._entry = registry.path_capabilities
        self._granted = frozenset(target for cred in topology.credentials
                                  for target in cred.grants_access_to)
        self._options: Dict[str, Optional[Tuple[str, float, int]]] = {}
        self._hops: Dict[str, Tuple[Hop, ...]] = {}

    def option(self, target: str) -> Optional[Tuple[str, float, int]]:
        if target not in self._options:
            self._options[target] = self._resolve(target)
        return self._options[target]

    def _resolve(self, target: str) -> Optional[Tuple[str, float, int]]:
        options: List[Tuple[float, int, str]] = []
        exploit = self._exploit
        if exploit is not None:
            vuln = select_vulnerability(self._topology, target,
                                        exploit.binding_rule.vuln_access)
            if vuln is not None:
                options.append((vuln.success_prob, exploit.cost_units, exploit.id))
        lateral = self._lateral
        if lateral is not None and target in self._granted:
            options.append((lateral.base_success_prob, lateral.cost_units, lateral.id))
        if not options:
            return None
        prob, cost, cap_id = min(options, key=lambda o: (-o[0], o[1], o[2]))
        return cap_id, prob, cost

    def hops_from(self, node: str) -> Tuple[Hop, ...]:
        """The realizable hops out of ``node`` onto other nodes of the
        topology, in target-id order."""
        if node not in self._hops:
            hops = []
            for nbr in self._topology.out_neighbours(node):
                option = None if self._topology.node_by_id(nbr) is None else self.option(nbr)
                if option is not None:
                    hops.append((nbr, *option))
            self._hops[node] = tuple(hops)
        return self._hops[node]

    def entry_hop(self, entry: str) -> Optional[Hop]:
        """The hop from EXTERNAL onto ``entry``, or None."""
        cap = self._entry
        if cap is None:
            return None
        node = self._topology.node_by_id(entry)
        if node is None or node.node_class not in cap.binding_rule.target_classes:
            return None
        return entry, cap.id, cap.base_success_prob, cap.cost_units


def hop_option(topology: NetworkTopology, registry: CapabilityRegistry,
               target: str) -> Optional[Tuple[str, float, int]]:
    """Best (capability_id, prob, cost) realizing a hop onto ``target``
    from an adjacent foothold, or None. Ties between exploit and lateral
    movement go to the higher step probability, then lower cost, then
    capability id."""
    return _HopTable(topology, registry).option(target)


def _check_entries(topology: NetworkTopology, entries: Iterable[str]) -> None:
    for entry in entries:
        if topology.node_by_id(entry) is None:
            raise UnknownEntryNode(f"no node {entry!r} in topology")


def enumerate_attack_paths(topology: NetworkTopology, registry: CapabilityRegistry,
                           query: PathQuery) -> List[AttackPath]:
    """The simple attack paths from the query entries to the target
    selector of at most ``max_len`` steps, best first, the first k of them
    (all when k is None).

    The order is total: success probability descending, then fewer steps,
    then the target-id sequence, then the entry node. A best-first search
    over partial paths yields them in exactly that order. Every step
    probability lies in [0, 1] and a path's probability is the product of
    its steps taken left to right (as ``math.prod`` does), so extending a
    partial path never makes its key smaller; a path is therefore final
    when it is popped, and the search stops once it has k of them.
    """
    _check_entries(topology, query.entries)
    targets = frozenset(topology.select(query.target))
    if not targets:
        raise TargetSelectorEmpty("target selector matches no node")
    table = _HopTable(topology, registry)

    # (-prob, hops taken, target ids, entry, prob, hops). An entry and its
    # target ids fix a partial path's hops, so the first four fields
    # already differ between any two items and the hops are never compared.
    heap = []
    for entry in query.entries:
        first = table.entry_hop(entry)
        hops = () if first is None else (first,)
        prob = math.prod(hop[2] for hop in hops)
        heap.append((-prob, len(hops), tuple(hop[0] for hop in hops), entry, prob, hops))
    heapq.heapify(heap)

    found: List[AttackPath] = []
    while heap and len(found) != query.k:
        _, length, path_targets, entry, prob, hops = heapq.heappop(heap)
        node = path_targets[-1] if path_targets else entry
        if hops and node in targets:
            found.append(_attack_path(entry, hops, prob))
        if length >= query.max_len:
            continue
        for hop in table.hops_from(node):
            target = hop[0]
            if target == entry or target in path_targets:
                continue
            extended = prob * hop[2]
            heapq.heappush(heap, (-extended, length + 1, path_targets + (target,),
                                  entry, extended, hops + (hop,)))
    return found


def _attack_path(entry: str, hops: Tuple[Hop, ...], prob: float) -> AttackPath:
    # No hop out of a node targets the path's entry, so a first hop onto
    # the entry is the entry step from EXTERNAL.
    source = EXTERNAL if hops[0][0] == entry else entry
    steps = []
    for target, cap_id, step_prob, cost in hops:
        steps.append(AttackStep(source, cap_id, target, step_prob, cost))
        source = target
    return AttackPath(steps=tuple(steps), success_prob=prob,
                      total_cost=sum(hop[3] for hop in hops))


def reachable_set(topology: NetworkTopology, registry: CapabilityRegistry,
                  entries: Iterable[str]) -> Set[str]:
    """All nodes reachable by realizable attack hops from the entries,
    including the entries themselves."""
    entries = set(entries)
    _check_entries(topology, entries)
    table = _HopTable(topology, registry)
    reached = set(entries)
    frontier = list(entries)
    while frontier:
        for target, _, _, _ in table.hops_from(frontier.pop()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def _path_entry_node(path: AttackPath) -> str:
    first = path.steps[0]
    return first.target if first.source == EXTERNAL else first.source


def _path_nodes(path: AttackPath) -> Set[str]:
    nodes = set()
    for step in path.steps:
        if step.source != EXTERNAL:
            nodes.add(step.source)
        nodes.add(step.target)
    return nodes


def suggest_defense_placements(paths: List[AttackPath],
                               budget: int) -> List[Tuple[str, DefenseKind]]:
    """Greedy hitting set over the given paths: repeatedly place a
    shocktrap on the non-entry node covering the most not-yet-hit paths
    (ties: lexicographic node id), until the budget runs out or every
    path is hit."""
    remaining = list(range(len(paths)))
    candidates = [
        (_path_nodes(p) - {_path_entry_node(p)}) for p in paths
    ]
    placements: List[Tuple[str, DefenseKind]] = []
    while budget > 0 and remaining:
        counts: Dict[str, int] = {}
        for idx in remaining:
            for node in candidates[idx]:
                counts[node] = counts.get(node, 0) + 1
        if not counts:
            break
        # resolve ties lexicographically
        best_count = max(counts.values())
        best_node = min(node for node, c in counts.items() if c == best_count)
        placements.append((best_node, DefenseKind.SHOCKTRAP))
        remaining = [idx for idx in remaining if best_node not in candidates[idx]]
        budget -= 1
    return placements
