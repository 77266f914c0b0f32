"""Scenario schema, parsing, validation, and topology expansion.

A scenario document is canonical JSON (schema_version "1") with five
sections: domain_context, problem_decomposition, scenario_parameters,
objectives, and elements. ``scenario_parameters`` holds either a topology
recipe or an explicit topology, never both. Unknown fields are hard
errors: scenario files are security test fixtures and silent typos are
dangerous.
"""

from __future__ import annotations

import json
from collections import defaultdict
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .canonical import canonical_json
from .errors import (
    EmptyRecipe,
    InsufficientGateways,
    InvariantViolation,
    MalformedDocument,
    MissingSection,
    SpiderSimError,
    UnknownField,
)
from .records import record
from .rng import substream

SCHEMA_VERSION = "1"

# The source of an attack path's entry step, which lies outside the
# topology: no node may take this id (ReservedNodeId).
EXTERNAL = "EXTERNAL"


class NodeClass(str, Enum):
    SENSOR = "sensor"
    CONTROLLER = "controller"
    GATEWAY = "gateway"
    CAMERA_SERVER = "camera_server"
    MAINTENANCE_ENDPOINT = "maintenance_endpoint"
    WORKSTATION = "workstation"
    DATA_SERVER = "data_server"


class Actor(str, Enum):
    ATTACKER = "attacker"
    DEFENDER = "defender"


class ObjectiveKind(str, Enum):
    COMPROMISE = "compromise"
    PROTECT = "protect"
    DETECT = "detect"


class AccessRequirement(str, Enum):
    NETWORK = "network"
    ADJACENT = "adjacent"
    LOCAL = "local"


class Privilege(str, Enum):
    USER = "user"
    ADMIN = "admin"


# The members ``build_topology`` reads per node and per vulnerability, bound
# once: on Python 3.10 and 3.11 each ``Enum.MEMBER`` lookup goes through
# ``EnumType.__getattr__`` (from 3.12 on it is a plain class attribute read).
_GATEWAY = NodeClass.GATEWAY
_ADJACENT = AccessRequirement.ADJACENT
_USER = Privilege.USER
_ADMIN = Privilege.ADMIN


@record
class Service:
    name: str
    port: int


# Default services and asset value per node class, used by build_topology.
# Every node of a class shares its class's services tuple.
_CLASS_SERVICES: Dict[NodeClass, Tuple[Service, ...]] = {
    NodeClass.SENSOR: (Service("telemetry", 9000),),
    NodeClass.CONTROLLER: (Service("modbus", 502),),
    NodeClass.GATEWAY: (Service("routing", 443),),
    NodeClass.CAMERA_SERVER: (Service("rtsp", 554),),
    NodeClass.MAINTENANCE_ENDPOINT: (Service("ssh", 22),),
    NodeClass.WORKSTATION: (Service("smb", 445),),
    NodeClass.DATA_SERVER: (Service("db", 5432),),
}

_CLASS_ASSET_VALUE: Dict[NodeClass, int] = {
    NodeClass.SENSOR: 20,
    NodeClass.CONTROLLER: 90,
    NodeClass.GATEWAY: 50,
    NodeClass.CAMERA_SERVER: 60,
    NodeClass.MAINTENANCE_ENDPOINT: 40,
    NodeClass.WORKSTATION: 30,
    NodeClass.DATA_SERVER: 80,
}


@record
class Node:
    id: str
    node_class: NodeClass
    zone: str
    services: Tuple[Service, ...] = ()
    vulnerability_ids: Tuple[str, ...] = ()
    credential_ids: Tuple[str, ...] = ()
    asset_value: int = 0


@record
class Edge:
    src: str
    dst: str
    protocol_tag: str = "tcp"
    bidirectional: bool = True


@record
class Vulnerability:
    """``detection_prob`` is informational: an exploit's detection rolls
    against the capability's own probability."""

    id: str
    technique_tag: str
    access_requirement: AccessRequirement
    success_prob: float
    detection_prob: float
    gained_privilege: Privilege


@record
class Credential:
    id: str
    stored_on: str
    grants_access_to: Tuple[str, ...]


def index_by_id(items: Iterable) -> dict:
    """Index items by ``id``; where ids repeat, the first item wins."""
    index: dict = {}
    for item in items:
        index.setdefault(item.id, item)
    return index


@record
class NetworkTopology:
    """A concrete network. Lookups go through indexes built on first use
    and kept on the instance (the value is immutable, so they never go
    stale, and pickles leave them out). A node's neighbour sets are built
    on their first read, per node, from one pass over the edges that
    serves every node and both directions."""

    nodes: Tuple[Node, ...]
    edges: Tuple[Edge, ...]
    zones: Tuple[str, ...]
    # The spec types for vulnerabilities and credentials live alongside the
    # node list so predicates can resolve them without a second lookup table.
    vulnerabilities: Tuple[Vulnerability, ...] = ()
    credentials: Tuple[Credential, ...] = ()

    @cached_property
    def _nodes_by_id(self) -> Dict[str, Node]:
        return index_by_id(self.nodes)

    @cached_property
    def _vulnerabilities_by_id(self) -> Dict[str, Vulnerability]:
        return index_by_id(self.vulnerabilities)

    @cached_property
    def _credentials_by_id(self) -> Dict[str, Credential]:
        return index_by_id(self.credentials)

    @cached_property
    def node_ids(self) -> Tuple[str, ...]:
        """Every node id once, in id order."""
        return tuple(sorted(self._nodes_by_id))

    @cached_property
    def ids_by_asset_value(self) -> Tuple[str, ...]:
        """Node ids by descending asset value, then id: the order the
        reactive defender patches in (a repeated id once per node)."""
        return tuple(n.id for n in sorted(self.nodes, key=lambda n: (-n.asset_value, n.id)))

    @cached_property
    def _node_ids_by_class(self) -> Dict[NodeClass, Tuple[str, ...]]:
        index: Dict[NodeClass, List[str]] = {}
        for node_id in self.node_ids:
            index.setdefault(self._nodes_by_id[node_id].node_class, []).append(node_id)
        return {cls: tuple(ids) for cls, ids in index.items()}

    @cached_property
    def _adjacency(self) -> Tuple[Dict[str, List[str]], ...]:
        # One pass over the edges. Per node: its bidirectional neighbours,
        # which serve both directions, then the dsts of its directed edges
        # out and the srcs of its directed edges in. Lists may name an id
        # twice (the read that builds a node's set drops repeats), and take
        # a fraction of a set's memory for the nodes that are never read.
        both: Dict[str, List[str]] = defaultdict(list)
        outs: Dict[str, List[str]] = defaultdict(list)
        ins: Dict[str, List[str]] = defaultdict(list)
        for edge in self.edges:
            src, dst = edge.src, edge.dst
            if edge.bidirectional:
                both[src].append(dst)
                both[dst].append(src)
            else:
                outs[src].append(dst)
                ins[dst].append(src)
        return both, outs, ins

    @cached_property
    def _in_sets(self) -> Dict[str, FrozenSet[str]]:
        return {}

    @cached_property
    def _out_tuples(self) -> Dict[str, Tuple[str, ...]]:
        return {}

    def node_by_id(self, node_id: str) -> Optional[Node]:
        return self._nodes_by_id.get(node_id)

    def vulnerability_by_id(self, vuln_id: str) -> Optional[Vulnerability]:
        return self._vulnerabilities_by_id.get(vuln_id)

    def credential_by_id(self, cred_id: str) -> Optional[Credential]:
        return self._credentials_by_id.get(cred_id)

    def node_ids_of_class(self, node_class: NodeClass) -> Tuple[str, ...]:
        """Ids of the nodes of one class, in id order (where ids repeat,
        the class of the first node with the id)."""
        return self._node_ids_by_class.get(node_class, ())

    def select(self, selector: TargetSelector) -> Tuple[str, ...]:
        """Ids of the nodes ``selector`` picks, in id order: the node with
        its id, or the nodes of its class. Where ids repeat, the first
        node with the id stands for them all, as in ``node_by_id``."""
        if selector.node_id is not None:
            return (selector.node_id,) if selector.node_id in self._nodes_by_id else ()
        return self.node_ids_of_class(selector.node_class)

    def in_neighbours(self, node_id: str) -> FrozenSet[str]:
        """Every ``src`` with an edge ``src -> node_id``: a bidirectional
        edge counts in both directions, a directed one only from its
        ``src``."""
        found = self._in_sets.get(node_id)
        if found is None:
            both, _, ins = self._adjacency
            found = frozenset(both.get(node_id, ()))
            if node_id in ins:
                found = found.union(ins[node_id])
            self._in_sets[node_id] = found
        return found

    def out_neighbours(self, node_id: str) -> Tuple[str, ...]:
        """Every ``dst`` with an edge ``node_id -> dst``, under the same
        direction rule as ``in_neighbours``, in id order."""
        found = self._out_tuples.get(node_id)
        if found is None:
            both, outs, _ = self._adjacency
            ends = set(both.get(node_id, ()))
            if node_id in outs:
                ends.update(outs[node_id])
            # A sorted tuple: the path search walks it in id order.
            found = self._out_tuples[node_id] = tuple(sorted(ends))
            if node_id not in outs:
                # The tuple holds the ids of the node's list and takes its
                # place, so a node that was read keeps one copy of them.
                both[node_id] = found
        return found


@record
class TargetSelector:
    """Either a concrete node id or a whole node class."""

    node_id: Optional[str] = None
    node_class: Optional[NodeClass] = None

    def __post_init__(self):
        if (self.node_id is None) == (self.node_class is None):
            raise InvariantViolation(
                "target", "exactly one of node_id / node_class must be set"
            )


@record
class Objective:
    actor: Actor
    kind: ObjectiveKind
    target: TargetSelector
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise InvariantViolation("objective.threshold", "must be in [0,1]")


@record
class RecipeLayout:
    """Where each node of a recipe goes, which no seed changes.

    ``placements`` holds (id, class, zone) in creation order: NodeClass
    declaration order, then index, node k in zone ``zone-(k mod
    zone_count)``. ``by_id`` holds (id, class, zone, position) in id
    order, where ``members[zone][position]`` is the node itself; the
    read-only ``members`` maps each zone that holds nodes to its ids in id
    order. Its size follows the node count, whatever the zone count.
    """

    placements: Tuple[Tuple[str, NodeClass, str], ...]
    by_id: Tuple[Tuple[str, NodeClass, str, int], ...]
    members: Mapping[str, Tuple[str, ...]]


# The most expansion work a recipe may ask for (``TopologyRecipe.expansion_work``).
# It admits a 20,000-node recipe over 200 zones (1,030,100). The slowest
# recipe within it found so far, 2,827 nodes over 2 zones at density 1.0,
# expands in 2.9 s (2.0 M edges; Python 3.11 on a shared 2-CPU host).
MAX_RECIPE_WORK = 2_000_000


@record
class TopologyRecipe:
    node_counts: Tuple[Tuple[NodeClass, int], ...]
    zone_count: int
    intra_zone_density: float
    inter_zone_gateways: int
    vuln_rate: float
    credential_rate: float

    def __post_init__(self):
        if self.zone_count < 1:
            raise InvariantViolation("recipe.zone_count", "must be >= 1")
        if self.inter_zone_gateways < 0:
            raise InvariantViolation("recipe.inter_zone_gateways", "must be >= 0")
        for name, value in (
            ("intra_zone_density", self.intra_zone_density),
            ("vuln_rate", self.vuln_rate),
            ("credential_rate", self.credential_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise InvariantViolation(f"recipe.{name}", "must be in [0,1]")
        seen = set()
        for cls, count in self.node_counts:
            if count < 0 or cls in seen:
                raise InvariantViolation(f"recipe.node_counts[{cls.value}]",
                                         "must be >= 0" if count < 0 else "names the class twice")
            seen.add(cls)
        if (work := self.expansion_work()) > MAX_RECIPE_WORK:
            raise InvariantViolation(
                "recipe", f"asks for {work} expansion steps, more than {MAX_RECIPE_WORK}"
            )

    def expansion_work(self) -> int:
        """The steps ``build_topology`` takes: nodes + zones + same-zone node
        pairs + zone pairs × inter_zone_gateways, from the fields alone."""
        nodes, zones = self.total_nodes(), self.zone_count
        per_zone, fuller = divmod(nodes, zones)  # ``fuller`` zones hold one more
        same_zone_pairs = (fuller * (per_zone + 1) * per_zone
                           + (zones - fuller) * per_zone * (per_zone - 1)) // 2
        return nodes + zones + same_zone_pairs + zones * (zones - 1) // 2 * self.inter_zone_gateways

    def count(self, cls: NodeClass) -> int:
        return dict(self.node_counts).get(cls, 0)

    def total_nodes(self) -> int:
        return sum(n for _, n in self.node_counts)

    @cached_property
    def layout(self) -> RecipeLayout:
        """The recipe's node placement, worked out on first use and kept on
        the instance. It is derived from the fields, so it is left out of
        equality, hash, repr, serialization and pickles."""
        zone_names = [f"zone-{i}" for i in range(min(self.zone_count, self.total_nodes()))]
        placements: List[Tuple[str, NodeClass, str]] = []
        for cls in NodeClass:
            prefix = cls.value
            for i in range(self.count(cls)):
                placements.append((f"{prefix}-{i}", cls, zone_names[len(placements) % self.zone_count]))
        members: Dict[str, List[str]] = {}
        by_id = []
        for nid, cls, zone in sorted(placements, key=lambda placement: placement[0]):
            zone_ids = members.setdefault(zone, [])
            by_id.append((nid, cls, zone, len(zone_ids)))
            zone_ids.append(nid)
        return RecipeLayout(
            tuple(placements),
            tuple(by_id),
            MappingProxyType({zone: tuple(zone_ids) for zone, zone_ids in members.items()}),
        )


@record
class SubProblem:
    id: str
    description: str
    related_asset_classes: Tuple[NodeClass, ...]


@record
class DomainContext:
    domain_tag: str
    narrative: str


@record
class ScenarioParameters:
    recipe: Optional[TopologyRecipe] = None
    explicit_topology: Optional[NetworkTopology] = None

    def __post_init__(self):
        if (self.recipe is None) == (self.explicit_topology is None):
            raise InvariantViolation(
                "scenario_parameters",
                "exactly one of recipe / explicit_topology must be set",
            )


@record
class Elements:
    """``capability_refs`` is checked, not selecting: every ref must name a
    registered capability (otherwise ``validate_spec`` reports
    ``UnresolvedCapability``), but runs and path searches use every
    registered capability, not only the listed ones."""

    asset_classes: Tuple[NodeClass, ...]
    threat_actors: Tuple[str, ...]
    capability_refs: Tuple[str, ...]


@record
class ScenarioSpec:
    schema_version: str
    domain_context: DomainContext
    problem_decomposition: Tuple[SubProblem, ...]
    scenario_parameters: ScenarioParameters
    objectives: Tuple[Objective, ...]
    elements: Elements

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise InvariantViolation("schema_version", f"must be {SCHEMA_VERSION!r}")
        if not self.objectives:
            raise InvariantViolation("objectives", "must be non-empty")
        seen = set()
        for sub in self.problem_decomposition:
            if sub.id in seen:
                raise InvariantViolation(
                    f"problem_decomposition[{sub.id}]", "duplicate subproblem id"
                )
            seen.add(sub.id)
        for ref in self.elements.capability_refs:
            _check_identifier(ref, "elements.capability_refs")


@record
class Finding:
    code: str
    message: str
    location: str


@record
class ValidationReport:
    """Validation outcome: empty ``errors`` means the spec is valid.

    Error codes: UnresolvedCapability, DuplicateNodeId, ReservedNodeId,
    DuplicateZoneId, UnknownZone, DanglingEdge, DuplicateEdge,
    ObjectiveTargetUnknown, UnknownVulnerabilityRef, UnknownCredentialRef,
    BadCredentialHost, EmptyRecipe, InsufficientGateways, NoAttackPath
    (emitted by the generation pipeline).
    Warning codes: DisconnectedTopology.
    """

    errors: Tuple[Finding, ...] = ()
    warnings: Tuple[Finding, ...] = ()


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------
# A check takes a value, the path of its parent and its key, and makes the
# path text only when it fails, so a valid document costs its JSON and the
# objects built from it. A path is text, or a tuple of ``_path`` arguments.
# A required field is read as ``d.get(key, MISSING)``: every check fails on
# MISSING and reports a missing field (a missing section at the top level).

MISSING = object()


def load_json_object(document: str) -> dict:
    """The JSON object a document holds; anything else is MalformedDocument."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
        raise MalformedDocument(f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise MalformedDocument("top level must be an object")
    return raw


def _path(path, key: Optional[str] = None, index: Optional[int] = None) -> str:
    if isinstance(path, tuple):
        path = _path(*path)
    if key is not None:
        path = f"{path}.{key}" if path else key
    return path if index is None else f"{path}[{index}]"


def _fail(value, path, key: Optional[str], message: str) -> Exception:
    if value is MISSING:
        if not path:
            return MissingSection(key)
        message = "missing required field"
    return InvariantViolation(_path(path, key), message)


def _check_identifier(value, path, key: Optional[str] = None) -> str:
    # str.split() cuts at exactly the characters str.isspace() accepts, so
    # a non-empty string without whitespace is the one piece it returns.
    if isinstance(value, str) and value.split() == [value]:
        return value
    raise _fail(value, path, key, "must be a non-empty identifier")


# What ``_expect`` says a value of each JSON type must be.
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def _expect(kind: type, value, path, key: Optional[str] = None):
    """``value`` when it is a ``kind`` (one of ``_JSON_TYPES``)."""
    if isinstance(value, kind):
        return value
    raise _fail(value, path, key, f"must be {_JSON_TYPES[kind]}")


def _expect_int(value, path, key: Optional[str] = None) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _fail(value, path, key, "must be an integer")


def _expect_fraction(value, path, key: Optional[str] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(value, path, key, "must be a number")
    if 0.0 <= value <= 1.0:  # before float(): NaN and huge ints fail here
        return float(value)
    raise InvariantViolation(_path(path, key), "must be in [0,1]")


def _identifiers(value, path, key: str) -> Tuple[str, ...]:
    """A list of identifiers; an element's error names the list's path."""
    for v in _expect(list, value, path, key):
        _check_identifier(v, path, key)
    return tuple(value)


def _reject_unknown(d: dict, allowed: FrozenSet[str], path) -> None:
    if not allowed.issuperset(d):
        raise UnknownField(_path(path, next(key for key in d if key not in allowed)))


def _record(value, allowed: FrozenSet[str], path) -> dict:
    """``_expect(dict, ...)`` then ``_reject_unknown``, in one step when both pass."""
    if not (isinstance(value, dict) and allowed.issuperset(value)):
        _reject_unknown(_expect(dict, value, path), allowed, path)
    return value


def _enum_values(enum_cls) -> Dict[str, Enum]:
    """The ``{value: member}`` table ``_parse_enum`` reads."""
    return {member.value: member for member in enum_cls}


def _parse_enum(members: Dict[str, Enum], value, path, key: Optional[str] = None):
    try:
        return members[value]
    except (KeyError, TypeError):
        raise _fail(value, path, key, f"must be one of: {', '.join(members)}")


def _parse_enums(members: Dict[str, Enum], value, path, key: str) -> tuple:
    """A list of enum values; an element's error names the list's path."""
    return tuple([_parse_enum(members, v, path, key) for v in _expect(list, value, path, key)])


_NODE_CLASSES = _enum_values(NodeClass)
_ACCESS_REQUIREMENTS = _enum_values(AccessRequirement)
_PRIVILEGES = _enum_values(Privilege)
_ACTORS = _enum_values(Actor)
_OBJECTIVE_KINDS = _enum_values(ObjectiveKind)

_SECTIONS = ("schema_version", "domain_context", "problem_decomposition",
             "scenario_parameters", "objectives", "elements")
_KEYS = {name: frozenset(keys.split()) for name, keys in (
    ("sections", " ".join(_SECTIONS)),
    ("context", "domain_tag narrative"),
    ("subproblem", "id description related_asset_classes"),
    ("parameters", "recipe explicit_topology"),
    ("objective", "actor kind target threshold"),
    ("selector", "node_id node_class"),
    ("elements", "asset_classes threat_actors capability_refs"),
    ("recipe", "node_counts zone_count intra_zone_density inter_zone_gateways vuln_rate "
               "credential_rate"),
    ("topology", "nodes edges zones vulnerabilities credentials"),
    ("node", "id class zone services vulnerability_ids credential_ids asset_value"),
    ("service", "name port"),
    ("edge", "src dst protocol_tag bidirectional"),
    ("vulnerability", "id technique_tag access_requirement success_prob detection_prob "
                      "gained_privilege"),
    ("credential", "id stored_on grants_access_to"),
)}


def _parse_selector(raw, path) -> TargetSelector:
    d = _record(raw, _KEYS["selector"], path)
    if ("node_id" in d) == ("node_class" in d):
        raise InvariantViolation(_path(path), "exactly one of node_id / node_class")
    if "node_id" in d:
        return TargetSelector(node_id=_check_identifier(d["node_id"], path, "node_id"))
    return TargetSelector(node_class=_parse_enum(_NODE_CLASSES, d["node_class"], path, "node_class"))


def _parse_node(raw, path) -> Node:
    d = _record(raw, _KEYS["node"], path)
    services = []
    for i, raw_svc in enumerate(_expect(list, d.get("services", []), path, "services")):
        sp = (path, "services", i)
        sd = _record(raw_svc, _KEYS["service"], sp)
        port = _expect_int(sd.get("port", MISSING), sp, "port")
        if not 1 <= port <= 65535:
            raise InvariantViolation(_path(sp, "port"), "must be in 1..65535")
        services.append(Service(_check_identifier(sd.get("name", MISSING), sp, "name"), port))
    asset_value = _expect_int(d.get("asset_value", 0), path, "asset_value")
    if not 0 <= asset_value <= 100:
        raise InvariantViolation(_path(path, "asset_value"), "must be in 0..100")
    return Node(
        _check_identifier(d.get("id", MISSING), path, "id"),
        _parse_enum(_NODE_CLASSES, d.get("class", MISSING), path, "class"),
        _check_identifier(d.get("zone", MISSING), path, "zone"),
        tuple(services),
        _identifiers(d.get("vulnerability_ids", []), path, "vulnerability_ids"),
        _identifiers(d.get("credential_ids", []), path, "credential_ids"),
        asset_value,
    )


def _parse_topology(raw, path: str) -> NetworkTopology:
    d = _record(raw, _KEYS["topology"], path)
    nodes = tuple([_parse_node(n, (path, "nodes", i))
                   for i, n in enumerate(_expect(list, d.get("nodes", MISSING), path, "nodes"))])
    edges = []
    for i, raw_edge in enumerate(_expect(list, d.get("edges", []), path, "edges")):
        ep = (path, "edges", i)
        ed = _record(raw_edge, _KEYS["edge"], ep)
        src = _check_identifier(ed.get("src", MISSING), ep, "src")
        dst = _check_identifier(ed.get("dst", MISSING), ep, "dst")
        if src == dst:
            raise InvariantViolation(_path(ep), "self-loop edges are not allowed")
        edges.append(Edge(src, dst, _check_identifier(ed.get("protocol_tag", "tcp"), ep, "protocol_tag"),
                          _expect(bool, ed.get("bidirectional", True), ep, "bidirectional")))
    vulns = []
    for i, raw_vuln in enumerate(_expect(list, d.get("vulnerabilities", []), path, "vulnerabilities")):
        vp = (path, "vulnerabilities", i)
        vd = _record(raw_vuln, _KEYS["vulnerability"], vp)
        vulns.append(Vulnerability(
            _check_identifier(vd.get("id", MISSING), vp, "id"),
            _check_identifier(vd.get("technique_tag", MISSING), vp, "technique_tag"),
            _parse_enum(_ACCESS_REQUIREMENTS, vd.get("access_requirement", MISSING), vp, "access_requirement"),
            _expect_fraction(vd.get("success_prob", MISSING), vp, "success_prob"),
            _expect_fraction(vd.get("detection_prob", MISSING), vp, "detection_prob"),
            _parse_enum(_PRIVILEGES, vd.get("gained_privilege", MISSING), vp, "gained_privilege"),
        ))
    creds = []
    for i, raw_cred in enumerate(_expect(list, d.get("credentials", []), path, "credentials")):
        cp = (path, "credentials", i)
        cd = _record(raw_cred, _KEYS["credential"], cp)
        grants = _identifiers(cd.get("grants_access_to", MISSING), cp, "grants_access_to")
        if not grants:
            raise InvariantViolation(_path(cp, "grants_access_to"), "must be non-empty")
        creds.append(Credential(_check_identifier(cd.get("id", MISSING), cp, "id"),
                                _check_identifier(cd.get("stored_on", MISSING), cp, "stored_on"), grants))
    zones = _identifiers(d.get("zones", MISSING), path, "zones")
    return NetworkTopology(nodes, tuple(edges), zones, tuple(vulns), tuple(creds))


def _parse_recipe(raw, path: str) -> TopologyRecipe:
    d = _record(raw, _KEYS["recipe"], path)
    counts = []
    for key, value in _expect(dict, d.get("node_counts", MISSING), path, "node_counts").items():
        cls = _parse_enum(_NODE_CLASSES, key, path, "node_counts")
        counts.append((cls, _expect_int(value, (path, "node_counts"), key)))
    counts.sort(key=lambda pair: pair[0].value)
    return TopologyRecipe(
        tuple(counts),
        _expect_int(d.get("zone_count", MISSING), path, "zone_count"),
        _expect_fraction(d.get("intra_zone_density", MISSING), path, "intra_zone_density"),
        _expect_int(d.get("inter_zone_gateways", MISSING), path, "inter_zone_gateways"),
        _expect_fraction(d.get("vuln_rate", MISSING), path, "vuln_rate"),
        _expect_fraction(d.get("credential_rate", MISSING), path, "credential_rate"),
    )


def parse_scenario(document: str) -> ScenarioSpec:
    """Parse a scenario document (canonical JSON, schema version "1").

    Unknown fields anywhere in the document are rejected with UnknownField.
    """
    raw = load_json_object(document)
    _reject_unknown(raw, _KEYS["sections"], "")
    for section in _SECTIONS:
        if section not in raw:
            raise MissingSection(section)

    version = _expect(str, raw["schema_version"], "schema_version")

    ctx_raw = _record(raw["domain_context"], _KEYS["context"], "domain_context")
    context = DomainContext(
        _check_identifier(ctx_raw.get("domain_tag", MISSING), "domain_context", "domain_tag"),
        _expect(str, ctx_raw.get("narrative", MISSING), "domain_context", "narrative"),
    )

    subs = []
    for i, raw_sub in enumerate(_expect(list, raw["problem_decomposition"], "problem_decomposition")):
        sp = ("problem_decomposition", None, i)
        sd = _record(raw_sub, _KEYS["subproblem"], sp)
        subs.append(SubProblem(
            _check_identifier(sd.get("id", MISSING), sp, "id"),
            _expect(str, sd.get("description", MISSING), sp, "description"),
            _parse_enums(_NODE_CLASSES, sd.get("related_asset_classes", MISSING), sp, "related_asset_classes"),
        ))

    params_raw = _record(raw["scenario_parameters"], _KEYS["parameters"], "scenario_parameters")
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
    for i, raw_obj in enumerate(_expect(list, raw["objectives"], "objectives")):
        op = ("objectives", None, i)
        od = _record(raw_obj, _KEYS["objective"], op)
        objectives.append(Objective(
            _parse_enum(_ACTORS, od.get("actor", MISSING), op, "actor"),
            _parse_enum(_OBJECTIVE_KINDS, od.get("kind", MISSING), op, "kind"),
            _parse_selector(od.get("target", MISSING), (op, "target")),
            _expect_fraction(od.get("threshold", MISSING), op, "threshold"),
        ))
    if not objectives:
        raise InvariantViolation("objectives", "must be non-empty")

    el_raw = _record(raw["elements"], _KEYS["elements"], "elements")
    elements = Elements(
        _parse_enums(_NODE_CLASSES, el_raw.get("asset_classes", MISSING), "elements", "asset_classes"),
        _identifiers(el_raw.get("threat_actors", MISSING), "elements", "threat_actors"),
        _identifiers(el_raw.get("capability_refs", MISSING), "elements", "capability_refs"),
    )

    return ScenarioSpec(version, context, tuple(subs), params, tuple(objectives), elements)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _selector_to_dict(sel: TargetSelector) -> dict:
    if sel.node_id is not None:
        return {"node_id": sel.node_id}
    return {"node_class": sel.node_class.value}


def topology_to_dict(topo: NetworkTopology) -> dict:
    return {
        "nodes": [
            {
                "id": n.id,
                "class": n.node_class.value,
                "zone": n.zone,
                "services": [{"name": s.name, "port": s.port} for s in n.services],
                "vulnerability_ids": list(n.vulnerability_ids),
                "credential_ids": list(n.credential_ids),
                "asset_value": n.asset_value,
            }
            for n in topo.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "protocol_tag": e.protocol_tag,
             "bidirectional": e.bidirectional}
            for e in topo.edges
        ],
        "zones": list(topo.zones),
        "vulnerabilities": [
            {
                "id": v.id,
                "technique_tag": v.technique_tag,
                "access_requirement": v.access_requirement.value,
                "success_prob": v.success_prob,
                "detection_prob": v.detection_prob,
                "gained_privilege": v.gained_privilege.value,
            }
            for v in topo.vulnerabilities
        ],
        "credentials": [
            {"id": c.id, "stored_on": c.stored_on,
             "grants_access_to": list(c.grants_access_to)}
            for c in topo.credentials
        ],
    }


def _recipe_to_dict(recipe: TopologyRecipe) -> dict:
    return {
        "node_counts": {cls.value: n for cls, n in recipe.node_counts},
        "zone_count": recipe.zone_count,
        "intra_zone_density": recipe.intra_zone_density,
        "inter_zone_gateways": recipe.inter_zone_gateways,
        "vuln_rate": recipe.vuln_rate,
        "credential_rate": recipe.credential_rate,
    }


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    if spec.scenario_parameters.recipe is not None:
        params = {"recipe": _recipe_to_dict(spec.scenario_parameters.recipe)}
    else:
        params = {"explicit_topology": topology_to_dict(spec.scenario_parameters.explicit_topology)}
    return {
        "schema_version": spec.schema_version,
        "domain_context": {
            "domain_tag": spec.domain_context.domain_tag,
            "narrative": spec.domain_context.narrative,
        },
        "problem_decomposition": [
            {
                "id": s.id,
                "description": s.description,
                "related_asset_classes": [c.value for c in s.related_asset_classes],
            }
            for s in spec.problem_decomposition
        ],
        "scenario_parameters": params,
        "objectives": [
            {
                "actor": o.actor.value,
                "kind": o.kind.value,
                "target": _selector_to_dict(o.target),
                "threshold": o.threshold,
            }
            for o in spec.objectives
        ],
        "elements": {
            "asset_classes": [c.value for c in spec.elements.asset_classes],
            "threat_actors": list(spec.elements.threat_actors),
            "capability_refs": list(spec.elements.capability_refs),
        },
    }


def serialize_scenario(spec: ScenarioSpec) -> str:
    """The scenario in ``canonical_json`` form, keys in a fixed order and
    lists in input order. parse(serialize(s)) == s."""
    return canonical_json(scenario_to_dict(spec))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def check_topology(topo: NetworkTopology):
    """Yield Finding objects for every structural problem in a topology."""
    node_ids = set()
    for node in topo.nodes:
        if node.id in node_ids:
            yield Finding("DuplicateNodeId", f"duplicate node id {node.id!r}", f"nodes.{node.id}")
        if node.id == EXTERNAL:
            yield Finding("ReservedNodeId", f"node id {EXTERNAL!r} names the source of entry steps",
                          f"nodes.{node.id}")
        node_ids.add(node.id)
    zone_ids = set()
    for zone in topo.zones:
        if zone in zone_ids:
            yield Finding("DuplicateZoneId", f"duplicate zone id {zone!r}", f"zones.{zone}")
        zone_ids.add(zone)
    for node in topo.nodes:
        if node.zone not in zone_ids:
            yield Finding("UnknownZone", f"node {node.id!r} in undeclared zone {node.zone!r}", f"nodes.{node.id}")
    seen_edges = set()
    for edge in topo.edges:
        if edge.src not in node_ids or edge.dst not in node_ids:
            yield Finding("DanglingEdge", f"edge {edge.src!r}->{edge.dst!r} references a missing node",
                          f"edges.{edge.src}->{edge.dst}")
        key = (edge.src, edge.dst, edge.protocol_tag)
        if key in seen_edges:
            yield Finding("DuplicateEdge", f"duplicate edge {key!r}", f"edges.{edge.src}->{edge.dst}")
        seen_edges.add(key)
    for node in topo.nodes:
        for vid in node.vulnerability_ids:
            if topo.vulnerability_by_id(vid) is None:
                yield Finding("UnknownVulnerabilityRef", f"node {node.id!r} references missing vulnerability {vid!r}", f"nodes.{node.id}")
        for cid in node.credential_ids:
            cred = topo.credential_by_id(cid)
            if cred is None:
                yield Finding("UnknownCredentialRef", f"node {node.id!r} references missing credential {cid!r}", f"nodes.{node.id}")
            elif cred.stored_on != node.id:
                yield Finding("BadCredentialHost", f"node {node.id!r} lists credential {cid!r} stored on {cred.stored_on!r}", f"nodes.{node.id}")
    for cred in topo.credentials:
        if cred.stored_on not in node_ids:
            yield Finding("BadCredentialHost", f"credential {cred.id!r} stored on missing node {cred.stored_on!r}", f"credentials.{cred.id}")
        elif cred.id not in topo.node_by_id(cred.stored_on).credential_ids:
            yield Finding("BadCredentialHost", f"credential {cred.id!r} is not listed by its host {cred.stored_on!r}", f"credentials.{cred.id}")
        for target in cred.grants_access_to:
            if target not in node_ids:
                yield Finding("BadCredentialHost", f"credential {cred.id!r} grants access to missing node {target!r}", f"credentials.{cred.id}")


def _is_connected(topo: NetworkTopology) -> bool:
    """Whether every node id is reached from the first one when each edge
    between two nodes of the topology counts in both directions. Each id
    counts once, so a repeated id (an error ``check_topology`` reports)
    does not by itself make a topology disconnected."""
    if len(topo.nodes) <= 1:
        return True
    start = topo.nodes[0].id
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nbr in topo.in_neighbours(node).union(topo.out_neighbours(node)):
            if nbr not in seen and topo.node_by_id(nbr) is not None:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(topo.node_ids)


def scenario_node_ids(spec: ScenarioSpec) -> Set[str]:
    """Node ids of the scenario's topology. A recipe's ids follow from its
    node counts alone, so every seed expands it to the same ids."""
    topo = spec.scenario_parameters.explicit_topology
    if topo is not None:
        return {n.id for n in topo.nodes}
    return {nid for nid, _, _ in spec.scenario_parameters.recipe.layout.placements}


def validate_spec(spec: ScenarioSpec, registry) -> ValidationReport:
    """Cross-check a spec against a capability registry.

    All findings are carried in the returned report; this never raises.
    """
    errors: List[Finding] = []
    warnings: List[Finding] = []

    for ref in spec.elements.capability_refs:
        if not registry.has(ref):
            errors.append(Finding("UnresolvedCapability", f"capability {ref!r} not in registry", "elements.capability_refs"))

    topo = spec.scenario_parameters.explicit_topology
    recipe = spec.scenario_parameters.recipe
    if topo is not None:
        errors.extend(check_topology(topo))
        if not _is_connected(topo):
            warnings.append(Finding("DisconnectedTopology", "topology is not weakly connected", "scenario_parameters.explicit_topology"))
        classes = {n.node_class for n in topo.nodes}
    else:
        errors.extend(Finding(error.code, error.message, "scenario_parameters.recipe")
                      for error in recipe_errors(recipe))
        classes = {cls for cls, n in recipe.node_counts if n > 0}
    node_ids = scenario_node_ids(spec)

    for i, obj in enumerate(spec.objectives):
        loc = f"objectives[{i}]"
        if obj.target.node_id is not None and obj.target.node_id not in node_ids:
            errors.append(Finding("ObjectiveTargetUnknown", f"no node {obj.target.node_id!r}", loc))
        if obj.target.node_class is not None and obj.target.node_class not in classes:
            errors.append(Finding("ObjectiveTargetUnknown", f"no node of class {obj.target.node_class.value!r}", loc))

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# topology expansion
# ---------------------------------------------------------------------------

def recipe_errors(recipe: TopologyRecipe) -> Iterator[SpiderSimError]:
    """Every reason ``build_topology`` refuses ``recipe`` whatever the seed,
    as the errors it raises (it raises the first). ``validate_spec``
    reports each as an error finding with the same code."""
    if recipe.total_nodes() < 1:
        yield EmptyRecipe("recipe places no nodes")
    if (recipe.zone_count > 1 and recipe.inter_zone_gateways > 0
            and recipe.count(NodeClass.GATEWAY) == 0):
        yield InsufficientGateways(
            "inter-zone links requested but the recipe places no gateways"
        )


def build_topology(recipe: TopologyRecipe, registry, seed: int) -> NetworkTopology:
    """Deterministically expand a recipe into a concrete topology.

    Expansion order (each stage draws from its own named substream of
    ``seed``, so later stages never perturb earlier ones). The placement
    of stage 1 is the recipe's ``layout``, made once per recipe; every
    other stage costs what it draws and what it builds, not the node pairs.

    1. Nodes: for each class in NodeClass declaration order, ``count``
       nodes named ``<class>-<i>``; node k in creation order joins zone
       ``zone-(k mod zone_count)``.
    2. Intra-zone edges ("edges" substream): candidate unordered pairs of
       same-zone nodes in lexicographic (u, v) order, one uniform draw
       each; the edge exists iff draw < intra_zone_density. Cost: one draw
       per same-zone pair, nothing for the pairs across zones.
    3. Inter-zone links (no draws): for zone pair number p (lexicographic)
       and link number t, gateway ``gateways[(p * inter_zone_gateways + t)
       mod len(gateways)]`` connects to node ``t mod len(peers)`` of the
       zone on the other side (both sides when the gateway sits in a third
       zone); a link already made is not made again. Cost: one step per
       link, over every pair of zones, whether they hold nodes or not.
    4. Vulnerabilities ("vulns" substream): per non-gateway node in id
       order, draws: gate (< vuln_rate), technique-tag index, success
       probability (0.4 + 0.5*u, 2 decimals), privilege (admin iff u < 0.3).
       Cost: one to four draws per node.
    5. Credentials ("credentials" substream): per node in id order, draws:
       gate (< credential_rate), grant-target index over the other nodes
       in id order. Cost: one or two draws per node.
    """
    for error in recipe_errors(recipe):
        raise error
    layout = recipe.layout
    by_id = layout.by_id
    members = layout.members

    edges: List[Edge] = []
    draw = substream(seed, "edges").random
    density = recipe.intra_zone_density
    for u, _, zone, position in by_id:
        edges.extend([Edge(u, v, "tcp", True)
                      for v in members[zone][position + 1:] if draw() < density])

    # A link joins two zones, so it can only repeat another link.
    links = recipe.inter_zone_gateways
    zones = tuple(f"zone-{i}" for i in range(recipe.zone_count))
    gateways = [(nid, zone) for nid, cls, zone, _ in by_id if cls is _GATEWAY]
    if recipe.zone_count > 1 and links > 0 and gateways:
        linked = set()
        pair_index = 0
        for i, za in enumerate(zones):
            for zb in zones[i + 1:]:
                for t in range(links):
                    g, g_zone = gateways[(pair_index * links + t) % len(gateways)]
                    for side in (za, zb):
                        peers = members.get(side) if side != g_zone else None
                        if peers:
                            peer = peers[t % len(peers)]
                            if (g, peer) not in linked and (peer, g) not in linked:
                                linked.add((g, peer))
                                edges.append(Edge(g, peer, "tcp", True))
                pair_index += 1

    tags = sorted({cap.technique_tag for cap in registry.capabilities()
                   if cap.kind.value == "attack"}) or ["T0000"]
    vulnerabilities: List[Vulnerability] = []
    vuln_on: Dict[str, Tuple[str, ...]] = {}
    draw = substream(seed, "vulns").random
    for nid, cls, _, _ in by_id:
        if cls is _GATEWAY:
            continue
        if draw() < recipe.vuln_rate:
            tag = tags[min(int(draw() * len(tags)), len(tags) - 1)]
            success = round(0.4 + 0.5 * draw(), 2)
            privilege = _ADMIN if draw() < 0.3 else _USER
            vuln_id = f"vuln-{nid}"
            vulnerabilities.append(Vulnerability(
                vuln_id, tag, _ADJACENT, success, 0.2, privilege))
            vuln_on[nid] = (vuln_id,)

    credentials: List[Credential] = []
    cred_on: Dict[str, Tuple[str, ...]] = {}
    draw = substream(seed, "credentials").random
    others = len(by_id) - 1
    for pos, (nid, _, _, _) in enumerate(by_id):
        if draw() < recipe.credential_rate and others:
            j = min(int(draw() * others), others - 1)
            cred_id = f"cred-{nid}"
            credentials.append(Credential(cred_id, nid, (by_id[j if j < pos else j + 1][0],)))
            cred_on[nid] = (cred_id,)

    nodes = tuple(
        Node(nid, cls, zone, _CLASS_SERVICES[cls], vuln_on.get(nid, ()),
             cred_on.get(nid, ()), _CLASS_ASSET_VALUE[cls])
        for nid, cls, zone in layout.placements
    )
    return NetworkTopology(
        nodes=nodes,
        edges=tuple(edges),
        zones=zones,
        vulnerabilities=tuple(vulnerabilities),
        credentials=tuple(credentials),
    )
