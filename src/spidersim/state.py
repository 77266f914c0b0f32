"""Round-based simulation state shared by capabilities and the engine.

State values are immutable; every update returns a new value, except a
credential update that adds no credential, which returns the state
itself. The state carries its topology so predicate evaluation needs no
extra arguments.

Lookups by node are dict lookups: ``compromise`` maps a node to the
privilege held on it and ``deployed`` maps a node to the set of defenses
on it, both as read-only mappings. Their order carries no meaning (the
trace export sorts). The attacker's footholds are the compromised nodes,
the keys of ``compromise``; no other field holds them. An update copies
the fields and changes only what it names, without running the
constructor. The nodes the held credentials grant access to
(``credential_targets``) are derived once per state, on first use,
whether the state came from an update or was built directly. Two states
are equal when their fields are, and equal states hash alike.

``alarms`` are (round, node) pairs in round order, none after the
state's round: an alarm is appended at the current round, which only
grows, and the constructor refuses any other order.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import FrozenSet, Mapping, Tuple

from .errors import InvariantViolation
from .model import NetworkTopology, Privilege
from .records import record


class DefenseKind(str, Enum):
    HONEYPOT = "honeypot"
    SHOCKTRAP = "shocktrap"
    ENCRYPTION = "encryption"
    SCANNER = "scanner"
    PATCH = "patch"


_PRIV_RANK = {None: 0, Privilege.USER: 1, Privilege.ADMIN: 2}


def _checked(field_name: str, kind: type, node_id: str, value):
    if not isinstance(value, kind):
        raise InvariantViolation(field_name, f"node {node_id!r}: {value!r} is not a {kind.__name__}")
    return value


def _checked_id(field_name: str, value):
    if not isinstance(value, str):
        raise InvariantViolation(field_name, f"{value!r} is not an id")
    return value


@record
class SimulationState:
    """``compromise`` and ``deployed`` accept any mapping or iterable of
    (node, value) pairs; the stored values are read-only mappings, with
    each node's defenses as a frozenset. A privilege that is not a
    ``Privilege``, a defense not a ``DefenseKind``, a node or credential
    id that is not a string, a ``round`` or ``trapped_until`` that is not
    a non-negative int, and an alarm that is not a (round, node id) pair
    of those are refused. The updates check only what they add."""

    topology: NetworkTopology
    round: int = 0
    compromise: Mapping[str, Privilege] = ()
    deployed: Mapping[str, FrozenSet[DefenseKind]] = ()
    credentials_held: FrozenSet[str] = frozenset()
    trapped_until: int = 0
    alarms: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self):
        for field_name in ("round", "trapped_until"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 0:
                raise InvariantViolation(field_name, f"{value!r} is not a non-negative int")
        alarms = tuple(self.alarms)
        for alarm in alarms:
            if not (isinstance(alarm, tuple) and len(alarm) == 2 and isinstance(alarm[0], int)
                    and alarm[0] >= 0 and isinstance(alarm[1], str)):
                raise InvariantViolation("alarms", f"{alarm!r} is not a (round, node id) pair")
        rounds = [r for r, _ in alarms]
        if rounds != sorted(rounds) or (rounds and rounds[-1] > self.round):
            raise InvariantViolation(
                "alarms", "must be in non-decreasing round order, none after the state's round")
        canonical = {
            "compromise": MappingProxyType(
                {_checked_id("compromise", nid): _checked("compromise", Privilege, nid, priv)
                 for nid, priv in dict(self.compromise).items()}),
            "deployed": MappingProxyType(
                {_checked_id("deployed", nid):
                 frozenset(_checked("deployed", DefenseKind, nid, kind) for kind in kinds)
                 for nid, kinds in dict(self.deployed).items()}),
            "credentials_held": frozenset(_checked_id("credentials_held", cred_id)
                                          for cred_id in self.credentials_held),
            "alarms": alarms,
        }
        self.__dict__.update(canonical)

    def __hash__(self) -> int:
        return hash((self.topology, self.round, frozenset(self.compromise.items()),
                     frozenset(self.deployed.items()), self.credentials_held,
                     self.trapped_until, self.alarms))

    def __reduce__(self):
        # A read-only mapping does not pickle or deep-copy; rebuild the
        # state from plain dicts instead.
        return (SimulationState, (self.topology, self.round, dict(self.compromise),
                                  dict(self.deployed), self.credentials_held,
                                  self.trapped_until, self.alarms))

    def _evolve(self, **changes) -> "SimulationState":
        """A copy with ``changes`` (already in stored form), built without
        the constructor. The derived ``credential_targets`` is kept unless
        the credentials change."""
        new = object.__new__(SimulationState)
        attrs = new.__dict__
        attrs.update(self.__dict__)
        attrs.update(changes)
        if "credentials_held" in changes:
            attrs.pop("credential_targets", None)
        return new

    @cached_property
    def credential_targets(self) -> FrozenSet[str]:
        """Every node some held credential grants access to."""
        targets = set()
        for cred_id in self.credentials_held:
            cred = self.topology.credential_by_id(cred_id)
            if cred is not None:
                targets.update(cred.grants_access_to)
        return frozenset(targets)

    def with_compromise(self, node_id: str, privilege: Privilege) -> "SimulationState":
        _checked("compromise", Privilege, node_id, privilege)
        current = self.compromise.get(node_id)
        entries = dict(self.compromise)
        entries[node_id] = current if _PRIV_RANK[current] >= _PRIV_RANK[privilege] else privilege
        return self._evolve(compromise=MappingProxyType(entries))

    def with_defense(self, node_id: str, kind: DefenseKind) -> "SimulationState":
        _checked("deployed", DefenseKind, node_id, kind)
        entries = dict(self.deployed)
        entries[node_id] = entries.get(node_id, frozenset()) | {kind}
        return self._evolve(deployed=MappingProxyType(entries))

    def with_credentials(self, cred_ids) -> "SimulationState":
        """The state holding ``cred_ids`` too; the state itself when it
        already holds them all, so a re-theft keeps ``credentials_held``
        and its derived ``credential_targets``."""
        held = self.credentials_held.union(cred_ids)
        if len(held) == len(self.credentials_held):
            return self
        return self._evolve(credentials_held=held)

    def with_alarm(self, node_id: str) -> "SimulationState":
        return self._evolve(alarms=self.alarms + ((self.round, node_id),))

    def with_trap(self, duration_rounds: int) -> "SimulationState":
        return self._evolve(trapped_until=max(self.trapped_until, self.round + duration_rounds))

    def with_round(self, round_number: int) -> "SimulationState":
        return self._evolve(round=round_number)


def fresh_state(topology: NetworkTopology) -> SimulationState:
    return SimulationState(topology=topology)
