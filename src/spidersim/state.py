"""Round-based simulation state shared by capabilities and the engine.

State values are immutable; every update returns a new value. The state
carries its topology so predicate evaluation needs no extra arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, FrozenSet, Optional, Tuple

from .model import NetworkTopology, Privilege


class DefenseKind(str, Enum):
    HONEYPOT = "honeypot"
    SHOCKTRAP = "shocktrap"
    ENCRYPTION = "encryption"
    SCANNER = "scanner"
    PATCH = "patch"


_PRIV_RANK = {None: 0, Privilege.USER: 1, Privilege.ADMIN: 2}


@dataclass(frozen=True)
class SimulationState:
    topology: NetworkTopology
    round: int = 0
    compromise: Tuple[Tuple[str, Privilege], ...] = ()
    footholds: FrozenSet[str] = frozenset()
    deployed: Tuple[Tuple[str, Tuple[DefenseKind, ...]], ...] = ()
    credentials_held: FrozenSet[str] = frozenset()
    trapped_until: int = 0
    alarms: Tuple[Tuple[int, str], ...] = ()

    def privilege_on(self, node_id: str) -> Optional[Privilege]:
        for nid, priv in self.compromise:
            if nid == node_id:
                return priv
        return None

    def defenses_on(self, node_id: str) -> Tuple[DefenseKind, ...]:
        for nid, kinds in self.deployed:
            if nid == node_id:
                return kinds
        return ()

    def has_privilege(self, node_id: str, minimum: Privilege) -> bool:
        return _PRIV_RANK[self.privilege_on(node_id)] >= _PRIV_RANK[minimum]

    def with_compromise(self, node_id: str, privilege: Privilege) -> "SimulationState":
        current = self.privilege_on(node_id)
        if _PRIV_RANK[current] >= _PRIV_RANK[privilege]:
            new_priv = current
        else:
            new_priv = privilege
        entries = dict(self.compromise)
        entries[node_id] = new_priv
        return replace(
            self,
            compromise=tuple(sorted(entries.items())),
            footholds=self.footholds | {node_id},
        )

    def with_defense(self, node_id: str, kind: DefenseKind) -> "SimulationState":
        entries = {nid: set(kinds) for nid, kinds in self.deployed}
        entries.setdefault(node_id, set()).add(kind)
        return replace(
            self,
            deployed=tuple(sorted(
                (nid, tuple(sorted(kinds, key=lambda k: k.value)))
                for nid, kinds in entries.items()
            )),
        )

    def with_credentials(self, cred_ids) -> "SimulationState":
        return replace(self, credentials_held=self.credentials_held | set(cred_ids))

    def with_alarm(self, node_id: str) -> "SimulationState":
        return replace(self, alarms=self.alarms + ((self.round, node_id),))

    def with_trap(self, duration_rounds: int) -> "SimulationState":
        return replace(
            self, trapped_until=max(self.trapped_until, self.round + duration_rounds)
        )

    def with_round(self, round_number: int) -> "SimulationState":
        return replace(self, round=round_number)

    def compromised_nodes(self) -> FrozenSet[str]:
        return frozenset(nid for nid, _ in self.compromise)


def fresh_state(topology: NetworkTopology) -> SimulationState:
    return SimulationState(topology=topology)
