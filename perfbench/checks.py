"""Output checks for the benchmark, written apart from spidersim.

Every function here takes plain data (parsed JSON payloads, dicts, tuples)
and returns a list of problems; an empty list means the output passed.
The rules are re-derived from the documented behaviour of the built-in
capability set rather than imported from the package, so a fault in the
package cannot make its own output look right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

EXTERNAL = "EXTERNAL"
ENTRY_CLASSES = ("workstation", "maintenance_endpoint")
PHISHING = ("phishing", 0.4, 1)
LATERAL = ("lateral_move_with_cred", 0.9, 1)
EXPLOIT_COST = 2
# Access levels an exploit launched from an adjacent foothold can use.
ADJACENT_OK = ("network", "adjacent")
# Attack capabilities whose success compromises the target.
COMPROMISING = ("phishing", "exploit_vuln", "lateral_move_with_cred")
# Success probability of attack capabilities not backed by a vulnerability.
BASE_PROB = {"phishing": 0.4, "lateral_move_with_cred": 0.9,
             "credential_theft": 0.8, "exfiltrate": 0.7}
STALL_ROUNDS = 3


@dataclass(frozen=True)
class Facts:
    """What the path rules need to know about a topology."""

    classes: Dict[str, str]                          # node id -> class
    adjacency: Dict[str, Tuple[str, ...]]            # node id -> sorted neighbours
    vulns: Dict[str, Tuple[Tuple[str, str, float], ...]]  # node -> (id, access, p)
    cred_targets: frozenset                          # nodes some credential opens


def facts_from_doc(topology: dict) -> Facts:
    """Facts from the explicit-topology section of a scenario document."""
    classes = {n["id"]: n["class"] for n in topology["nodes"]}
    adjacency: Dict[str, Set[str]] = {nid: set() for nid in classes}
    for e in topology["edges"]:
        if e["src"] in adjacency and e["dst"] in adjacency:
            adjacency[e["src"]].add(e["dst"])
            if e["bidirectional"]:
                adjacency[e["dst"]].add(e["src"])
    by_id = {v["id"]: v for v in topology["vulnerabilities"]}
    vulns = {
        n["id"]: tuple(
            (vid, by_id[vid]["access_requirement"], by_id[vid]["success_prob"])
            for vid in n["vulnerability_ids"] if vid in by_id
        )
        for n in topology["nodes"]
    }
    creds = frozenset(t for c in topology["credentials"] for t in c["grants_access_to"])
    return Facts(classes, {k: tuple(sorted(v)) for k, v in adjacency.items()},
                 vulns, creds)


# ---------------------------------------------------------------------------
# attack paths
# ---------------------------------------------------------------------------

Step = Tuple[str, str, str, float, int]  # source, capability, target, p, cost


def hop(facts: Facts, target: str) -> Optional[Tuple[str, float, int]]:
    """Best hop onto ``target``: the most likely exploitable vulnerability
    (cost 2) or a credential (p 0.9, cost 1); ties go to the higher
    probability, then the lower cost, then the capability id."""
    options = []
    usable = [v for v in facts.vulns.get(target, ()) if v[1] in ADJACENT_OK]
    if usable:
        best = max(usable, key=lambda v: (v[2], v[0]))
        options.append((best[2], EXPLOIT_COST, "exploit_vuln"))
    if target in facts.cred_targets:
        options.append((LATERAL[1], LATERAL[2], LATERAL[0]))
    if not options:
        return None
    prob, cost, cap = min(options, key=lambda o: (-o[0], o[1], o[2]))
    return cap, prob, cost


def all_paths(facts: Facts, entries: Iterable[str], targets: Set[str],
              max_len: int) -> List[Tuple[Step, ...]]:
    """Every simple attack path of at most ``max_len`` steps, unsorted."""
    hops = {nid: hop(facts, nid) for nid in facts.classes}
    found: List[Tuple[Step, ...]] = []
    for entry in entries:
        if facts.classes[entry] in ENTRY_CLASSES:
            start: Tuple[Step, ...] = ((EXTERNAL, PHISHING[0], entry, PHISHING[1], PHISHING[2]),)
        else:
            start = ()
        stack = [(entry, start, frozenset((entry,)))]
        while stack:
            node, steps, seen = stack.pop()
            if steps and node in targets:
                found.append(steps)
            if len(steps) >= max_len:
                continue
            for nbr in facts.adjacency[node]:
                option = hops[nbr]
                if nbr in seen or option is None:
                    continue
                cap, prob, cost = option
                stack.append((nbr, steps + ((node, cap, nbr, prob, cost),), seen | {nbr}))
    return found


def path_key(steps: Sequence[Step]) -> Tuple:
    """The documented order: probability down, then length, then targets."""
    return (-math.prod(s[3] for s in steps), len(steps), tuple(s[2] for s in steps))


def paths_problems(facts: Facts, entries: Sequence[str], targets: Set[str],
                   k: Optional[int], max_len: int, payload: dict) -> List[str]:
    """Compare a ``paths`` payload with brute-force enumeration.

    The result must be sorted by the documented key, free of duplicates,
    made only of real paths with consistent totals, and hold exactly the
    keys of the first k oracle paths (all of them when k is None). Among
    paths whose keys tie completely any order is accepted here; the
    output digest pins the exact bytes.
    """
    problems: List[str] = []
    got: List[Tuple[Step, ...]] = []
    for i, p in enumerate(payload["paths"]):
        steps = tuple((s["source"], s["capability_id"], s["target"],
                       s["step_prob"], s["step_cost"]) for s in p["steps"])
        if p["success_prob"] != math.prod(s[3] for s in steps):
            problems.append(f"path {i}: success_prob does not match its steps")
        if p["total_cost"] != sum(s[4] for s in steps):
            problems.append(f"path {i}: total_cost does not match its steps")
        got.append(steps)
    oracle = all_paths(facts, entries, targets, max_len)
    oracle_set = set(oracle)
    if len(set(got)) != len(got):
        problems.append("duplicate paths")
    for i, steps in enumerate(got):
        if steps not in oracle_set:
            problems.append(f"path {i} is not a valid attack path")
    keys = [path_key(s) for s in got]
    if keys != sorted(keys):
        problems.append("paths are not in the documented order")
    want = sorted(path_key(s) for s in oracle)
    if k is not None:
        want = want[:k]
    if len(got) != len(want):
        problems.append(f"{len(got)} paths returned, oracle expects {len(want)}")
    elif sorted(keys) != want:
        problems.append("returned paths are not the best ones")
    return problems


def reachable_targets(facts: Facts, entries: Iterable[str]) -> Set[str]:
    """Nodes an attacker can compromise from the entries: phishable entries
    themselves, plus everything one or more realizable hops away."""
    reached = {e for e in entries if facts.classes[e] in ENTRY_CLASSES}
    seen = set(entries)
    frontier = list(entries)
    while frontier:
        node = frontier.pop()
        for nbr in facts.adjacency[node]:
            if nbr not in seen and hop(facts, nbr) is not None:
                seen.add(nbr)
                reached.add(nbr)
                frontier.append(nbr)
    return reached


# ---------------------------------------------------------------------------
# simulation traces
# ---------------------------------------------------------------------------

def trace_problems(trace: dict, max_rounds: int, honeypots: Set[str],
                   target_total: int, target_prefix: str,
                   threshold: float) -> List[str]:
    """Replay one exported trace and check the engine's round rules.

    ``target_total`` nodes carry ids starting with ``target_prefix``; the
    attacker's single objective is to compromise at least ``threshold`` of
    them.
    """
    problems: List[str] = []
    events = trace["events"]
    final = trace["final_state"]
    last_round = final["round"]
    compromised: Set[str] = set()
    hit: Set[str] = set()
    trapped_until = 0
    acted = set()
    for i, e in enumerate(events):
        r = e["round"]
        if not 1 <= r <= last_round:
            problems.append(f"event {i}: round {r} outside 1..{last_round}")
        if i and r < events[i - 1]["round"]:
            problems.append(f"event {i}: rounds go backwards")
        if e["actor"] != "attacker":
            continue
        if r in acted:
            problems.append(f"round {r}: more than one attacker action")
        acted.add(r)
        if trapped_until > r:
            problems.append(f"round {r}: attacker acted while trapped until {trapped_until}")
        out = e["outcome"]
        if out["trapped_for"]:
            trapped_until = max(trapped_until, r + out["trapped_for"])
        if not out["success"]:
            continue
        hit.add(e["target"])
        if e["capability_id"] in COMPROMISING and e["target"] not in honeypots:
            if e["target"] in compromised:
                problems.append(f"round {r}: {e['target']} compromised twice")
            compromised.add(e["target"])
    final_compromised = set(final["compromise"])
    if not compromised <= final_compromised:
        problems.append(f"compromise shrank: {sorted(compromised - final_compromised)} lost")
    if not final_compromised <= hit:
        problems.append(f"compromised without a successful attack: {sorted(final_compromised - hit)}")
    if final_compromised != compromised:
        problems.append("final compromise differs from the replayed one")
    if final["trapped_until"] != trapped_until:
        problems.append("final trap differs from the replayed one")
    if last_round > max_rounds:
        problems.append(f"ran {last_round} rounds, limit {max_rounds}")
    elif last_round < max_rounds:
        owned = sum(1 for nid in final_compromised if nid.startswith(target_prefix))
        met = target_total > 0 and owned / target_total >= threshold
        idle = all(
            r not in acted and not trapped_before(events, r)
            for r in range(last_round - STALL_ROUNDS + 1, last_round + 1)
        ) and last_round >= STALL_ROUNDS
        if not (met or idle):
            problems.append(f"ended early at round {last_round} with objectives unmet "
                            "and no stall")
    return problems


def trapped_before(events: List[dict], round_number: int) -> bool:
    """Whether a trap set in an earlier round still holds at ``round_number``."""
    until = 0
    for e in events:
        if e["round"] >= round_number:
            break
        if e["actor"] == "attacker" and e["outcome"]["trapped_for"]:
            until = max(until, e["round"] + e["outcome"]["trapped_for"])
    return until > round_number


# ---------------------------------------------------------------------------
# Monte Carlo batches
# ---------------------------------------------------------------------------

def aggregate_problems(doc: dict, per_seed: Sequence[dict]) -> List[str]:
    """The batch payload must hold the mean of the per-seed metrics."""
    n = len(per_seed)
    want = {
        "runs": n,
        "attacker_success_rate": sum(1 for m in per_seed if m["attacker_met"]) / n,
        "mean_compromised_fraction": sum(m["compromised_fraction"] for m in per_seed) / n,
        "mean_detection_count": sum(m["detection_count"] for m in per_seed) / n,
    }
    return [
        f"{key}: payload {doc.get(key)!r}, mean of runs {value!r}"
        for key, value in want.items()
        if not math.isclose(doc.get(key, math.nan), value, rel_tol=1e-12, abs_tol=1e-12)
    ]


def binomial_problems(events: Iterable[Tuple[str, float, bool]],
                      z: float = 5.0) -> List[str]:
    """Each (capability, probability) group's success count must lie
    within ``z`` standard deviations (plus one) of its expectation."""
    groups: Dict[Tuple[str, float], List[int]] = {}
    for cap, p, success in events:
        tally = groups.setdefault((cap, p), [0, 0])
        tally[0] += 1
        tally[1] += int(success)
    problems = []
    for (cap, p), (n, k) in sorted(groups.items()):
        slack = z * math.sqrt(n * p * (1 - p)) + 1
        if abs(k - n * p) > slack:
            problems.append(f"{cap} at p={p}: {k}/{n} successes, expected {n * p:.1f} ± {slack:.1f}")
    return problems
