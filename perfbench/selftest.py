#!/usr/bin/env python3
"""Self-tests for the benchmark's output checks.

    python3 perfbench/selftest.py

Each workload's check must accept the program's real output and reject a
deliberately corrupted copy of it.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = run.import_spidersim()


def first_outcomes(name: str, count: int, seed: int = 0):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(LIB, seed)[:count]
    return inputs, [workload.run_op(LIB, inp) for inp in inputs]


class PathsCheck(unittest.TestCase):
    def setUp(self):
        self.inputs, outcomes = first_outcomes("paths_topk", 5)
        self.cases = []
        for inp, out in zip(self.inputs, outcomes):
            topology, text = out.keep
            facts = workloads._facts(topology)
            targets = {n for n, c in facts.classes.items() if c == workloads.TARGET}
            self.cases.append((inp, facts, targets, json.loads(text)))

    def problems(self, inp, facts, targets, doc):
        return checks.paths_problems(facts, inp["entries"], targets, inp["k"],
                                     inp["max_len"], doc)

    def test_real_output_passes(self):
        for case in self.cases:
            self.assertEqual(self.problems(*case), [])

    def test_wrong_order_rejected(self):
        inp, facts, targets, doc = self.cases[0]
        paths = doc["paths"]
        i = next(i for i in range(len(paths) - 1)
                 if paths[i]["success_prob"] != paths[i + 1]["success_prob"])
        bad = copy.deepcopy(doc)
        bad["paths"][i], bad["paths"][i + 1] = bad["paths"][i + 1], bad["paths"][i]
        self.assertIn("paths are not in the documented order",
                      self.problems(inp, facts, targets, bad))

    def test_missing_best_path_rejected(self):
        inp, facts, targets, doc = self.cases[0]
        bad = copy.deepcopy(doc)
        del bad["paths"][0]
        self.assertTrue(self.problems(inp, facts, targets, bad))

    def test_altered_step_rejected(self):
        inp, facts, targets, doc = self.cases[0]
        bad = copy.deepcopy(doc)
        bad["paths"][0]["steps"][-1]["step_prob"] = 0.99
        self.assertTrue(self.problems(inp, facts, targets, bad))


def trace(events, compromise, last_round, trapped_until=0):
    return {
        "events": [
            {"round": r, "actor": actor, "capability_id": cap, "target": target,
             "outcome": {"success": ok, "detected": False, "trapped_for": trap}}
            for r, actor, cap, target, ok, trap in events
        ],
        "final_state": {"round": last_round, "compromise": {n: "user" for n in compromise},
                        "trapped_until": trapped_until},
    }


class TraceCheck(unittest.TestCase):
    def problems(self, doc, max_rounds=5):
        return checks.trace_problems(doc, max_rounds, set(), 2, "controller-", 0.5)

    def test_real_output_passes(self):
        inputs, outcomes = first_outcomes("recipe_sim", 12)
        self.assertTrue(any(inp["placements"] for inp in inputs))
        self.assertEqual(workloads.recipe_check(LIB, inputs, outcomes), [])

    def test_trapped_attacker_rejected(self):
        good = trace([(1, "attacker", "phishing", "ws-0", True, 0),
                      (2, "attacker", "exploit_vuln", "controller-0", False, 2),
                      (4, "attacker", "exploit_vuln", "controller-1", False, 0)],
                     ["ws-0"], 5, trapped_until=4)
        self.assertEqual(self.problems(good), [])
        bad = trace([(1, "attacker", "phishing", "ws-0", True, 0),
                     (2, "attacker", "exploit_vuln", "controller-0", False, 2),
                     (3, "attacker", "exploit_vuln", "controller-1", False, 0)],
                    ["ws-0"], 5, trapped_until=4)
        self.assertTrue(any("while trapped" in p for p in self.problems(bad)))

    def test_two_actions_in_a_round_rejected(self):
        bad = trace([(1, "attacker", "phishing", "ws-0", True, 0),
                     (1, "attacker", "phishing", "ws-1", True, 0)],
                    ["ws-0", "ws-1"], 5)
        self.assertTrue(any("more than one" in p for p in self.problems(bad)))

    def test_unearned_compromise_rejected(self):
        bad = trace([(1, "attacker", "phishing", "ws-0", True, 0)],
                    ["ws-0", "controller-0"], 5)
        self.assertTrue(any("without a successful attack" in p for p in self.problems(bad)))

    def test_unexplained_early_end_rejected(self):
        bad = trace([(1, "attacker", "phishing", "ws-0", True, 0),
                     (2, "attacker", "phishing", "ws-1", False, 0)], ["ws-0"], 2)
        self.assertTrue(any("ended early" in p for p in self.problems(bad)))
        stalled = trace([(1, "attacker", "phishing", "ws-0", True, 0)], ["ws-0"], 4)
        self.assertEqual(self.problems(stalled), [])


class ForgeCheck(unittest.TestCase):
    def setUp(self):
        self.inputs, self.outcomes = first_outcomes("forge_generate", 25)
        self.registry = LIB.capabilities.built_in_registry()

    def test_real_output_passes(self):
        self.assertEqual(workloads.forge_check(LIB, self.inputs, self.outcomes), [])
        self.assertTrue(self.outcomes[-1].failed)

    def test_unreachable_objective_rejected(self):
        inp, out = self.inputs[0], self.outcomes[0]
        doc = json.loads(out.payload)
        topology = doc["scenario_parameters"]["explicit_topology"]
        target = doc["objectives"][0]["target"]["node_class"]
        cut = {n["id"] for n in topology["nodes"] if n["class"] == target}
        topology["edges"] = [e for e in topology["edges"]
                             if e["src"] not in cut and e["dst"] not in cut]
        for node in topology["nodes"]:
            if node["class"] == target and target in checks.ENTRY_CLASSES:
                node["class"] = "sensor"
        bad = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        problems = workloads.generated_problems(LIB, self.registry, inp["constraints"], bad)
        self.assertTrue(any("no attack path" in p for p in problems), problems)

    def test_unexpected_failure_rejected(self):
        outcomes = list(self.outcomes)
        outcomes[0] = workloads.Outcome("GenerationFailed: x\n", None, failed=True)
        self.assertTrue(workloads.forge_check(LIB, self.inputs, outcomes))


class MarineCheck(unittest.TestCase):
    def test_real_output_passes(self):
        inputs, outcomes = first_outcomes("marine_batch", 3)
        self.assertEqual(workloads.marine_check(LIB, inputs, outcomes), [])

    def test_wrong_aggregate_rejected(self):
        per_seed = [{"attacker_met": True, "compromised_fraction": 0.2, "detection_count": 1},
                    {"attacker_met": False, "compromised_fraction": 0.4, "detection_count": 3}]
        doc = {"runs": 2, "attacker_success_rate": 0.5,
               "mean_compromised_fraction": 0.30000000000000004, "mean_detection_count": 2.0}
        self.assertEqual(checks.aggregate_problems(doc, per_seed), [])
        self.assertTrue(checks.aggregate_problems({**doc, "mean_detection_count": 2.5}, per_seed))

    def test_miscalibrated_success_rejected(self):
        fair = [("phishing", 0.4, i % 5 < 2) for i in range(500)]
        self.assertEqual(checks.binomial_problems(fair), [])
        rigged = [("phishing", 0.4, i % 5 < 3) for i in range(500)]
        self.assertTrue(checks.binomial_problems(rigged))

    def test_defense_raising_success_rejected(self):
        inputs, outcomes = first_outcomes("marine_batch", 1)
        undefended, defended = outcomes[0].keep
        swapped = workloads.Outcome(outcomes[0].payload, [defended, undefended])
        self.assertTrue(any("defended success rate above" in p
                            for p in workloads.marine_check(LIB, inputs, [swapped])))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         tracing.PER_LAYER)

    def test_tail_percentile_leaves_ten_operations(self):
        for ops in (50, 150, 192):
            pct = run.tail_percentile(ops)
            values = list(range(ops))
            beyond = [sum(v > run.percentile(values, p) for v in values) for p in (pct, pct + 1)]
            self.assertGreaterEqual(beyond[0], 10)
            self.assertLess(beyond[1], 10)


if __name__ == "__main__":
    unittest.main()
