"""Spans and counts at spidersim's layer boundaries, added from outside.

``Tracer.install`` replaces the module-level names through which one layer
calls another (``engine.applicable_capabilities``, ``forge.agent_step``,
...) with wrappers, in every module of ``lib`` that imported the same
function. Nothing under ``src/`` changes. Spans are kept in memory as
(name, start ns, end ns, parent index, operation index) and written out
when the run ends; a span's self time is its duration minus its children's.

Functions called thousands of times per operation from inside their own
layer (``evaluate_preconditions``, ``hop_option``) and the forge's
per-role steps are counted, not timed: a span around each call would cost
more than the call, and their time shows in the enclosing span's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Dict, List, Tuple

# (module, function) wrapped in a span.
SPANS = (
    ("model", "parse_scenario"), ("model", "validate_spec"),
    ("model", "build_topology"), ("model", "serialize_scenario"),
    ("capabilities", "applicable_capabilities"), ("capabilities", "apply_capability"),
    ("capabilities", "compose_strategy"),
    ("engine", "batch_run"), ("engine", "run_simulation"), ("engine", "step_round"),
    ("engine", "scenario_digest"), ("engine", "compute_metrics"),
    ("engine", "resolve_topology"),
    ("attackgraph", "enumerate_attack_paths"), ("attackgraph", "suggest_defense_placements"),
    ("forge", "run_pipeline"),
    ("exports", "export_trace"), ("exports", "serialize_paths"), ("exports", "export_dot"),
    ("exports", "parse_requirement"),
)
ROLES = ("context_analyst", "topology_synthesizer", "threat_planner",
         "defense_planner", "validator")

# Every per-layer metric: name -> (unit, better). BENCHMARK.json lists the same.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "capabilities.applicable_capabilities.self_ms": ("ms", "lower"),
    "capabilities.bindings_tried": ("1/round", "lower"),
    "capabilities.actions_found": ("1/round", "lower"),
    "capabilities.binding_yield": ("ratio", "higher"),
    "capabilities.apply_capability.ms": ("ms", "lower"),
    "engine.step_round.self_ms": ("ms", "lower"),
    "engine.scenario_digest.calls_per_run": ("1/run", "lower"),
    "engine.scenario_digest.ms": ("ms", "lower"),
    "engine.compute_metrics.ms": ("ms", "lower"),
    "engine.rounds_per_run": ("1/run", "lower"),
    "model.validate_spec.calls_per_run": ("1/run", "lower"),
    "model.build_topology.ms": ("ms", "lower"),
    "model.parse_scenario.ms": ("ms", "lower"),
    "attackgraph.enumerate_attack_paths.self_ms": ("ms", "lower"),
    "attackgraph.hop_option.calls": ("1/query", "lower"),
    "attackgraph.suggest_defense_placements.ms": ("ms", "lower"),
    "forge.run_pipeline.self_ms": ("ms", "lower"),
    **{f"forge.agent_step.{role}.calls": ("1/generation", "lower") for role in ROLES},
    "forge.refine.calls": ("1/generation", "lower"),
    "exports.export_trace.ms": ("ms", "lower"),
    "exports.serialize_paths.ms": ("ms", "lower"),
    "exports.export_dot.ms": ("ms", "lower"),
    "rng.draws_per_run": ("1/run", "lower"),
    "tracing.overhead_ms": ("ms", "lower"),
}


class _CountingRandom:
    """Forwards to a random.Random and counts its random() draws."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def random(self) -> float:
        self._counts["rng.draws"] += 1
        return self._rng.random()

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: List[int] = []
        self._evaluated = [0]    # evaluate_preconditions calls
        self._hops = [0]         # hop_option calls
        self._refines = [0]      # refine calls
        self._patched: List[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent, self.op)
        return wrapper

    def _applicable(self, fn):
        """Counts the bindings tried and the actions found per call."""
        counts, tried = self.counts, self._evaluated

        def wrapper(*args, **kwargs):
            before = tried[0]
            result = fn(*args, **kwargs)
            counts["capabilities.bindings_tried"] += tried[0] - before
            counts["capabilities.actions_found"] += len(result)
            return result
        return wrapper

    def _count(self, cell, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _agent_step(self, fn):
        counts = self.counts

        def wrapper(role, *args, **kwargs):
            counts[f"forge.agent_step.{role.id.value}.calls"] += 1
            return fn(role, *args, **kwargs)
        return wrapper

    def _substream(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            return _CountingRandom(fn(*args, **kwargs), counts)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap the layer boundaries of the spidersim modules in ``lib``."""
        modules = list(vars(lib).values())
        wrappers = []
        for mod, attr in SPANS:
            home = getattr(lib, mod)
            wrapper = self._span(f"{mod}.{attr}", getattr(home, attr))
            if attr == "applicable_capabilities":
                wrapper = self._applicable(wrapper)
            wrappers.append((home, attr, wrapper))
        wrappers += [
            (lib.capabilities, "evaluate_preconditions",
             self._count(self._evaluated, lib.capabilities.evaluate_preconditions)),
            (lib.attackgraph, "hop_option", self._count(self._hops, lib.attackgraph.hop_option)),
            (lib.forge, "agent_step", self._agent_step(lib.forge.agent_step)),
            (lib.forge, "refine", self._count(self._refines, lib.forge.refine)),
        ]
        for home, attr, wrapper in wrappers:
            original = home.__dict__[attr]
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        # Only the simulation's generator: topology expansion draws too.
        self._patched.append((lib.engine, "substream", lib.engine.substream))
        lib.engine.substream = self._substream(lib.engine.substream)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def per_layer(self, ops: int) -> Dict[str, float]:
        """Per-layer metrics over ``ops`` traced operations. Times are
        milliseconds per operation; counts use the denominator their unit
        names. A layer the workload never enters reads 0."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1

        def per(value, base):
            return value / base if base else 0.0

        def ms(counter, name):
            return per(counter[name], ops) / 1e6

        c = self.counts
        rounds = calls["engine.step_round"]
        runs = calls["engine.run_simulation"]
        queries = calls["attackgraph.enumerate_attack_paths"]
        generations = calls["forge.run_pipeline"]
        metrics = {
            "capabilities.applicable_capabilities.self_ms": ms(own, "capabilities.applicable_capabilities"),
            "capabilities.bindings_tried": per(c["capabilities.bindings_tried"], rounds),
            "capabilities.actions_found": per(c["capabilities.actions_found"], rounds),
            "capabilities.binding_yield": per(c["capabilities.actions_found"], c["capabilities.bindings_tried"]),
            "capabilities.apply_capability.ms": ms(total, "capabilities.apply_capability"),
            "engine.step_round.self_ms": ms(own, "engine.step_round"),
            "engine.scenario_digest.calls_per_run": per(calls["engine.scenario_digest"], runs),
            "engine.scenario_digest.ms": ms(total, "engine.scenario_digest"),
            "engine.compute_metrics.ms": ms(total, "engine.compute_metrics"),
            "engine.rounds_per_run": per(rounds, runs),
            "model.validate_spec.calls_per_run": per(calls["model.validate_spec"], runs),
            "model.build_topology.ms": ms(total, "model.build_topology"),
            "model.parse_scenario.ms": ms(total, "model.parse_scenario"),
            "attackgraph.enumerate_attack_paths.self_ms": ms(own, "attackgraph.enumerate_attack_paths"),
            "attackgraph.hop_option.calls": per(self._hops[0], queries),
            "attackgraph.suggest_defense_placements.ms": ms(total, "attackgraph.suggest_defense_placements"),
            "forge.run_pipeline.self_ms": ms(own, "forge.run_pipeline"),
            "forge.refine.calls": per(self._refines[0], generations),
            "exports.export_trace.ms": ms(total, "exports.export_trace"),
            "exports.serialize_paths.ms": ms(total, "exports.serialize_paths"),
            "exports.export_dot.ms": ms(total, "exports.export_dot"),
            "rng.draws_per_run": per(c["rng.draws"], runs),
        }
        for role in ROLES:
            key = f"forge.agent_step.{role}.calls"
            metrics[key] = per(c[key], generations)
        return metrics

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
