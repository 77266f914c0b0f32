#!/usr/bin/env python3
"""Benchmark for spidersim: run one workload and print its metrics.

    python3 perfbench/run.py --workload marine_batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --update-digests

Run from the repository root; spidersim is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
REFERENCE_SEEDS = (0, 1, 2)
SETUP_REPEATS = 9
MIN_PASSES = 4
MODULES = ("model", "capabilities", "engine", "attackgraph", "forge", "exports",
           "errors", "data")
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_spidersim() -> types.SimpleNamespace:
    """Import spidersim afresh from this checkout's src/ directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "spidersim" or n.startswith("spidersim.")]:
        del sys.modules[name]
    package = importlib.import_module("spidersim")
    if Path(package.__file__).resolve().parent != SRC / "spidersim":
        raise ImportError(f"spidersim came from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"spidersim.{m}") for m in MODULES})


def set_up(workload, seed: int):
    """Import, make the inputs, and warm up on the first operation."""
    start = time.perf_counter()
    lib = import_spidersim()
    inputs = workload.make_inputs(lib, seed)
    workload.run_op(lib, inputs[0])
    return time.perf_counter() - start, lib, inputs


@dataclass
class Pass:
    wall: float               # seconds for the whole pass
    latencies: List[float]    # seconds per operation
    failed: List[bool]        # per operation: ended in a domain error
    digest: str               # of every payload of the pass


def one_pass(workload, lib, inputs, tracer: Optional[tracing.Tracer] = None):
    """Run every input once; returns the Pass and the outcomes."""
    gc.collect()
    clock = time.perf_counter
    outcomes, latencies = [], []
    pass_start = clock()
    for inp in inputs:
        if tracer is not None:
            tracer.op += 1
        t0 = clock()
        outcomes.append(workload.run_op(lib, inp))
        latencies.append(clock() - t0)
    wall = clock() - pass_start
    digest = hashlib.sha256("".join(o.payload for o in outcomes).encode()).hexdigest()
    return Pass(wall, latencies, [o.failed for o in outcomes], digest), outcomes


def best_times(passes: List[Pass]) -> List[float]:
    """Each input's fastest run over the passes.

    Every pass repeats identical work, so the slower runs of an input
    differ from its fastest one by interference from the rest of the host,
    not by anything the program did.
    """
    return [min(times) for times in zip(*(p.latencies for p in passes))]


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def tail_percentile(ops: int) -> int:
    """The highest percentile with at least ten of ``ops`` operations beyond it."""
    return max(p for p in range(1, 100) if ops - math.ceil(p * ops / 100) >= 10)


def end_to_end(passes: List[Pass], setup: List[float]) -> dict:
    """Latency percentiles cover the operations that succeeded; the time
    of failed ones still counts against throughput."""
    best = best_times(passes)
    ok = [t for t, failed in zip(best, passes[0].failed) if not failed]
    return {
        "ops_per_s": len(ok) / sum(best),
        "op_p50_ms": percentile(ok, 50) * 1e3,
        "op_tail_ms": percentile(ok, tail_percentile(len(ok))) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reference_digest(name: str, seed: int) -> Optional[str]:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes until ``seconds`` have gone by, then the checks.

    The first set-up provides the modules every pass uses. Set-up is timed
    again, and its result dropped, at even intervals of the run up to
    SETUP_REPEATS in all, so that its median samples the host across the
    run. With tracing on, every untraced pass is followed by a traced one;
    the per-layer metrics come from the traced passes alone, and the checks
    from the first one.
    """
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    elapsed, lib, inputs = set_up(workload, seed)
    setup = [elapsed]
    passes: List[Pass] = []
    traced: List[Pass] = []
    first = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        # Passes take turns on the CPUs this process may use: on a shared
        # host one CPU can run slow for a whole run while another does not.
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        due = len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup.append(set_up(workload, seed)[0])
        done, outcomes = one_pass(workload, lib, inputs)
        passes.append(done)
        if tracer is None:
            first = first or outcomes
            continue
        tracer.install(lib)
        done, outcomes = one_pass(workload, lib, inputs, tracer)
        tracer.uninstall()
        traced.append(done)
        first = first or outcomes
    os.sched_setaffinity(0, cpus)
    ops = len(inputs)

    if tracer is not None:
        metrics = tracer.per_layer(ops * len(traced))
        metrics["tracing.overhead_ms"] = (
            sum(best_times(traced)) - sum(best_times(passes))) / ops * 1e3
        passes += traced
        units = {m: unit for m, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = end_to_end(passes, setup)
        units = END_TO_END

    problems = workload.check(lib, inputs, first)
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append("passes over the same inputs gave different outputs")
    digest = passes[0].digest
    reference = reference_digest(name, seed)
    if reference is not None and reference != digest:
        problems.append(f"output digest {digest} differs from the reference {reference}")

    failed = sum(sum(p.failed) for p in passes)
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "ops_per_pass": ops,
        "passes": len(passes), "tail_percentile": tail_percentile(ops - sum(passes[0].failed)),
        "digest": digest, "reference": reference,
        "setup_s": setup, "pass_wall_s": [p.wall for p in passes],
        "latencies_s": [p.latencies for p in passes],
        "problems": problems[:50],
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    result = {
        "correct": not problems,
        "attempted": ops * len(passes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps({**report, "result": result}, indent=1))

    print(f"{name} seed {seed}: {len(passes)} passes of {ops} operations, "
          f"{failed} of {ops * len(passes)} failed")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  output digest {digest[:16]}, reference "
          + ("none for this seed" if reference is None
             else "match" if reference == digest else "MISMATCH"))
    for m, v in metrics.items():
        print(f"  {m:48s} {v:14.4f} {units[m]}")
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"  attempted {result['attempted']}, failed {result['failed']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def update_digests() -> int:
    """Recompute the reference output digests from one pass per seed."""
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            lib = import_spidersim()
            inputs = workload.make_inputs(lib, seed)
            done, outcomes = one_pass(workload, lib, inputs)
            problems = workload.check(lib, inputs, outcomes)
            if problems:
                print(f"{name} seed {seed}: checks failed, reference not written: {problems[:5]}")
                return 1
            table[name][str(seed)] = done.digest
            print(f"{name} seed {seed}: {done.digest}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite digests.json from the current outputs")
    args = parser.parse_args(argv)
    if not (SRC / "spidersim" / "__init__.py").is_file():
        print(f"spidersim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.update_digests:
        return update_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
