"""Command-line surface for the full workflow:
generate -> validate -> paths -> simulate/batch -> export-dot.

Exit codes: 0 success, 1 validation/generation/domain failure, 2 usage
error, 3 internal error. Payload goes to stdout (or --out); diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .attackgraph import PathQuery, enumerate_attack_paths
from .canonical import canonical_json
from .capabilities import (
    CapabilityRegistry,
    DefenseStrategy,
    built_in_registry,
    compose_strategy,
    register_capability,
)
from .engine import (
    AttackerPolicy,
    DefenderPolicy,
    SimulationConfig,
    batch_run,
    check_scenario,
    resolve_topology,
    run_simulation,
)
from .errors import MalformedDocument, SpiderSimError
from .exports import (
    export_dot,
    export_trace,
    parse_capability,
    parse_paths,
    parse_requirement,
    parse_strategy,
    serialize_paths,
)
from .forge import run_pipeline
from .model import (
    NetworkTopology,
    NodeClass,
    ScenarioSpec,
    TargetSelector,
    parse_scenario,
    serialize_scenario,
    validate_spec,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not UTF-8 text: {exc}")


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _parse_selector(text: str) -> TargetSelector:
    """SEL syntax: "class:<node_class>" or "node:<id>" (bare id accepted)."""
    if text.startswith("class:"):
        name = text[len("class:"):]
        try:
            return TargetSelector(node_class=NodeClass(name))
        except ValueError:
            allowed = ", ".join(cls.value for cls in NodeClass)
            raise argparse.ArgumentTypeError(
                f"unknown node class {name!r} (expected one of: {allowed})")
    if text.startswith("node:"):
        return TargetSelector(node_id=text[len("node:"):])
    return TargetSelector(node_id=text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_registry(capability_files: List[str]) -> CapabilityRegistry:
    registry = built_in_registry()
    for path in capability_files:
        registry = register_capability(registry, parse_capability(_read(path)))
    return registry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spidersim",
        description="Deterministic cybersecurity scenario simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="generate a scenario from a requirement file")
    p.add_argument("--requirement", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iterations", type=_positive_int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--capability-file", action="append", default=[])

    p = sub.add_parser("paths", help="enumerate attack paths")
    p.add_argument("--scenario", required=True)
    p.add_argument("--entry", action="append", required=True)
    p.add_argument("--target", required=True, type=_parse_selector,
                   help='target selector: "class:<node_class>" or "node:<id>"')
    p.add_argument("-k", type=_positive_int, default=10)
    p.add_argument("--max-len", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for recipe-based scenarios")
    p.add_argument("--dot", help="also write a DOT render of the paths")
    p.add_argument("--out")

    # The options simulate and batch share, in their usage order.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--scenario", required=True)
    run.add_argument("--strategy")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--rounds", type=_positive_int, default=20)
    run.add_argument("--attacker", default="greedy_value",
                     choices=[pol.value for pol in AttackerPolicy])
    run.add_argument("--defender", default="static",
                     choices=[pol.value for pol in DefenderPolicy])

    p = sub.add_parser("simulate", parents=[run], help="run one seeded simulation")
    p.add_argument("--trace", help="write the trace JSON here")

    p = sub.add_parser("batch", parents=[run], help="aggregate n seeded simulations")
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("capabilities", help="inspect or extend the registry")
    p.add_argument("action", choices=["list", "load"])
    p.add_argument("file", nargs="?")

    p = sub.add_parser("export-dot", help="render a topology (and paths) as DOT")
    p.add_argument("--scenario", required=True)
    p.add_argument("--paths", help="JSON path file to highlight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def _scenario(args) -> Tuple[CapabilityRegistry, ScenarioSpec]:
    """The built-in registry and the parsed --scenario document."""
    return built_in_registry(), parse_scenario(_read(args.scenario))


def _run_inputs(args) -> Tuple[CapabilityRegistry, ScenarioSpec, DefenseStrategy]:
    """The registry, --scenario and --strategy of simulate and batch; the
    engine checks both, so no topology is built here."""
    registry, spec = _scenario(args)
    placements = parse_strategy(_read(args.strategy)) if args.strategy else ()
    return registry, spec, compose_strategy(registry, placements)


def _cmd_generate(args) -> int:
    registry = built_in_registry()
    requirement = parse_requirement(_read(args.requirement))
    spec, report = run_pipeline(
        requirement, registry, args.seed, max_iterations=args.max_iterations
    )
    _emit(serialize_scenario(spec), args.out)
    sys.stderr.write(
        f"generated in {report.iterations_used} iteration(s), "
        f"{len(report.refinements_applied)} refinement(s)\n"
    )
    return 0


def _cmd_validate(args) -> int:
    registry = _load_registry(args.capability_file)
    spec = parse_scenario(_read(args.scenario))
    report = validate_spec(spec, registry)
    doc = {key: [{"code": f.code, "message": f.message, "location": f.location} for f in findings]
           for key, findings in (("errors", report.errors), ("warnings", report.warnings))}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    if report.errors:
        for finding in report.errors:
            sys.stderr.write(f"{finding.code}: {finding.message}\n")
        return 1
    return 0


def _checked_topology(args) -> Tuple[CapabilityRegistry, NetworkTopology]:
    """The built-in registry and the --scenario topology for --seed, once
    the document passes the check ``simulate`` and ``batch`` make."""
    registry, spec = _scenario(args)
    check_scenario(spec, registry)
    return registry, resolve_topology(spec, registry, args.seed)


def _cmd_paths(args) -> int:
    registry, topology = _checked_topology(args)
    query = PathQuery(
        entries=tuple(args.entry),
        target=args.target,
        k=args.k,
        max_len=args.max_len,
    )
    paths = enumerate_attack_paths(topology, registry, query)
    _emit(serialize_paths(paths), args.out)
    if args.dot:
        Path(args.dot).write_text(export_dot(topology, paths), encoding="utf-8")
    return 0


def _sim_config(args) -> SimulationConfig:
    return SimulationConfig(
        max_rounds=args.rounds,
        seed=args.seed,
        attacker_policy=AttackerPolicy(args.attacker),
        defender_policy=DefenderPolicy(args.defender),
    )


def _cmd_simulate(args) -> int:
    registry, spec, strategy = _run_inputs(args)
    trace, metrics = run_simulation(spec, strategy, registry, _sim_config(args))
    _emit(export_trace(trace), args.trace)
    sys.stderr.write(
        f"rounds={trace.final_state.round} "
        f"compromised_fraction={metrics.compromised_fraction:.3f} "
        f"detections={metrics.detection_count}\n"
    )
    return 0


def _cmd_batch(args) -> int:
    registry, spec, strategy = _run_inputs(args)
    result = batch_run(spec, strategy, registry, _sim_config(args), args.n)
    doc = {
        "runs": args.n,
        "attacker_success_rate": result.attacker_success_rate,
        "mean_compromised_fraction": result.mean_compromised_fraction,
        "mean_detection_count": result.mean_detection_count,
    }
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_capabilities(args) -> int:
    registry = built_in_registry()
    if args.action == "list":
        for cap in sorted(registry.capabilities(), key=lambda c: (c.kind.value, c.id)):
            sys.stdout.write(
                f"{cap.id}\t{cap.kind.value}\t{cap.technique_tag}\t"
                f"p={cap.base_success_prob}\tcost={cap.cost_units}\n"
            )
        return 0
    if not args.file:
        sys.stderr.write("capabilities load requires a file argument\n")
        return 2
    cap = parse_capability(_read(args.file))
    register_capability(registry, cap)  # validates against the built-ins
    sys.stdout.write(f"loaded {cap.id} ({cap.kind.value}, {cap.technique_tag})\n")
    return 0


def _cmd_export_dot(args) -> int:
    _, topology = _checked_topology(args)
    paths = parse_paths(_read(args.paths)) if args.paths else None
    _emit(export_dot(topology, paths), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "paths": _cmd_paths,
    "simulate": _cmd_simulate,
    "batch": _cmd_batch,
    "capabilities": _cmd_capabilities,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.subcommand](args)
    except SpiderSimError as exc:
        sys.stderr.write(f"{exc.code}: {exc.message}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
