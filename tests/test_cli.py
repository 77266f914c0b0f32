"""Command line interface: subcommands, exit codes, stream discipline."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spidersim
from spidersim.cli import main
from spidersim.data import marine_ranch_requirement_path, marine_ranch_scenario_path

from helpers import read_dot

SCENARIO = str(marine_ranch_scenario_path())
REQUIREMENT = str(marine_ranch_requirement_path())
README_STRATEGY = {"capability_placements": [
    {"capability_id": "honeypot", "target_node": "maint-0"},
    {"capability_id": "shocktrap", "target_node": "gateway-0"},
]}


# The cap-1 file of README's capability section.
USB_DROP = {
    "interface_version": "cap-1", "id": "usb_drop", "kind": "attack", "name": "USB drop",
    "technique_tag": "T1091",
    "preconditions": [{"predicate": "node_class_is", "node_classes": ["workstation"]},
                      {"predicate": "node_not_compromised"}],
    "effects": [{"effect": "compromise", "privilege": "user"}],
    "base_success_prob": 0.3, "detection_prob": 0.1, "cost_units": 2,
}


def _marine_with_huge_threshold() -> bytes:
    doc = json.loads(marine_ranch_scenario_path().read_text())
    doc["objectives"][0]["threshold"] = 10 ** 400  # too large for a float
    return json.dumps(doc).encode()


def _recipe_over_the_bound() -> bytes:
    doc = json.loads(marine_ranch_scenario_path().read_text())
    doc["scenario_parameters"] = {"recipe": {
        "node_counts": {"controller": 1, "gateway": 1}, "zone_count": 2 ** 64,
        "intra_zone_density": 0.5, "inter_zone_gateways": 1, "vuln_rate": 0.5,
        "credential_rate": 0.3,
    }}
    return json.dumps(doc).encode()


# Documents that once ended in an internal error (exit 3), or whose
# expansion never ended: each content with the start of its diagnostic.
MALFORMED = {
    "huge-number": (_marine_with_huge_threshold(),
                    "InvariantViolation: objectives[0].threshold: must be in [0,1]"),
    "over-the-bound": (_recipe_over_the_bound(), "InvariantViolation: recipe: asks for "),
    "deep-nesting": (b"[" * 100000 + b"]" * 100000, "MalformedDocument: not valid JSON: "),
    "not-utf8": (b"\xff\xfe{}", "MalformedDocument: not UTF-8 text: "),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def broken_scenario(tmp_path):
    data = json.loads(marine_ranch_scenario_path().read_text())
    nodes = data["scenario_parameters"]["explicit_topology"]["nodes"]
    nodes.append(dict(nodes[0]))  # duplicate node id
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def zones50_scenario(tmp_path):
    """The bundled scenario with a 250-node recipe over 50 zones."""
    data = json.loads(marine_ranch_scenario_path().read_text())
    data["scenario_parameters"] = {"recipe": {
        "node_counts": {"sensor": 120, "controller": 30, "gateway": 60,
                        "maintenance_endpoint": 20, "workstation": 20},
        "zone_count": 50, "intra_zone_density": 0.3, "inter_zone_gateways": 1,
        "vuln_rate": 0.5, "credential_rate": 0.3,
    }}
    path = tmp_path / "zones50.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def recipe_scenario(tmp_path):
    """The bundled scenario with its topology given as a recipe."""
    data = json.loads(marine_ranch_scenario_path().read_text())
    data["scenario_parameters"] = {"recipe": {
        "node_counts": {cls: 2 for cls in data["elements"]["asset_classes"]},
        "zone_count": 1, "intra_zone_density": 0.5, "inter_zone_gateways": 0,
        "vuln_rate": 0.5, "credential_rate": 0.3,
    }}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestValidate:
    def test_bundled_scenario_is_valid(self, capsys):
        code, out, err = run(capsys, "validate", "--scenario", SCENARIO)
        assert code == 0
        report = json.loads(out)
        assert report["errors"] == []
        assert err == ""

    def test_duplicate_node_id_exits_one(self, capsys, broken_scenario):
        code, out, err = run(capsys, "validate", "--scenario", broken_scenario)
        assert code == 1
        assert "DuplicateNodeId" in err
        assert "DuplicateNodeId" not in out or json.loads(out)  # payload stays JSON

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--scenario",
                           str(tmp_path / "nope.json"))
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_documents_exit_one(self, capsys, tmp_path, name):
        content, expected = MALFORMED[name]
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "validate", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(expected)


def test_recipe_without_gateways_fails_every_command(capsys, tmp_path):
    """A recipe asking for links between three zones but placing no
    gateway is refused alike, with the same error code first, by
    ``validate`` and the commands that expand it (exit 1 each);
    ``validate`` exited 0 on it before."""
    doc = json.loads(marine_ranch_scenario_path().read_text())
    doc["scenario_parameters"] = {"recipe": {
        "node_counts": {"controller": 1}, "zone_count": 3, "intra_zone_density": 0.5,
        "inter_zone_gateways": 1, "vuln_rate": 0.5, "credential_rate": 0.3,
    }}
    path = tmp_path / "no-gateways.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert [f["code"] for f in json.loads(out)["errors"]] == ["InsufficientGateways"]
    assert err.startswith("InsufficientGateways: ")
    for argv in (["simulate", "--seed", "0"], ["batch", "--seed", "0", "-n", "2"],
                 ["paths", "--entry", "controller-0", "--target", "class:controller"],
                 ["export-dot", "--seed", "0"]):
        code, out, err = run(capsys, *argv, "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("InsufficientGateways: ")


def test_external_node_id_fails_every_command(capsys, tmp_path):
    """A node may not take the id ``EXTERNAL``, the source of an entry
    step in ``paths`` and its DOT: the marine fixture with ``maint-0``
    renamed so is refused by ``validate`` (ReservedNodeId) and by every
    command that runs it (exit 1 each); ``validate`` exited 0 on it
    before."""
    path = tmp_path / "external.json"
    path.write_text(marine_ranch_scenario_path().read_text().replace('"maint-0"', '"EXTERNAL"'))
    code, out, err = run(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert [f["code"] for f in json.loads(out)["errors"]] == ["ReservedNodeId"]
    assert err.startswith("ReservedNodeId: ")
    for argv in (["simulate", "--seed", "0"], ["batch", "--seed", "0", "-n", "2"],
                 ["paths", "--entry", "EXTERNAL", "--target", "class:controller", "-k", "1"],
                 ["export-dot", "--seed", "0"]):
        code, out, err = run(capsys, *argv, "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("InvalidScenario: ReservedNodeId: ")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "validate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2


class TestPaths:
    def test_paths_to_controllers(self, capsys, tmp_path):
        dot_file = tmp_path / "paths.dot"
        code, out, err = run(
            capsys, "paths", "--scenario", SCENARIO, "--entry", "maint-0",
            "--target", "class:controller", "-k", "5",
            "--dot", str(dot_file))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["paths"]) >= 1
        first = doc["paths"][0]
        assert first["steps"][0]["source"] == "EXTERNAL"
        assert first["steps"][-1]["target"].startswith("controller-")
        rendered = dot_file.read_text()
        assert rendered.startswith("digraph spidersim {")
        assert 'color="red"' in rendered

    def test_node_selector(self, capsys):
        code, out, _ = run(capsys, "paths", "--scenario", SCENARIO,
                           "--entry", "maint-0", "--target", "node:gateway-0")
        assert code == 0
        assert json.loads(out)["paths"]

    def test_bare_node_id_selects_the_node(self, capsys):
        """``--target gateway-0`` reads as ``node:gateway-0``."""
        outputs = [run(capsys, "paths", "--scenario", SCENARIO, "--entry", "maint-0",
                       "--target", target)
                   for target in ("gateway-0", "node:gateway-0")]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_unknown_target_class_is_usage_error(self, capsys):
        code, out, err = run(capsys, "paths", "--scenario", SCENARIO,
                             "--entry", "maint-0", "--target", "class:bogus")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "unknown node class 'bogus'" in err

    def test_k_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "paths", "--scenario", SCENARIO,
                             "--entry", "maint-0", "--target",
                             "class:controller", "-k", "0")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "TargetSelectorEmpty" not in err

    def test_max_len_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "paths", "--scenario", SCENARIO,
                             "--entry", "maint-0", "--target",
                             "class:controller", "--max-len", "0")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--max-len" in err

    def test_repeated_entry_lists_each_path_once(self, capsys):
        args = ["paths", "--scenario", SCENARIO, "--target", "class:controller"]
        _, once, _ = run(capsys, *args, "--entry", "maint-0")
        code, twice, _ = run(capsys, *args, "--entry", "maint-0", "--entry", "maint-0")
        assert code == 0
        assert twice == once

    def test_bad_entry_exits_one(self, capsys):
        code, _, err = run(capsys, "paths", "--scenario", SCENARIO,
                           "--entry", "ghost", "--target", "class:controller")
        assert code == 1
        assert "UnknownEntryNode" in err


class TestSimulateAndBatch:
    def test_trace_file_byte_identical_across_runs(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            code, out, _ = run(capsys, "simulate", "--scenario", SCENARIO,
                               "--seed", "9", "--trace", str(path))
            assert code == 0
            assert out == ""  # payload went to the file
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["config"]["seed"] == 9

    def test_simulate_stdout_payload(self, capsys):
        code, out, err = run(capsys, "simulate", "--scenario", SCENARIO,
                             "--seed", "9")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 9
        assert "rounds=" in err  # diagnostics stay on stderr

    def test_batch_with_strategy_file(self, capsys, tmp_path):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(README_STRATEGY))
        code, out, _ = run(capsys, "batch", "--scenario", SCENARIO,
                           "--seed", "0", "-n", "20",
                           "--strategy", str(strategy))
        assert code == 0
        doc = json.loads(out)
        assert doc["runs"] == 20
        assert 0.0 <= doc["attacker_success_rate"] <= 1.0


    def test_recipe_expanded_once_per_run(self, capsys, monkeypatch, tmp_path,
                                          recipe_scenario):
        import spidersim.engine as engine
        calls = []
        build = engine.build_topology
        monkeypatch.setattr(engine, "build_topology",
                            lambda *args: calls.append(args) or build(*args))
        args = ["--scenario", recipe_scenario, "--seed", "4"]
        assert run(capsys, "simulate", *args)[0] == 0
        assert len(calls) == 1
        assert run(capsys, "batch", *args, "-n", "3")[0] == 0
        assert len(calls) == 4
        # A bad placement still exits 1, before any expansion.
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps({"capability_placements": [
            {"capability_id": "honeypot", "target_node": "ghost"}]}))
        for command in (["simulate"], ["batch", "-n", "3"]):
            code, out, err = run(capsys, *command, *args, "--strategy", str(strategy))
            assert code == 1
            assert out == ""
            assert "UnknownNode: no node 'ghost' in topology" in err
        assert len(calls) == 4


    @pytest.mark.parametrize("argv", [
        ["batch", "-n", "0"], ["batch", "-n", "-3"], ["batch", "-n", "2", "--rounds", "0"],
        ["simulate", "--rounds", "0"], ["simulate", "--rounds", "x"],
    ])
    def test_count_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--scenario", SCENARIO, "--seed", "1",
                             *argv[1:])
        assert code == 2
        assert out == ""
        assert "usage:" in err and "InvalidScenario" not in err


class TestGenerate:
    def test_generate_bundled_requirement(self, capsys, tmp_path):
        out_file = tmp_path / "generated.json"
        code, out, err = run(capsys, "generate", "--requirement", REQUIREMENT,
                             "--seed", "7", "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert "iteration" in err
        from spidersim import parse_scenario, validate_spec, built_in_registry
        spec = parse_scenario(out_file.read_text())
        assert validate_spec(spec, built_in_registry()).errors == ()

    def test_generation_failure_exits_one(self, capsys, tmp_path):
        req = tmp_path / "impossible.json"
        req.write_text(json.dumps({
            "domain_tag": "tiny",
            "narrative": "One sensor only.",
            "constraints": {
                "max_nodes": 1,
                "required_classes": ["sensor"],
                "attacker_profile": "targeted",
                "target_class": "controller",
            },
        }))
        code, _, err = run(capsys, "generate", "--requirement", str(req),
                           "--seed", "1")
        assert code == 1
        assert "GenerationFailed" in err


    def test_starved_budget_exits_one(self, capsys, tmp_path):
        """Two nodes for two required classes leave none for the target."""
        req = tmp_path / "starved.json"
        req.write_text(json.dumps({
            "domain_tag": "starved", "narrative": "No room for the target.",
            "constraints": {"max_nodes": 2, "required_classes": ["sensor", "maintenance_endpoint"],
                            "attacker_profile": "targeted", "target_class": "controller"},
        }))
        code, out, err = run(capsys, "generate", "--requirement", str(req), "--seed", "0")
        assert (code, out) == (1, "")
        assert err.startswith("GenerationFailed: ")

    def test_zero_node_budget_exits_one(self, capsys, tmp_path):
        """The error names the requirement's field, not a recipe the user
        never wrote."""
        req = tmp_path / "zero.json"
        req.write_text(json.dumps({
            "domain_tag": "zero", "narrative": "No nodes at all.",
            "constraints": {"max_nodes": 0, "required_classes": [],
                            "attacker_profile": "targeted", "target_class": "controller"},
        }))
        code, out, err = run(capsys, "generate", "--requirement", str(req), "--seed", "0")
        assert (code, out) == (1, "")
        assert err.startswith("InvariantViolation: constraints.max_nodes: ")
        assert "EmptyRecipe" not in err

    def test_generated_scenario_runs_through_every_command(self, capsys, tmp_path):
        """What ``generate --seed 0`` writes simulates, batches and renders,
        and its one best path to a controller is entered from outside."""
        generated = tmp_path / "generated.json"
        assert run(capsys, "generate", "--requirement", REQUIREMENT, "--seed", "0",
                   "--out", str(generated))[0] == 0
        scenario = ["--scenario", str(generated)]
        for argv in (["simulate", "--seed", "0"], ["batch", "--seed", "0", "-n", "20"],
                     ["export-dot"]):
            assert run(capsys, *argv, *scenario)[0] == 0, argv
        code, out, _ = run(capsys, "paths", *scenario, "--entry", "maintenance_endpoint-0",
                           "--target", "class:controller", "-k", "1")
        assert code == 0
        (path,) = json.loads(out)["paths"]
        assert path["steps"][0]["source"] == "EXTERNAL"

    def test_max_iterations_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "generate", "--requirement", REQUIREMENT,
                             "--seed", "1", "--max-iterations", "0")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "GenerationFailed" not in err


class TestCapabilities:
    def test_list_shows_built_ins(self, capsys):
        code, out, _ = run(capsys, "capabilities", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert any(line.startswith("phishing\t") for line in lines)

    def test_load_good_capability(self, capsys, tmp_path):
        cap_file = tmp_path / "cap.json"
        cap_file.write_text(json.dumps({
            "interface_version": "cap-1",
            "id": "usb_drop", "kind": "attack", "name": "USB drop",
            "technique_tag": "T1091", "preconditions": [], "effects": [],
            "base_success_prob": 0.3, "detection_prob": 0.1, "cost_units": 2,
        }))
        code, out, _ = run(capsys, "capabilities", "load", str(cap_file))
        assert code == 0
        assert "usb_drop" in out

    def test_slot_enumeration_never_binds_exits_one(self, capsys, tmp_path):
        """A term naming a slot other than target or source: refused by
        ``capabilities load`` and by ``validate --capability-file``."""
        cap_file = tmp_path / "relay.json"
        cap_file.write_text(json.dumps({
            "interface_version": "cap-1", "id": "relay_hop", "kind": "attack",
            "name": "Relay hop", "technique_tag": "T0001",
            "preconditions": [{"predicate": "actor_has_foothold", "slot": "relay"}],
            "effects": [{"effect": "compromise", "privilege": "user"}],
            "base_success_prob": 0.5, "detection_prob": 0.1, "cost_units": 1,
        }))
        expected = "UnboundSlot: capability 'relay_hop': slot 'relay' is not target or source\n"
        for argv in (["capabilities", "load", str(cap_file)],
                     ["validate", "--scenario", SCENARIO, "--capability-file", str(cap_file)]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", expected)

    def test_capability_file_leaves_validate_output_alone(self, capsys, tmp_path):
        cap_file = tmp_path / "usb_drop.json"
        cap_file.write_text(json.dumps(USB_DROP))
        assert run(capsys, "capabilities", "load", str(cap_file)) == (
            0, "loaded usb_drop (attack, T1091)\n", "")
        plain = run(capsys, "validate", "--scenario", SCENARIO)
        assert plain[0] == 0
        assert run(capsys, "validate", "--scenario", SCENARIO,
                   "--capability-file", str(cap_file)) == plain

    def test_edge_exists_without_src_slot_exits_one(self, capsys, tmp_path):
        cap_file = tmp_path / "hop.json"
        cap_file.write_text(json.dumps({
            "interface_version": "cap-1", "id": "hop", "kind": "attack", "name": "Hop",
            "technique_tag": "T0001", "preconditions": [{"predicate": "edge_exists"}],
            "effects": [{"effect": "compromise", "privilege": "user"}],
            "base_success_prob": 0.5, "detection_prob": 0.1, "cost_units": 1,
        }))
        assert run(capsys, "capabilities", "load", str(cap_file)) == (
            1, "", "InvariantViolation: preconditions[0].src_slot: missing required field\n")

    def test_load_without_file_is_usage_error(self, capsys):
        assert run(capsys, "capabilities", "load")[0] == 2


class TestExportDot:
    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        for path in (a, b):
            code, _, _ = run(capsys, "export-dot", "--scenario", SCENARIO,
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_payload_only(self, capsys):
        code, out, err = run(capsys, "export-dot", "--scenario", SCENARIO)
        assert code == 0
        assert out.startswith("digraph spidersim {")
        assert err == ""


    def test_quotes_and_backslashes_in_ids(self, capsys, tmp_path):
        """``ws-0`` renamed ``ws"0`` passes ``validate``; ``export-dot`` and
        ``paths --dot`` then keep one statement per node and per edge."""
        text = marine_ranch_scenario_path().read_text()
        renamed = tmp_path / "quoted.json"
        renamed.write_text(text.replace('"ws-0"', json.dumps('ws"0')))
        doc = json.loads(renamed.read_text())
        topology = doc["scenario_parameters"]["explicit_topology"]
        node_ids = sorted(node["id"] for node in topology["nodes"])
        assert 'ws"0' in node_ids
        assert run(capsys, "validate", "--scenario", str(renamed))[0] == 0
        code, out, _ = run(capsys, "export-dot", "--scenario", str(renamed))
        assert code == 0
        graph = read_dot(out)
        assert sorted(name for name, _ in graph["nodes"]) == node_ids
        assert len(graph["edges"]) == len(topology["edges"])
        dot = tmp_path / "paths.dot"
        code, _, _ = run(capsys, "paths", "--scenario", str(renamed), "--entry", 'ws"0',
                         "--target", "class:controller", "-k", "5", "--dot", str(dot))
        assert code == 0
        graph = read_dot(dot.read_text())
        assert ("EXTERNAL", 'ws"0') in {(src, dst) for src, dst, _ in graph["edges"]}


class TestInternalErrors:
    def test_unexpected_exception_exits_three(self, capsys, monkeypatch):
        import spidersim.cli as cli
        monkeypatch.setitem(cli._COMMANDS, "validate",
                            lambda args: (_ for _ in ()).throw(RuntimeError("boom")))
        code, out, err = run(capsys, "validate", "--scenario", SCENARIO)
        assert code == 3
        assert "internal error" in err
        assert out == ""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPayloadPins:
    """sha256 of CLI payloads, computed from ``json.dumps(indent=2,
    ensure_ascii=False)`` output: they check the bytes themselves, not only
    that two runs of the same code agree."""

    def test_generate_marine(self, capsys):
        code, out, _ = run(capsys, "generate", "--requirement", REQUIREMENT, "--seed", "0")
        assert code == 0
        assert sha256(out) == (
            "95c243b5c7ea4d94a7d106ed7d874ad7c635b6636c8fa4f40118d1793b24cbc9")

    def test_generate_escaped_narrative(self, capsys, tmp_path):
        doc = json.loads(marine_ranch_requirement_path().read_text(encoding="utf-8"))
        doc["narrative"] = 'Café "ranch"\tpens, naïve \\ sensors'
        req = tmp_path / "escaped.json"
        req.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "generate", "--requirement", str(req), "--seed", "0")
        assert code == 0
        assert json.loads(out)["domain_context"]["narrative"] == doc["narrative"]
        assert "Café \\\"ranch\\\"\\tpens" in out
        assert sha256(out) == (
            "a9eac99e74eacd42661a3f65b1ff35580ee283c3a33bde4a8207d6abdf1bd012")

    def test_simulate_marine(self, capsys):
        code, out, _ = run(capsys, "simulate", "--scenario", SCENARIO, "--seed", "0")
        assert code == 0
        assert sha256(out) == (
            "b2c672f17978a3946a300ead4979940101a485183ebc7487fbb916a9985c2a6c")

    def test_simulate_marine_with_readme_strategy(self, capsys, tmp_path):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(README_STRATEGY))
        code, out, _ = run(capsys, "simulate", "--scenario", SCENARIO, "--seed", "0",
                           "--strategy", str(strategy))
        assert code == 0
        assert sha256(out) == (
            "b807d142d1202110db2dbff2b1fdf047d4a432e5274ab22ee27ef39090d517d7")

    def test_batch_marine(self, capsys):
        code, out, _ = run(capsys, "batch", "--scenario", SCENARIO, "--seed", "0", "-n", "20")
        assert code == 0
        assert sha256(out) == (
            "daa468704231f1de28613834ae119706ab88f119170019745e05291d9dd40e14")

    def test_batch_marine_with_readme_strategy(self, capsys, tmp_path):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(README_STRATEGY))
        code, out, _ = run(capsys, "batch", "--scenario", SCENARIO, "--seed", "0", "-n", "20",
                           "--strategy", str(strategy))
        assert code == 0
        assert sha256(out) == (
            "9fb485038a4a22e33f4213e032dd4782f34ec18c5440d8c619b306d5045f419c")

    def test_batch_marine_reactive_uniform_random_with_readme_strategy(self, capsys, tmp_path):
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(README_STRATEGY))
        code, out, _ = run(capsys, "batch", "--scenario", SCENARIO, "--seed", "0", "-n", "20",
                           "--attacker", "uniform_random", "--defender", "reactive",
                           "--strategy", str(strategy))
        assert code == 0
        assert sha256(out) == (
            "31c3114e743654ce1a10df7291043e703d6337b1db33ad82cef51e7f0c6db5f6")

    def test_batch_marine_cheapest_step(self, capsys):
        code, out, _ = run(capsys, "batch", "--scenario", SCENARIO, "--seed", "0", "-n", "20",
                           "--attacker", "cheapest_step")
        assert code == 0
        assert sha256(out) == (
            "89709fb919dd0f1e546ba07e7265bb579bfc13528686611ba223d3f2bec7c856")

    def test_simulate_marine_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "simulate", "--scenario", SCENARIO, "--seed", "3",
                         "--trace", str(trace))
        assert code == 0
        assert sha256(trace.read_text(encoding="utf-8")) == (
            "0c610298843f05a986f90fb62463d1199aafe369e1e7d4ffd7e9d1ec02957da1")

    def test_paths_marine_with_dot(self, capsys, tmp_path):
        dot = tmp_path / "paths.dot"
        code, out, _ = run(capsys, "paths", "--scenario", SCENARIO, "--entry", "maint-0",
                           "--target", "class:controller", "-k", "5", "--dot", str(dot))
        assert code == 0
        assert sha256(out) == (
            "a5060c108c6fbd030f747c33b3f3558108f8e03940cd6ac05680d968299773a4")
        assert sha256(dot.read_text(encoding="utf-8")) == (
            "63ba972cdbd78572701e74fe131b2dac9521398669e9e9cd8fdcf162877c8bc2")

    def test_simulate_recipe_50_zones_trace_file(self, capsys, tmp_path, zones50_scenario):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "simulate", "--scenario", zones50_scenario, "--seed", "0",
                         "--trace", str(trace))
        assert code == 0
        assert sha256(trace.read_text(encoding="utf-8")) == (
            "395e1384c8b9b3131a7be866a58bd063acbc6bb59e9288afcc045f30bac436bb")

    def test_batch_recipe_50_zones(self, capsys, zones50_scenario):
        code, out, _ = run(capsys, "batch", "--scenario", zones50_scenario, "--seed", "0",
                           "-n", "20")
        assert code == 0
        assert sha256(out) == (
            "81a77ef6946ca77bdef1a1e4f485ce512c685859363d350536482f43235248b8")

    def test_export_dot_recipe_50_zones(self, capsys, zones50_scenario):
        code, out, _ = run(capsys, "export-dot", "--scenario", zones50_scenario, "--seed", "0")
        assert code == 0
        assert sha256(out) == (
            "bde029689eec5d14d89a2ea9ae16481005e481230784af9df8a6d3a5f72107ab")

    def test_simulate_recipe(self, capsys, recipe_scenario):
        code, out, _ = run(capsys, "simulate", "--scenario", recipe_scenario, "--seed", "0")
        assert code == 0
        assert sha256(out) == (
            "656d9611806bbea845531d28ed0546d2f9b1605115d5a379892157532e84b524")


# Each command with the files it writes, relative to its working directory.
HASH_SEED_COMMANDS = {
    "generate": (["generate", "--requirement", REQUIREMENT, "--seed", "0"], []),
    "paths": (["paths", "--scenario", SCENARIO, "--entry", "maint-0",
               "--target", "class:controller", "-k", "5", "--dot", "paths.dot"], ["paths.dot"]),
    "simulate": (["simulate", "--scenario", SCENARIO, "--seed", "3",
                  "--attacker", "uniform_random", "--defender", "reactive"], []),
    "batch": (["batch", "--scenario", SCENARIO, "--seed", "0", "-n", "50"], []),
}


def run_process(argv, cwd, hash_seed):
    """Run ``python -m spidersim`` in a fresh interpreter with one
    string-hash seed: its exit code, stdout bytes and the files it wrote."""
    src = str(Path(spidersim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "spidersim", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    return done.returncode, done.stdout


@pytest.mark.parametrize("name", HASH_SEED_COMMANDS)
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, name):
    """Every payload pin runs in one process with one string-hash seed;
    this runs a few commands as processes under two seeds and compares
    their bytes."""
    argv, written = HASH_SEED_COMMANDS[name]
    outputs = []
    for hash_seed in (0, 12345):
        cwd = tmp_path / str(hash_seed)
        cwd.mkdir()
        code, out = run_process(argv, cwd, hash_seed)
        assert code == 0
        outputs.append([out, *((cwd / f).read_bytes() for f in written)])
    assert all(outputs[0]) and outputs[0] == outputs[1]
