"""One document contract: every command that runs a scenario accepts the
documents ``validate`` accepts and refuses the ones it refuses.

The documents are the scenario mutations of ``tests/test_readers.py``, on
the marine fixture (explicit topology) and on its recipe variant.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings

import spidersim as ss
from spidersim.cli import main
from spidersim.errors import SpiderSimError
from spidersim.model import scenario_node_ids

from test_readers import READERS, mutated_documents

SCENARIO_READERS = READERS[:2]  # the marine scenario and its recipe variant
RUN_COMMANDS = (
    ("simulate", "--seed", "0"),
    ("batch", "--seed", "0", "-n", "3"),
    ("paths",),  # its --entry and --target are added per document
    ("export-dot",),
)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue().splitlines()


def _endpoints(text: str):
    """An entry and a target node that exist, when the document parses."""
    try:
        ids = sorted(scenario_node_ids(ss.parse_scenario(text)))
    except SpiderSimError:
        ids = []
    if not ids:
        return "maint-0", "node:maint-0"
    return ids[0], f"node:{ids[-1]}"


def check_contract(doc) -> None:
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.json")
        Path(path).write_text(text, encoding="utf-8")
        verdict, validate_err = _run("validate", "--scenario", path)
        assert verdict in (0, 1), (text, validate_err)
        entry, target = _endpoints(text)
        results = []
        for command in RUN_COMMANDS:
            extra = ("--entry", entry, "--target", target) if command[0] == "paths" else ()
            code, err = _run(*command, *extra, "--scenario", path)
            results.append((command[0], code, err[0] if err else None))
    codes = {code for _, code, _ in results}
    assert codes == {verdict}, (text, validate_err, results)
    if verdict == 1:
        # The same first line from every command, which reports what
        # validate reports: one of its lines, or all of them joined.
        (first,) = {line for _, _, line in results}
        reported = first.removeprefix("InvalidScenario: ")
        assert any(reported.startswith(line) for line in validate_err), (first, validate_err)


def _marine() -> dict:
    return json.loads(json.dumps(SCENARIO_READERS[0][1]))


def _repeated_node_id() -> dict:
    doc = _marine()
    nodes = doc["scenario_parameters"]["explicit_topology"]["nodes"]
    nodes.append(dict(nodes[0]))
    return doc


def _unknown_capability_ref() -> dict:
    doc = _marine()
    doc["elements"]["capability_refs"].append("forcefield")
    return doc


def _dangling_edge() -> dict:
    doc = _marine()
    edges = doc["scenario_parameters"]["explicit_topology"]["edges"]
    edges.append(dict(edges[0], dst="ghost"))
    return doc


def _objective_on_unknown_node() -> dict:
    doc = _marine()
    doc["objectives"][0]["target"] = {"node_id": "ghost"}
    return doc


def _external_node_id() -> dict:
    return json.loads(json.dumps(_marine()).replace('"maint-0"', '"EXTERNAL"'))


def _recipe_over_the_bound() -> dict:
    doc = json.loads(json.dumps(SCENARIO_READERS[1][1]))
    doc["scenario_parameters"]["recipe"]["zone_count"] = 2 ** 64
    return doc


@given(case=mutated_documents(SCENARIO_READERS))
@example(case=(0, _repeated_node_id()))
@example(case=(0, _unknown_capability_ref()))
@example(case=(0, _dangling_edge()))
@example(case=(0, _objective_on_unknown_node()))
@example(case=(0, _external_node_id()))
@example(case=(1, _recipe_over_the_bound()))
@settings(max_examples=200, deadline=None)
def test_run_commands_accept_what_validate_accepts(case):
    """Where ``validate`` exits 0, ``simulate``, ``batch -n 3``, ``paths``
    (from a node that exists to one that exists) and ``export-dot`` exit 0;
    where it exits 1, each of them exits 1 with the same first stderr
    line. No command exits 3."""
    check_contract(case[1])
