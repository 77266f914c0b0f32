"""The names the benchmark tracer (``perfbench/tracing.py``) wraps exist,
and the calls it counts happen, so that a rename or a bypass fails here
rather than only in a traced benchmark run.

The tracer's own file is read, not changed: its ``SPANS`` table is loaded
from it, and its ``Tracer`` is installed on the spidersim modules and
removed again.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import spidersim as ss
from spidersim import capabilities
from spidersim.state import fresh_state

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("model", "capabilities", "engine", "attackgraph", "forge", "exports",
           "errors", "data")
# The functions the tracer counts calls of, or wraps the result of,
# rather than timing: (module, name).
COUNTED = (("capabilities", "evaluate_preconditions"), ("attackgraph", "hop_option"),
           ("forge", "agent_step"), ("forge", "refine"), ("engine", "substream"))


def _tracing():
    spec = importlib.util.spec_from_file_location("spidersim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lib():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"spidersim.{name}") for name in MODULES})


def test_every_traced_name_exists():
    lib = _lib()
    for module, name in _tracing().SPANS + COUNTED:
        assert callable(getattr(getattr(lib, module), name, None)), f"{module}.{name}"
        assert f'"{name}"' in TRACING.read_text(encoding="utf-8"), name


def test_tracer_installs_and_uninstalls(marine_topology, registry):
    """``Tracer.install`` finds every name it wraps in its home module,
    and one traced enumeration counts its bindings; ``uninstall`` puts
    the originals back."""
    lib = _lib()
    originals = {(m, n): getattr(lib, m).__dict__[n] for m, n in _tracing().SPANS + COUNTED}
    tracer = _tracing().Tracer()
    try:
        tracer.install(lib)
        for (module, name), original in originals.items():
            assert getattr(lib, module).__dict__[name] is not original, f"{module}.{name}"
        state = fresh_state(marine_topology).with_compromise("maint-0", ss.Privilege.USER)
        found = lib.capabilities.applicable_capabilities(registry, state)
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(lib, module).__dict__[name] is original, f"{module}.{name}"
    assert tracer.counts["capabilities.actions_found"] == len(found) > 0
    assert tracer.counts["capabilities.bindings_tried"] >= len(found)


def test_enumeration_checks_each_binding_it_returns(monkeypatch, marine_topology, registry):
    """``applicable_capabilities`` calls ``capabilities.evaluate_preconditions``
    (through the module global the tracer replaces) on every binding it
    returns, so the tracer's ``bindings_tried`` cannot read 0 while actions
    are found."""
    checked = []
    evaluate = capabilities.evaluate_preconditions

    def counting(cap, state, binding):
        checked.append((cap.id, dict(binding)))
        return evaluate(cap, state, binding)

    monkeypatch.setattr(capabilities, "evaluate_preconditions", counting)
    state = (fresh_state(marine_topology)
             .with_compromise("maint-0", ss.Privilege.USER)
             .with_compromise("ws-0", ss.Privilege.ADMIN))
    found = capabilities.applicable_capabilities(registry, state)
    assert found
    for cap, binding in found:
        assert (cap.id, binding) in checked, (cap.id, binding)
