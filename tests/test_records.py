"""Every frozen value class is declared with ``records.record``.

The bulk value records are frozen slotted dataclasses with no instance
dict and no field assignment, whose pickles, deep copies and ``replace``
give back an equal value with an equal hash, and whose constructor stores
each field through its slot with the signature and results of the one
``dataclass`` generates. The classes that cache derived values keep an
instance dict and pickle their fields only. Every value class behaves as
a plain ``make_dataclass(..., frozen=True)`` twin of it does, and
``record`` compiles each class's methods in one step."""

import ast
import copy
import dataclasses
import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from collections.abc import Mapping
from dataclasses import KW_ONLY, MISSING, FrozenInstanceError, InitVar, field, fields, replace
from pathlib import Path

import pytest

import spidersim as ss
from spidersim import forge, records
from spidersim.capabilities import CapabilityOutcome
from spidersim.data import marine_ranch_requirement_text, marine_ranch_scenario_text
from spidersim.engine import Metrics, SimEvent
from spidersim.errors import GenerationFailed, InvariantViolation
from spidersim.exports import parse_requirement
from spidersim.model import ScenarioParameters, Service
from spidersim.records import record

STEP = ss.AttackStep(source=ss.EXTERNAL, capability_id="phishing", target="ws-0",
                     step_prob=0.4, step_cost=1)

RECORDS = [
    Service("ssh", 22),
    ss.Node(id="ws-0", node_class=ss.NodeClass.WORKSTATION, zone="zone-0",
            services=(Service("smb", 445),), vulnerability_ids=("vuln-0",),
            credential_ids=("cred-0",), asset_value=30),
    ss.Edge(src="ws-0", dst="ctl-0", protocol_tag="udp", bidirectional=False),
    ss.Vulnerability(id="vuln-0", technique_tag="T1190",
                     access_requirement=ss.AccessRequirement.ADJACENT,
                     success_prob=0.6, detection_prob=0.2,
                     gained_privilege=ss.Privilege.ADMIN),
    ss.Credential(id="cred-0", stored_on="ws-0", grants_access_to=("ctl-0", "db-0")),
    STEP,
    ss.AttackPath(steps=(STEP, replace(STEP, source="ws-0", target="ctl-0")),
                  success_prob=0.16, total_cost=2),
    SimEvent(round=3, actor=ss.Actor.ATTACKER, capability_id="exploit_vuln",
             target="ctl-0", success=True, detected=False, trapped_for=0),
    Metrics(objectives_met=((0, True), (1, False)), time_to_first_objective=4,
            compromised_fraction=0.25, detection_count=1, attacker_cost_spent=7),
    CapabilityOutcome(success=True, detected=False, trapped_for=2),
]


def record_id(value):
    return type(value).__name__


@pytest.mark.parametrize("value", RECORDS, ids=record_id)
class TestSlottedRecords:
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert "__slots__" in type(value).__dict__

    def test_fields_cannot_be_assigned(self, value):
        for field in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))

    @pytest.mark.parametrize("copy_of", [
        pytest.param(lambda v: pickle.loads(pickle.dumps(v)), id="pickle"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(replace, id="replace"),
    ])
    def test_copies_are_equal(self, value, copy_of):
        copied = copy_of(value)
        assert copied is not value
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)


def plain_twin(cls):
    """The plain ``@dataclass(frozen=True, slots=True)`` with the fields of
    ``cls``: what ``record`` must construct like."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, field(default=f.default)) for f in fields(cls)],
        frozen=True, slots=True)


def field_values(value):
    return tuple(getattr(value, f.name) for f in fields(value))


@pytest.mark.parametrize("value", RECORDS, ids=record_id)
class TestRecordConstructor:
    def test_signature_is_the_generated_one(self, value):
        cls = type(value)
        assert inspect.signature(cls.__init__) == inspect.signature(plain_twin(cls).__init__)
        assert inspect.signature(cls) == inspect.signature(plain_twin(cls))

    def test_construction_matches_the_twin(self, value):
        cls, twin = type(value), plain_twin(type(value))
        values = field_values(value)
        names = [f.name for f in fields(cls)]
        required = [v for f, v in zip(fields(cls), values) if f.default is MISSING]
        for args, kwargs in [(values, {}), ((), dict(zip(names, values))), (required, {})]:
            built, plain = cls(*args, **kwargs), twin(*args, **kwargs)
            assert field_values(built) == field_values(plain)
            assert hash(built) == hash(plain)
        assert cls(*values) == value

    def test_init_stores_through_the_slots(self, value):
        assert "__setattr__" not in type(value).__init__.__code__.co_names


@pytest.mark.parametrize("body", [
    pytest.param({"__annotations__": {"a": list}, "a": field(default_factory=list)},
                 id="default_factory"),
    pytest.param({"__annotations__": {"a": int}, "a": field(default=0, init=False)},
                 id="init_false"),
    pytest.param({"__annotations__": {"a": int}, "a": field(kw_only=True)}, id="kw_only"),
    pytest.param({"__annotations__": {"_": KW_ONLY, "a": int}}, id="kw_only_marker"),
    pytest.param({"__annotations__": {"a": int, "b": InitVar[int]}}, id="init_var"),
    pytest.param({"__annotations__": {"a": int, "b": int}, "a": 0}, id="default_before_required"),
    pytest.param({"__annotations__": {"a": int}, "__setattr__": object.__setattr__},
                 id="own_setattr"),
    pytest.param({"__annotations__": {"a": int}, "__delattr__": object.__delattr__},
                 id="own_delattr"),
])
def test_record_refuses_what_its_init_does_not_reproduce(body):
    with pytest.raises(TypeError):
        record(type("Unsupported", (), dict(body)))


def test_record_refuses_a_base_class():
    base = record(type("Base", (), {"__annotations__": {"a": int}}))
    with pytest.raises(TypeError):
        record(type("Derived", (base,), {"__annotations__": {"b": int}}))


def test_record_keeps_the_field_options_of_dataclass():
    """``repr=False`` leaves a field out of ``repr``, ``compare=False``
    out of equality and hashing, and ``hash=False`` out of hashing alone,
    as in the generated methods of ``dataclass(frozen=True)``."""
    annotations = {"a": int, "b": int, "c": int, "d": int}
    spec = {"b": field(default=2, repr=False), "c": field(default=3, compare=False),
            "d": field(default=4, hash=False)}
    built = record(type("Options", (), {"__annotations__": annotations, **spec}))
    twin = dataclasses.make_dataclass(
        "Options", [(name, int, spec.get(name, field())) for name in annotations], frozen=True)
    for args in [(1,), (1, 5), (1, 2, 6), (1, 2, 3, 7)]:
        assert repr(built(*args)) == repr(twin(*args))
        assert hash(built(*args)) == hash(twin(*args))
        for other in [(1,), (1, 5), (1, 2, 6), (1, 2, 3, 7)]:
            assert (built(*args) == built(*other)) == (twin(*args) == twin(*other))


def test_record_runs_post_init_after_storing_the_fields():
    seen = []

    @record
    class Checked:
        a: int
        b: int = 2

        def __post_init__(self):
            seen.append((self.a, self.b))
            if self.a < 0:
                raise ValueError("a must be >= 0")

    assert Checked(1) == Checked(a=1, b=2)
    assert seen == [(1, 2), (1, 2)]
    with pytest.raises(ValueError):
        Checked(-1)
    with pytest.raises(ValueError):
        replace(Checked(1), a=-1)
    with pytest.raises(InvariantViolation):
        ss.TargetSelector()


def test_every_frozen_slotted_dataclass_is_a_record():
    """One declaration path: no module but ``records.py`` declares a
    slotted dataclass or applies ``dataclass`` itself."""
    src = Path(ss.__file__).parent
    modules = [p for p in src.glob("*.py") if p.name != "records.py"]
    assert [p.name for p in modules if "slots=True" in p.read_text()] == []
    assert [p.name for p in modules
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass"] == []


# The value classes that keep values derived from their fields in a
# ``cached_property``, and so an instance dict.
DICT_BACKED = {"NetworkTopology", "TopologyRecipe", "AtomicCapability", "CapabilityRegistry",
               "SimulationState"}


def value_classes():
    """Every class a ``spidersim`` module declares with dataclass fields,
    by name."""
    found = {}
    for info in pkgutil.iter_modules(ss.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"spidersim.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and hasattr(value, "__dataclass_fields__")
                    and value.__module__ == module.__name__):
                found[value.__name__] = value
    return found


VALUE_CLASSES = value_classes()


def sample_roots():
    """Values from a run of every stage on the marine fixture, its recipe
    variant and the bundled requirement, which hold an instance of every
    value class."""
    registry = ss.built_in_registry()
    marine = ss.parse_scenario(marine_ranch_scenario_text())
    recipe = ss.TopologyRecipe(
        node_counts=tuple((cls, 2) for cls in marine.elements.asset_classes), zone_count=2,
        intra_zone_density=0.5, inter_zone_gateways=1, vuln_rate=0.5, credential_rate=0.3)
    recipe_spec = replace(marine, scenario_parameters=ScenarioParameters(recipe=recipe))
    topology = marine.scenario_parameters.explicit_topology
    strategy = ss.compose_strategy(registry, [("honeypot", "maint-0"),
                                              ("shocktrap", "gateway-0")])
    roots = [marine, recipe_spec, ss.build_topology(recipe, registry, 0), recipe.layout,
             registry, [cap.binding_rule for cap in registry.capabilities()], strategy,
             ss.validate_spec(marine, registry), *RECORDS]
    for spec, plan, policy in ((marine, strategy, ss.DefenderPolicy.STATIC),
                               (recipe_spec, ss.DefenseStrategy(), ss.DefenderPolicy.REACTIVE)):
        config = ss.SimulationConfig(seed=3, defender_policy=policy)
        roots += [ss.run_simulation(spec, plan, registry, config),
                  ss.batch_run(spec, plan, registry, config, 2)]
    controllers = ss.TargetSelector(node_class=ss.NodeClass.CONTROLLER)
    # A repeated entry: ``PathQuery.__post_init__`` drops it.
    for entries, target in ((("maint-0", "maint-0"), controllers),
                            (("maint-0",), ss.TargetSelector(node_id="controller-1"))):
        query = ss.PathQuery(entries=entries, target=target, k=3)
        roots += [query, ss.enumerate_attack_paths(topology, registry, query)]
    requirement = parse_requirement(marine_ranch_requirement_text())
    roots += [ss.run_pipeline(requirement, registry, seed=0), forge.PIPELINE]
    board = ss.Blackboard(requirement=requirement)
    for role in forge.PIPELINE:
        board = ss.agent_step(role, board, registry, seed=0)
        roots.append(board)
    starved = replace(requirement, constraints=replace(
        requirement.constraints, max_nodes=2,
        required_classes=(ss.NodeClass.SENSOR, ss.NodeClass.MAINTENANCE_ENDPOINT)))
    with pytest.raises(GenerationFailed) as failed:
        ss.run_pipeline(starved, registry, seed=0, max_iterations=2)
    roots.append(failed.value.report)
    return roots


def collect(value, found, seen):
    """Gather up to three instances of every value class held in
    ``value``, its fields, and the items of its containers."""
    if id(value) in seen or isinstance(value, (str, bytes, int, float, type(None))):
        return
    seen.add(id(value))
    if hasattr(type(value), "__dataclass_fields__"):
        instances = found.setdefault(type(value).__name__, [])
        if len(instances) < 3 and value not in instances:
            instances.append(value)
        for f in fields(value):
            collect(getattr(value, f.name), found, seen)
    elif isinstance(value, Mapping):
        for item in value.items():
            collect(item, found, seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            collect(item, found, seen)


@pytest.fixture(scope="module")
def samples():
    found = {}
    collect(sample_roots(), found, set())
    return found


def test_every_value_class_has_samples(samples):
    assert sorted(samples) == sorted(VALUE_CLASSES)
    assert DICT_BACKED <= set(VALUE_CLASSES)


def frozen_twin(cls):
    """``make_dataclass(..., frozen=True)`` with the fields of ``cls`` and
    every method and cached property its source defines: the class the
    generated ``dataclass`` code alone makes of the same body."""
    module_file = sys.modules[cls.__module__].__file__

    def from_source(member):
        code = getattr(getattr(member, "func", member), "__code__", None)
        return code is not None and code.co_filename == module_file

    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, field(default=f.default, default_factory=f.default_factory))
         for f in fields(cls)],
        frozen=True,
        namespace={name: member for name, member in vars(cls).items() if from_source(member)})


def outcome(make):
    """What ``make()`` gives: a result, or the type of what it raised."""
    try:
        return "ok", make()
    except Exception as exc:  # the twin must raise the same type
        return "raised", type(exc)


@functools.cache
def source_docstrings(module_name):
    """The docstring each class of the module's source declares, by
    name (None for a class without one)."""
    tree = ast.parse(Path(sys.modules[module_name].__file__).read_text(encoding="utf-8"))
    return {node.name: ast.get_docstring(node)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


# What ``record`` writes in place of ``dataclass``'s generated code.
GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def field_spec(f):
    return f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
class TestValueClass:
    def test_declaration_matches_the_twin(self, name):
        cls, twin = VALUE_CLASSES[name], frozen_twin(VALUE_CLASSES[name])
        assert [field_spec(f) for f in fields(cls)] == [field_spec(f) for f in fields(twin)]
        assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
        assert inspect.signature(cls) == inspect.signature(twin)

    def test_values_match_the_twin(self, name, samples):
        cls, twin = VALUE_CLASSES[name], frozen_twin(VALUE_CLASSES[name])
        values = samples[name]
        plains = [twin(*field_values(v)) for v in values]
        for value, plain in zip(values, plains):
            built = cls(*field_values(value))
            assert built == value and field_values(built) == field_values(plain)
            assert repr(built) == repr(plain)
            assert outcome(lambda: hash(built)) == outcome(lambda: hash(plain))
        for a, plain_a in zip(values, plains):
            for b, plain_b in zip(values, plains):
                assert (a == b) == (plain_a == plain_b)
                for f in fields(cls):
                    changed = outcome(lambda: field_values(replace(a, **{f.name: getattr(b, f.name)})))
                    assert changed == outcome(
                        lambda: field_values(replace(plain_a, **{f.name: getattr(b, f.name)})))

    def test_copies_are_equal(self, name, samples):
        for value in samples[name]:
            plain = frozen_twin(type(value))(*field_values(value))
            copied = outcome(lambda: field_values(copy.deepcopy(value)))
            assert copied == outcome(lambda: field_values(copy.deepcopy(plain)))
            if copied[0] == "raised":
                continue  # a read-only mapping field (RecipeLayout) copies in neither
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(copied) is type(value)
                assert copied == value and hash(copied) == hash(value)
            # A used value pickles to the bytes of a fresh one.
            assert pickle.dumps(value) == pickle.dumps(type(value)(*field_values(value)))

    def test_dataclass_api_matches_the_twin(self, name, samples):
        cls, twin = VALUE_CLASSES[name], frozen_twin(VALUE_CLASSES[name])
        assert dataclasses.is_dataclass(cls) and cls.__match_args__ == twin.__match_args__
        options = ("init", "repr", "eq", "order", "unsafe_hash", "frozen")
        assert ([getattr(cls.__dataclass_params__, option) for option in options]
                == [getattr(twin.__dataclass_params__, option) for option in options])
        for value in samples[name]:
            plain = twin(*field_values(value))
            assert dataclasses.is_dataclass(value)
            for convert in (dataclasses.asdict, dataclasses.astuple):
                # A read-only mapping field (RecipeLayout, SimulationState)
                # deep-copies in neither.
                assert outcome(lambda: convert(value)) == outcome(lambda: convert(plain))

    def test_docstring_matches_the_twin(self, name):
        """A class keeps its own docstring; one without gets the text of
        its signature that ``dataclass`` writes."""
        cls = VALUE_CLASSES[name]
        written = source_docstrings(cls.__module__)[name]
        assert inspect.cleandoc(cls.__doc__) == (written or frozen_twin(cls).__doc__)

    def test_generated_methods_share_one_compile(self, name):
        """The methods ``record`` compiles for a class all come from one
        source named after the class; the rest are its shared closures or
        the class's own. Code ``dataclass`` generates has another name."""
        cls = VALUE_CLASSES[name]
        own_sources = {sys.modules[cls.__module__].__file__, records.__file__}
        files = {method: vars(cls)[method].__code__.co_filename for method in GENERATED}
        compiled = {method for method, filename in files.items() if filename not in own_sources}
        assert {"__init__", "__eq__"} <= compiled
        assert {files[method] for method in compiled} == {
            f"<record {cls.__module__}.{cls.__qualname__}>"}

    def test_frozen_and_slotted(self, name, samples):
        for value in samples[name]:
            for f in fields(value):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
            assert hasattr(value, "__dict__") == (name in DICT_BACKED)


def test_import_raises_no_warning():
    """A fresh interpreter imports the CLI with every warning an error, so
    the source ``record`` compiles raises no SyntaxWarning or
    DeprecationWarning."""
    src = str(Path(ss.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import spidersim.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
