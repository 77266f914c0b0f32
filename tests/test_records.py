"""The bulk value records are declared with ``records.record``: frozen
slotted dataclasses with no instance dict and no field assignment, whose
pickles, deep copies and ``replace`` give back an equal value with an
equal hash, and whose constructor stores each field through its slot with
the signature and results of the one ``dataclass`` generates."""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import KW_ONLY, MISSING, FrozenInstanceError, InitVar, field, fields, replace
from pathlib import Path

import pytest

import spidersim as ss
from spidersim.capabilities import CapabilityOutcome
from spidersim.engine import Metrics, SimEvent
from spidersim.model import Service
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
    pytest.param({"__annotations__": {"a": int}, "__post_init__": lambda self: None},
                 id="post_init"),
])
def test_record_refuses_what_its_init_does_not_reproduce(body):
    with pytest.raises(TypeError):
        record(type("Unsupported", (), dict(body)))


def test_every_frozen_slotted_dataclass_is_a_record():
    """One construction path: no module declares a frozen slotted
    dataclass around ``record``."""
    src = Path(ss.__file__).parent
    assert [p.name for p in src.glob("*.py")
            if p.name != "records.py" and "slots=True" in p.read_text()] == []
