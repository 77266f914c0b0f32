"""The bulk value records are frozen slotted dataclasses: no instance
dict, no field assignment, and pickles, deep copies and ``replace`` give
back an equal value with an equal hash."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import spidersim as ss
from spidersim.engine import Metrics, SimEvent
from spidersim.model import Service

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
