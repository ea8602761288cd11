"""CampaignSpec: the daemon x client x encoding x fault-model cell,
and RunOptions: how one cell executes."""

import dataclasses
import pickle

import pytest

from repro.apps.ftpd import client1
from repro.apps.pop3d import Pop3Daemon
from repro.injection import (ALL_ENCODINGS, BranchBitFlip,
                             CampaignSpec, DEFAULT_TARGET_KINDS,
                             enumerate_specs, RegisterBitFlip,
                             run_campaign, run_spec, RunOptions)
from repro.service import SUBMIT_OPTIONS


def test_defaults_name_the_paper_experiment():
    spec = CampaignSpec()
    assert (spec.daemon, spec.client) == ("ftpd", "Client1")
    assert spec.encoding == "old"
    assert spec.fault_model == "branch-bit"
    assert isinstance(spec.model(), BranchBitFlip)


def test_spec_resolves_registries():
    spec = CampaignSpec(daemon="pop3d", client="Client1",
                        fault_model="register-bit")
    assert spec.daemon_spec().daemon_class is Pop3Daemon
    assert callable(spec.client_factory())
    assert isinstance(spec.model(), RegisterBitFlip)
    assert spec.label() == "pop3d Client1 old register-bit"


def test_spec_is_hashable_pure_data():
    spec = CampaignSpec(daemon="sshd", fault_model="burst2")
    assert spec == CampaignSpec(daemon="sshd", fault_model="burst2")
    assert len({spec, CampaignSpec(daemon="sshd",
                                   fault_model="burst2")}) == 1


def test_unknown_names_fail_at_resolution_not_construction():
    spec = CampaignSpec(daemon="telnetd", fault_model="cosmic-ray")
    with pytest.raises(KeyError):
        spec.daemon_spec()
    with pytest.raises(KeyError):
        spec.model()


def test_enumerate_specs_full_product():
    specs = enumerate_specs()
    daemons = {spec.daemon for spec in specs}
    models = {spec.fault_model for spec in specs}
    assert daemons == {"ftpd", "pop3d", "sshd"}
    assert models == {"branch-bit", "burst2", "memory-bit",
                      "register-bit"}
    assert all(spec.encoding == "old" for spec in specs)
    assert len(specs) == len(set(specs))      # no duplicates


def test_enumerate_specs_restricted():
    specs = enumerate_specs(daemons=("ftpd",), clients=("Client1",),
                            encodings=ALL_ENCODINGS,
                            fault_models=("branch-bit",))
    assert len(specs) == 2
    assert {spec.encoding for spec in specs} == set(ALL_ENCODINGS)


def test_run_spec_pop3d_campaign_smoke(pop3_daemon, tmp_path):
    spec = CampaignSpec(daemon="pop3d", client="Client1",
                        fault_model="register-bit")
    journal = str(tmp_path / "pop3.jsonl")
    campaign = run_spec(spec, daemon=pop3_daemon, max_points=8,
                        journal=journal, resume=True)
    assert campaign.total_runs == 8
    assert campaign.fault_model == "register-bit"
    resumed = run_spec(spec, daemon=pop3_daemon, max_points=8,
                       journal=journal, resume=True)
    assert resumed.timing["executed"] == 0
    assert resumed.counts() == campaign.counts()


def test_run_spec_builds_daemon_when_not_supplied():
    spec = CampaignSpec(daemon="ftpd", client="Client1")
    campaign = run_spec(spec, max_points=2)
    assert campaign.total_runs == 2
    assert campaign.daemon_name == "FtpDaemon"


@pytest.mark.parametrize("fields", [dict(daemon=3), dict(client=None),
                                    dict(encoding="newer"),
                                    dict(fault_model=["branch-bit"])])
def test_spec_rejects_ill_typed_names(fields):
    name = next(iter(fields))
    with pytest.raises((TypeError, ValueError), match=name):
        CampaignSpec(**fields)


# ----------------------------------------------------------------------
# RunOptions

def test_run_options_defaults_are_the_paper_campaign():
    options = RunOptions()
    assert options.kinds == DEFAULT_TARGET_KINDS
    assert options.budget == 400_000
    assert options.max_points is None and options.journal is None
    assert not (options.resume or options.prune or options.forensics)


@pytest.mark.parametrize("field, value", [
    ("retries", "2"), ("retries", True), ("retries", -1),
    ("budget", 0), ("budget", 1.5), ("max_points", -3),
    ("max_points", False), ("journal_fsync", 0), ("audit_seed", "7"),
    ("audit_fraction", "x"), ("audit_fraction", True),
    ("audit_fraction", 1.5), ("audit_fraction", float("nan")),
    ("resume", 1), ("prune", "yes"), ("forensics", None),
    ("full_restore", 0), ("journal_salvage", "false"),
    ("journal", 5), ("journal", ""), ("trace", ["t.json"]),
    ("metrics", True), ("profile", {}),
    ("kinds", "cond_branch"), ("kinds", [1]), ("kinds", 3),
    ("ranges", [(1, "2")]), ("ranges", [(1, 2, 3)]), ("ranges", 7),
])
def test_run_options_reject_bad_values_naming_the_field(field, value):
    with pytest.raises((TypeError, ValueError), match=field):
        RunOptions(**{field: value})


def test_run_options_normalise_and_pickle():
    options = RunOptions(kinds=["jump"], ranges=[[16, 32]],
                         journal="run.jsonl", audit_fraction=1)
    assert options.kinds == frozenset({"jump"})
    assert options.ranges == ((16, 32),)
    assert pickle.loads(pickle.dumps(options)) == options
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.budget = 1


def test_run_campaign_validates_before_running(ftp_daemon):
    with pytest.raises(TypeError, match="retries"):
        run_campaign(ftp_daemon, "Client1", client1, max_points=2,
                     retries="2")
    with pytest.raises(TypeError, match="unexpected keyword"):
        run_campaign(ftp_daemon, "Client1", client1, max_point=2)


def test_wire_whitelist_is_a_subset_of_run_options():
    fields = {field.name for field in dataclasses.fields(RunOptions)}
    assert SUBMIT_OPTIONS <= fields
