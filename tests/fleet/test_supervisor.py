"""Fleet supervision end-to-end: shards, self-healing, resume parity.

Small fleets (3-5 members, one simulated day) keep each test at
seconds scale while exercising the real machinery: forked shard
workers, checksum-validated artifacts, fault injection, and the
byte-identical resume contract.  Process-level tests are marked
``supervision`` alongside the campaign supervisor's.
"""

import json

import pytest

from repro.fleet import (
    FleetSpec,
    FleetSupervisor,
    ShardArtifactError,
    read_shard_artifact,
)
from repro.runtime import JournalError, RetryPolicy, SupervisorConfig
from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

supervision = pytest.mark.supervision

SPEC = FleetSpec(systems=3, days=1, seed=21)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One member-log cache shared by every fleet in the module."""
    return tmp_path_factory.mktemp("fleet-cache")


def fast_config(**overrides):
    defaults = dict(
        deadline=60.0,
        heartbeat_interval=0.05,
        heartbeat_grace=15.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
        breaker_threshold=3,
        max_workers=2,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def make_supervisor(root, cache_dir, spec=SPEC, **overrides):
    return FleetSupervisor(root, spec=spec,
                           config=fast_config(**overrides),
                           cache_root=cache_dir)


def install_plan(monkeypatch, tmp_path, faults):
    path = FaultPlan(faults).dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))


def events(supervisor, name):
    return [e for e in supervisor.journal.events() if e["event"] == name]


# ----------------------------------------------------------------------
@supervision
def test_clean_fleet_run(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.conserved
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert report.exit_code() == 0
    # every covered shard is backed by a validating on-disk artifact
    for member_id in SPEC.member_ids:
        artifact = read_shard_artifact(sup.shard_path(member_id))
        assert artifact.report["system"] == member_id
    assert sup.report_path.is_file()
    assert events(sup, "fleet-end")


@supervision
def test_sequential_and_concurrent_reports_match(tmp_path, cache_dir):
    """The scheduler is an execution detail: same bytes either way."""
    seq = make_supervisor(tmp_path / "seq", cache_dir, max_workers=1)
    conc = make_supervisor(tmp_path / "conc", cache_dir, max_workers=3)
    seq.run()
    conc.run()
    assert (seq.report_path.read_bytes()
            == conc.report_path.read_bytes())


@supervision
def test_resume_is_byte_identical_and_lazy(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    before = sup.report_path.read_bytes()
    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    report = resumed.run(resume=True)
    assert report.conserved
    assert resumed.report_path.read_bytes() == before
    # nothing re-ran: no start events after the fleet-resume marker
    log = resumed.journal.events()
    marker = max(i for i, e in enumerate(log)
                 if e["event"] == "fleet-resume")
    assert not [e for e in log[marker:] if e["event"] == "start"]
    assert [o["system"] for o in report.systems] == SPEC.member_ids


@supervision
def test_resume_heals_rotted_artifact(tmp_path, cache_dir):
    """Bit rot between runs: detected by checksum, rebuilt, same bytes."""
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    before = sup.report_path.read_bytes()
    victim = sup.shard_path("sys-001")
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(ShardArtifactError):
        read_shard_artifact(victim)

    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    report = resumed.run(resume=True)
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert resumed.report_path.read_bytes() == before
    read_shard_artifact(victim)  # healed in place
    assert events(resumed, "artifact-invalid")
    log = resumed.journal.events()
    marker = max(i for i, e in enumerate(log)
                 if e["event"] == "fleet-resume")
    restarted = [e["shard"] for e in log[marker:] if e["event"] == "start"]
    assert restarted == ["sys-001"]  # only the rotted shard re-ran


@supervision
def test_corrupt_artifact_fault_is_healed_in_run(tmp_path, cache_dir,
                                                 monkeypatch):
    """An injected post-write corruption costs an attempt, not coverage."""
    install_plan(monkeypatch, tmp_path, {
        "sys-000": [FaultSpec("corrupt_artifact", attempts=(1,),
                              mode="flip")],
    })
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.coverage == {"fleet": 3, "covered": 3, "degraded": 0}
    assert events(sup, "artifact-corrupted")
    assert events(sup, "artifact-invalid")
    complete = {e["shard"]: e for e in sup.journal.events()
                if e["event"] == "complete"}
    assert complete["sys-000"]["attempt"] == 2  # rebuilt on the retry


@supervision
def test_killed_shard_degrades_with_conserved_accounting(
        tmp_path, cache_dir, monkeypatch):
    install_plan(monkeypatch, tmp_path, {
        "sys-002": [FaultSpec("shard_kill", attempts=(1, 2, 3))],
    })
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    report = sup.run()
    assert report.conserved
    assert report.coverage == {"fleet": 3, "covered": 2, "degraded": 1}
    assert report.exit_code() == 3
    entry, = report.degraded_systems
    assert entry["system"] == "sys-002"
    assert entry["status"] == "failed"
    assert "retries exhausted" in entry["reason"]
    assert entry["attempts"] == 3
    # the survivors' aggregates are intact
    assert report.total_failures == sum(e["failures"]
                                        for e in report.systems)

    # a resume gives the degraded shard a fresh budget and recovers it
    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed = make_supervisor(tmp_path / "fleet", cache_dir)
    healed = resumed.run(resume=True)
    assert healed.coverage == {"fleet": 3, "covered": 3, "degraded": 0}


@supervision
def test_resume_with_different_shape_refuses(tmp_path, cache_dir):
    sup = make_supervisor(tmp_path / "fleet", cache_dir)
    sup.run()
    other = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(systems=4, days=1, seed=21))
    with pytest.raises(JournalError, match="cannot resume"):
        other.run(resume=True)


@supervision
@pytest.mark.parametrize("started, resumed", [
    ("cray-xc", "cray-xc"),
    # a start without the key -- as every journal written before the
    # platform was recorded -- resumes with the platform unset
    (None, None),
])
def test_resume_keeps_the_forced_platform(tmp_path, cache_dir, started,
                                          resumed):
    one = dict(systems=1, days=1, seed=SPEC.seed)
    make_supervisor(tmp_path / "fleet", cache_dir,
                    spec=FleetSpec(platform=started, **one)).run()
    again = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(platform=resumed, **one))
    report = again.run(resume=True)
    assert report.coverage == {"fleet": 1, "covered": 1, "degraded": 0}
    assert events(again, "fleet-resume")


@supervision
def test_resume_without_the_forced_platform_refuses(tmp_path, cache_dir):
    one = dict(systems=1, days=1, seed=SPEC.seed)
    make_supervisor(tmp_path / "fleet", cache_dir,
                    spec=FleetSpec(platform="bgq-ras", **one)).run()
    other = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(**one))
    with pytest.raises(JournalError, match="platform='bgq-ras'; cannot "
                       "resume with platform=None"):
        other.run(resume=True)


@supervision
def test_first_run_with_resume_records_the_seed(tmp_path, cache_dir):
    """``--resume`` on an empty directory starts fresh -- and records
    the start, so a later resume at another seed is refused."""
    one = dict(systems=1, days=1)
    first = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(seed=SPEC.seed, **one))
    first.run(resume=True)
    assert events(first, "fleet-start")
    other = make_supervisor(tmp_path / "fleet", cache_dir,
                            spec=FleetSpec(seed=SPEC.seed + 1, **one))
    with pytest.raises(JournalError, match="seed=21; cannot resume with "
                       "seed=22"):
        other.run(resume=True)


def test_fleet_report_json_round_trip(tmp_path, cache_dir):
    from repro.fleet import FleetReport

    sup = make_supervisor(tmp_path / "fleet", cache_dir, max_workers=1)
    report = sup.run()
    on_disk = json.loads(sup.report_path.read_text())
    assert FleetReport.from_jsonable(on_disk).coverage == report.coverage
    assert on_disk == report.to_jsonable()
