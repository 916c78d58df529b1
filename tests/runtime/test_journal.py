"""Crash-safety and determinism of the event journal and its owners."""

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.artifacts import atomic_write_text
from repro.experiments.result import ExperimentResult
from repro.fleet import FleetSpec, FleetSupervisor
from repro.logs.record import LogBus
from repro.logs.store import LogStore
from repro.obs import OBS, ObsConfig, configure
from repro.runtime import CampaignSupervisor
from repro.runtime.journal import EventJournal, JournalError
from repro.simul.clock import DAY, SimClock
from repro.stream.daemon import WatchConfig, WatchDaemon


def result(exp="figX", ok=True, **measured):
    return ExperimentResult(exp, f"title {exp}", measured or {"v": 1.0},
                            {"v": 1.0}, ok)


@pytest.fixture
def obs_enabled():
    configure(ObsConfig(enabled=True))
    try:
        yield OBS
    finally:
        configure(ObsConfig(enabled=False))
        OBS.reset()


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_text(path, "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestEventLog:
    def test_append_and_replay(self, tmp_path):
        journal = EventJournal(tmp_path / "camp", "journal.jsonl")
        journal.append("campaign-start", seed=7, experiments=["a"])
        journal.append("start", experiment="a", attempt=1)
        events = journal.events()
        assert [e["event"] for e in events] == ["campaign-start", "start"]
        assert events[0]["seed"] == 7

    def test_empty_journal(self, tmp_path):
        journal = EventJournal(tmp_path / "none", "journal.jsonl")
        assert journal.events() == []
        assert not journal.truncated_tail


# ----------------------------------------------------------------------
# the one contract, over the three vocabularies that rely on it
# ----------------------------------------------------------------------
@dataclass
class Vocabulary:
    """One long-running job's journal, as its owner builds it."""

    journal: EventJournal
    kind: str
    fingerprint: dict
    #: recorded beside the fingerprint, never compared
    fields: dict
    #: one file of each owned pattern
    owned: list

    def begin(self, resume=False, **changed):
        return self.journal.begin(self.kind,
                                  {**self.fingerprint, **changed},
                                  resume=resume, **self.fields)


def campaign(root: Path) -> Vocabulary:
    sup = CampaignSupervisor(root, seed=7, specs=())
    return Vocabulary(sup.journal, "campaign", {"seed": 7},
                      {"experiments": ["figX"]},
                      [sup.artifact_path("figX")])


def fleet(root: Path) -> Vocabulary:
    sup = FleetSupervisor(root, spec=FleetSpec(systems=2, days=1, seed=7))
    return Vocabulary(sup.journal, "fleet", sup.spec.as_config(), {},
                      [sup.shard_path("sys-000"), sup.report_path])


def watch(root: Path) -> Vocabulary:
    logs = LogStore(root / "logs")
    logs.write(LogBus(), SimClock(), system="TT", seed=1,
               duration_seconds=DAY)
    daemon = WatchDaemon(WatchConfig(logdir=logs.root, out=root))
    return Vocabulary(daemon.journal, "watch",
                      {"window_days": 1, "error_policy": "skip"},
                      {"system": "TT", "seed": 1, "missing": []},
                      [root / "alerts.jsonl", root / "report.json"])


#: (vocabulary, a fingerprint key, a value it was not started with)
VOCABULARIES = [
    pytest.param(campaign, "seed", 8, id="campaign"),
    pytest.param(fleet, "systems", 3, id="fleet"),
    pytest.param(watch, "window_days", 7, id="watch"),
]


@pytest.mark.parametrize("make, key, other", VOCABULARIES)
class TestJournalContract:
    def test_every_event_carries_wall(self, tmp_path, make, key, other):
        vocab = make(tmp_path)
        vocab.begin()
        vocab.journal.append("complete", attempt=1)
        vocab.begin(resume=True)
        events = vocab.journal.events()
        assert [e["event"] for e in events] == [
            f"{vocab.kind}-start", "complete", f"{vocab.kind}-resume"]
        assert all(isinstance(e["wall"], float) for e in events)

    def test_torn_tail_is_dropped_and_counted(
            self, tmp_path, make, key, other, obs_enabled):
        """A SIGKILL mid-append leaves a partial last line; replay drops
        exactly that line, flags it, and counts it."""
        vocab = make(tmp_path)
        vocab.begin()
        vocab.journal.append("complete", attempt=1)
        with vocab.journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "complete", "atte')  # no newline, cut
        events = vocab.journal.events()
        assert [e["event"] for e in events] == [f"{vocab.kind}-start",
                                                 "complete"]
        assert vocab.journal.truncated_tail
        counter = obs_enabled.metrics.counter("journal.truncated_tail")
        assert counter.value == 1
        # a resume replays (and forgives) the same tail, then cuts it:
        # later appends start lines of their own
        assert vocab.begin(resume=True) == events
        assert counter.value == 2
        vocab.journal.append("complete", attempt=2)
        assert [e["event"] for e in vocab.journal.events()] == [
            f"{vocab.kind}-start", "complete", f"{vocab.kind}-resume",
            "complete"]
        assert not vocab.journal.truncated_tail

    def test_damage_before_last_line_raises(self, tmp_path, make, key,
                                            other):
        vocab = make(tmp_path)
        vocab.begin()
        with vocab.journal.path.open("a", encoding="utf-8") as handle:
            handle.write("garbage not json\n")
        vocab.journal.append("complete", attempt=1)
        with pytest.raises(JournalError, match="corrupt journal line 2"):
            vocab.journal.events()
        with pytest.raises(JournalError, match="corrupt journal line 2"):
            vocab.begin(resume=True)

    def test_reset_keeps_foreign_files(self, tmp_path, make, key, other):
        vocab = make(tmp_path)
        vocab.begin()
        foreign = tmp_path / "notes.txt"
        foreign.write_text("keep me\n")

        def leave_stale_artifacts():
            for path in vocab.owned:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("stale\n")

        leave_stale_artifacts()
        vocab.journal.reset()
        assert not vocab.journal.path.exists()
        assert not [p for p in vocab.owned if p.exists()]
        # a fresh start resets the same way, then records itself
        vocab.begin()
        leave_stale_artifacts()
        assert vocab.begin() == []
        assert [e["event"] for e in vocab.journal.events()] == [
            f"{vocab.kind}-start"]
        assert not [p for p in vocab.owned if p.exists()]
        assert foreign.read_text() == "keep me\n"

    def test_empty_resume_starts_fresh(self, tmp_path, make, key, other):
        vocab = make(tmp_path)
        assert vocab.begin(resume=True) == []
        start, = vocab.journal.events()
        assert start["event"] == f"{vocab.kind}-start"
        assert start[key] == vocab.fingerprint[key]
        # ... so a later resume is checked against it
        with pytest.raises(JournalError):
            vocab.begin(resume=True, **{key: other})

    def test_fingerprint_mismatch_names_the_key(self, tmp_path, make, key,
                                                other):
        vocab = make(tmp_path)
        vocab.begin()
        recorded = vocab.fingerprint[key]
        with pytest.raises(JournalError) as refused:
            vocab.begin(resume=True, **{key: other})
        message = str(refused.value)
        assert f"{key}={recorded!r}" in message
        assert f"{key}={other!r}" in message
        # the refused resume wrote nothing
        assert [e["event"] for e in vocab.journal.events()] == [
            f"{vocab.kind}-start"]

    def test_recorded_fields_are_not_compared(self, tmp_path, make, key,
                                              other):
        vocab = make(tmp_path)
        vocab.begin()
        vocab.fields = {name: "changed" for name in vocab.fields}
        replayed = vocab.begin(resume=True)
        assert [e["event"] for e in replayed] == [f"{vocab.kind}-start"]


class TestFingerprint:
    def test_missing_key_reads_as_none(self, tmp_path):
        journal = EventJournal(tmp_path, "journal.jsonl")
        journal.append("fleet-start", systems=2, days=1, seed=7)
        journal.begin("fleet", {"systems": 2, "days": 1, "seed": 7,
                                "platform": None}, resume=True)
        with pytest.raises(JournalError, match="platform=None; cannot "
                           "resume with platform='bgq-ras'"):
            journal.begin("fleet", {"systems": 2, "days": 1, "seed": 7,
                                    "platform": "bgq-ras"}, resume=True)


class TestArtifacts:
    @pytest.fixture
    def sup(self, tmp_path):
        return CampaignSupervisor(tmp_path / "camp", specs=())

    def test_round_trip(self, sup):
        res = result("figX", v=1.25, n=3)
        sup.write_artifact(res)
        back = sup.read_artifact("figX")
        assert back.experiment == "figX"
        assert back.measured == {"v": 1.25, "n": 3}
        assert back.shape_ok is True

    def test_bytes_are_deterministic(self, tmp_path):
        a = CampaignSupervisor(tmp_path / "a", specs=())
        b = CampaignSupervisor(tmp_path / "b", specs=())
        a.write_artifact(result("figX", v=0.5))
        b.write_artifact(result("figX", v=0.5))
        assert (a.artifact_path("figX").read_bytes()
                == b.artifact_path("figX").read_bytes())

    def test_completed_requires_intact_artifact(self, sup):
        sup.write_artifact(result("good"))
        sup.journal.append("complete", experiment="good", attempt=1,
                           shape_ok=True)
        sup.journal.append("complete", experiment="gone", attempt=1,
                           shape_ok=True)
        sup.write_artifact(result("damaged"))
        sup.journal.append("complete", experiment="damaged", attempt=1,
                           shape_ok=True)
        sup.artifact_path("damaged").write_text("{not json")
        done = sup.completed_results(sup.journal.events())
        assert set(done) == {"good"}

    def test_completion_survives_later_failure_events(self, sup):
        sup.write_artifact(result("figX"))
        sup.journal.append("complete", experiment="figX", attempt=1,
                           shape_ok=True)
        sup.journal.append("attempt-failed", experiment="figX", attempt=2,
                           reason="spurious")
        assert set(sup.completed_results(sup.journal.events())) == {"figX"}


class TestTruncatedTailCounter:
    def test_forgiven_tail_counts_when_obs_enabled(self, tmp_path,
                                                   obs_enabled):
        journal = EventJournal(tmp_path / "camp", "journal.jsonl")
        journal.append("campaign-start", seed=7, experiments=[])
        with journal.path.open("a") as handle:
            handle.write('{"event": "complete", "experi')
        journal.events()
        assert OBS.metrics.counter("journal.truncated_tail").value == 1
        journal.events()  # every tolerant replay counts the tail
        assert OBS.metrics.counter("journal.truncated_tail").value == 2

    def test_clean_replay_counts_nothing(self, tmp_path, obs_enabled):
        journal = EventJournal(tmp_path / "camp", "journal.jsonl")
        journal.append("campaign-start", seed=7, experiments=[])
        journal.events()
        assert OBS.metrics.counter("journal.truncated_tail").value == 0
