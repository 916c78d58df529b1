"""Checkpoint replay: load/resume roundtrips of the watch vocabulary.

The crash tolerance of the file itself (torn tail, mid-file damage,
reset) is the shared journal contract in tests/runtime/test_journal.py.
"""

from __future__ import annotations

import pytest

from repro.logs.health import IngestionHealth
from repro.logs.record import LogSource
from repro.runtime.journal import EventJournal, JournalError
from repro.stream.checkpoint import (
    CHECKPOINT_NAME,
    WatchState,
    health_from_jsonable,
    health_to_jsonable,
)


def make_checkpoint(tmp_path) -> EventJournal:
    return EventJournal(tmp_path / "watch", CHECKPOINT_NAME)


def load(cp: EventJournal) -> WatchState:
    return WatchState(cp.events())


def begin(cp: EventJournal, window_days: int, error_policy: str) -> list:
    return cp.begin("watch", {"window_days": window_days,
                              "error_policy": error_policy},
                    resume=True, system="TT", seed=1, missing=["erd"])


def write_run(cp: EventJournal) -> None:
    """A plausible two-window run worth of events."""
    cp.append("watch-start", window_days=1, error_policy="skip",
              system="TT", seed=1, missing=["erd"])
    cp.append("alerts", ids=["aaaa", "bbbb"])
    cp.append("window-close", window=0, start_day=0, end_day=1,
              watermark=90000.0, offsets={"p0/console.log": {
                  "offset": 120, "prefix": "00ff"}},
              health=None, report={"windows": 1})
    cp.append("alerts", ids=["cccc"])
    health = IngestionHealth()
    health.source(LogSource.CONSOLE).read = 7
    cp.append("window-close", window=1, start_day=1, end_day=2,
              watermark=180000.0, offsets={"p0/console.log": {
                  "offset": 240, "prefix": "00ff"}},
              health=health_to_jsonable(health), report={"windows": 2})


class TestLoad:
    def test_roundtrip_restores_everything(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        state = load(cp)
        assert state.config["window_days"] == 1
        assert state.config["missing"] == ["erd"]
        assert state.emitted_ids == {"aaaa", "bbbb", "cccc"}
        assert state.next_window == 2
        assert [w["window"] for w in state.closed_windows()] == [0, 1]
        # latest window-close wins for offsets / watermark / health
        assert state.offsets["p0/console.log"]["offset"] == 240
        assert state.watermark == 180000.0
        assert state.health is not None
        assert state.health.source(LogSource.CONSOLE).read == 7
        assert not cp.truncated_tail
        assert not state.finalized

    def test_fresh_state_before_any_window(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        cp.append("watch-start", window_days=1, error_policy="skip",
                  system="TT", seed=1, missing=[])
        state = load(cp)
        assert state.config["missing"] == []
        assert state.next_window == 0
        assert state.health is None
        assert state.watermark == float("-inf")

    def test_finalize_marks_completion(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        cp.append("finalize", digest="d", windows=2)
        assert load(cp).finalized


class TestResumable:
    def test_matching_config_passes(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        state = WatchState(begin(cp, window_days=1, error_policy="skip"))
        assert state.next_window == 2
        assert cp.events()[-1]["event"] == "watch-resume"

    def test_window_days_mismatch_raises(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        with pytest.raises(JournalError, match="window_days=1; cannot "
                           "resume with window_days=7"):
            begin(cp, window_days=7, error_policy="skip")

    def test_error_policy_mismatch_raises(self, tmp_path):
        cp = make_checkpoint(tmp_path)
        write_run(cp)
        with pytest.raises(JournalError, match="error_policy"):
            begin(cp, window_days=1, error_policy="strict")


class TestHealthJsonable:
    def test_roundtrip_preserves_counts_and_notes(self):
        health = IngestionHealth()
        bucket = health.source(LogSource.MESSAGES)
        bucket.read = 11
        bucket.skipped = 2
        health.note("something odd")
        rebuilt = health_from_jsonable(health_to_jsonable(health))
        for source in LogSource:
            assert (rebuilt.source(source).as_dict()
                    == health.source(source).as_dict())
        assert rebuilt.notes == health.notes
