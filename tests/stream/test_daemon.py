"""The watch daemon: streamed == batch, crash safety, bounded memory."""

from __future__ import annotations

import json

import pytest

from repro.core.serialize import report_digest
from repro.logs.record import LogSource
from repro.runtime.journal import JournalError
from repro.simul.clock import DAY
from repro.stream.daemon import (
    WatchConfig,
    WatchDaemon,
    streamed_batch_equivalent,
)
from repro.stream.replay import ReplayWriter

from .conftest import drive_daemon

FAULTS = {
    5: lambda w: w.rotate(LogSource.CONSOLE),
    7: lambda w: (w.rotate(LogSource.MESSAGES),
                  w.gzip_rotated(LogSource.MESSAGES)),
    11: lambda w: w.copytruncate(LogSource.CONTROLLER),
    13: lambda w: w.tear_tail(LogSource.CONSOLE, keep=12),
    17: lambda w: w.vanish(LogSource.ERD),
    19: lambda w: w.restore(LogSource.ERD),
}


def make_setup(small_store, tmp_path, resume=False):
    writer = ReplayWriter(small_store.root, tmp_path / "live")
    out = tmp_path / "watch"

    def make(resume=resume):
        return WatchDaemon(WatchConfig(logdir=writer.store.root, out=out,
                                       window_days=1, resume=resume))

    return writer, out, make


class TestParity:
    def test_streamed_equals_batch_clean(self, small_store, tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        report = drive_daemon(writer, make())
        assert report.window_count == 3
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))
        # the artifact on disk is the canonical form of the windows
        on_disk = json.loads(report.report_path.read_text())
        assert report_digest(on_disk) == report.digest

    def test_streamed_equals_batch_under_faults(self, small_store,
                                                tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        report = drive_daemon(writer, make(), faults=FAULTS)
        assert report.digest == report_digest(
            streamed_batch_equivalent(writer.store, 1))


class TestCrashSafety:
    @pytest.mark.parametrize("kill_at", [4, 11, 17, 21])
    def test_kill_and_resume_reproduces_the_run(self, small_store,
                                                tmp_path, kill_at):
        clean_writer, clean_out, clean_make = make_setup(
            small_store, tmp_path / "clean")
        clean = drive_daemon(clean_writer, clean_make(), faults=FAULTS)
        clean_alerts = (clean_out / "alerts.jsonl").read_bytes()

        writer, out, make = make_setup(small_store, tmp_path / "killed")
        report = drive_daemon(
            writer, make(), faults=FAULTS, kill_and_resume_at=kill_at,
            make_daemon=lambda: make(resume=True))
        assert report.resumed
        assert report.digest == clean.digest
        # exactly-once: the alert stream is byte-identical, no dup, no loss
        assert (out / "alerts.jsonl").read_bytes() == clean_alerts

    def test_resume_after_completion_is_idempotent(self, small_store,
                                                   tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        finished = drive_daemon(writer, make())
        alerts_before = (out / "alerts.jsonl").read_bytes()
        again = make(resume=True)
        again.start()
        again.tick()
        report = again.finalize()
        assert report.resumed
        assert report.digest == finished.digest
        assert report.alerts_emitted == 0
        assert (out / "alerts.jsonl").read_bytes() == alerts_before

    def test_resume_with_changed_geometry_is_refused(self, small_store,
                                                     tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        drive_daemon(writer, make())
        wrong = WatchDaemon(WatchConfig(logdir=writer.store.root, out=out,
                                        window_days=7, resume=True))
        with pytest.raises(JournalError, match="window_days=1; cannot "
                           "resume with window_days=7"):
            wrong.start()


class TestBoundedMemory:
    def test_closed_windows_are_evicted(self, small_store, tmp_path):
        writer, out, make = make_setup(small_store, tmp_path)
        daemon = make()
        daemon.start()
        peak = 0
        t = 0.0
        while writer.pending_count():
            t += 0.1 * DAY
            writer.feed_until(t)
            daemon.tick()
            peak = max(peak, daemon.index.resident_records())
        daemon.tick()
        report = daemon.finalize()
        assert report.windows_closed >= 2
        # the index never held the whole run: closed windows are evicted
        assert 0 < peak < report.records
        # after the final close at most one window's records are resident
        assert daemon.index.resident_records() <= peak


class TestEarlyWarning:
    def test_precursors_lead_their_window_close(self, small_store,
                                                tmp_path):
        """Paper Obs. 5/6 direction: node-scoped external faults are
        alerted *during* the window, before the close-time summary."""
        writer, out, make = make_setup(small_store, tmp_path)
        drive_daemon(writer, make())
        entries = [json.loads(line) for line in
                   (out / "alerts.jsonl").read_text().splitlines()]
        precursors = [e for e in entries if e["kind"] == "precursor"]
        windows = {e["window"]: i for i, e in enumerate(entries)
                   if e["kind"] == "window"}
        assert precursors and windows
        assert {e["event"] for e in precursors} <= {"nvf", "nhf",
                                                    "ecb_fault"}
        for i, entry in enumerate(entries):
            if entry["kind"] != "precursor":
                continue
            window = int(entry["time"] // DAY)
            # emitted strictly before that window's summary alert, with
            # positive lead time to the window close
            if window in windows:
                assert i < windows[window]
            assert entry["time"] < (window + 1) * DAY


class TestConfig:
    def test_rejects_nonpositive_window(self, tmp_path):
        with pytest.raises(ValueError):
            WatchConfig(logdir=tmp_path, out=tmp_path / "w",
                        window_days=0)

    def test_watch_requires_a_store(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        with pytest.raises(FileNotFoundError):
            WatchDaemon(WatchConfig(logdir=bare, out=tmp_path / "w"))
