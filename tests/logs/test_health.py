"""Hardened reader semantics: policies, accounting, gzip, recovery."""

import gzip

import pytest

from repro.logs.health import (
    ErrorPolicy,
    IngestionError,
    IngestionHealth,
    SourceHealth,
    conservation_violations,
)
from repro.logs.parsing import LineParser
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import LogStore
from repro.obs import session
from repro.simul.clock import SimClock


def small_store(tmp_path, lines_extra=()):
    """A store with a handful of console lines, plus raw extras."""
    bus = LogBus()
    for t in (10.0, 20.0, 30.0):
        bus.emit(LogRecord(t, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                           {"bank": 1, "status": "ff"}))
    store = LogStore(tmp_path / "logs")
    store.write(bus, SimClock(), "TT", 1, 60.0)
    if lines_extra:
        with store.path_for(LogSource.CONSOLE).open("a") as handle:
            for line in lines_extra:
                handle.write(line + "\n")
    return store


class TestPolicies:
    def test_skip_counts_ignored(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage", ""])
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="skip", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert len(records) == 3
        assert bucket.read == 5
        assert bucket.parsed == 3
        assert bucket.ignored == 2
        assert bucket.quarantined == 0
        assert bucket.conserved

    def test_quarantine_counts_and_writes(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage", "more junk!"])
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="quarantine", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert len(records) == 3
        assert bucket.quarantined == 2
        assert bucket.conserved
        raw = store.quarantine_path(LogSource.CONSOLE).read_text().splitlines()
        assert raw == ["complete garbage", "more junk!"]

    def test_quarantine_file_reset_between_passes(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage"])
        for _ in range(2):  # a second diagnosis must not accumulate
            list(store.read_source(LogSource.CONSOLE, policy="quarantine"))
        raw = store.quarantine_path(LogSource.CONSOLE).read_text().splitlines()
        assert raw == ["complete garbage"]

    def test_strict_raises(self, tmp_path):
        store = small_store(tmp_path, ["complete garbage"])
        with pytest.raises(IngestionError):
            list(store.read_source(LogSource.CONSOLE, policy="strict"))

    def test_strict_clean_file_ok(self, tmp_path):
        store = small_store(tmp_path)
        assert len(list(store.read_source(LogSource.CONSOLE,
                                          policy="strict"))) == 3

    def test_unknown_policy_rejected(self, tmp_path):
        store = small_store(tmp_path)
        with pytest.raises(ValueError):
            list(store.read_source(LogSource.CONSOLE, policy="explode"))


class TestRecovery:
    def test_gzip_transparent_read(self, tmp_path):
        store = small_store(tmp_path)
        path = store.path_for(LogSource.CONSOLE)
        gz = path.with_name(path.name + ".gz")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        path.unlink()
        assert [p.name for p in store.source_files(LogSource.CONSOLE)] == [
            "console.log.gz"]
        records = list(store.read_source(LogSource.CONSOLE))
        assert [r.time for r in records] == [10.0, 20.0, 30.0]
        assert store.line_counts()["console"] == 3

    def test_mojibake_decodes_and_counts_recovered(self, tmp_path):
        store = small_store(tmp_path)
        path = store.path_for(LogSource.CONSOLE)
        data = path.read_bytes().replace(b"Bank 1: ff", b"Bank 1: \xff\xfe")
        path.write_bytes(data)
        health = IngestionHealth()
        records = list(store.read_source(LogSource.CONSOLE,
                                         policy="quarantine", health=health))
        bucket = health.source(LogSource.CONSOLE)
        assert bucket.conserved
        assert len(records) == 3  # replacement chars keep the line parseable
        assert bucket.recovered >= 1

    def test_skew_clamped_within_bound(self):
        parser = LineParser(SimClock())
        good = "2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: hello world"
        skewed = "2015-01-04T10:00:00.000000 c0-0c0s0n0 kernel: old stamp"
        first = parser.parse_ex(good)
        second = parser.parse_ex(skewed)
        assert first.record.time == 3600.0
        assert second.recovered
        assert second.record.time == 3600.0  # clamped, not 15 h back

    def test_small_jitter_not_clamped(self):
        parser = LineParser(SimClock())
        a = parser.parse_ex(
            "2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: a")
        b = parser.parse_ex(
            "2015-01-05T00:59:00.000000 c0-0c0s0n0 kernel: b")
        assert not b.recovered
        assert b.record.time == a.record.time - 60.0

    def test_destroyed_stamp_inherits_last_time(self):
        parser = LineParser(SimClock())
        parser.parse_ex("2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: ok")
        torn = parser.parse_ex("T01:0####0000 c0-0c0s0n0 kernel: torn")
        assert torn.status == "parsed"
        assert torn.recovered
        assert torn.record.time == 3600.0

    def test_parser_reset_forgets_skew(self):
        parser = LineParser(SimClock())
        parser.parse_ex("2015-01-05T01:00:00.000000 c0-0c0s0n0 kernel: ok")
        parser.reset()
        torn = parser.parse_ex("T01:0####0000 c0-0c0s0n0 kernel: torn")
        assert torn.status == "malformed"


class TestLostFile:
    def test_unreadable_file_is_skipped_and_accounted(self, tmp_path):
        store = small_store(tmp_path)
        # a .gz that is not gzip: the serial reader retries its bounded
        # I/O budget, then skips the file and records the loss
        bad = store.path_for(LogSource.ERD).with_name("event.log.gz")
        bad.write_bytes(b"this is not gzip data")
        health = IngestionHealth()
        with session() as recorder:
            internal = store.read_internal(health=health)
            store.read_external(health=health)
            lost = recorder.metrics.counter("ingest.files_lost").value
        assert [r.source for r in internal] == [LogSource.CONSOLE] * 3
        assert "unreadable file skipped: event.log.gz" in health.notes
        assert health.conserved, conservation_violations(health)
        assert lost == 1


class TestHealthModel:
    def test_merge_and_render(self):
        health = IngestionHealth()
        health.source(LogSource.CONSOLE).merge(
            SourceHealth(read=10, parsed=8, quarantined=1, ignored=1,
                         recovered=2, files=1))
        other = IngestionHealth()
        other.source(LogSource.CONSOLE).merge(
            SourceHealth(read=5, parsed=5, files=1))
        other.note("something odd")
        health.merge(other)
        bucket = health.source(LogSource.CONSOLE)
        assert bucket.read == 15 and bucket.parsed == 13
        assert bucket.conserved
        assert "something odd" in health.render()
        assert health.degraded  # quarantined lines flag degradation

    def test_violation_reporting(self):
        health = IngestionHealth()
        health.source(LogSource.ERD).read = 7
        assert not health.conserved
        problems = conservation_violations(health)
        assert problems and "erd" in problems[0]

    def test_missing_sources(self):
        health = IngestionHealth()
        health.source(LogSource.SCHEDULER)
        health.source(LogSource.CONSOLE).files = 1
        assert health.missing_sources() == [LogSource.SCHEDULER]
