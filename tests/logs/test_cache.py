"""Tests for the persistent parse cache (repro.logs.cache).

The correctness spine is byte-parity: a cached read must return exactly
what the uncached read returns -- records, health accounting and
quarantined lines -- under every error policy, before and after cache
poisoning.  The invalidation edges (catalog bump, epoch change, rot,
renames, gzip twins, concurrent writers) each get a dedicated test.
"""

from __future__ import annotations

import gzip
import multiprocessing
import pickle
import shutil

import pytest

import repro.logs.cache as cache_mod
import repro.logs.store as store_mod
from repro.core.artifacts import write_checksummed_blob
from repro.core.pipeline import HolisticDiagnosis
from repro.logs.cache import CACHE_MAGIC, ParseCache, catalog_fingerprint
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth
from repro.logs.parsing import LineParser
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.store import DEFAULT_CACHE_DIRNAME, LogStore, parse_log_file
from repro.simul.clock import SimClock


def small_store(root, *, malformed=0):
    """A tiny store with every source populated (optionally damaged)."""
    bus = LogBus()
    bus.emit(LogRecord(5.0, LogSource.CONSOLE, "c0-0c0s0n0", "mce",
                       {"bank": 1, "status": "ff"}))
    bus.emit(LogRecord(2.0, LogSource.ERD, "erd", "ec_heartbeat_stop",
                       {"src": "c0-0c0s0n1"}))
    bus.emit(LogRecord(3.0, LogSource.SCHEDULER, "sdb", "slurm_submit",
                       {"job": 7}))
    bus.emit(LogRecord(4.0, LogSource.CONTROLLER, "c0-0c0s0", "bchf", {}))
    bus.emit(LogRecord(1.0, LogSource.MESSAGES, "c0-0c0s0n0", "nhc_suspect",
                       {"why": "test"}))
    store = LogStore(root)
    store.write(bus, SimClock(), system="TT", seed=1, duration_seconds=10.0)
    if malformed:
        with (root / "p0/console.log").open("a") as handle:
            for i in range(malformed):
                handle.write(f"@@@ totally broken line {i}\n")
    return store


def snapshot(store, policy=ErrorPolicy.SKIP):
    """(records-as-tuples, health-dicts) for whole-store parity checks."""
    health = IngestionHealth()
    records = [
        (r.time, r.source, r.component, r.daemon, r.event,
         tuple(sorted(r.attrs.items())), r.severity, r.body)
        for r in store.read_all(policy=policy, health=health)
    ]
    counts = {s.value: b.as_dict() for s, b in health.sources.items()}
    return records, counts


#: checksum-valid payloads that are not cache entries: the wrong shape,
#: and a pickle naming a module that does not exist
ALIEN_PAYLOADS = [
    pickle.dumps({"not": "an entry"}),
    b"cnonexistent_mod\nthing\n.",
]


class TestParity:
    @pytest.mark.parametrize("policy",
                             [ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE])
    def test_cached_equals_uncached(self, tmp_path, policy):
        plain = small_store(tmp_path / "logs", malformed=3)
        cached = plain.with_cache(tmp_path / "pc")
        want = snapshot(plain, policy)
        assert snapshot(cached, policy) == want        # cold: populate
        assert snapshot(cached, policy) == want        # warm: pure hits
        assert snapshot(plain, policy) == want         # uncached still equal

    def test_strict_raises_identical_message(self, tmp_path):
        plain = small_store(tmp_path / "logs", malformed=1)
        cached = plain.with_cache(tmp_path / "pc")
        with pytest.raises(IngestionError) as uncached_exc:
            snapshot(plain, ErrorPolicy.STRICT)
        # cold miss parses canonically, adapts strictly
        with pytest.raises(IngestionError) as cold_exc:
            snapshot(cached, ErrorPolicy.STRICT)
        # warm hit re-raises from the stored malformed lines
        with pytest.raises(IngestionError) as warm_exc:
            snapshot(cached, ErrorPolicy.STRICT)
        assert str(cold_exc.value) == str(uncached_exc.value)
        assert str(warm_exc.value) == str(uncached_exc.value)
        assert warm_exc.value.line == uncached_exc.value.line

    def test_one_entry_serves_every_policy(self, tmp_path):
        """SKIP and QUARANTINE adapt the same canonical entry."""
        plain = small_store(tmp_path / "logs", malformed=2)
        cache = ParseCache(tmp_path / "pc")
        cached = plain.with_cache(cache)
        q_want = snapshot(plain, ErrorPolicy.QUARANTINE)
        s_want = snapshot(plain, ErrorPolicy.SKIP)
        assert snapshot(cached, ErrorPolicy.QUARANTINE) == q_want
        entries_after_first = len(cache.entry_files())
        assert snapshot(cached, ErrorPolicy.SKIP) == s_want
        assert len(cache.entry_files()) == entries_after_first

    def test_quarantine_file_still_written_on_hits(self, tmp_path):
        plain = small_store(tmp_path / "logs", malformed=2)
        cached = plain.with_cache(tmp_path / "pc")
        snapshot(cached, ErrorPolicy.QUARANTINE)       # cold
        qfile = plain.quarantine_path(LogSource.CONSOLE)
        want = qfile.read_text()
        assert want.count("\n") == 2
        snapshot(cached, ErrorPolicy.QUARANTINE)       # warm
        assert qfile.read_text() == want


class TestInvalidation:
    def test_catalog_bump_rekeys_the_cache(self, tmp_path, monkeypatch):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        snapshot(cached)
        before = set(p.name for p in cache.entry_files())
        # simulate an edited catalog.py: the memoised fingerprint changes
        monkeypatch.setattr(cache_mod, "_catalog_fp",
                            {"cray-xc": "0" * 64})
        assert snapshot(cached) == snapshot(store)
        after = set(p.name for p in cache.entry_files())
        # every file re-keyed: old entries orphaned, new ones written
        assert before.isdisjoint(after - before)
        assert len(after) == 2 * len(before)

    def test_epoch_change_rekeys_the_cache(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser_a = LineParser(SimClock.from_iso("2015-01-01T00:00:00+00:00"))
        parser_b = LineParser(SimClock.from_iso("2016-06-01T00:00:00+00:00"))
        path = store.root / "p0/console.log"
        cache.parse(path, parser_a)
        assert len(cache.entry_files()) == 1
        cache.parse(path, parser_b)
        assert len(cache.entry_files()) == 2

    def test_truncated_entry_self_heals(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        want = snapshot(store)
        snapshot(cached)
        victim = cache.entry_files()[0]
        victim.write_bytes(victim.read_bytes()[:50])   # torn write
        assert snapshot(cached) == want
        assert cache.invalidated == 1
        # the healed entry is valid again
        valid, invalid = cache.verify()
        assert invalid == []

    def test_bitflip_entry_self_heals(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        cached = store.with_cache(cache)
        want = snapshot(store)
        snapshot(cached)
        victim = cache.entry_files()[0]
        raw = bytearray(victim.read_bytes())
        raw[10] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert snapshot(cached) == want
        assert cache.invalidated == 1

    def test_alien_payload_self_heals(self, tmp_path):
        """A checksum-valid blob that is not an entry is invalid to
        ``stats`` and ``verify`` alike, and a read evicts it."""
        store = small_store(tmp_path / "logs")
        want = snapshot(store)
        for i, payload in enumerate(ALIEN_PAYLOADS):
            cache = ParseCache(tmp_path / f"pc{i}")
            cached = store.with_cache(cache)
            snapshot(cached)
            victim = cache.entry_files()[0]
            write_checksummed_blob(victim, payload, CACHE_MAGIC)
            assert cache.stats(count_records=True).invalid == 1
            assert cache.verify(heal=False) == (5, [victim])
            assert snapshot(cached) == want
            assert cache.invalidated == 1
            assert cache.verify() == (6, [])


class TestContentIdentity:
    def test_renamed_file_hits(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        base = store.root / "p0/console.log"
        cache.parse(base, parser)
        # a rotated twin with identical content: content hash hits
        twin = base.with_name("console-20150101.log")
        shutil.copyfile(base, twin)
        cache.parse(twin, parser)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache.entry_files()) == 1

    def test_gzip_and_plain_share_one_entry(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        base = store.root / "p0/console.log"
        gz = base.with_name(base.name + ".gz")
        with gzip.open(gz, "wt", encoding="utf-8") as handle:
            handle.write(base.read_text())
        records, health, _ = cache.parse(base, parser)
        hit_records, hit_health, _ = cache.parse(gz, parser)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache.entry_files()) == 1
        assert [r.event for r in hit_records] == [r.event for r in records]
        assert hit_health.as_dict() == health.as_dict()


def _populate_worker(args):
    """Module-level worker: parse one store through a shared cache dir."""
    root, cache_dir = args
    store = LogStore(root, cache=cache_dir)
    return len(store.read_all())


class TestConcurrency:
    def test_concurrent_writers_race_benignly(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache_dir = tmp_path / "pc"
        args = [(store.root, cache_dir)] * 4
        with multiprocessing.Pool(processes=2) as pool:
            counts = pool.map(_populate_worker, args)
        assert len(set(counts)) == 1            # every process saw the same
        cache = ParseCache(cache_dir)
        valid, invalid = cache.verify()
        assert invalid == []                    # no torn entries
        assert valid == len(cache.entry_files())
        # and the cache parses back exactly what the store holds
        assert snapshot(store.with_cache(cache)) == snapshot(store)


class TestDegradation:
    def test_unwritable_cache_degrades_to_parse(self, tmp_path):
        """A cache that cannot persist still returns correct results."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        store = small_store(tmp_path / "logs")
        cache = ParseCache(blocker / "nope")    # mkdir will fail
        cached = store.with_cache(cache)
        assert snapshot(cached) == snapshot(store)
        assert cache.entry_files() == []

    def test_missing_cache_dir_is_empty_not_error(self, tmp_path):
        cache = ParseCache(tmp_path / "never-created")
        assert cache.entry_files() == []
        assert cache.stats().as_dict() == {
            "entries": 0, "total_bytes": 0, "records": 0, "invalid": 0}
        assert cache.clear() == 0
        assert cache.verify() == (0, [])


class TestMaintenance:
    def test_stats_counts_entries_bytes_records(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        stats = cache.stats(count_records=True)
        assert stats.entries == 6               # one per source file
        assert stats.total_bytes == sum(
            p.stat().st_size for p in cache.entry_files())
        assert stats.records == len(store.read_all())
        assert stats.invalid == 0

    def test_clear_removes_everything(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        assert cache.clear() == 6
        assert cache.entry_files() == []

    def test_verify_heals_by_default(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        snapshot(store.with_cache(cache))
        victim = cache.entry_files()[0]
        victim.write_bytes(b"garbage")
        valid, invalid = cache.verify(heal=False)
        assert len(invalid) == 1 and victim.exists()
        valid, invalid = cache.verify()         # heal=True deletes
        assert len(invalid) == 1 and not victim.exists()
        assert cache.verify() == (5, [])


class TestStoreIntegration:
    def test_with_cache_spellings_agree(self, tmp_path):
        store = small_store(tmp_path / "logs")
        by_true = store.with_cache(True)
        assert by_true.cache.root == store.root / DEFAULT_CACHE_DIRNAME
        by_path = store.with_cache(tmp_path / "elsewhere")
        assert by_path.cache.root == tmp_path / "elsewhere"
        assert store.with_cache(None) is store
        assert store.with_cache(False).cache is None
        instance = ParseCache(tmp_path / "inst")
        assert store.with_cache(instance).cache is instance

    def test_parse_log_file_cache_kwarg(self, tmp_path):
        store = small_store(tmp_path / "logs")
        cache = ParseCache(tmp_path / "pc")
        parser = LineParser(store.manifest().clock())
        path = store.root / "p0/console.log"
        direct = parse_log_file(path, parser, cache=None)
        via_cache = parse_log_file(path, parser, cache=cache)
        assert [r.body for r in via_cache[0]] == [r.body for r in direct[0]]
        assert via_cache[1].as_dict() == direct[1].as_dict()

    def test_warm_cache_parses_zero_files(self, diagnosed_scenario,
                                          tmp_path, monkeypatch):
        _, _, store = diagnosed_scenario
        cache = ParseCache(tmp_path / "pc")
        HolisticDiagnosis.from_store(store, cache=cache)    # populate

        def boom(text, parser, policy, path, retried=0):
            raise AssertionError(f"warm run parsed {path}")

        monkeypatch.setattr(store_mod, "_parse_log_text", boom)
        warm = ParseCache(cache.root)
        HolisticDiagnosis.from_store(store, cache=warm)     # all hits
        assert warm.misses == 0 and warm.hits > 0

    def test_delta_file_is_the_only_parse(self, diagnosed_scenario,
                                          tmp_path, monkeypatch):
        _, _, base = diagnosed_scenario
        root = tmp_path / "copy"
        shutil.copytree(base.root, root)
        store = LogStore(root, cache=tmp_path / "pc")
        store.read_all()                                    # populate
        # a new daily segment appears: only it should be parsed
        fresh = root / "p0" / "console-29990101.log"
        src = root / "p0" / "console.log"
        fresh.write_text("".join(src.read_text().splitlines(True)[:3]))
        parsed = []
        real_parse = store_mod._parse_log_text

        def spy(text, parser, policy, path, retried=0):
            parsed.append(path)
            return real_parse(text, parser, policy, path, retried)

        monkeypatch.setattr(store_mod, "_parse_log_text", spy)
        records = store.read_all()
        assert parsed == [fresh]
        assert any(r.source is LogSource.CONSOLE for r in records)
        # and the next read parses nothing at all
        parsed.clear()
        assert store.read_all() == records
        assert parsed == []

    def test_catalog_fingerprint_is_stable(self):
        assert catalog_fingerprint() == catalog_fingerprint()
        assert len(catalog_fingerprint()) == 64
