"""Bench: persistent parse cache -- cold populate, warm hits, delta ingest.

Four legs, numbers recorded in ``BENCH_pr8.json``:

* **cold populate** -- first read through an empty cache: full parse
  plus the price of packing + checksumming every entry to disk.  This
  is the worst case; it bounds the write-side overhead vs an uncached
  ``store.read_all()``.
* **warm hit** -- the same store re-read with every entry present:
  hash + unpickle only, zero files re-parsed (asserted, not assumed).
* **delta ingest** -- one fresh daily segment appears in an otherwise
  warm store: only the new file is parsed, everything else is a hit.
* **warm construction** -- ``HolisticDiagnosis.from_store`` end to end
  on a warm cache, i.e. what a second ``repro diagnose`` invocation
  actually pays for ingest + analysis.

The cache directory is rebuilt per round for the cold leg (pedantic
setup) so rounds never poison each other; the delta leg writes a
unique segment per round so the miss is real every time.
"""

import itertools
import shutil

import pytest

from repro.core.pipeline import HolisticDiagnosis
from repro.logs.cache import ParseCache
from repro.logs.store import LogStore


@pytest.fixture(scope="module")
def warm_store(store_s3, tmp_path_factory):
    """store_s3 wrapped in a fully populated cache (hits only)."""
    root = tmp_path_factory.mktemp("warm") / "parse-cache"
    store_s3.with_cache(root).read_all()
    # a fresh instance over the populated directory: its counters see
    # only the benchmarked reads
    return store_s3.with_cache(ParseCache(root))


def test_cache_cold_populate(benchmark, store_s3, tmp_path_factory):
    def fresh():
        root = tmp_path_factory.mktemp("cold") / "parse-cache"
        return (store_s3.with_cache(root),), {}

    records = benchmark.pedantic(
        LogStore.read_all, setup=fresh, rounds=5, warmup_rounds=1)
    assert records


def test_cache_warm_hit(benchmark, warm_store):
    records = benchmark(warm_store.read_all)
    assert records
    # the property the leg exists to price: hits only, nothing re-parsed
    assert warm_store.cache.hits and not warm_store.cache.misses


def test_cache_delta_ingest(benchmark, store_s3, tmp_path_factory):
    root = tmp_path_factory.mktemp("delta") / "store"
    shutil.copytree(store_s3.root, root)
    store = LogStore(root, cache=tmp_path_factory.mktemp("dc") / "pc")
    store.read_all()                          # warm everything up front
    fresh_day = itertools.count(1)
    head = (root / "p0" / "console.log").read_text().splitlines(True)[:4]

    def one_new_segment():
        day = next(fresh_day)
        seg = root / "p0" / f"console-2999{day:04d}.log"
        # unique trailing comment line -> unique content hash -> a
        # guaranteed single-file miss against the warm cache
        seg.write_text("".join(head) + f"# delta round {day}\n")
        return (store,), {}

    records = benchmark.pedantic(
        LogStore.read_all, setup=one_new_segment, rounds=5, warmup_rounds=1)
    assert records


def test_cache_warm_construction(benchmark, warm_store):
    diag = benchmark(HolisticDiagnosis.from_store, warm_store)
    assert diag.failures
