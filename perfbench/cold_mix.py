"""cold-mix: first contact with five stores of both dialects.

Closed loop, one caller: a first-contact ``api.diagnose`` plus render of
each store with a fresh, empty parse cache, rotating over s1, s2, s4, s5
and bgq in a seeded order.  Parsing and cache writes dominate and no
cache entry is ever read, so a change that makes warm loads cheaper by
making entries costlier to write shows here.  Only complete rotations
are measured, so every store weighs the same in every run.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time

from common import (
    Context,
    HostSpeed,
    Outcome,
    Reference,
    child_env,
    digest,
    dir_bytes,
    halves,
    log_files,
    median,
    peak_rss_mb,
    scenario,
    tail,
)
from layers import SOURCES, LayerClock

STORES = ("s1", "s2", "s4", "s5", "bgq")
SMOKE_STORES = ("s4", "bgq")
SETUPS = 5

#: import plus catalog compile, timed inside a fresh interpreter
_SETUP_PROBE = """
import time
started = time.perf_counter()
import repro.api
from repro.logs.catalogs import catalog_names, get_catalog
for name in catalog_names():
    get_catalog(name)
print(time.perf_counter() - started)
"""


def _setup_once(speed: HostSpeed) -> float:
    """One set-up in a fresh interpreter, in reference seconds."""
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    finished = time.perf_counter()
    spent = float(done.stdout.strip().splitlines()[-1])
    speed.sample()
    return speed.seconds(finished - spent, finished)


def run(ctx: Context) -> Outcome:
    from repro import api
    from repro.core.serialize import canonical_json, to_jsonable
    from repro.logs.health import ErrorPolicy
    from repro.logs.parsing import LineParser
    from repro.logs.store import LogStore, parse_log_file

    names = list(SMOKE_STORES if ctx.smoke else STORES)
    random.Random(ctx.seed).shuffle(names)
    stores = {name: scenario(name) for name in names}
    out = Outcome()
    speed = ctx.speed
    speed.sample()
    setups = [_setup_once(speed) for _ in range(SETUPS)]

    def uncached_parse(name: str) -> tuple[float, int, int]:
        """The parse layer alone: every file of a store, no cache."""
        store = LogStore(stores[name])
        clock = store.manifest().clock()
        spent, lines, malformed = 0.0, 0, 0
        for path in log_files(stores[name]):
            parser = LineParser(clock, catalog=store.catalog)
            started = time.perf_counter()
            _, health, quarantined = parse_log_file(
                path, parser, ErrorPolicy.QUARANTINE)
            spent += time.perf_counter() - started
            lines += health.read
            malformed += len(quarantined)
        return spent, lines, malformed

    #: raw seconds per store, one dict per rotation, by traced
    rotations: dict[bool, list[dict[str, float]]] = {False: [], True: []}
    #: the untraced rotations in reference seconds
    measured: list[dict[str, float]] = []
    answers: list[tuple[str, str]] = []
    clock = LayerClock()
    parse_s = parse_lines = parse_malformed = cache_bytes = 0
    op = 0
    for traced, seconds in halves(ctx):
        if traced:
            clock.install_pipeline()
        try:
            deadline = time.perf_counter() + seconds
            while not rotations[traced] or time.perf_counter() < deadline:
                times, scaled = {}, {}
                for name in names:
                    cache_dir = ctx.workdir / f"cache-{op}"
                    op += 1
                    started = time.perf_counter()
                    report = api.diagnose(stores[name], cache=cache_dir)
                    rendered = time.perf_counter()
                    text = canonical_json(report).encode("utf-8")
                    done = time.perf_counter()
                    speed.sample()
                    times[name] = done - started
                    scaled[name] = speed.seconds(started, done)
                    answers.append((name, digest(text)))
                    out.attempted += 1
                    if traced:
                        clock.add("serialize.ms", (done - rendered) * 1e3, 1)
                        clock.add("serialize.report_bytes", count=len(text))
                        started = time.perf_counter()
                        to_jsonable(report)
                        clock.add("serialize.to_jsonable_ms",
                                  (time.perf_counter() - started) * 1e3, 1)
                        cache_bytes += dir_bytes(cache_dir)
                        clock.uninstall()
                        spent, lines, malformed = uncached_parse(name)
                        clock.install_pipeline()
                        parse_s += spent
                        parse_lines += lines
                        parse_malformed += malformed
                    shutil.rmtree(cache_dir)
                rotations[traced].append(times)
                if not traced:
                    measured.append(scaled)
        finally:
            clock.uninstall()
    rss = peak_rss_mb()

    ref = Reference()
    expected = {name: ref.add(name, stores[name]) for name in names}
    for name, value in answers:
        out.check(value == expected[name])
    if ref.golden_mismatches:
        out.failed += 1

    # one sample per complete rotation: per-store samples would mix five
    # input sizes, and their quantiles would jump between stores
    per_rotation = [sum(rotation.values()) for rotation in measured]
    total_mb = sum(ref.sizes[name]["log_mb"] for name in names)
    tail_s, pct, n = tail(per_rotation)
    mb_per_s = total_mb * n / sum(per_rotation)
    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": median(per_rotation) * 1e3,
        "tail_ms": tail_s * 1e3,
        "log_mb_per_s": mb_per_s,
    }
    out.note("cold_mb_per_s", mb_per_s, "MB/s", rotations=n,
             mb_per_rotation=round(total_mb, 3))
    out.note("cold_rotation_p50_ms", median(per_rotation) * 1e3, "ms", n=n)
    out.note("cold_rotation_tail_ms", tail_s * 1e3, "ms", percentile=pct,
             n=n)
    for name in names:
        out.note(f"cold_{name}_p50_ms",
                 median([rotation[name] for rotation in measured]) * 1e3,
                 "ms", n=n)
    out.note("cold_setup_s", median(setups), "s", n=SETUPS)
    out.info.update(stores=names, inputs=ref.sizes,
                    golden_checked=ref.golden_checked, rotations=n)
    if ctx.trace:
        ops = len(rotations[True])
        layers = clock.pipeline_metrics(ops)
        file_ms = sum(layers[f"ingest.{source}_ms"] for source in SOURCES)
        layers["parse.ms"] = parse_s * 1e3 / ops
        layers["parse.lines_per_s"] = parse_lines / parse_s
        layers["parse.malformed"] = parse_malformed / ops
        layers["cache.store_ms"] = max(file_ms - layers["parse.ms"], 0.0)
        layers["cache.bytes"] = cache_bytes / ops
        rotation_ms = [sum(r.values()) * 1e3 for r in rotations[True]]
        layers["unattributed_ms"] = (
            sum(rotation_ms) / ops - LayerClock.attributed_ms(layers))
        layers["trace_overhead_ms"] = median(rotation_ms) - median(
            [sum(r.values()) * 1e3 for r in rotations[False]])
        out.layers = layers
        out.info["traced_rotations"] = ops
    return out
