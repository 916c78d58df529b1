"""warm-s3: the headline -- re-diagnosing s3 through a warm parse cache.

Closed loop, one caller: ``api.diagnose(s3, cache=<warm cache>)`` then
``canonical_json``, back to back.  The parse cache is full, so cache
loads, the stream merge, the build, the analyses and the render do all
the work and the parser does none (a parse-cache miss fails the run).
"""

from __future__ import annotations

import time

from common import (
    Context,
    Outcome,
    Reference,
    digest,
    halves,
    median,
    peak_rss_mb,
    scenario,
    tail,
)
from layers import LayerClock

#: set-ups per run; the median is reported
SETUPS = 3


def run(ctx: Context) -> Outcome:
    from repro import api
    from repro.core.serialize import canonical_json, to_jsonable
    from repro.logs.cache import ParseCache

    name = "s4" if ctx.smoke else "s3"
    store = scenario(name)
    out = Outcome()

    # set-up: the first diagnose, which fills an empty cache
    speed = ctx.speed
    setups, answers = [], []
    speed.sample()
    for i in range(SETUPS):
        cache = ParseCache(ctx.workdir / f"cache-{i}")
        started = time.perf_counter()
        report = api.diagnose(store, cache=cache)
        done = time.perf_counter()
        speed.sample()
        setups.append(speed.seconds(started, done))
        answers.append(digest(canonical_json(report).encode("utf-8")))
    hits_before, misses_before = cache.hits, cache.misses

    #: raw seconds per report, by traced; and the untraced ones scaled
    samples: dict[bool, list[float]] = {False: [], True: []}
    timed: list[float] = []
    clock = LayerClock()
    for traced, seconds in halves(ctx):
        if traced:
            clock.install_pipeline()
        try:
            deadline = time.perf_counter() + seconds
            while not samples[traced] or time.perf_counter() < deadline:
                started = time.perf_counter()
                report = api.diagnose(store, cache=cache)
                rendered = time.perf_counter()
                text = canonical_json(report).encode("utf-8")
                done = time.perf_counter()
                speed.sample()
                samples[traced].append(done - started)
                if not traced:
                    timed.append(speed.seconds(started, done))
                if traced:
                    clock.add("serialize.ms", (done - rendered) * 1e3, 1)
                    clock.add("serialize.report_bytes", count=len(text))
                    started = time.perf_counter()
                    to_jsonable(report)
                    clock.add("serialize.to_jsonable_ms",
                              (time.perf_counter() - started) * 1e3, 1)
                out.attempted += 1
                answers.append(digest(text))
        finally:
            clock.uninstall()
    rss = peak_rss_mb()
    misses = cache.misses - misses_before

    ref = Reference()
    expected = ref.add(name, store)
    for value in answers:
        out.check(value == expected)
    out.check(misses == 0)
    if ref.golden_mismatches:
        out.failed += 1

    p50 = median(timed) * 1e3
    tail_s, pct, n = tail(timed)
    mb = ref.sizes[name]["log_mb"]
    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": p50,
        "tail_ms": tail_s * 1e3,
        "log_mb_per_s": mb * len(timed) / sum(timed),
    }
    out.note("warm_report_ms", p50, "ms", n=n)
    out.note("warm_report_tail_ms", tail_s * 1e3, "ms", percentile=pct, n=n)
    out.note("warm_setup_s", median(setups), "s", n=SETUPS)
    out.info.update(store=name, inputs=ref.sizes,
                    golden_checked=ref.golden_checked,
                    parse_cache_misses=misses,
                    parse_cache_hits=cache.hits - hits_before,
                    samples=len(timed))
    if ctx.trace:
        ops = len(samples[True])
        layers = clock.pipeline_metrics(ops)
        layers["cache.bytes"] = cache.stats().total_bytes
        layers["unattributed_ms"] = (
            sum(samples[True]) * 1e3 / ops - LayerClock.attributed_ms(layers))
        layers["trace_overhead_ms"] = (
            median(samples[True]) - median(samples[False])) * 1e3
        out.layers = layers
        out.info["traced_samples"] = ops
    return out
