"""watch-live: the watch daemon tailing a live replay of s3.

``ReplayWriter`` (the load generator, timed apart from the program)
replays s3 into a fresh live directory in fixed 6-hour steps of
simulated time; after each feed ``WatchDaemon.tick()`` is timed, and
``finalize()`` once the replay is complete.  The tailer, the stream
index appends, the alert engine and the per-window builds do all the
work; batch ingest does none.  The seed sets the phase of the steps.
Set-up (daemon construction plus ``start()``, about 1 ms) is timed at
the start of every replay and ``SETUPS_PER_REPLAY`` more times on fresh
live directories after each untraced replay, so its median rests on
enough samples, spread over the whole window, to be steady.
"""

from __future__ import annotations

import random
import shutil
import time

from common import (
    Context,
    HostSpeed,
    Outcome,
    digest,
    halves,
    log_mb,
    median,
    peak_rss_mb,
    scenario,
    tail,
)
from layers import LayerClock

STEP_HOURS = 6
WINDOW_DAYS = 1
SETUPS_PER_REPLAY = 8
#: host-speed samples between ticks at most this often
SAMPLE_EVERY_S = 0.25


def _setup(source, live) -> tuple[float, float]:
    """One daemon set-up on a fresh live directory, as a replay starts;
    returns its start and end."""
    from repro.stream import WatchConfig, WatchDaemon

    (live / "logs").mkdir(parents=True)
    shutil.copy(source / "manifest.json", live / "logs" / "manifest.json")
    started = time.perf_counter()
    daemon = WatchDaemon(WatchConfig(logdir=live / "logs", out=live / "out",
                                     window_days=WINDOW_DAYS))
    daemon.start()
    done = time.perf_counter()
    shutil.rmtree(live)
    return started, done


def _replay(source, live, phase: float, step: float,
            speed: HostSpeed) -> dict:
    """One full replay; returns its timed intervals, counts and final
    windows.  Samples the host's speed between ticks, at most every
    ``SAMPLE_EVERY_S``."""
    from repro.core.serialize import canonical_json
    from repro.stream import ReplayWriter, WatchConfig, WatchDaemon

    writer = ReplayWriter(source, live / "logs")
    started = time.perf_counter()
    daemon = WatchDaemon(WatchConfig(logdir=live / "logs", out=live / "out",
                                     window_days=WINDOW_DAYS))
    daemon.start()
    setup = (started, time.perf_counter())
    ticks, closing, feed_s = [], [], 0.0
    until = phase
    while writer.pending_count():
        if time.perf_counter() - speed.times[-1] >= SAMPLE_EVERY_S:
            speed.sample()
        started = time.perf_counter()
        writer.feed_until(until)
        landed = time.perf_counter()
        feed_s += landed - started
        windows = len(daemon.windows)
        daemon.tick()
        ticks.append((landed, time.perf_counter()))
        closing.append(len(daemon.windows) > windows)
        until += step
    started = time.perf_counter()
    report = daemon.finalize()
    finalize = (started, time.perf_counter())
    return {
        "setup": setup, "ticks": ticks, "closing": closing,
        "finalize": finalize, "feed": feed_s,
        "records": daemon.records_appended, "alerts": daemon.alerts_emitted,
        "windows": len(report.windows),
        "digest": digest(canonical_json(report.windows).encode("utf-8")),
    }


def _durations(replay: dict, span) -> dict:
    """A replay's timed intervals as seconds, measured by ``span``."""
    ticks = [span(*tick) for tick in replay["ticks"]]
    finalize = span(*replay["finalize"])
    return {
        "ticks": ticks, "finalize": finalize, "busy": sum(ticks) + finalize,
        "close_ticks": [t for t, closed in zip(ticks, replay["closing"])
                        if closed],
    }


def run(ctx: Context) -> Outcome:
    from repro.core.serialize import canonical_json
    from repro.logs.store import LogStore
    from repro.simul.clock import HOUR
    from repro.stream import streamed_batch_equivalent

    name = "s4" if ctx.smoke else "s3"
    source = scenario(name)
    step = STEP_HOURS * HOUR
    phase = random.Random(ctx.seed).uniform(0.0, step)
    out = Outcome()
    replays: dict[bool, list[dict]] = {False: [], True: []}
    clock = LayerClock()
    speed = ctx.speed
    setups: list[tuple[float, float]] = []
    count = 0
    speed.sample()
    for traced, seconds in halves(ctx):
        if traced:
            clock.install_pipeline()
            clock.install_stream()
        try:
            deadline = time.perf_counter() + seconds
            while not replays[traced] or time.perf_counter() < deadline:
                live = ctx.workdir / f"replay-{count}"
                replays[traced].append(
                    _replay(source, live, phase, step, speed))
                out.attempted += 1
                if not traced:
                    setups += [_setup(source, ctx.workdir / "setup")
                               for _ in range(SETUPS_PER_REPLAY)]
                speed.sample()
                if count:  # the first replay's final store is the reference
                    shutil.rmtree(live)
                count += 1
        finally:
            clock.uninstall()
    rss = peak_rss_mb()

    final = LogStore(ctx.workdir / "replay-0" / "logs")
    expected = digest(canonical_json(
        streamed_batch_equivalent(final, WINDOW_DAYS)).encode("utf-8"))
    for replay in replays[False] + replays[True]:
        out.check(replay["digest"] == expected)

    measured = [_durations(r, speed.seconds) for r in replays[False]]
    ticks = [t for r in measured for t in r["ticks"]]
    busy = sum(r["busy"] for r in measured)
    records = sum(r["records"] for r in replays[False])
    mb = log_mb(source)
    tail_s, pct, n = tail(ticks)
    setup_s = median([speed.seconds(*setup) for setup in
                      setups + [r["setup"] for r in replays[False]]])
    out.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "p50_ms": median(ticks) * 1e3,
        "tail_ms": tail_s * 1e3,
        "log_mb_per_s": mb * len(measured) / busy,
    }
    out.note("watch_records_per_s", records / busy, "rec/s",
             replays=len(measured))
    out.note("watch_lag_p50_ms", median(ticks) * 1e3, "ms", n=n)
    out.note("watch_lag_tail_ms", tail_s * 1e3, "ms", percentile=pct, n=n)
    out.note("watch_setup_s", setup_s, "s", n=len(setups) + len(measured))
    out.info.update(
        store=name, step_hours=STEP_HOURS, phase_s=round(phase, 3),
        window_days=WINDOW_DAYS, replays=len(measured), samples=n,
        inputs={name: {"log_mb": round(mb, 3),
                       "records": replays[False][0]["records"],
                       "windows": replays[False][0]["windows"]}},
        generator_feed_s=round(sum(r["feed"] for r in replays[False]), 4))
    if ctx.trace:
        def raw(start: float, end: float) -> float:
            return end - start

        traced = [_durations(r, raw) for r in replays[True]]
        untraced = [_durations(r, raw) for r in replays[False]]
        ops = len(traced)
        layers = clock.pipeline_metrics(ops)
        layers["watch.tick_ms"] = median(
            [t for r in traced for t in r["ticks"]]) * 1e3
        layers["watch.close_tick_ms"] = median(
            [t for r in traced for t in r["close_ticks"]]) * 1e3
        layers["watch.finalize_ms"] = median(
            [r["finalize"] for r in traced]) * 1e3
        for key in ("records", "alerts", "windows"):
            layers[f"watch.{key}"] = sum(r[key] for r in replays[True]) / ops
        layers["unattributed_ms"] = (
            sum(r["busy"] for r in traced) * 1e3 / ops
            - LayerClock.attributed_ms(layers))
        layers["trace_overhead_ms"] = (
            median([r["busy"] for r in traced])
            - median([r["busy"] for r in untraced])) * 1e3
        out.layers = layers
        out.info["traced_replays"] = ops
    return out
