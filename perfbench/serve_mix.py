"""serve-mix: the HTTP service under an open-loop request mix.

``repro serve`` runs with default flags in its own process over
benchmark-owned copies of s1, s4, s5 and bgq (it writes ``.parse-cache``
into them).  One generator process drives it over ``CONNECTIONS``
keep-alive connections, one thread each, in an open loop: requests fall
due at a seeded Poisson rate and are timed from their due time, so a
stall also delays every request queued behind it.

* Most requests repeat ``POST /v1/diagnose`` on the hot store, s4
  (report-cache hits: HTTP, fingerprint and report cache only).
* ``FRESH_KEYS`` requests a run carry a key not seen before -- an
  ``only=`` selection or a windowed diagnosis -- and run the pipeline in
  the server's executor thread, which holds the interpreter lock while
  hits wait for it.
* The last day of s1's console log is held back and appended in
  ``APPENDS`` chunks on schedule.  Each append moves s1's fingerprint,
  and s1's diagnosis, asked again right after it, re-parses that one
  file.

Every answer must be 200 and byte-identical to the uncached
``api.diagnose`` (or ``diagnose_windowed``) of the store as it stood
while the request was in flight; that check runs after the timed window.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    CPUS,
    ROOT,
    Context,
    Outcome,
    awake,
    child_env,
    die_with_parent,
    dir_bytes,
    log_mb,
    median,
    peak_rss_mb,
    scenario,
    tail,
)
from layers import LayerClock

STORES = ("s1", "s4", "s5", "bgq")
SMOKE_STORES = ("s4", "bgq")
#: offered load over all connections (each tenant stays under the
#: default 50 req/s quota)
RATE = 80.0
CONNECTIONS = min(2, os.cpu_count() or 1)
#: five re-diagnoses of s1, the longest misses: the tail is the
#: eleventh-slowest request, so it rests on a couple of requests from
#: each of them instead of on the arrival jitter after one or two
APPENDS = 5
FRESH_KEYS = APPENDS // 2 + 1
#: the append store's re-diagnosis falls due this long after each append
RECHECK_AFTER_S = 0.05
#: an answer slower than this (from its due time) is not goodput
LATENCY_LIMIT_MS = 250.0
#: generator lateness tail above this makes the run invalid, not slow
LATE_LIMIT_MS = 20.0
#: the fresh keys' draw: the same pipeline work in every run
KEY_SEED = 0
SETUPS = 5
#: host-speed samples while the generator runs, at most this often
SAMPLE_EVERY_S = 0.2
APPEND_FILE = "p0/console.log"
HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# HTTP/1.1 client: one keep-alive connection

class Connection:
    def __init__(self, port: int, tenant: str) -> None:
        self.port = port
        self.tenant = tenant
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def request(self, method: str, path: str,
                body: bytes | None = None) -> tuple[int, dict, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"X-Tenant: {self.tenant}\r\n")
        if body is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        self.sock.sendall(head.encode() + b"\r\n" + (body or b""))
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = self.reader.read(int(headers.get("content-length", 0)))
        if headers.get("connection", "").lower() == "close":
            self.close()
            self._open()
        return status, headers, data


def _body(key: tuple) -> tuple[str, bytes]:
    endpoint, store, only, window_days = key
    wire: dict = {"logdir": store}
    if only is not None:
        wire["only"] = list(only)
    if window_days is not None:
        wire["window_days"] = window_days
    path = "/v1/diagnose/windowed" if endpoint == "windowed" else "/v1/diagnose"
    return path, json.dumps(wire).encode()


# ----------------------------------------------------------------------
# the service process

class Server:
    def __init__(self, root: Path, workdir: Path,
                 layers_out: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "serve_main.py")]
        if layers_out is not None:
            cmd += ["--layers-out", str(layers_out)]
        cmd += ["serve", str(root), "--port", "0"]
        self.errors = (workdir / "server.err").open("ab")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self.errors, text=True,
                                     preexec_fn=die_with_parent)
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def health(self) -> dict:
        conn = Connection(self.port, "health")
        try:
            status, _, body = conn.request("GET", "/v1/health")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/v1/health answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.errors.close()


# ----------------------------------------------------------------------
# inputs

def _held_back(store: Path) -> tuple[bytes, list[bytes]]:
    """Split one log into what is served at first and the last day."""
    from repro.logs.parsing import LineParser
    from repro.logs.store import LogStore
    from repro.simul.clock import DAY

    log = LogStore(store)
    parser = LineParser(log.manifest().clock(), catalog=log.catalog)
    lines = (store / APPEND_FILE).read_bytes().splitlines(keepends=True)
    stamps, last = [], 0.0
    for line in lines:
        record = parser.parse(line.decode("utf-8", errors="replace"))
        if record is not None:
            last = record.time
        stamps.append(last)
    cut = next(i for i, t in enumerate(stamps) if t > stamps[-1] - DAY)
    held = lines[cut:]
    size = -(-len(held) // APPENDS)
    chunks = [b"".join(held[i:i + size]) for i in range(0, len(held), size)]
    if len(chunks) != APPENDS:
        raise RuntimeError(f"cannot split {len(held)} held-back lines "
                           f"into {APPENDS} appends")
    return b"".join(lines[:cut]), chunks


def _schedule(rng: random.Random, stores: list[str], seconds: float,
              append_store: str) -> list[tuple[float, tuple]]:
    """Seeded open-loop arrivals: ``(due, key)`` in due order.

    Hot keys arrive as a Poisson process conditioned on its count (that
    many arrivals at uniform random instants), so every run of the same
    length offers the same load; all are on the hot store (the second):
    one answer size, so the median sits inside one narrow band
    of hit latencies instead of on the boundary between two stores'.
    Fresh keys alternate ``only=`` and windowed requests, cycling over
    the stores.  They are drawn at the fixed ``KEY_SEED``, so every run
    of the same length carries the same pipeline work (a two-day window
    costs several times a fourteen-day one); the seed picks their order.
    They fall due in the middle of every other gap between two appends,
    so no fresh-key miss queues behind an append's re-diagnosis of s1 or
    ahead of it: where the two met, they added up to 300 ms to the tail.
    """
    from repro.core.analysis import REGISTRY

    analyses = [spec.name for spec in REGISTRY if not spec.platforms]
    windowed = [s for s in stores if s != append_store]
    hot = ("diagnose", stores[1], None, None)
    arrivals = [(rng.uniform(0.0, seconds), hot)
                for _ in range(round(RATE * seconds))]
    draw = random.Random(KEY_SEED)
    keys: list[tuple] = []
    for i in range(FRESH_KEYS):
        key = None
        while key is None or key in keys:
            if i % 2 == 0:
                only = tuple(sorted(draw.sample(analyses, 2)))
                key = ("diagnose", stores[i // 2 % len(stores)], only, None)
            else:
                key = ("windowed", windowed[i // 2 % len(windowed)], None,
                       draw.randint(2, 14))
        keys.append(key)
    rng.shuffle(keys)
    gap = seconds / (APPENDS + 1)
    for i, key in enumerate(keys):
        arrivals.append(((2 * i + 0.5) * gap, key))
    return sorted(arrivals, key=lambda arrival: arrival[0])


def _references(template: Path, chunks: list[bytes], workdir: Path,
                wanted: set[tuple]) -> dict[tuple, str]:
    """Uncached canonical sha256 per wanted ``(store, version, key)``.

    Version ``v`` of a store is the template plus the first ``v``
    appended chunks; each version is ingested once (what
    ``api.diagnose`` does) and run once per key.
    """
    from repro import api
    from repro.core.serialize import canonical_json

    out = {}
    groups: dict[tuple, list[tuple]] = {}
    for store, version, key in wanted:
        groups.setdefault((store, version), []).append(key)
    for (store, version), keys in sorted(groups.items()):
        copy = workdir / f"ref-{store}-v{version}"
        shutil.copytree(template / store, copy)
        if version:
            with (copy / APPEND_FILE).open("ab") as handle:
                handle.write(b"".join(chunks[:version]))
        diag = api.load_system(copy)
        for key in keys:
            endpoint, _, only, window_days = key
            if endpoint == "windowed":
                payload = [
                    {"start_day": w.start_day, "end_day": w.end_day,
                     "report": w.report}
                    for w in diag.run_windowed(window_days, only=only)]
            else:
                payload = diag.run(only=only)
            text = canonical_json(payload).encode("utf-8")
            out[(store, version, key)] = hashlib.sha256(text).hexdigest()
        del diag
        shutil.rmtree(copy)
    return out


# ----------------------------------------------------------------------
# the generator

def _drive(port: int, tenant: str, events: list, t0: float,
           results: list, append_log: list, append_path: Path,
           chunks: list[bytes]) -> None:
    """One connection's share of the schedule, in due order."""
    conn = Connection(port, tenant)
    free = t0
    try:
        for due_rel, kind, payload in events:
            due = t0 + due_rel
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if kind == "append":
                started = time.perf_counter()
                with append_path.open("ab") as handle:
                    handle.write(chunks[payload])
                free = time.perf_counter()
                append_log.append((payload, started, free))
                continue
            index, key = payload
            path, body = _body(key)
            sent = time.perf_counter()
            try:
                status, headers, data = conn.request("POST", path, body)
            except (OSError, ValueError) as exc:
                status, headers, data = 0, {"error": repr(exc)}, b""
                conn = Connection(port, tenant)
            done = time.perf_counter()
            results.append({
                "index": index, "key": key, "due": due, "sent": sent,
                "done": done, "late": sent - max(due, free),
                "status": status, "cache": headers.get("x-cache"),
                "digest": hashlib.sha256(data).hexdigest(),
            })
            free = done
    finally:
        conn.close()


def run(ctx: Context) -> Outcome:
    stores = list(SMOKE_STORES if ctx.smoke else STORES)
    append_store = stores[0]
    out = Outcome()
    template = ctx.workdir / "template"
    for name in stores:
        shutil.copytree(scenario(name), template / name)
    served, chunks = _held_back(template / append_store)
    (template / append_store / APPEND_FILE).write_bytes(served)
    warm_keys = [("diagnose", name, None, None) for name in stores]
    mb = {name: log_mb(scenario(name)) for name in stores}

    # set-up: start until /v1/health answers, then each store's diagnosis
    # warmed
    setups, warm_answers = [], []
    server = None
    layers_out = ctx.workdir / "layers.json" if ctx.trace else None
    speed = ctx.speed
    speed.sample()
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            root = ctx.workdir / f"root-{i}"
            shutil.copytree(template, root)
            started = time.perf_counter()
            server = Server(root, ctx.workdir,
                            layers_out if i == SETUPS - 1 else None)
            while True:
                try:
                    server.health()
                    break
                except OSError:
                    time.sleep(0.01)
            conn = Connection(server.port, "warm")
            for key in warm_keys:
                status, _, data = conn.request("POST", *_body(key))
                warm_answers.append((key, status,
                                     hashlib.sha256(data).hexdigest()))
            conn.close()
            done = time.perf_counter()
            speed.sample()
            setups.append(speed.seconds(started, done))

        # the generator's threads on another CPU than the server's (which
        # is the probe's), so the two never wait for each other
        os.sched_setaffinity(0, {CPUS[0]})
        rng = random.Random(ctx.seed)
        arrivals = _schedule(rng, stores, ctx.seconds, append_store)
        lanes: list[list] = [[] for _ in range(CONNECTIONS)]
        for index, (due, key) in enumerate(arrivals):
            lanes[index % CONNECTIONS].append((due, "request", (index, key)))
        # each append, then (on the same connection, so always after
        # it) the append store's diagnosis again: a miss that re-parses
        # the grown file
        recheck = ("diagnose", append_store, None, None)
        for k in range(APPENDS):
            due = ctx.seconds * (k + 1) / (APPENDS + 1)
            lanes[0].append((due, "append", k))
            lanes[0].append((due + RECHECK_AFTER_S, "request",
                             (len(arrivals) + k, recheck)))
        for lane in lanes:
            lane.sort(key=lambda event: event[0])

        before = server.health()
        results: list[dict] = []
        append_log: list[tuple] = []
        with awake():
            t0 = time.perf_counter() + 0.05
            threads = [threading.Thread(
                target=_drive,
                args=(server.port, f"gen-{i}", lanes[i], t0, results,
                      append_log, root / append_store / APPEND_FILE, chunks))
                for i in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            half = t0 + ctx.seconds / 2
            hung = t0 + ctx.seconds + 150
            tracing = False
            # the connection threads do the driving; this one samples the
            # host's speed and starts the server's tracing half-way
            while any(thread.is_alive() for thread in threads):
                if time.perf_counter() - speed.times[-1] >= SAMPLE_EVERY_S:
                    speed.sample()
                if ctx.trace and not tracing and time.perf_counter() >= half:
                    server.proc.send_signal(signal.SIGUSR1)
                    tracing = True
                if time.perf_counter() > hung:
                    raise RuntimeError("a generator connection hung")
                time.sleep(0.02)
        speed.sample()
        after = server.health()
        rss = peak_rss_mb(server.proc.pid)
        cache_bytes = sum(dir_bytes(p) for p in root.glob("*/.parse-cache"))
    finally:
        if server is not None:
            server.stop()
    out.attempted = len(results)
    if out.attempted != len(arrivals) + APPENDS:
        out.failed += len(arrivals) + APPENDS - out.attempted

    # correctness, outside the timed window
    def versions(result: dict) -> range:
        if result["key"][1] != append_store:
            return range(0, 1)
        low = sum(1 for _, _, end in append_log if end <= result["sent"])
        high = sum(1 for _, start, _ in append_log if start < result["done"])
        return range(low, high + 1)

    wanted = {(key[1], 0, key) for key, _, _ in warm_answers}
    for result in results:
        for version in versions(result):
            wanted.add((result["key"][1], version, result["key"]))
    refs = _references(template, chunks, ctx.workdir, wanted)
    for key, status, value in warm_answers:
        out.check(status == 200 and value == refs[(key[1], 0, key)])
    for result in results:
        result["ok"] = result["status"] == 200 and any(
            result["digest"] == refs[(result["key"][1], v, result["key"])]
            for v in versions(result))
        out.check(result["ok"])

    # end-to-end: latency from due time, in reference milliseconds; a
    # failed answer is over the limit
    for result in results:
        result["latency"] = speed.seconds(result["due"], result["done"]) * 1e3
        if not result["ok"]:
            result["latency"] = max(result["latency"], LATENCY_LIMIT_MS)
    measured = [r for r in results
                if not ctx.trace or r["due"] < half]
    window = ctx.seconds / 2 if ctx.trace else ctx.seconds
    latencies = [r["latency"] for r in measured]
    good = [r for r in measured
            if r["ok"] and r["latency"] <= LATENCY_LIMIT_MS]
    p99, pct, n = tail(latencies)
    # the generator's own lateness over the whole window: past the limit
    # the run measured the generator, so its late requests fail it
    late, late_pct, _ = tail([r["late"] * 1e3 for r in results])
    valid = late <= LATE_LIMIT_MS
    if not valid:
        behind = sum(1 for r in results if r["late"] * 1e3 > LATE_LIMIT_MS)
        out.failed += behind
        out.invalid = (f"the generator sent {behind} requests more than "
                       f"{LATE_LIMIT_MS:g} ms late (p{late_pct} lateness "
                       f"{late:.1f} ms)")
    misses = sum(1 for r in measured if r["cache"] == "miss")
    out.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": median(latencies),
        "tail_ms": p99,
        "log_mb_per_s": sum(mb[r["key"][1]] for r in good) / window,
    }
    out.note("serve_p50_ms", median(latencies), "ms", n=n)
    out.note("serve_p99_ms", p99, "ms", percentile=pct, n=n)
    out.note("serve_goodput_rps", len(good) / window, "req/s",
             offered_rps=RATE, latency_limit_ms=LATENCY_LIMIT_MS)
    out.note("serve_setup_s", median(setups), "s", n=SETUPS)
    if not valid:
        out.note("serve_generator_late_ms", late, "ms", percentile=late_pct,
                 limit_ms=LATE_LIMIT_MS, verdict="run invalid")
    out.info.update(
        stores=stores, append_store=append_store, appends=len(append_log),
        offered_rps=RATE, connections=CONNECTIONS, fresh_keys=FRESH_KEYS,
        latency_limit_ms=LATENCY_LIMIT_MS, requests=n, misses=misses,
        generator_late_ms={"value": round(late, 3), "percentile": late_pct},
        valid=valid,
        append_s=round(sum(end - start for _, start, end in append_log), 4),
        inputs={name: {"log_mb": round(mb[name], 3)} for name in stores})
    if ctx.trace:
        traced = [r for r in results if r["due"] >= half]
        service = {kind: [(r["done"] - r["sent"]) * 1e3 for r in traced
                          if r["cache"] == kind] for kind in ("hit", "miss")}
        untraced_hits = [(r["done"] - r["sent"]) * 1e3 for r in measured
                         if r["cache"] == "hit"]
        data = json.loads(layers_out.read_text())
        clock = LayerClock()
        clock.ms.update(data["ms"])
        clock.count.update(data["count"])
        runs = clock.count.get("serve.compute_ms", 0.0)
        layers = clock.pipeline_metrics(runs)
        layers["cache.bytes"] = cache_bytes
        layers["serve.hit_ms"] = median(service["hit"] or [0.0])
        layers["serve.miss_ms"] = median(service["miss"] or [0.0])
        layers["serve.send_late_ms"] = tail(
            [r["late"] * 1e3 for r in traced])[0]
        calls = clock.count.get("serve.fingerprint_ms", 0.0)
        layers["serve.fingerprint_ms"] = (
            clock.ms.get("serve.fingerprint_ms", 0.0) / calls if calls else 0)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
        layers["serve.hit_ratio"] = hits / lookups if lookups else 0.0
        for metric, path in (("serve.flights", ("coalesce", "flights")),
                             ("serve.coalesced", ("coalesce", "coalesced"))):
            layers[metric] = after[path[0]][path[1]] - before[path[0]][path[1]]
        layers["serve.rejected"] = (
            after["quota"]["rejected"] - before["quota"]["rejected"]
            + after["backpressure"]["rejected"]
            - before["backpressure"]["rejected"])
        layers["serve.errors"] = after["errors"] - before["errors"]
        layers["unattributed_ms"] = (
            clock.ms.get("serve.compute_ms", 0.0) / max(runs, 1.0)
            - LayerClock.attributed_ms(layers)) if runs else 0.0
        layers["trace_overhead_ms"] = (
            median(service["hit"] or [0.0]) - median(untraced_hits or [0.0]))
        out.layers = layers
        out.info["traced_pipeline_runs"] = runs
    return out
