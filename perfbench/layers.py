"""Per-layer timing from outside the program.

With ``--trace 1`` a :class:`LayerClock` wraps the public function at
each layer boundary of ``repro`` (the layer names are those of
``perfbench/README.md``) and adds up wall time and counts per metric.
Nothing under ``src/`` changes: the wrappers replace module and class
attributes for the duration of the traced window and are removed
afterwards.  Untraced runs install nothing.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path

#: log file name stem -> ingest metric (rotated segments share the stem)
_SOURCE_OF_STEM = {
    "console": "console",
    "messages": "messages",
    "consumer": "consumer",
    "controller": "controller",
    "event": "erd",
    "sched": "sched",
}
SOURCES = ("console", "messages", "consumer", "controller", "erd", "sched")


def source_of(path: Path) -> str | None:
    """The source family of a log file; None for a name no store uses
    (its time then lands in ``ingest.merge_ms``)."""
    stem = Path(path).name.split(".")[0].split("-")[0]
    return _SOURCE_OF_STEM.get(stem)


class LayerClock:
    """Wall milliseconds and counts per layer metric."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def add(self, metric: str, ms: float = 0.0, count: float = 0.0) -> None:
        with self._lock:
            self.ms[metric] += ms
            self.count[metric] += count

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original_callable)``."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def _timed(self, owner, name: str, metric: str) -> None:
        def make(fn):
            def timed(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(metric, (time.perf_counter() - started) * 1e3, 1)
            return timed
        self._patch(owner, name, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # the layer boundaries

    def install_pipeline(self) -> None:
        """ingest, build, analysis (the batch pipeline's layers)."""
        import repro.core.pipeline as pipeline
        import repro.logs.store as store
        from repro.core.external import ExternalIndex
        from repro.core.failure_detection import FailureDetector
        from repro.core.index import RecordIndex
        from repro.logs.cache import ParseCache

        clock = self

        def per_file(fn):
            def parse_log_file(path, *args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    source = source_of(path)
                    if source is not None:
                        clock.add(f"ingest.{source}_ms",
                                  (time.perf_counter() - started) * 1e3, 1)
            return parse_log_file

        def cache_parse(fn):
            def parse(cache, *args, **kwargs):
                before = cache.misses
                result = fn(cache, *args, **kwargs)
                missed = cache.misses > before
                clock.add("cache.misses" if missed else "cache.hits",
                          count=1)
                return result
            return parse

        def profiled(fn):
            def execute(ctx, *args, profile=None, **kwargs):
                spent: dict[str, float] = {}
                started = time.perf_counter()
                try:
                    return fn(ctx, *args, profile=spent, **kwargs)
                finally:
                    clock.add("analysis.total_ms",
                              (time.perf_counter() - started) * 1e3, 1)
                    for name, seconds in spent.items():
                        clock.add(f"analysis.{name}_ms", seconds * 1e3, 1)
                    if profile is not None:
                        profile.update(spent)
            return execute

        self._patch(store, "parse_log_file", per_file)
        for reader in ("read_internal", "read_external", "read_scheduler"):
            self._timed(store.LogStore, reader, "ingest.ms")
        self._patch(ParseCache, "parse", cache_parse)
        self._timed(pipeline.HolisticDiagnosis, "__init__", "build.ms")
        self._timed(RecordIndex, "build", "build.index_ms")
        self._timed(ExternalIndex, "from_stream", "build.external_ms")
        self._timed(FailureDetector, "detect", "build.detect_ms")
        self._timed(pipeline, "exclude_intended", "build.detect_ms")
        self._timed(pipeline, "detect_swos", "build.detect_ms")
        self._timed(pipeline, "parse_jobs", "build.jobs_ms")
        self._patch(pipeline, "execute", profiled)

    def install_stream(self) -> None:
        """The watch daemon's per-window report rendering."""
        import repro.stream.daemon as daemon

        clock = self

        def rendered(fn):
            def to_jsonable(obj):
                started = time.perf_counter()
                try:
                    return fn(obj)
                finally:
                    ms = (time.perf_counter() - started) * 1e3
                    clock.add("serialize.to_jsonable_ms", ms, 1)
                    clock.add("serialize.ms", ms, 1)
            return to_jsonable

        self._patch(daemon, "to_jsonable", rendered)

    def install_serve(self) -> None:
        """Service-side boundaries (installed inside the server process)."""
        import repro.serve.server as server
        from repro.core.serialize import to_jsonable

        clock = self

        def rendered(fn):
            def canonical_json(obj):
                started = time.perf_counter()
                text = fn(obj)
                clock.add("serialize.ms",
                          (time.perf_counter() - started) * 1e3, 1)
                clock.add("serialize.report_bytes", count=len(text))
                # the split costs one extra conversion, outside the
                # timed render above
                started = time.perf_counter()
                to_jsonable(obj)
                clock.add("serialize.to_jsonable_ms",
                          (time.perf_counter() - started) * 1e3, 1)
                return text
            return canonical_json

        self._timed(server, "logdir_fingerprint", "serve.fingerprint_ms")
        self._patch(server, "canonical_json", rendered)
        self._timed(server.DiagnosisService, "_compute_diagnose",
                    "serve.compute_ms")

    # ------------------------------------------------------------------
    # reporting

    def pipeline_metrics(self, ops: float) -> dict[str, float]:
        """ingest/cache/build/analysis/serialize metrics, per operation."""
        ops = max(ops, 1.0)
        out: dict[str, float] = {}
        file_ms = 0.0
        for source in SOURCES:
            value = self.ms.get(f"ingest.{source}_ms", 0.0)
            file_ms += value
            out[f"ingest.{source}_ms"] = value / ops
        read_ms = self.ms.get("ingest.ms", 0.0)
        out["ingest.ms"] = read_ms / ops
        out["ingest.merge_ms"] = max(read_ms - file_ms, 0.0) / ops
        hits = self.count.get("cache.hits", 0.0)
        misses = self.count.get("cache.misses", 0.0)
        out["cache.hits"] = hits / ops
        out["cache.misses"] = misses / ops
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for metric in ("build.ms", "build.index_ms", "build.external_ms",
                       "build.detect_ms", "build.jobs_ms",
                       "analysis.total_ms", "serialize.ms",
                       "serialize.to_jsonable_ms"):
            out[metric] = self.ms.get(metric, 0.0) / ops
        for metric, value in self.ms.items():
            if metric.startswith("analysis."):
                out[metric] = value / ops
        out["serialize.encode_ms"] = max(
            out["serialize.ms"] - out["serialize.to_jsonable_ms"], 0.0)
        out["serialize.report_bytes"] = (
            self.count.get("serialize.report_bytes", 0.0) / ops)
        return out

    @staticmethod
    def attributed_ms(metrics: dict[str, float]) -> float:
        """Summed time of the non-overlapping top-level layers."""
        return sum(metrics.get(name, 0.0) for name in
                   ("ingest.ms", "build.ms", "analysis.total_ms",
                    "serialize.ms"))
