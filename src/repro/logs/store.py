"""On-disk log store: the p0-directory layout, writers and readers.

The store mirrors the paper's Table II sources::

    <root>/
      manifest.json          # system key, seed, epoch, duration
      p0/console.log         # node-internal kernel messages
      p0/messages.log        # node-internal NHC / ALPS messages
      p0/consumer.log        # node-internal consumer (l0sysd) stream
      controller/controller.log   # BC + CC health faults
      erd/event.log          # event router stream (SEDC, ec_* events)
      sched/sched.log        # Slurm or Torque scheduler log

Writing streams a :class:`~repro.logs.record.LogBus` out through
:func:`~repro.logs.render.render_line`; reading streams lines back through
:class:`~repro.logs.parsing.LineParser`.  The reading side never needs the
simulator -- only the manifest's epoch so timestamps convert back to
simulation seconds.
"""

from __future__ import annotations

import gzip
import json
import time as _time
import warnings
from dataclasses import dataclass
from heapq import merge as _heapq_merge
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

from repro.logs.catalogs import (
    DEFAULT_PLATFORM,
    PlatformCatalog,
    detect_platform,
    get_catalog,
    resolve_catalog,
)
from repro.logs.health import ErrorPolicy, IngestionError, IngestionHealth, SourceHealth
from repro.logs.parsing import REPLACEMENT_CHAR, LineParser, ParsedRecord
from repro.logs.record import LogBus, LogRecord, LogSource
from repro.logs.render import render_line
from repro.obs import OBS
from repro.simul.clock import SimClock

__all__ = [
    "LogStore",
    "StoreManifest",
    "parse_log_file",
    "open_log_text",
    "QUARANTINE_DIR",
    "DEFAULT_CACHE_DIRNAME",
]

#: subdirectory (under the store root) collecting quarantined raw lines
QUARANTINE_DIR = "quarantine"

#: store-local default directory of the persistent parse cache
DEFAULT_CACHE_DIRNAME = ".parse-cache"

#: bounded retry for transient I/O errors (NFS hiccups, rotation races)
_IO_RETRIES = 3
_IO_BACKOFF = 0.05

#: sort/merge key for record streams
_TIME_KEY = attrgetter("time")


def _merge_records(lists: list[list[ParsedRecord]]) -> list[ParsedRecord]:
    """Merge per-file record lists that are each already time-sorted.

    ``heapq.merge`` is O(n log k) over k files instead of the O(n log n)
    full re-sort the readers used to do, and ties resolve to the
    earliest input list -- exactly the order concatenation followed by a
    stable sort produced, so downstream output is byte-identical.
    """
    lists = [records for records in lists if records]
    if not lists:
        return []
    if len(lists) == 1:
        return lists[0]
    return list(_heapq_merge(*lists, key=_TIME_KEY))


_SOURCE_PATHS: dict[LogSource, str] = {
    LogSource.CONSOLE: "p0/console.log",
    LogSource.MESSAGES: "p0/messages.log",
    LogSource.CONSUMER: "p0/consumer.log",
    LogSource.CONTROLLER: "controller/controller.log",
    LogSource.ERD: "erd/event.log",
    LogSource.SCHEDULER: "sched/sched.log",
}


@dataclass(frozen=True)
class StoreManifest:
    """Metadata identifying a written log directory."""

    system: str
    seed: int
    epoch_iso: str
    duration_seconds: float
    #: platform dialect the logs were written in ("" = unknown; readers
    #: of pre-dialect stores fall back to content sniffing)
    platform: str = ""

    def clock(self) -> SimClock:
        """Reconstruct the clock the writer used."""
        return SimClock.from_iso(self.epoch_iso)


def open_log_text(path: Path) -> IO[str]:
    """Open a log file for tolerant text reading.

    ``.gz`` segments are decompressed transparently; decoding never
    raises -- undecodable bytes become replacement characters, which the
    hardened parser counts as recovered lines.
    """
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open("r", encoding="utf-8", errors="replace")


def parse_log_file(
    path: Path,
    parser: LineParser,
    policy: ErrorPolicy = ErrorPolicy.SKIP,
    cache=None,
) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
    """Parse one physical log file under an error policy (traced).

    When observability is enabled (:mod:`repro.obs`) every call records
    one ``logs.parse_file`` span carrying the file name plus line/byte
    accounting, and the ``ingest.*`` counters advance.

    ``cache`` is an optional :class:`repro.logs.cache.ParseCache`: a
    content-hash hit skips the parse entirely (only ``cache.*`` metrics
    advance, never ``ingest.*`` -- a hit parsed nothing), a miss parses
    once and populates the cache.  Either way the returned triple is
    byte-for-byte what the uncached parse would have produced.
    """
    if cache is not None:
        return cache.parse(path, parser, policy)
    if not OBS.enabled:
        return _parse_log_file(path, parser, policy)
    with OBS.span("logs.parse_file", "ingest", file=path.name) as span:
        records, health, quarantined = _parse_log_file(path, parser, policy)
        span.add(records=health.parsed, read=health.read,
                 quarantined=health.quarantined, recovered=health.recovered,
                 bytes=path.stat().st_size)
        _emit_ingest_metrics(health)
        return records, health, quarantined


def _emit_ingest_metrics(health: SourceHealth) -> None:
    """Advance the ``ingest.*`` counters for one actually-parsed file."""
    metrics = OBS.metrics
    metrics.counter("ingest.files_parsed").inc()
    metrics.counter("ingest.lines_read").inc(health.read)
    metrics.counter("ingest.lines_parsed").inc(health.parsed)
    metrics.counter("ingest.lines_quarantined").inc(health.quarantined)
    metrics.counter("ingest.lines_ignored").inc(health.ignored)
    metrics.counter("ingest.lines_recovered").inc(health.recovered)
    if health.retried_files:
        metrics.counter("ingest.io_retries").inc(health.retried_files)
    if health.partial_tail:
        metrics.counter("ingest.partial_tails").inc(health.partial_tail)


def _load_log_text(path: Path) -> tuple[str, int]:
    """Read + decode one log file whole, with bounded I/O retries.

    Returns ``(text, retried)`` where ``retried`` is 1 when transient
    ``OSError`` forced at least one retry (the ``retried_files`` health
    bit).  Reading whole is deliberate: daily-rotated segments keep
    sizes modest and the mojibake scan runs once over the buffer instead
    of once per line.  Raises :class:`IngestionError` when the file
    stays unreadable -- gzip damage surfaces here too (``BadGzipFile``
    is an ``OSError``), so a rotted ``.gz`` segment is retried and then
    reported exactly like a vanished file.
    """
    last_error: Optional[OSError] = None
    for attempt in range(_IO_RETRIES):
        try:
            with open_log_text(path) as handle:
                return handle.read(), 1 if attempt else 0
        except OSError as exc:
            last_error = exc
            _time.sleep(_IO_BACKOFF * (attempt + 1))
    raise IngestionError(
        f"unreadable after {_IO_RETRIES} attempts: {path}: {last_error}",
        path=str(path),
    )


def _parse_log_text(
    text: str,
    parser: LineParser,
    policy: ErrorPolicy,
    path: Path,
    retried: int = 0,
) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
    """Parse one file's already-loaded text (the pure half of the parse).

    Factored out of the on-disk path so the parse cache can hash and
    parse the *same* bytes -- no read/parse race can store an entry
    under a stale key.  ``path`` is for error messages only.

    The returned records are guaranteed time-sorted.  Writers emit in
    order, so this is normally a free pass over an already-ordered list;
    only a file whose stamps carry sub-``max_skew`` backwards jitter
    (small skew is deliberately left for downstream sorting) pays one
    stable sort.  The guarantee is what lets the stream assemblers use
    ``heapq.merge`` instead of re-sorting whole sources.
    """
    records: list[ParsedRecord] = []
    quarantined: list[str] = []
    # local counters: attribute increments per line would dominate
    # the hot loop (measured in benchmarks/bench_tolerant_parse.py)
    read = parsed = recovered = ignored = 0
    last_time = float("-inf")
    in_order = True
    parser.reset()
    parse_ex = parser.parse_ex
    append = records.append
    # a file whose last line has no newline is a mid-write snapshot,
    # not corruption: hold the torn tail back (it is neither read nor
    # parsed nor quarantined -- the writer will finish it) and flag it
    # so operators see data is arriving
    partial_tail = 0
    if text and not text.endswith("\n"):
        cut = text.rfind("\n") + 1
        if text[cut:].strip():
            partial_tail = 1
        text = text[:cut]
    scan = REPLACEMENT_CHAR in text
    for line in text.splitlines():
        read += 1
        record, status, repaired = parse_ex(line, scan)
        if record is not None:
            parsed += 1
            recovered += repaired
            append(record)
            t = record.time
            if t < last_time:
                in_order = False
            else:
                last_time = t
        elif status == "blank":
            ignored += 1
        else:  # malformed
            if policy is ErrorPolicy.STRICT:
                raise IngestionError(
                    f"malformed line in {path}: {line[:120]!r}",
                    path=str(path), line=line,
                )
            if policy is ErrorPolicy.QUARANTINE:
                quarantined.append(line)
            else:
                ignored += 1
    if not in_order:
        records.sort(key=_TIME_KEY)
    health = SourceHealth(
        read=read, parsed=parsed, quarantined=len(quarantined),
        ignored=ignored, recovered=recovered, files=1,
        retried_files=retried, partial_tail=partial_tail,
    )
    return records, health, quarantined


def _parse_log_file(
    path: Path,
    parser: LineParser,
    policy: ErrorPolicy,
) -> tuple[list[ParsedRecord], SourceHealth, list[str]]:
    """The untraced parse (see :func:`parse_log_file` for the contract).

    Returns ``(records, health, quarantined_lines)``.  The function
    performs no writes; quarantine persistence is the caller's job.
    Transient ``OSError`` during the read is retried up to
    :data:`_IO_RETRIES` times (see :func:`_load_log_text`), so the
    conservation law holds even across retries -- accounting starts
    only once the text is in memory.
    """
    text, retried = _load_log_text(path)
    return _parse_log_text(text, parser, policy, path, retried)


class LogStore:
    """A directory of text logs for one simulated system.

    ``cache`` attaches a persistent parse cache to every read path
    (:mod:`repro.logs.cache`): ``None`` disables caching (the default),
    ``True`` uses the store-local default directory
    (``<root>/.parse-cache``), a path uses that directory, and a
    :class:`~repro.logs.cache.ParseCache` instance is used as-is.

    ``platform`` pins the event-vocabulary dialect (a registered catalog
    name or a :class:`~repro.logs.catalogs.PlatformCatalog`).  When left
    ``None`` the dialect is auto-detected on first use: the manifest's
    recorded platform wins, an unlabelled store is content-sniffed, and
    an ambiguous sniff falls back to the default Cray dialect with a
    warning -- reading never fails over dialect resolution.
    """

    def __init__(
        self,
        root: Path | str,
        cache=None,
        platform: "str | PlatformCatalog | None" = None,
    ) -> None:
        self.root = Path(root)
        self.cache = self._resolve_cache(cache)
        self._platform = platform
        self._catalog: Optional[PlatformCatalog] = None

    @property
    def catalog(self) -> PlatformCatalog:
        """The resolved platform catalog (detected lazily on first use)."""
        if self._catalog is None:
            self._catalog = self._resolve_catalog()
        return self._catalog

    def _resolve_catalog(self) -> PlatformCatalog:
        if self._platform is not None:
            return resolve_catalog(self._platform)
        name = ""
        try:
            name = self.manifest().platform
        except (FileNotFoundError, json.JSONDecodeError, TypeError):
            pass
        if name:
            try:
                return get_catalog(name)
            except KeyError:
                warnings.warn(
                    f"manifest records unknown platform {name!r}; "
                    "falling back to content sniffing",
                    stacklevel=3,
                )
        sniffed = self._sniff_platform()
        if sniffed is not None:
            return get_catalog(sniffed)
        warnings.warn(
            f"could not determine the platform dialect of {self.root}; "
            f"assuming {DEFAULT_PLATFORM!r}",
            stacklevel=3,
        )
        return get_catalog(DEFAULT_PLATFORM)

    def _sniff_platform(self) -> Optional[str]:
        """Dialect name sniffed from the first lines of each source."""
        lines: list[str] = []
        for source in _SOURCE_PATHS:
            for path in self.source_files(source):
                try:
                    with open_log_text(path) as handle:
                        for i, line in enumerate(handle):
                            if i >= 8:
                                break
                            lines.append(line)
                except OSError:
                    continue
                break  # first readable file of a source is enough
        return detect_platform(lines)

    def _resolve_cache(self, cache):
        """Coerce the ``cache`` knob into a ParseCache (or None)."""
        if cache is None or cache is False:
            return None
        from repro.logs.cache import ParseCache

        if isinstance(cache, ParseCache):
            return cache
        if cache is True:
            return ParseCache(self.root / DEFAULT_CACHE_DIRNAME)
        return ParseCache(Path(cache))

    def with_cache(self, cache) -> "LogStore":
        """A view of the same store with a (possibly different) cache.

        Returns ``self`` when the knob resolves to the cache already
        attached; otherwise a new :class:`LogStore` sharing the root.
        """
        resolved = self._resolve_cache(cache)
        if resolved is self.cache:
            return self
        # carry the dialect over: an already-resolved catalog is passed
        # as-is so the view never re-sniffs the directory
        return LogStore(
            self.root, cache=resolved, platform=self._catalog or self._platform
        )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(
        self,
        bus: LogBus,
        clock: SimClock,
        system: str,
        seed: int,
        duration_seconds: float,
        rotate_daily: bool = False,
        platform: "str | PlatformCatalog | None" = None,
    ) -> StoreManifest:
        """Render the whole bus into the directory layout.

        Existing log files are replaced, not appended, so a scenario can
        be re-run into the same directory.  With ``rotate_daily`` each
        source is split into per-day files (``console-20150105.log``,
        ...), matching how production syslog directories actually look;
        the readers handle both layouts transparently.

        ``platform`` selects the dialect the bus is rendered in (it is
        recorded in the manifest so readers never have to sniff); when
        ``None`` the store's own platform applies, defaulting to the
        Cray dialect.
        """
        catalog = resolve_catalog(
            platform if platform is not None else self._platform
        )
        self._catalog = catalog
        manifest = StoreManifest(
            system=system,
            seed=seed,
            epoch_iso=clock.epoch.isoformat(),
            duration_seconds=float(duration_seconds),
            platform=catalog.name,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "manifest.json").write_text(
            json.dumps(manifest.__dict__, indent=2) + "\n"
        )
        # clear any previous layout (plain, rotated, or gzipped), plus
        # any quarantine left over from reading a corrupted predecessor
        for source in _SOURCE_PATHS:
            for old in self.source_files(source):
                old.unlink()
            quarantine = self.quarantine_path(source)
            if quarantine.is_file():
                quarantine.unlink()
        handles: dict = {}
        try:
            if not rotate_daily:
                for source, rel in _SOURCE_PATHS.items():
                    path = self.root / rel
                    path.parent.mkdir(parents=True, exist_ok=True)
                    handles[source] = path.open("w")
                for record in bus.sorted_records():
                    handles[record.source].write(
                        render_line(record, clock, catalog) + "\n")
            else:
                for record in bus.sorted_records():
                    day = clock.to_datetime(record.time).strftime("%Y%m%d")
                    key = (record.source, day)
                    handle = handles.get(key)
                    if handle is None:
                        base = self.root / _SOURCE_PATHS[record.source]
                        base.parent.mkdir(parents=True, exist_ok=True)
                        path = base.with_name(f"{base.stem}-{day}.log")
                        handle = path.open("w")
                        handles[key] = handle
                    handle.write(render_line(record, clock, catalog) + "\n")
        finally:
            for handle in handles.values():
                handle.close()
        return manifest

    def source_files(self, source: LogSource) -> list[Path]:
        """All files (plain, rotated, or gzipped) holding one source.

        Public API: the readers and the corruption injector use it to
        enumerate the physical files of a source family.  Rotated
        names sort chronologically (``console-20150105.log`` ...), and a
        gzipped segment sorts exactly where its plain twin would, so
        file order is time order within a source.
        """
        base = self.root / _SOURCE_PATHS[source]
        files = []
        for candidate in (base, base.with_name(base.name + ".gz")):
            if candidate.is_file():
                files.append(candidate)
        rotated = list(base.parent.glob(f"{base.stem}-*.log"))
        rotated.extend(base.parent.glob(f"{base.stem}-*.log.gz"))
        files.extend(sorted(rotated, key=lambda p: p.name.removesuffix(".gz")))
        return files

    def quarantine_path(self, source: LogSource) -> Path:
        """Where quarantined raw lines of one source are collected."""
        return self.root / QUARANTINE_DIR / f"{source.value}.quarantine.log"

    def _reset_quarantine(self, source: LogSource) -> None:
        """Start a fresh quarantine pass: drop the previous run's file.

        Called at the start of every quarantine-policy read so the
        on-disk file always mirrors exactly one ingestion pass and never
        accumulates duplicates across repeated diagnoses.
        """
        path = self.quarantine_path(source)
        if path.is_file():
            path.unlink()

    def _write_quarantine(self, source: LogSource, lines: list[str]) -> None:
        """Append quarantined raw lines for later forensics."""
        if not lines:
            return
        path = self.quarantine_path(source)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")

    def append_records(self, records: Iterable[LogRecord], clock: SimClock) -> int:
        """Append records to an existing store; returns lines written."""
        count = 0
        for record in records:
            path = self.root / _SOURCE_PATHS[record.source]
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a") as handle:
                handle.write(render_line(record, clock, self.catalog) + "\n")
            count += 1
        return count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def manifest(self) -> StoreManifest:
        """Load the manifest; raises FileNotFoundError for a bare dir."""
        data = json.loads((self.root / "manifest.json").read_text())
        return StoreManifest(**data)

    def exists(self) -> bool:
        """True when the directory holds a written store."""
        return (self.root / "manifest.json").is_file()

    def path_for(self, source: LogSource) -> Path:
        """The log file path of one source family."""
        return self.root / _SOURCE_PATHS[source]

    def _read_source_lists(
        self,
        source: LogSource,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> Iterator[list[ParsedRecord]]:
        """One time-sorted record list per physical file of a source.

        The per-file granularity is what the stream assemblers feed to
        ``heapq.merge``; :meth:`read_source` flattens it for callers who
        want a single stream.
        """
        policy = ErrorPolicy.coerce(policy)
        clock = clock or self.manifest().clock()
        parser = LineParser(clock, catalog=self.catalog)
        bucket = health.source(source) if health is not None else None
        if policy is ErrorPolicy.QUARANTINE:
            self._reset_quarantine(source)
        files = self.source_files(source)
        if not files and health is not None:
            health.note(f"source {source.value!r} has no log files")
        for path in files:
            try:
                records, file_health, quarantined = parse_log_file(
                    path, parser, policy, cache=self.cache)
            except IngestionError:
                if policy is ErrorPolicy.STRICT:
                    raise
                if health is not None:
                    bucket.files += 1
                    bucket.retried_files += 1
                    health.note(f"unreadable file skipped: {path.name}")
                if OBS.enabled:
                    OBS.metrics.counter("ingest.files_lost").inc()
                continue
            self._write_quarantine(source, quarantined)
            if bucket is not None:
                bucket.merge(file_health)
            yield records

    def read_source(
        self,
        source: LogSource,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> Iterator[ParsedRecord]:
        """Stream parsed records of one source family, in file order.

        Handles the plain single-file layout, daily-rotated files and
        gzipped segments transparently.  ``policy`` decides the fate of
        unparseable lines (see :class:`~repro.logs.health.ErrorPolicy`);
        ``health`` accumulates the per-source line accounting when the
        caller wants it.  Each file's records come out time-sorted (see
        :func:`parse_log_file`).
        """
        for records in self._read_source_lists(source, clock, policy, health):
            yield from records

    def read_internal(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All node-internal records (console+messages+consumer), time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in (LogSource.CONSOLE, LogSource.MESSAGES, LogSource.CONSUMER):
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def read_external(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All environmental records (controller+ERD), time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in (LogSource.CONTROLLER, LogSource.ERD):
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def read_scheduler(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """All scheduler records, in file order (already time-ordered)."""
        return list(self.read_source(LogSource.SCHEDULER, clock, policy, health))

    def read_all(
        self,
        clock: Optional[SimClock] = None,
        policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
    ) -> list[ParsedRecord]:
        """Every record from every source, time-sorted."""
        clock = clock or self.manifest().clock()
        lists: list[list[ParsedRecord]] = []
        for source in _SOURCE_PATHS:
            lists.extend(self._read_source_lists(source, clock, policy, health))
        return _merge_records(lists)

    def line_counts(self) -> dict[str, int]:
        """Lines per source (Table II style size census, both layouts)."""
        counts: dict[str, int] = {}
        for source in _SOURCE_PATHS:
            total = 0
            for path in self.source_files(source):
                with open_log_text(path) as handle:
                    total += sum(1 for _ in handle)
            counts[source.value] = total
        return counts
