"""Parsing text log lines back into typed records.

This is the front end of the diagnosis pipeline: it sees only text.  A
line is split into ``timestamp component daemon: body`` and the body is
matched against the catalog patterns registered for that daemon.  Matching
is attempted against a per-daemon dispatch table ordered so that the more
specific patterns win; an unrecognised body yields a ``ParsedRecord`` with
``event=None`` (production logs always contain chatter the miner ignores).

Parsed timestamps are converted back to simulation seconds through the
same :class:`~repro.simul.clock.SimClock` the writer used, so time
arithmetic in the analysis layers is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.logs.catalog import CRAY_XC
from repro.logs.catalogs import PlatformCatalog, resolve_catalog
from repro.logs.record import LogSource, Severity
from repro.simul.clock import SimClock, parse_syslog

__all__ = [
    "ParsedRecord",
    "ParseOutcome",
    "LineParser",
    "parse_line",
    "parse_lines",
    "DEFAULT_MAX_SKEW",
    "REPLACEMENT_CHAR",
]

#: largest backwards timestamp jump (seconds) treated as clock skew and
#: clamped; larger jumps usually mean daily rotation, which file order
#: already handles, so the bound is deliberately generous
DEFAULT_MAX_SKEW = 3600.0

#: the substitution character ``errors="replace"`` decoding leaves behind
REPLACEMENT_CHAR = "�"
_REPLACEMENT = REPLACEMENT_CHAR


@dataclass(slots=True, unsafe_hash=True)
class ParsedRecord:
    """One parsed log line.

    ``event`` is None when the body matched no catalog pattern; the raw
    body is always retained for forensic display (Table V style output).

    Slotted and built with a plain (non-frozen) ``__init__`` because
    millions are allocated per ingestion pass; ``unsafe_hash`` keeps the
    field-based hash the previously frozen class had.  Records are
    value objects by convention: never mutate one after construction --
    chatter records share a single empty ``attrs`` dict.
    """

    time: float
    source: LogSource
    component: str
    daemon: str
    event: Optional[str]
    attrs: dict[str, str] = field(default_factory=dict)
    severity: Severity = Severity.INFO
    body: str = ""

    def __reduce__(self):
        """Compact pickling: rebuild through ``__init__`` positionally.

        The default slots-dataclass reduction (class + state dict) costs
        several microseconds per record; the positional rebuild is what
        keeps pickling a large record list cheap.
        """
        return (ParsedRecord, (self.time, self.source, self.component,
                               self.daemon, self.event, self.attrs,
                               self.severity, self.body))

    def attr(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup with default."""
        return self.attrs.get(key, default)

    def attr_float(self, key: str, default: float = 0.0) -> float:
        """Attribute as float (SEDC values and thresholds)."""
        raw = self.attrs.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            return default

    def attr_int(self, key: str, default: int = 0) -> int:
        """Attribute as int (job ids, exit codes)."""
        raw = self.attrs.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            return default


class ParseOutcome(NamedTuple):
    """Classified result of one hardened parse attempt.

    ``status`` is one of ``"parsed"`` (a record came out, possibly after
    repair -- see ``recovered``), ``"blank"`` (empty line, ignorable by
    construction) or ``"malformed"`` (nothing salvageable; the error
    policy decides its fate).  A NamedTuple, not a dataclass: one is
    allocated per log line, so construction cost is on the hot path.
    """

    record: Optional[ParsedRecord]
    status: str
    recovered: bool = False


#: shared outcomes for the two record-less cases (hot-path allocation)
_BLANK = ParseOutcome(None, "blank")
_MALFORMED = ParseOutcome(None, "malformed")

#: shared attrs sentinel for chatter records -- most production lines are
#: unrecognised chatter, so skipping the per-line dict allocation matters
_EMPTY_ATTRS: dict[str, str] = {}

#: whole-second stamp prefix eligible for the memoised fast path; ASCII
#: digits only so exotic stamps keep the exact strptime semantics
_STAMP_HEAD = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}$")


class LineParser:
    """Reusable parser bound to one clock.

    Matching goes through the compiled per-daemon dispatchers built once
    at :mod:`repro.logs.catalog` import (one alternation regex per daemon
    plus a literal-prefix pre-filter); :meth:`parse` is then a hot loop
    of (split, dispatcher lookup, single regex match).

    :meth:`parse` keeps the seed semantics (None for anything it cannot
    handle); :meth:`parse_ex` is the hardened entry point used by the
    resilient readers -- it classifies every line and repairs what it
    can: bounded clock-skew clamping for out-of-order stamps, last-known
    time substitution for lines whose stamp was destroyed by a torn
    write, and accounting of mojibake survivors.  Call :meth:`reset`
    between files so skew tracking never bleeds across file boundaries.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        max_skew: float = DEFAULT_MAX_SKEW,
        catalog: "str | PlatformCatalog | None" = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.max_skew = float(max_skew)
        #: the platform dialect this parser recognises (default cray-xc)
        self.catalog = CRAY_XC if catalog is None else resolve_catalog(catalog)
        # bound locally: dispatcher lookup is the hottest dict access
        self._dispatchers = self.catalog.dispatchers
        self._daemon_sources = self.catalog.daemon_sources
        self._default_source = self.catalog.default_source
        self._last_time: Optional[float] = None
        #: whole-second stamp prefix -> integer microseconds since epoch
        self._prefix_us: dict[str, int] = {}

    def reset(self) -> None:
        """Forget skew state (call at each file boundary)."""
        self._last_time = None

    def _stamp_seconds(self, stamp: str) -> float:
        """Simulation seconds for a stamp (raises ValueError when torn).

        Consecutive log lines overwhelmingly share their whole-second
        prefix, so the prefix's microseconds-since-epoch is memoised and
        only the fractional part is parsed per line.  All arithmetic is
        integer microseconds divided once at the end -- the exact formula
        ``timedelta.total_seconds`` uses -- so results are bit-identical
        to the ``parse_syslog``/``to_seconds`` slow path, which remains
        the fallback for every stamp shape the fast path cannot prove.
        """
        head = stamp[:19]
        us = self._prefix_us.get(head)
        if us is None:
            if _STAMP_HEAD.match(head) is None:
                return self.clock.to_seconds(parse_syslog(stamp))
            delta = datetime.fromisoformat(head) - self.clock._epoch_naive
            us = (delta.days * 86400 + delta.seconds) * 1_000_000 \
                + delta.microseconds
            self._prefix_us[head] = us
        rest = stamp[19:]
        if not rest:
            return us / 1_000_000
        frac = rest[1:]
        if rest[0] == "." and 0 < len(frac) <= 6 and frac.isascii() \
                and frac.isdigit():
            return (us + int(frac.ljust(6, "0"))) / 1_000_000
        return self.clock.to_seconds(parse_syslog(stamp))

    @staticmethod
    def _structure(line: str) -> Optional[tuple[str, str, str, str]]:
        """Split ``stamp component daemon: body``; None when torn apart."""
        parts = line.split(" ", 2)
        if len(parts) < 3:
            return None
        stamp, component, rest = parts
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return None
        return stamp, component, daemon, body

    def _build(
        self, time: float, component: str, daemon: str, body: str
    ) -> ParsedRecord:
        """Match the body against the daemon's compiled dispatcher."""
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body)
            if hit is not None:
                spec, attrs = hit
                return ParsedRecord(time, spec.source, component, daemon,
                                    spec.key, attrs, spec.severity, body)
        # Unrecognised chatter: keep it, classified by daemon only.
        return ParsedRecord(
            time, self._daemon_sources.get(daemon, self._default_source),
            component, daemon, None, _EMPTY_ATTRS, Severity.INFO, body)

    def parse(self, line: str) -> Optional[ParsedRecord]:
        """Parse one line; None for blank/malformed lines."""
        line = line.rstrip("\n")
        if not line or line.isspace():
            return None
        # _structure(), inlined: this is the hottest loop in ingestion
        parts = line.split(" ", 2)
        if len(parts) < 3:
            return None
        stamp, component, rest = parts
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return None
        try:
            time = self._stamp_seconds(stamp)
        except ValueError:
            return None
        # _build(), inlined
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body)
            if hit is not None:
                spec, attrs = hit
                return ParsedRecord(time, spec.source, component, daemon,
                                    spec.key, attrs, spec.severity, body)
        return ParsedRecord(
            time, self._daemon_sources.get(daemon, self._default_source),
            component, daemon, None, _EMPTY_ATTRS, Severity.INFO, body)

    def parse_ex(self, line: str, scan_mojibake: bool = True) -> ParseOutcome:
        """Hardened parse: classify and, where possible, repair a line.

        Repairs (all counted as ``recovered``):

        * **clock skew** -- a stamp more than :attr:`max_skew` seconds
          behind the last good one is clamped forward to it (bounded
          skew correction; small jitter is left for downstream sorting);
        * **destroyed stamp** -- a line whose stamp no longer parses but
          whose ``daemon: body`` structure survived inherits the last
          good time (torn writes shear mostly at line starts);
        * **mojibake survivors** -- lines that decoded with replacement
          characters yet still parsed.

        ``scan_mojibake=False`` skips the per-line replacement-character
        scan; the file reader passes it when one whole-file scan already
        proved the file clean (the overwhelmingly common case).
        """
        line = line.rstrip("\n")
        if not line or line.isspace():
            return _BLANK
        # _structure(), inlined (hot loop; see parse())
        parts = line.split(" ", 2)
        if len(parts) < 3:
            return _MALFORMED
        stamp, component, rest = parts
        daemon, sep, body = rest.partition(": ")
        if not sep:
            return _MALFORMED
        recovered = scan_mojibake and _REPLACEMENT in line
        last = self._last_time
        try:
            time = self._stamp_seconds(stamp)
        except ValueError:
            if last is None:
                return _MALFORMED
            time = last
            recovered = True
        if last is None or time > last:
            self._last_time = time
        elif time < last - self.max_skew:
            time = last
            recovered = True
        # _build(), inlined
        dispatcher = self._dispatchers.get(daemon)
        if dispatcher is not None:
            hit = dispatcher.match(body)
            if hit is not None:
                spec, attrs = hit
                record = ParsedRecord(time, spec.source, component, daemon,
                                      spec.key, attrs, spec.severity, body)
                return ParseOutcome(record, "parsed", recovered)
        record = ParsedRecord(
            time, self._daemon_sources.get(daemon, self._default_source),
            component, daemon, None, _EMPTY_ATTRS, Severity.INFO, body)
        return ParseOutcome(record, "parsed", recovered)

    def parse_many(self, lines: Iterable[str]) -> Iterator[ParsedRecord]:
        """Parse an iterable of lines, skipping unparseable ones."""
        for line in lines:
            rec = self.parse(line)
            if rec is not None:
                yield rec


def parse_line(
    line: str,
    clock: Optional[SimClock] = None,
    catalog: "str | PlatformCatalog | None" = None,
) -> Optional[ParsedRecord]:
    """One-shot convenience wrapper around :class:`LineParser`."""
    return LineParser(clock, catalog=catalog).parse(line)


def parse_lines(
    lines: Iterable[str],
    clock: Optional[SimClock] = None,
    catalog: "str | PlatformCatalog | None" = None,
) -> Iterator[ParsedRecord]:
    """One-shot convenience wrapper for many lines."""
    return LineParser(clock, catalog=catalog).parse_many(lines)
