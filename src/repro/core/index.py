"""Shared record index: build once per pipeline, query everywhere.

The ~18 analyses behind :meth:`HolisticDiagnosis.run` used to rescan the
full internal/external/scheduler record lists from scratch -- each one
re-deriving the same per-node, per-day and per-event groupings.  A
:class:`RecordIndex` is built once, right after ingestion, and hands the
analyses pre-bucketed views instead:

* **per-event buckets** (:attr:`StreamIndex.by_event`) and cached
  event-set selections (:meth:`StreamIndex.select`) -- an analysis that
  cares about a vocabulary of event keys touches only those records;
* **per-node buckets** (:attr:`StreamIndex.by_node`) in stream order,
  the grouping failure detection and episode building start from;
* **numpy time arrays** (:attr:`StreamIndex.times`,
  :meth:`StreamIndex.node_times`) for bisect-style window queries
  (:meth:`StreamIndex.window`).

Every bucket preserves *stream order* (the streams are time-sorted by
construction, see :func:`repro.logs.store.parse_log_file` and the k-way
merges in the :class:`~repro.logs.store.LogStore` readers), so an
analysis that switches from scanning the raw list to scanning a bucket
sees the records in exactly the order it used to -- the refactor is
output-identical by design.

The index is also *append-friendly* (the streaming daemon's substrate,
see :mod:`repro.stream`): :meth:`StreamIndex.append_records` extends the
stream and every already-built bucket in place -- no re-parse, no
re-sort, no cache rebuild -- as long as the appended records respect the
stream's time order.  The time axis is kept as a frozen compacted prefix
plus a mutable tail: :meth:`StreamIndex.compact` freezes the tail into
the caches, and :meth:`StreamIndex.evict_before` drops records older
than a watermark so a long-running tailer's resident set stays bounded
by its active window.

:func:`failure_times_by_node` is the same idea for the *derived* failure
population: four analyses used to independently rebuild the per-node
sorted failure-time arrays; the pipeline now builds them once and passes
them down.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.logs.parsing import ParsedRecord
from repro.obs import OBS

__all__ = ["StreamIndex", "RecordIndex", "failure_times_by_node"]


def failure_times_by_node(failures: Iterable) -> dict[str, np.ndarray]:
    """Sorted per-node failure-time arrays for window correspondence.

    Accepts anything with ``.node`` and ``.time`` (detected failures).
    """
    grouped: dict[str, list[float]] = {}
    for f in failures:
        grouped.setdefault(f.node, []).append(f.time)
    return {node: np.sort(np.asarray(times))
            for node, times in grouped.items()}


class StreamIndex:
    """Lazily bucketed view over one time-sorted record stream.

    All buckets are built on first use and cached; every bucket lists
    records in stream order, so iterating a bucket is equivalent to
    filtering the stream.
    """

    __slots__ = ("records", "_by_event", "_by_node", "_times",
                 "_selections", "_node_times")

    def __init__(self, records: Sequence[ParsedRecord]) -> None:
        self.records = records
        self._by_event: Optional[dict[Optional[str], list[ParsedRecord]]] = None
        self._by_node: Optional[dict[str, list[ParsedRecord]]] = None
        self._times: Optional[np.ndarray] = None
        self._selections: dict[frozenset, list[ParsedRecord]] = {}
        self._node_times: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.records)

    # -- appending -------------------------------------------------------
    def append_records(self, new: Sequence[ParsedRecord]) -> int:
        """Extend the stream in place; returns the number appended.

        ``new`` must itself be time-sorted and must not start before the
        current tail (the stream-order invariant every bucket relies
        on); violations raise ``ValueError`` and leave the index
        untouched.  Already-built buckets and cached selections are
        *extended*, not invalidated -- only the per-node time arrays of
        the nodes actually touched are dropped, and the frozen time
        prefix stays frozen (the new times become the mutable tail).

        An empty append is a no-op (no cache is touched).
        """
        if not new:
            return 0
        last = self.records[-1].time if len(self.records) else float("-inf")
        for rec in new:
            t = rec.time
            if t < last:
                raise ValueError(
                    f"append_records: out-of-order record at t={t} "
                    f"(stream tail is t={last})")
            last = t
        if not isinstance(self.records, list):
            self.records = list(self.records)
        self.records.extend(new)
        # extend (never rebuild) whatever is already cached
        by_event = self._by_event
        by_node = self._by_node
        touched_nodes = set()
        for rec in new:
            if by_event is not None:
                bucket = by_event.get(rec.event)
                if bucket is None:
                    by_event[rec.event] = [rec]
                else:
                    bucket.append(rec)
            if by_node is not None:
                bucket = by_node.get(rec.component)
                if bucket is None:
                    by_node[rec.component] = [rec]
                else:
                    bucket.append(rec)
            touched_nodes.add(rec.component)
        new_event_keys = {rec.event for rec in new}
        for events in list(self._selections):
            selection = self._selections[events]
            alias_key = None
            if by_event is not None:
                for key in events:
                    if selection is by_event.get(key):
                        alias_key = key
                        break
            if alias_key is not None:
                # a single-hit selection aliases its by_event bucket,
                # which the loop above already extended; that stays
                # correct unless the append introduced records under one
                # of the selection's *other* keys -- then the alias can
                # no longer represent the set and must be rebuilt lazily
                if any(key != alias_key for key in new_event_keys & events):
                    del self._selections[events]
                continue
            selection.extend(rec for rec in new if rec.event in events)
        for node in touched_nodes:
            self._node_times.pop(node, None)
        # ``_times`` now covers only a prefix (its own length says how
        # much); ``times`` concatenates the mutable tail on demand
        if OBS.enabled:
            OBS.metrics.counter("index.appends").inc()
            OBS.metrics.counter("index.appended_records").inc(len(new))
        return len(new)

    def merge_records(self, new: Sequence[ParsedRecord]) -> int:
        """Sorted-merge late arrivals into the stream; returns the count.

        The slow path behind :meth:`append_records`' ordering invariant:
        a record that arrives *after* the stream has moved past its
        stamp (a resume race, a source that reappeared mid-window) can
        still be placed faithfully as long as its window has not been
        reported yet.  ``new`` must itself be time-sorted.  Unlike
        appends this resets every cache (rebuilt lazily over the merged
        stream), so it should stay what it is: the rare path.
        """
        if not new:
            return 0
        merged = list(heapq.merge(self.records, new,
                                  key=lambda rec: rec.time))
        self.records = merged
        self._by_event = None
        self._by_node = None
        self._times = None
        self._selections = {}
        self._node_times = {}
        if OBS.enabled:
            OBS.metrics.counter("index.merges").inc()
            OBS.metrics.counter("index.merged_records").inc(len(new))
        return len(new)

    def compact(self) -> int:
        """Freeze the mutable tail into the caches; returns resident count.

        Forces the time axis (frozen prefix + tail) into one contiguous
        array so subsequent window queries pay no concatenation.  Cheap
        to call every poll: a no-op when nothing was appended.
        """
        _ = self.times
        return len(self.records)

    def evict_before(self, t0: float) -> int:
        """Drop records with ``time < t0``; returns the number evicted.

        Bounded-memory lever for the streaming daemon: once a window is
        closed and reported, everything older than the next window's
        start can go.  Eviction resets the caches (they are rebuilt over
        the smaller resident set on next use).
        """
        lo = int(np.searchsorted(self.times, t0, side="left"))
        if lo <= 0:
            return 0
        if not isinstance(self.records, list):
            self.records = list(self.records)
        del self.records[:lo]
        self._by_event = None
        self._by_node = None
        self._times = None
        self._selections = {}
        self._node_times = {}
        if OBS.enabled:
            OBS.metrics.counter("index.evicted_records").inc(lo)
        return lo

    # -- event buckets -------------------------------------------------
    @property
    def by_event(self) -> dict[Optional[str], list[ParsedRecord]]:
        """Event key -> records (chatter under the ``None`` key)."""
        buckets = self._by_event
        if buckets is None:
            buckets = {}
            for rec in self.records:
                bucket = buckets.get(rec.event)
                if bucket is None:
                    buckets[rec.event] = [rec]
                else:
                    bucket.append(rec)
            self._by_event = buckets
        return buckets

    def select(self, events: frozenset[str]) -> list[ParsedRecord]:
        """Records whose event is in ``events``, in stream order (cached).

        Equivalent to ``[r for r in records if r.event in events]``; the
        result is cached per event set, so the analyses sharing a
        vocabulary (e.g. the fault-indicative events used by both the
        lead-time and false-positive analyses) share one pass.
        """
        cached = self._selections.get(events)
        if OBS.enabled:
            OBS.metrics.counter(
                "index.select.hit" if cached is not None
                else "index.select.miss").inc()
        if cached is None:
            by_event = self.by_event
            if len(events) < len(by_event):
                hits = [key for key in events if key in by_event]
            else:
                hits = [key for key in by_event if key in events]
            if not hits:
                cached = []
            elif len(hits) == 1:
                cached = by_event[hits[0]]
            else:
                cached = [r for r in self.records if r.event in events]
            self._selections[events] = cached
        return cached

    # -- node buckets --------------------------------------------------
    @property
    def by_node(self) -> dict[str, list[ParsedRecord]]:
        """Reporting component -> records, in stream order."""
        buckets = self._by_node
        if buckets is None:
            buckets = {}
            for rec in self.records:
                bucket = buckets.get(rec.component)
                if bucket is None:
                    buckets[rec.component] = [rec]
                else:
                    bucket.append(rec)
            self._by_node = buckets
        return buckets

    def node_times(self, node: str) -> np.ndarray:
        """Sorted times of one component's records (cached ndarray)."""
        times = self._node_times.get(node)
        if OBS.enabled:
            OBS.metrics.counter(
                "index.node_times.hit" if times is not None
                else "index.node_times.miss").inc()
        if times is None:
            bucket = self.by_node.get(node, ())
            times = np.asarray([r.time for r in bucket], dtype=float)
            self._node_times[node] = times
        return times

    # -- time windows --------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """The stream's (sorted) time axis as a float array.

        After :meth:`append_records` the cached array is a *frozen
        prefix*: only the appended tail's times are extracted (the
        expensive per-record attribute walk) and concatenated on, so
        repeated append/query cycles never re-extract the whole stream.
        """
        times = self._times
        n = len(self.records)
        if times is None:
            times = np.asarray([r.time for r in self.records], dtype=float)
            self._times = times
        elif len(times) != n:
            tail = np.asarray(
                [r.time for r in self.records[len(times):]], dtype=float)
            times = np.concatenate((times, tail))
            self._times = times
        return times

    def window(self, t0: float, t1: float) -> Sequence[ParsedRecord]:
        """Records with ``t0 <= time < t1`` (bisect on the time axis)."""
        times = self.times
        lo = int(np.searchsorted(times, t0, side="left"))
        hi = int(np.searchsorted(times, t1, side="left"))
        if OBS.enabled:
            OBS.metrics.counter("index.window_queries").inc()
            OBS.metrics.histogram(
                "index.window_records",
                (10.0, 100.0, 1000.0, 10000.0, 100000.0)).observe(hi - lo)
        return self.records[lo:hi]


class RecordIndex:
    """The pipeline's three streams, indexed once."""

    __slots__ = ("internal", "external", "scheduler")

    def __init__(
        self,
        internal: StreamIndex,
        external: StreamIndex,
        scheduler: StreamIndex,
    ) -> None:
        self.internal = internal
        self.external = external
        self.scheduler = scheduler

    @classmethod
    def build(
        cls,
        internal: Sequence[ParsedRecord],
        external: Sequence[ParsedRecord],
        scheduler: Sequence[ParsedRecord],
    ) -> "RecordIndex":
        """Index the three diagnosis input streams."""
        return cls(StreamIndex(internal), StreamIndex(external),
                   StreamIndex(scheduler))

    def last_time(self) -> float:
        """Latest record time across all streams (0.0 when empty).

        Constant-time because every stream is time-sorted end to end --
        the k-way merges guarantee the last element is the maximum.
        """
        last = 0.0
        for stream in (self.internal, self.external, self.scheduler):
            records = stream.records
            if records:
                last = max(last, records[-1].time)
        return last

    # -- streaming support ------------------------------------------------
    def append(
        self,
        internal: Sequence[ParsedRecord] = (),
        external: Sequence[ParsedRecord] = (),
        scheduler: Sequence[ParsedRecord] = (),
    ) -> int:
        """Append one increment to each stream; returns records appended.

        Mirrors :meth:`build`'s argument order.  Updates the
        ``index.resident_records`` gauge when observability is enabled.
        """
        appended = (self.internal.append_records(internal)
                    + self.external.append_records(external)
                    + self.scheduler.append_records(scheduler))
        if appended and OBS.enabled:
            OBS.metrics.gauge("index.resident_records").set(
                self.resident_records())
        return appended

    def evict_before(self, t0: float) -> int:
        """Evict records older than ``t0`` from every stream."""
        evicted = (self.internal.evict_before(t0)
                   + self.external.evict_before(t0)
                   + self.scheduler.evict_before(t0))
        if evicted and OBS.enabled:
            OBS.metrics.gauge("index.resident_records").set(
                self.resident_records())
        return evicted

    def compact(self) -> int:
        """Freeze every stream's mutable tail; returns resident count."""
        return (self.internal.compact() + self.external.compact()
                + self.scheduler.compact())

    def resident_records(self) -> int:
        """Records currently held across all three streams."""
        return len(self.internal) + len(self.external) + len(self.scheduler)
