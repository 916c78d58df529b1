"""The watch daemon's checkpoint vocabulary and its replay.

One JSONL file (``checkpoint.jsonl`` under the watch output directory)
records everything a killed daemon needs to pick up where it left off.
It is an :class:`~repro.runtime.journal.EventJournal` -- the same
append-then-flush log the campaign and the fleet keep: a SIGKILL can
tear at most the final line, and the replay forgives exactly that.
This module holds only what is particular to the watch: the event
vocabulary and :class:`WatchState`, the state a resume rebuilds.

Event vocabulary::

    watch-start    window_days, error_policy,      # the fingerprint
                   system, seed,
                   missing=[...]      # sources frozen absent at startup
    watch-resume   the same fields, as seen when the resume began
    alerts         ids=[...]          # durably acknowledged alert ids
    window-close   window, start_day, end_day, watermark,
                   offsets={rel: {offset, prefix}},   # boundary offsets
                   health={...},                      # boundary health
                   report={...}                       # close-time report
    finalize       digest, windows

The ``window-close`` event is the heart of exactly-once streaming: it
captures the *boundary-consistent* pair of per-file restart offsets and
ingestion-health baseline (see
:meth:`~repro.stream.tailer.LogTailer.boundary_health`) plus the
window's full close-time report, so a resume never recomputes a closed
window and re-reads exactly the open window's bytes.  Alert ids are
checkpointed *after* the alert lines are flushed to ``alerts.jsonl``;
on resume the engine's dedup set is the union of checkpointed ids and
a tolerant scan of the alert file itself, so a kill between the two
writes can duplicate nothing and lose nothing.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.logs.health import IngestionHealth, SourceHealth
from repro.logs.record import LogSource

__all__ = [
    "WatchState",
    "health_to_jsonable",
    "health_from_jsonable",
]

#: checkpoint file name under the watch output directory
CHECKPOINT_NAME = "checkpoint.jsonl"


def health_to_jsonable(health: IngestionHealth) -> dict:
    """An :class:`IngestionHealth` as checkpoint-storable plain data."""
    return {
        "sources": {source.value: bucket.as_dict()
                    for source, bucket in health.sources.items()},
        "notes": list(health.notes),
    }


def health_from_jsonable(data: dict) -> IngestionHealth:
    """Rebuild an :class:`IngestionHealth` from checkpoint data."""
    health = IngestionHealth()
    for key, counts in data.get("sources", {}).items():
        health.sources[LogSource(key)] = SourceHealth.from_dict(counts)
    for message in data.get("notes", []):
        health.note(message)
    return health


class WatchState:
    """Everything a resumed daemon restores from the checkpoint's
    replayed events (the list :meth:`EventJournal.begin
    <repro.runtime.journal.EventJournal.begin>` returns on a resume)."""

    __slots__ = ("config", "windows", "emitted_ids", "offsets",
                 "watermark", "health", "finalized")

    def __init__(self, events: Iterable[dict] = ()) -> None:
        #: the watch-start fields (window_days, error_policy, ...)
        self.config: dict[str, Any] = {}
        #: window index -> its window-close event (last write wins)
        self.windows: dict[int, dict] = {}
        #: every durably acknowledged alert id
        self.emitted_ids: set[str] = set()
        #: per-file restart offsets of the *latest* closed window
        self.offsets: dict[str, dict] = {}
        #: watermark recorded at the latest closed window
        self.watermark: float = float("-inf")
        #: boundary health of the latest closed window (None == fresh)
        self.health: Optional[IngestionHealth] = None
        #: a finalize event exists (the watch ran to completion)
        self.finalized = False
        for record in events:
            kind = record.get("event")
            if kind == "watch-start":
                self.config = {k: v for k, v in record.items()
                               if k != "event"}
            elif kind == "alerts":
                self.emitted_ids.update(record.get("ids", ()))
            elif kind == "window-close":
                self.windows[int(record["window"])] = record
                self.offsets = record.get("offsets", {})
                self.watermark = float(record.get("watermark",
                                                  float("-inf")))
                health = record.get("health")
                self.health = (health_from_jsonable(health)
                               if health is not None else None)
            elif kind == "finalize":
                self.finalized = True

    @property
    def next_window(self) -> int:
        """First window index the resumed daemon still has to close."""
        return max(self.windows, default=-1) + 1

    def closed_windows(self) -> list[dict]:
        """The window-close events in window order."""
        return [self.windows[k] for k in sorted(self.windows)]
