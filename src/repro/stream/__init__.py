"""Streaming diagnosis: tail live log directories, alert early, crash safely.

The batch pipeline (:mod:`repro.core.pipeline`) answers *what happened*
in a finished log directory; this package answers it **while the logs
are still being written**, without changing the answer:

* :mod:`repro.stream.tailer` -- resilient incremental readers that
  survive rotation, copy-truncate, gzip compression, truncation, and
  torn mid-line writes while reproducing the batch readers' records,
  order, and ingestion accounting exactly;
* :mod:`repro.stream.checkpoint` -- the checkpoint vocabulary and its
  replay (:class:`WatchState`); the file itself is the shared
  :class:`~repro.runtime.journal.EventJournal`, and together they make
  ``repro watch --resume`` exactly-once after a SIGKILL;
* :mod:`repro.stream.alerts` -- deterministic-id early warnings for the
  node-scoped failure precursors (paper Obs. 5/6), emitted the moment
  their line is tailed;
* :mod:`repro.stream.daemon` -- the ``repro watch`` loop tying it all
  together, finalizing into a byte-identical twin of the batch
  ``run_windowed`` artifact;
* :mod:`repro.stream.replay` -- the deterministic replay harness the
  parity and chaos tests drive the daemon with.
"""

from repro.stream.alerts import Alert, AlertEngine
from repro.stream.checkpoint import WatchState
from repro.stream.daemon import (
    WatchConfig,
    WatchDaemon,
    WatchReport,
    streamed_batch_equivalent,
)
from repro.stream.replay import ReplayWriter
from repro.stream.tailer import LogTailer, TailStats

__all__ = [
    "Alert",
    "AlertEngine",
    "LogTailer",
    "ReplayWriter",
    "TailStats",
    "WatchConfig",
    "WatchDaemon",
    "WatchReport",
    "WatchState",
    "streamed_batch_equivalent",
]
