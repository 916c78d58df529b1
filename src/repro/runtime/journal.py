"""The one crash-safe event journal behind every long-running job.

The campaign (``repro run-all``), the fleet (``repro fleet``) and the
watch daemon (``repro watch``) each survive a kill by writing what they
have done to an :class:`EventJournal` first.  Each keeps only its event
vocabulary and the logic that replays it; the file discipline lives
here, once::

    <root>/
      <name>.jsonl     # append-only event log (flushed per event)
      <owned files>    # the job's artifacts, dropped on a fresh start

Crash-safety contract:

* events are appended and flushed one line at a time, so the log never
  contains a *reordered* history and a process kill (the threat model:
  SIGKILL, crash, OOM) loses nothing already appended.  Only an
  OS-level crash can drop a tail of events -- which merely redoes that
  work on resume -- or truncate the final line, and :meth:`EventJournal
  .events` tolerates (and reports) exactly that: a trailing partial line
  is dropped, never misparsed, and a resume cuts it from the file before
  appending, so no event is ever glued onto it.  Events skip the
  per-line ``fsync`` deliberately; it buys nothing against process
  death and costs milliseconds per event (see
  ``benchmarks/bench_supervisor.py``);
* every event carries its ``wall`` clock stamp;
* a start records the job's *fingerprint* -- the inputs that change
  what its artifacts contain -- and :meth:`EventJournal.begin` refuses a
  resume whose fingerprint differs, naming each differing key, so
  artifacts of two configurations are never mixed;
* a fresh start unlinks the log and every owned file pattern, so no
  artifact of an earlier run survives beside a new log.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Sequence

from repro.core.artifacts import append_jsonl_line
from repro.obs import OBS

__all__ = ["EventJournal", "JournalError", "read_jsonl_tolerant"]

#: keys every event carries besides its fields
_STAMPS = ("event", "wall")


class JournalError(RuntimeError):
    """A journal is unusable for the requested operation: damaged before
    its last line, or resumed with a fingerprint that differs from the
    one it was started with.

    ``detail`` is the message without the journal's path, phrased to
    follow a name for the journal (``"was started with seed=7; ..."``),
    for callers that must not reveal where the journal lives.
    """

    def __init__(self, message: str, detail: str = "") -> None:
        super().__init__(message)
        self.detail = detail or message


def read_jsonl_tolerant(path: Path) -> tuple[list[dict], bool]:
    """Replay an append-only JSONL file, tolerating a crash-torn tail.

    Returns ``(events, truncated_tail)``.  Only a *final* damaged line
    is forgiven (that is the one a SIGKILL can produce); damage earlier
    in the file means the journal was edited or corrupted and raises
    :class:`JournalError`.  Every forgiven tail increments the
    ``journal.truncated_tail`` observability counter so silent
    crash-recoveries become visible in ``repro obs summary``.

    Shared by :class:`EventJournal` and the watch daemon's alert file
    (:mod:`repro.stream.alerts`), which makes the same append-then-flush
    crash-safety promise.
    """
    if not path.is_file():
        return [], False
    lines = path.read_text(encoding="utf-8").splitlines()
    parsed: list[dict] = []
    truncated = False
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated = True
                break
            raise JournalError(
                f"corrupt journal line {i + 1} in {path}: {line[:80]!r}",
                f"is corrupt at line {i + 1}: {line[:80]!r}") from None
    if truncated and OBS.enabled:
        OBS.metrics.counter("journal.truncated_tail").inc()
    return parsed, truncated


def _assignments(values: dict, keys: Sequence[str]) -> str:
    return ", ".join(f"{key}={values.get(key)!r}" for key in keys)


class EventJournal:
    """One job directory: an append-only event log plus the files it owns.

    ``name`` is the log's file name under ``root``; ``owned`` are glob
    patterns (relative to ``root``) of the artifacts :meth:`reset`
    removes with the log.
    """

    def __init__(self, root: Path | str, name: str,
                 owned: Sequence[str] = ()) -> None:
        self.root = Path(root)
        self.path = self.root / name
        self.owned = tuple(owned)
        #: True when the last :meth:`events` call dropped a partial line
        self.truncated_tail = False

    def append(self, event: str, **fields: Any) -> dict:
        """Append one event line (flushed before returning)."""
        record = {"event": event, **fields, "wall": time.time()}
        append_jsonl_line(self.path, record)
        return record

    def events(self) -> list[dict]:
        """Replay the log, tolerating a crash-torn final line
        (see :func:`read_jsonl_tolerant`); sets :attr:`truncated_tail`."""
        parsed, self.truncated_tail = read_jsonl_tolerant(self.path)
        return parsed

    def reset(self) -> None:
        """Drop the log and every owned file."""
        self.path.unlink(missing_ok=True)
        for pattern in self.owned:
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)

    def begin(self, kind: str, fingerprint: dict, *, resume: bool,
              **fields: Any) -> list[dict]:
        """Start the job, or resume the one on record.

        With ``resume`` set and a ``<kind>-start`` on record, the
        recorded fingerprint (the start's keys other than ``fields``)
        is compared key by key with ``fingerprint``, a missing key
        reading as None; any difference raises :class:`JournalError`
        naming each differing key with both values.  Otherwise a
        crash-torn final line is cut from the file, a ``<kind>-resume``
        event is appended, and the replayed events are returned.

        In every other case -- including ``resume`` with nothing on
        record -- the journal is reset, ``<kind>-start`` is written,
        and an empty list is returned.  ``fields`` are recorded with
        the fingerprint but never compared.
        """
        if resume:
            events = self.events()
            start = next((e for e in events
                          if e.get("event") == f"{kind}-start"), None)
            if start is not None:
                recorded = {key: value for key, value in start.items()
                            if key not in fields and key not in _STAMPS}
                differing = sorted(
                    key for key in set(recorded) | set(fingerprint)
                    if recorded.get(key) != fingerprint.get(key))
                if differing:
                    detail = (
                        "was started with "
                        f"{_assignments(recorded, differing)}; cannot "
                        f"resume with {_assignments(fingerprint, differing)}")
                    raise JournalError(f"journal {self.path} {detail}",
                                       detail)
                if self.truncated_tail:
                    # cut the forgiven fragment: the next append must
                    # start a line of its own, not extend the torn one
                    data = self.path.read_bytes()
                    body = data[:-1] if data.endswith(b"\n") else data
                    os.truncate(self.path, body.rfind(b"\n") + 1)
                self.append(f"{kind}-resume", **fingerprint, **fields)
                return events
        self.reset()
        self.append(f"{kind}-start", **fingerprint, **fields)
        return []
