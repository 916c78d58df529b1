"""Atomic on-disk artifacts: one writer, one crash-safety contract.

Three subsystems publish "all-or-nothing" files: the campaign's
per-experiment results (:mod:`repro.runtime.supervisor`), the streaming
daemon's final report (:mod:`repro.stream.daemon`) and the fleet layer's
shard artifacts and rollup (:mod:`repro.fleet`).  They used to carry
near-identical temp-file-plus-rename implementations; this module is the
single shared one, so the crash-safety contract cannot silently diverge
again:

* the temp file lives **next to** the destination, so the final
  ``os.replace`` never crosses a filesystem boundary;
* the temp file is **fsynced before publication**, so a crash cannot
  publish an empty or partial file -- the destination either holds the
  complete previous content or the complete new content, never a tear;
* canonical-JSON artifacts go through :func:`repro.core.serialize.
  canonical_json`, so byte-identity of equal payloads is guaranteed by
  construction (the property every resume gate in this repo checks).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.core.serialize import canonical_json

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "write_canonical_artifact",
    "append_jsonl_line",
    "write_checksummed_blob",
    "read_checksummed_blob",
    "BlobIntegrityError",
]


def _publish(path: Path, write) -> None:
    """Temp-file + fsync + rename; ``write`` fills the open temp handle."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    with tmp.open(write.mode) as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""

    def write(handle):
        handle.write(text)

    write.mode = "w"
    _publish(path, write)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write raw ``data`` to ``path`` atomically (binary twin of
    :func:`atomic_write_text`; shard artifacts are ``.npz`` blobs)."""

    def write(handle):
        handle.write(data)

    write.mode = "wb"
    _publish(path, write)


def write_canonical_artifact(path: Path, obj: Any) -> str:
    """Atomically publish ``obj`` as canonical JSON; returns its digest.

    The file holds ``canonical_json(obj)`` plus a trailing newline; the
    returned sha256 hex digest covers the JSON text (without the
    newline), matching :func:`repro.core.serialize.report_digest`.
    Equal payloads produce byte-identical files -- the invariant the
    campaign, watch and fleet resume gates all rely on.
    """
    text = canonical_json(obj)
    atomic_write_text(path, text + "\n")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class BlobIntegrityError(RuntimeError):
    """A checksummed blob failed validation (truncated, corrupt, foreign).

    Consumers treat this as "the artifact never existed" and rebuild it
    in place -- corruption is a repairable state, never a crash.  The
    fleet shard reader wraps it in its own :class:`ShardArtifactError`;
    the parse cache silently evicts the entry and re-parses.
    """


#: footer layout shared by every checksummed blob: magic + 64 hex + \n
_DIGEST_LEN = 64


def write_checksummed_blob(path: Path | str, payload: bytes,
                           magic: bytes) -> str:
    """Atomically publish ``payload`` with a self-validating footer.

    The on-disk layout is ``<payload> <magic> <sha256 hexdigest of
    payload> \\n`` -- the footer is the first thing a torn write loses,
    so :func:`read_checksummed_blob` detects truncation, bit rot and
    foreign files alike.  ``magic`` must end with a newline so the
    footer is greppable.  Returns the payload digest.
    """
    if not magic.endswith(b"\n"):
        raise ValueError("blob magic must end with a newline")
    digest = hashlib.sha256(payload).hexdigest()
    atomic_write_bytes(Path(path),
                       payload + magic + digest.encode("ascii") + b"\n")
    return digest


def read_checksummed_blob(path: Path | str, magic: bytes) -> bytes:
    """Validate and return the payload of a checksummed blob.

    Raises :class:`BlobIntegrityError` for every way the file can be
    wrong: missing, shorter than its footer, wrong magic, or a digest
    mismatch.  The caller decides the remedy (rebuild, evict, degrade).
    """
    path = Path(path)
    footer_len = len(magic) + _DIGEST_LEN + 1
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise BlobIntegrityError(
            f"unreadable blob {path}: {exc}") from None
    if len(raw) <= footer_len:
        raise BlobIntegrityError(
            f"truncated blob {path}: {len(raw)} bytes is smaller than "
            "the checksum footer")
    payload, footer = raw[:-footer_len], raw[-footer_len:]
    if not footer.startswith(magic) or not footer.endswith(b"\n"):
        raise BlobIntegrityError(
            f"blob {path} has no checksum footer (truncated write or "
            "foreign file)")
    recorded = footer[len(magic):-1].decode("ascii", "replace")
    actual = hashlib.sha256(payload).hexdigest()
    if actual != recorded:
        raise BlobIntegrityError(
            f"blob {path} failed its checksum "
            f"(recorded {recorded[:12]}..., actual {actual[:12]}...)")
    return payload


def append_jsonl_line(path: Path, record: dict) -> None:
    """Append one JSON line to ``path``, flushed before returning.

    The append discipline of :class:`repro.runtime.journal.EventJournal`
    (the campaign, fleet and watch logs): sorted keys, one line per
    event, flushed per call so a process kill loses nothing already
    appended (only an OS crash can tear the final line, which
    :func:`repro.runtime.journal.read_jsonl_tolerant` forgives).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
