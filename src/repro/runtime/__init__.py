"""Resilient campaign runtime: supervision, journaling, retry, faults.

The execution-layer counterpart of :mod:`repro.logs`' hardened
ingestion: where PR 1 made the pipeline survive damaged *data*, this
package makes the experiment campaign survive damaged *execution* --
crashed or hung workers, SIGKILLed processes, interrupted runs.

* :mod:`repro.runtime.supervisor` -- isolated worker processes with
  heartbeats, per-experiment deadlines, bounded retry and a
  per-scenario circuit breaker;
* :mod:`repro.runtime.journal` -- the one crash-safe
  :class:`~repro.runtime.journal.EventJournal` (append-only JSONL,
  tolerant replay, fingerprint-checked start/resume, reset of owned
  artifacts) behind ``--resume`` of the campaign, the fleet and the
  watch daemon;
* :mod:`repro.runtime.retry` -- backoff policy and circuit breaker;
* :mod:`repro.runtime.faults` -- process-level fault injection
  (SIGKILL, hang, crash, slow) for the chaos harness.
"""

from repro.runtime.journal import EventJournal, JournalError
from repro.runtime.retry import CircuitBreaker, RetryPolicy
from repro.runtime.supervisor import (
    CampaignReport,
    CampaignSupervisor,
    ExperimentOutcome,
    SupervisorConfig,
)

__all__ = [
    "EventJournal",
    "JournalError",
    "CircuitBreaker",
    "RetryPolicy",
    "CampaignReport",
    "CampaignSupervisor",
    "ExperimentOutcome",
    "SupervisorConfig",
]
