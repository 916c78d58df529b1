"""Supervised campaign execution: isolated workers, deadlines, retries.

The paper's experiment campaign (Figs. 3-19, Tables I-VI across S1-S5)
is long-running and, like the platforms it studies, fails in both
fail-stop and fail-slow ways: a scenario build can crash, an analysis
can hang on pathological input, the whole process can be SIGKILLed by
an operator or the OOM killer.  :class:`CampaignSupervisor` keeps the
campaign alive through all of that:

* each scenario's experiments run in an **isolated worker process**
  (fork-server-free ``fork`` context so experiment callables need no
  pickling); a worker crash loses at most the in-flight experiment;
* a **heartbeat thread** in the worker plus a per-experiment
  **deadline** in the supervisor catch both silent death (SIGKILL,
  segfault -> pipe EOF / heartbeat loss) and fail-slow hangs
  (deadline exceeded -> worker killed);
* failures are retried under a bounded :class:`~repro.runtime.retry.
  RetryPolicy` (exponential backoff, deterministic jitter);
* a per-scenario :class:`~repro.runtime.retry.CircuitBreaker` stops a
  persistently-crashing scenario from sinking the campaign -- its
  remaining experiments are *skipped with a recorded reason*;
* every state change lands in the crash-safe
  :class:`~repro.runtime.journal.EventJournal` first, so
  ``run(resume=True)`` after any interruption re-runs only what was
  not proven complete, and the artifacts it publishes are
  byte-identical to an uninterrupted campaign at the same seed.

The campaign directory::

    <root>/
      journal.jsonl            # the campaign's event log
      artifacts/<exp_id>.json  # canonical per-experiment results

Artifacts are published atomically and their bytes are canonical
(:meth:`~repro.experiments.result.ExperimentResult.to_json`) --
independent of attempt counts, wall clock, or which process produced
them; that is what makes interrupted-then-resumed campaigns
byte-identical to uninterrupted ones.  An experiment counts as
*completed* only when both its ``complete`` event and a parseable
artifact exist (:meth:`CampaignSupervisor.completed_results`), so a
crash between the two is re-run, never silently trusted.

On platforms without ``fork`` the supervisor degrades to in-process
execution with exception capture (no kill-isolation); the report says
so rather than pretending.

Since PR 7 the heartbeat/deadline/retry/breaker machinery itself lives
in :mod:`repro.runtime.tasks` (it also powers the fleet layer's shard
workers); this module is the campaign-shaped subclass: experiment
specs become tasks keyed by experiment id and grouped by scenario,
completion publishes the canonical per-experiment artifact, and the
journal vocabulary, obs counters and report contract of PR 4 are
unchanged.  Scenarios are scheduled by that module's one multiplexer
(``SupervisorConfig.max_workers`` slots, 1 by default): a scenario
waiting out a retry backoff yields its slot to the next scenario, and
the artifacts do not depend on the slot count or on isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.core.artifacts import atomic_write_text
from repro.experiments.registry import EXPERIMENT_SPECS, ExperimentSpec
from repro.experiments.result import ExperimentResult
from repro.obs import OBS
from repro.runtime.journal import EventJournal
from repro.runtime.tasks import SupervisorConfig, TaskSpec, TaskSupervisor

__all__ = [
    "SupervisorConfig",
    "ExperimentOutcome",
    "CampaignReport",
    "CampaignSupervisor",
]

#: artifact directory name under the campaign root
ARTIFACTS_DIR = "artifacts"


@dataclass
class ExperimentOutcome:
    """What the campaign concluded about one experiment."""

    experiment: str
    scenario: Optional[str]
    status: str  # "completed" | "failed" | "skipped"
    attempts: int = 0
    reason: str = ""
    result: Optional[ExperimentResult] = None
    #: satisfied from the journal during a resume (not re-run)
    from_journal: bool = False

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def shape_ok(self) -> Optional[bool]:
        return None if self.result is None else self.result.shape_ok


@dataclass
class CampaignReport:
    """The supervisor's summary of one campaign run."""

    seed: int
    outcomes: list[ExperimentOutcome]
    #: supervision notes (e.g. isolation unavailable on this platform)
    notes: list[str] = field(default_factory=list)

    def by_status(self, status: str) -> list[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def degraded(self) -> bool:
        """True when any experiment failed or was skipped."""
        return any(not o.completed for o in self.outcomes)

    @property
    def shapes_ok(self) -> bool:
        return all(o.shape_ok for o in self.outcomes if o.completed)

    def exit_code(self) -> int:
        """CLI contract: 0 clean, 1 shape regression, 3 incomplete."""
        if self.degraded:
            return 3
        return 0 if self.shapes_ok else 1


def _as_task(spec: ExperimentSpec) -> TaskSpec:
    """An experiment spec as a supervised task.

    Experiments without a scenario get private groups (and private
    breaker keys) so an unrelated crash never trips their circuit;
    the payload crossing the result pipe is the result's jsonable
    form, keeping workers replaceable.
    """
    return TaskSpec(
        task_id=spec.experiment,
        group=spec.scenario or f"exp:{spec.experiment}",
        run=lambda seed, _spec=spec: _spec.produce(seed).to_jsonable(),
    )


class CampaignSupervisor(TaskSupervisor):
    """Run a full experiment campaign under supervision.

    ``specs`` defaults to the paper's registry; tests and benchmarks
    inject small synthetic spec tables.  All artifacts, events and the
    resume state live under ``root``.
    """

    id_field = "experiment"
    task_span = "campaign.experiment"
    span_category = "campaign"
    span_tag = "experiment"
    metric_prefix = "campaign"

    def __init__(
        self,
        root: Path | str,
        seed: int = 7,
        specs: Optional[Sequence[ExperimentSpec]] = None,
        config: Optional[SupervisorConfig] = None,
        only: Optional[Sequence[str]] = None,
    ) -> None:
        table = tuple(specs if specs is not None else EXPERIMENT_SPECS)
        if only is not None:
            wanted = set(only)
            unknown = wanted - {s.experiment for s in table}
            if unknown:
                raise KeyError(
                    f"unknown experiments: {', '.join(sorted(unknown))}")
            table = tuple(s for s in table if s.experiment in wanted)
        self.specs = table
        self._spec_by_id = {s.experiment: s for s in table}
        journal = EventJournal(root, "journal.jsonl",
                               owned=(f"{ARTIFACTS_DIR}/*.json",))
        super().__init__(journal, [_as_task(s) for s in table],
                         config=config, seed=seed)

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def artifact_path(self, exp_id: str) -> Path:
        return self.journal.root / ARTIFACTS_DIR / f"{exp_id}.json"

    def write_artifact(self, result: ExperimentResult) -> Path:
        """Atomically publish one experiment's canonical artifact."""
        path = self.artifact_path(result.experiment)
        atomic_write_text(path, result.to_json())
        return path

    def read_artifact(self, exp_id: str) -> ExperimentResult:
        data = json.loads(self.artifact_path(exp_id).read_text("utf-8"))
        return ExperimentResult.from_jsonable(data)

    def completed_results(
            self, events: Sequence[dict]) -> dict[str, ExperimentResult]:
        """Experiments proven done: ``complete`` event + intact artifact.

        The artifact is re-read and re-parsed; a missing or damaged
        file demotes the experiment back to pending.  Failure and skip
        events never mask an earlier completion (completion is final).
        """
        done: dict[str, ExperimentResult] = {}
        for record in events:
            if record["event"] != "complete":
                continue
            exp_id = record["experiment"]
            try:
                done[exp_id] = self.read_artifact(exp_id)
            except (OSError, json.JSONDecodeError, KeyError):
                done.pop(exp_id, None)
        return done

    # ------------------------------------------------------------------
    # TaskSupervisor hooks
    # ------------------------------------------------------------------
    def _publish(self, task: TaskSpec, payload: Any,
                 attempt: int) -> ExperimentResult:
        """Atomically publish the experiment's canonical artifact."""
        result = ExperimentResult.from_jsonable(payload)
        self.write_artifact(result)
        return result

    def _complete_fields(self, task: TaskSpec,
                         value: ExperimentResult) -> dict:
        return {"shape_ok": bool(value.shape_ok)}

    def _make_outcome(self, task: TaskSpec, status: str, attempts: int,
                      reason: str = "", value: Any = None,
                      from_journal: bool = False) -> ExperimentOutcome:
        return ExperimentOutcome(
            experiment=task.task_id,
            scenario=self._spec_by_id[task.task_id].scenario,
            status=status, attempts=attempts, reason=reason,
            result=value, from_journal=from_journal)

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignReport:
        """Execute (or finish) the campaign; returns the summary report.

        With observability enabled the whole campaign runs under a
        ``campaign.run`` span; worker-side spans ship home over the
        result pipes and nest under it (fork-inherited context), and
        the registry collects lifecycle counters (``campaign.retries``,
        ``campaign.worker_lost``, ``campaign.breaker_open``, per-status
        totals).
        """
        with OBS.span("campaign.run", "campaign", seed=self.seed,
                      resumed=resume) as span:
            report = self._run(resume)
            span.add(completed=len(report.by_status("completed")),
                     failed=len(report.by_status("failed")),
                     skipped=len(report.by_status("skipped")))
        return report

    def _run(self, resume: bool) -> CampaignReport:
        """The campaign body (``run`` wraps it in the root span)."""
        events = self.journal.begin(
            "campaign", {"seed": self.seed}, resume=resume,
            experiments=[s.experiment for s in self.specs])
        completed = self.completed_results(events)
        outcomes = {
            spec.experiment: ExperimentOutcome(
                experiment=spec.experiment, scenario=spec.scenario,
                status="completed", result=completed[spec.experiment],
                from_journal=True)
            for spec in self.specs if spec.experiment in completed
        }
        self.execute(outcomes)
        report = CampaignReport(
            seed=self.seed,
            outcomes=[outcomes[s.experiment] for s in self.specs],
            notes=list(self._notes),
        )
        self.journal.append(
            "campaign-end",
            completed=len(report.by_status("completed")),
            failed=len(report.by_status("failed")),
            skipped=len(report.by_status("skipped")),
        )
        if OBS.enabled:
            for status in ("completed", "failed", "skipped"):
                OBS.metrics.counter(f"campaign.{status}").inc(
                    len(report.by_status(status)))
        return report
