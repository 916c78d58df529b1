"""The orchestrator: one call from a log directory to a full diagnosis.

:class:`HolisticDiagnosis` wires the whole methodology together::

    diag = HolisticDiagnosis.from_store(LogStore(path))
    report = diag.run()
    print(report.lead_times.mean_enhancement_factor)

``run()`` is a thin driver over the declarative analysis registry
(:mod:`repro.core.analysis`): every per-question analysis is a
registered :class:`~repro.core.analysis.AnalysisSpec` whose inputs are
resolved from this pipeline object, and the report is assembled by
field name.  ``run(only=...)`` executes a registry subset (plus its
dependencies); :meth:`HolisticDiagnosis.compute` runs a single named
analysis unguarded for callers that want exactly one answer (the
per-figure benches do this).  :meth:`HolisticDiagnosis.run_windowed`
is the incremental driver: it slides a day-granular window over the
shared :class:`~repro.core.index.StreamIndex` and yields one
:class:`DiagnosisReport` per window.

Robustness: production log sets are incomplete and dirty, so ``run()``
degrades instead of dying.  Every per-question analysis executes under
error capture (a crash in one analysis yields its neutral result and an
entry in ``report.analysis_errors``); a missing source stream skips only
the analyses that declare it in ``required_sources``
(``report.skipped_analyses``) and the report carries ``degraded=True``
with human-readable reasons plus the
:class:`~repro.logs.health.IngestionHealth` accounting of what the
readers saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.analysis import REGISTRY, execute, guarded, resolve_input
from repro.core.blades import BladeSharing
from repro.core.dominant import DailyDominance
from repro.core.errors import DailyErrorPopulation
from repro.core.external import CorrespondenceStats, ExternalIndex, NhfBreakdown
from repro.core.failure_detection import DetectedFailure, FailureDetector
from repro.core.falsepos import FprComparison
from repro.core.index import RecordIndex, failure_times_by_node
from repro.core.jobs import JobView, parse_jobs
from repro.core.leadtime import LeadTimeRecord, LeadTimeSummary
from repro.core.ras import ras_category_breakdown  # noqa: F401  (registers)
from repro.core.rootcause import RootCauseInference
from repro.core.spatial import SwoEvent, detect_swos, exclude_intended
from repro.core.stacktrace import traces_by_node
from repro.core.temporal import InterFailureStats
from repro.faults.model import FailureCategory
from repro.logs.health import ErrorPolicy, IngestionHealth
from repro.logs.parsing import ParsedRecord
from repro.logs.record import LogSource
from repro.logs.store import LogStore
from repro.obs import OBS
from repro.simul.clock import DAY

__all__ = ["DiagnosisReport", "DiagnosisWindow", "HolisticDiagnosis",
           "degradation_for", "guarded"]


#: internal sources never skip analyses outright, but their absence is
#: still a degradation worth flagging (detection may undercount)
_INTERNAL_SOURCES = (LogSource.CONSOLE, LogSource.MESSAGES, LogSource.CONSUMER)


def degradation_for(
    missing_sources: Sequence[LogSource],
    ingestion_health: Optional[IngestionHealth],
) -> tuple[list[str], list[str]]:
    """The degradation contract as a pure function of its inputs.

    Returns ``(skipped, reasons)`` exactly as
    :meth:`HolisticDiagnosis.degradation` would for a pipeline carrying
    these missing sources and this health.  Factored out so the
    streaming daemon (:mod:`repro.stream.daemon`) can re-derive a
    window report's health-dependent reasons against the *final*
    ingestion health -- which is what a batch ``run_windowed`` over the
    finished directory bakes into every window -- without duplicating
    the reason wording.
    """
    skipped: list[str] = []
    reasons: list[str] = []
    seen: set[str] = set()

    def note(reason: str) -> None:
        if reason not in seen:
            seen.add(reason)
            reasons.append(reason)

    for source in missing_sources:
        dependents = REGISTRY.dependents(source)
        for name in dependents:
            if name not in skipped:
                skipped.append(name)
        if dependents:
            note(f"{source.value} stream missing: skipped "
                 + ", ".join(dependents))
        elif source in _INTERNAL_SOURCES:
            note(f"internal source {source.value} missing: failure "
                 "detection may undercount")
    health = ingestion_health
    if health is not None:
        if health.total_quarantined:
            note(f"{health.total_quarantined} unparseable lines "
                 "quarantined during ingestion")
        if health.total_recovered:
            note(f"{health.total_recovered} damaged lines recovered "
                 "during ingestion")
        for entry in health.notes:
            note(entry)
    return skipped, reasons


@dataclass
class DiagnosisReport:
    """Everything the pipeline concluded about one log set."""

    failures: list[DetectedFailure]
    #: intended shutdowns recognised and excluded from ``failures``
    intended_shutdowns: list[DetectedFailure]
    #: recognised system-wide outages (accounted separately)
    swos: list[SwoEvent]
    weekly_inter_failure: list[InterFailureStats]
    dominance: list[DailyDominance]
    dominance_summary: dict[str, float]
    nvf_correspondence: list[CorrespondenceStats]
    nhf_correspondence: list[CorrespondenceStats]
    nhf_breakdown: list[NhfBreakdown]
    faulty_fractions: list[dict[str, float]]
    error_populations: list[DailyErrorPopulation]
    job_census: dict[str, float]
    same_job_groups: list[dict[str, object]]
    lead_times: LeadTimeSummary
    lead_time_records: list[LeadTimeRecord]
    false_positives: FprComparison
    category_breakdown: dict[FailureCategory, float]
    blade_sharing: list[BladeSharing]
    root_causes: list[RootCauseInference]
    family_split: dict[str, float]
    #: True when anything below is non-empty / non-None
    degraded: bool = False
    #: human-readable degradation reasons (missing streams, quarantines)
    degraded_reasons: list[str] = field(default_factory=list)
    #: analyses skipped because their source stream was absent
    skipped_analyses: list[str] = field(default_factory=list)
    #: analysis name -> captured exception (the analysis returned its
    #: neutral result instead of killing the run)
    analysis_errors: dict[str, str] = field(default_factory=dict)
    #: what the hardened readers saw, when the caller asked for it
    ingestion_health: Optional[IngestionHealth] = None
    #: results of platform-scoped analyses (``AnalysisSpec.platforms``)
    #: that applied to this store's dialect; empty -- and byte-invisible
    #: to the parity gate -- on platforms where none apply
    platform_analyses: dict = field(
        default_factory=dict, metadata={"omit_empty": True})

    @property
    def failure_count(self) -> int:
        return len(self.failures)


@dataclass
class DiagnosisWindow:
    """One sliding-window slice of a diagnosis (see ``run_windowed``)."""

    #: first day covered (inclusive, 0-based)
    start_day: int
    #: last day covered (exclusive)
    end_day: int
    report: DiagnosisReport
    #: per-analysis wall seconds for this window (observability enabled
    #: only; empty otherwise) -- the window's cost profile
    profile: dict[str, float] = field(default_factory=dict)

    @property
    def days(self) -> int:
        return self.end_day - self.start_day


class HolisticDiagnosis:
    """The pipeline, bound to one set of parsed logs."""

    def __init__(
        self,
        internal: Sequence[ParsedRecord],
        external: Sequence[ParsedRecord],
        scheduler: Sequence[ParsedRecord],
        detector: Optional[FailureDetector] = None,
        total_nodes: Optional[int] = None,
        missing_sources: Sequence[LogSource] = (),
        ingestion_health: Optional[IngestionHealth] = None,
        platform: Optional[str] = None,
    ) -> None:
        self.internal = list(internal)
        self.external = list(external)
        self.scheduler = list(scheduler)
        self.detector = detector or FailureDetector()
        self.total_nodes = total_nodes
        self.ingestion_health = ingestion_health
        #: catalog name of the diagnosed store (``None`` for directly
        #: constructed pipelines): platform-scoped analyses run only
        #: when their declared platform matches
        self.platform = platform
        self.missing_sources = list(missing_sources)
        if ingestion_health is not None:
            for source in ingestion_health.missing_sources():
                if source not in self.missing_sources:
                    self.missing_sources.append(source)
        with OBS.span("pipeline.build", "pipeline") as span:
            # the shared record index: every stream bucketed once,
            # queried by all downstream analyses
            self.records: RecordIndex = RecordIndex.build(
                self.internal, self.external, self.scheduler)
            # step 2 (built first -- step 1's accounting needs the
            # power-off notifications): external index
            self.index: ExternalIndex = ExternalIndex.from_stream(
                self.records.external)
            # step 1: confirmed failures from internal logs, with the
            # paper's accounting -- intended shutdowns excluded, SWOs
            # set aside
            candidates = self.detector.detect(
                self.internal, by_node=self.records.internal.by_node)
            anomalous, self.intended_shutdowns = exclude_intended(
                candidates, self.index)
            if total_nodes is not None:
                self.swos, self.failures = detect_swos(anomalous, total_nodes)
            else:
                self.swos, self.failures = [], anomalous
            # derived failure groupings shared across analyses
            self.failure_times: dict = failure_times_by_node(self.failures)
            self.failures_by_day: dict[int, list[DetectedFailure]] = (
                FailureDetector.failures_by_day(self.failures))
            # step 3: job views
            self.jobs: dict[int, JobView] = parse_jobs(self.scheduler)
            self._node_traces = None
            # memo for compute(): single-analysis results shared across
            # calls
            self._analysis_cache: dict[str, object] = {}
            span.tag(records=len(self.internal) + len(self.external)
                     + len(self.scheduler),
                     failures=len(self.failures))

    @classmethod
    def from_store(
        cls,
        store: LogStore,
        *,
        error_policy: ErrorPolicy | str = ErrorPolicy.SKIP,
        health: Optional[IngestionHealth] = None,
        cache=None,
        **kwargs,
    ) -> "HolisticDiagnosis":
        """Build the pipeline from an on-disk log directory.

        The manifest's system key sizes the machine for SWO recognition
        (unknown keys simply skip SWO separation).  ``error_policy``
        governs the readers (see :class:`~repro.logs.health.ErrorPolicy`);
        the resulting :class:`~repro.logs.health.IngestionHealth` rides
        on the pipeline and the report.  Under ``strict`` a single
        malformed line raises; the tolerant policies always produce a
        (possibly degraded) pipeline.

        ``cache`` attaches a persistent parse cache to the ingestion
        pass (see :meth:`~repro.logs.store.LogStore.with_cache` for the
        accepted values: ``True`` for the store-local default directory,
        a path, or a :class:`~repro.logs.cache.ParseCache`).  ``None``
        keeps whatever cache the store already carries, so both
        ``from_store(store.with_cache(True))`` and
        ``from_store(store, cache=True)`` warm-start identically.
        """
        if cache is not None:
            store = store.with_cache(cache)
        manifest = store.manifest()
        clock = manifest.clock()
        policy = ErrorPolicy.coerce(error_policy)
        health = health if health is not None else IngestionHealth()
        if "total_nodes" not in kwargs:
            try:
                from repro.cluster.systems import get_system

                kwargs["total_nodes"] = get_system(manifest.system).nodes
            except KeyError:
                pass
        missing = [s for s in LogSource if not store.source_files(s)]
        kwargs.setdefault("platform", store.catalog.name)
        with OBS.span("pipeline.ingest", "ingest", policy=policy.value):
            internal = store.read_internal(clock, policy, health)
            external = store.read_external(clock, policy, health)
            scheduler = store.read_scheduler(clock, policy, health)
        return cls(
            internal=internal,
            external=external,
            scheduler=scheduler,
            missing_sources=missing,
            ingestion_health=health,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def node_traces(self):
        """Regrouped call traces per node (computed once)."""
        if self._node_traces is None:
            self._node_traces = traces_by_node(
                self.internal, stream=self.records.internal)
        return self._node_traces

    def duration_days(self) -> int:
        """Span of the log set in whole days (>= 1).

        Relies on each stream being time-sorted end to end (the k-way
        merges guarantee the last element is the maximum -- see the
        regression test in ``tests/core/test_pipeline_duration.py``).
        """
        return max(1, int(self.records.last_time() // DAY) + 1)

    # ------------------------------------------------------------------
    def degradation(self) -> tuple[list[str], list[str]]:
        """The degradation contract, derived from one registry query.

        Returns ``(skipped, reasons)``: the analyses whose declared
        ``required_sources`` are missing, and the human-readable
        reasons the report will be marked degraded.  Reasons are
        deduplicated in first-seen order.  Delegates to
        :func:`degradation_for` (shared with the streaming daemon).
        """
        return degradation_for(self.missing_sources, self.ingestion_health)

    def skipped_analyses(self) -> list[str]:
        """Analyses the degradation contract skips for missing streams."""
        return self.degradation()[0]

    def degradation_reasons(self) -> list[str]:
        """Human-readable reasons the report will be marked degraded."""
        return self.degradation()[1]

    def skip_reasons(self) -> dict[str, str]:
        """Per-analysis explanation of why it cannot run (if it cannot).

        Maps analysis name -> human-readable reason, covering exactly the
        analyses the missing-source contract will skip.  Used by ``run``
        to attribute a ``--only`` selection that lands on a skipped
        analysis instead of silently returning its neutral result.
        """
        reasons: dict[str, str] = {}
        for source in self.missing_sources:
            for name in REGISTRY.dependents(source):
                reasons.setdefault(
                    name, f"required source {source.value!r} missing")
        return reasons

    # ------------------------------------------------------------------
    def compute(self, name: str):
        """Run one registered analysis (plus dependencies), unguarded.

        The pay-for-what-you-ask entry point: no error capture, no
        degradation bookkeeping, results memoised per pipeline so a
        caller assembling several figures shares the work.  Raises
        ``KeyError`` (naming the registered analyses) for unknown
        names and propagates analysis exceptions.
        """
        cache = self._analysis_cache
        if name in cache:
            return cache[name]
        spec = REGISTRY.get(name)
        args = [resolve_input(self, inp) for inp in spec.inputs]
        args.extend(self.compute(dep) for dep in spec.depends_on)
        cache[name] = value = spec.compute(*args)
        return value

    # ------------------------------------------------------------------
    def run(
        self,
        only: Optional[Iterable[str]] = None,
        *,
        profile: Optional[dict[str, float]] = None,
    ) -> DiagnosisReport:
        """Execute the registered analyses and assemble the report.

        Each analysis runs under error capture: a crash produces the
        analysis's neutral result and an ``analysis_errors`` entry
        instead of an unhandled exception, so one pathological stream
        never costs the operator the rest of the diagnosis.

        ``only`` restricts execution to the named analyses plus their
        declared dependencies; everything else lands in the report as
        its (lazily built) neutral result.  Unknown names raise
        ``KeyError`` listing the registered analyses.  When a requested
        analysis is itself skipped by the missing-source contract, the
        report's ``degraded_reasons`` say so explicitly (rather than
        silently handing back the neutral result).

        ``profile``, when given, collects ``name -> wall seconds`` for
        every analysis that actually executed (the windowed driver's
        per-window cost profile).
        """
        if only is not None:
            only = list(only)
        with OBS.span("pipeline.run", "pipeline") as span:
            skipped, reasons = self.degradation()
            excluded = REGISTRY.platform_excluded(self.platform)
            selected = (REGISTRY.names() if only is None
                        else REGISTRY.closure(only))
            if only is not None and skipped:
                not_run = self.skip_reasons()
                for name in selected:
                    if name in not_run:
                        reasons.append(f"requested analysis {name!r} "
                                       f"not run: {not_run[name]}")
            if only is not None and excluded:
                for name in selected:
                    if name in excluded:
                        spec = REGISTRY.get(name)
                        reasons.append(
                            f"requested analysis {name!r} not run: "
                            f"applies only to platform "
                            + "/".join(spec.platforms)
                            + f" (this store is "
                              f"{self.platform or 'unknown'})")
            errors: dict[str, str] = {}
            results = execute(self, skipped=skipped, exclude=excluded,
                              errors=errors, only=only, profile=profile)
            span.add(analyses=len(set(selected) - set(skipped)
                                  - set(excluded)))
            # universal analyses claim dedicated report fields;
            # platform-scoped ones land in the platform_analyses mapping
            # (and excluded ones vanish entirely -- not a degradation)
            fields = {}
            platform_results: dict[str, object] = {}
            for name, value in results.items():
                spec = REGISTRY.get(name)
                if not spec.platforms:
                    fields[spec.report_field] = value
                else:  # excluded specs never reach the result mapping
                    platform_results[name] = value
            report = DiagnosisReport(
                failures=self.failures,
                intended_shutdowns=self.intended_shutdowns,
                swos=self.swos,
                platform_analyses=platform_results,
                **fields,
            )
            report.skipped_analyses = skipped
            report.analysis_errors = errors
            report.degraded_reasons = reasons
            for name, message in errors.items():
                report.degraded_reasons.append(
                    f"analysis {name} failed: {message}")
            report.ingestion_health = self.ingestion_health
            report.degraded = bool(
                skipped or errors or report.degraded_reasons
                or (self.ingestion_health is not None
                    and self.ingestion_health.degraded)
            )
        return report

    # ------------------------------------------------------------------
    def run_windowed(
        self,
        window_days: int,
        stride_days: Optional[int] = None,
        only: Optional[Iterable[str]] = None,
    ) -> Iterator["DiagnosisWindow"]:
        """Slide a day-granular window over the logs; yield per-window reports.

        Windows are ``[start, start + window_days)`` days, advancing by
        ``stride_days`` (default: ``window_days``, i.e. tumbling).  Each
        window's records are selected with the shared
        :class:`~repro.core.index.StreamIndex` bisect queries -- no raw
        list rescans -- and diagnosed by the same registry driver as the
        batch path, so a single window spanning the whole log set
        reproduces the batch report exactly.

        Note the windows are *independent* diagnoses: a failure episode
        straddling a window edge is attributed to the window holding its
        triggering records, which is the operator-facing sliding-view
        semantics, not a partition proof.
        """
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        stride = window_days if stride_days is None else stride_days
        if stride <= 0:
            raise ValueError("stride_days must be positive")
        total = self.duration_days()
        for start in range(0, total, stride):
            end = min(start + window_days, total)
            t0, t1 = start * DAY, end * DAY
            with OBS.span("pipeline.window", "pipeline",
                          start_day=start, end_day=end):
                sub = HolisticDiagnosis(
                    internal=self.records.internal.window(t0, t1),
                    external=self.records.external.window(t0, t1),
                    scheduler=self.records.scheduler.window(t0, t1),
                    detector=self.detector,
                    total_nodes=self.total_nodes,
                    missing_sources=self.missing_sources,
                    ingestion_health=self.ingestion_health,
                    platform=self.platform,
                )
                profile: Optional[dict[str, float]] = (
                    {} if OBS.enabled else None)
                report = sub.run(only=only, profile=profile)
            yield DiagnosisWindow(start_day=start, end_day=end,
                                  report=report, profile=profile or {})
