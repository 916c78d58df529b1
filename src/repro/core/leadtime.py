"""Lead-time enhancement analysis (Fig. 13, Obs. 5).

For every detected failure the pipeline measures two lead times:

* **internal lead** -- failure time minus the first fault-indicative
  message in the node's own console/messages/consumer logs (the lead time
  prior prediction work uses);
* **external lead** -- failure time minus the earliest *correlated
  external precursor*: an ``ec_hw_error``, NVF, link error, ECB or
  blade-controller fault about the failing node's blade, strictly before
  the first internal indication, within the precursor window.

A failure is *enhanceable* when such a precursor exists; the paper finds
10--28 % of failures enhanceable with mean lead-time gains around 5x, and
none of the application-triggered failures enhanceable (their first
evidence of trouble is the application's own misbehaviour).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.core.external import (
    EXTERNAL_PRECURSOR_EVENTS,
    NODE_SCOPED_PRECURSORS,
    ExternalIndex,
    _blade_of,
)
from repro.core.failure_detection import DetectedFailure
from repro.logs.parsing import ParsedRecord
from repro.simul.clock import HOUR, WEEK

if TYPE_CHECKING:
    from repro.core.index import StreamIndex

__all__ = [
    "LeadTimeRecord",
    "LeadTimeSummary",
    "compute_lead_times",
    "summarize_lead_times",
    "weekly_enhanceable_fractions",
    "EXTERNAL_PRECURSOR_EVENTS",
    "NODE_SCOPED_PRECURSORS",
]

#: internal events that count as fault-indicative precursors
INTERNAL_INDICATIVE = frozenset({
    "mce", "mce_threshold", "cpu_corruption", "ecc_corrected",
    "ecc_uncorrected", "kernel_oops", "kernel_bug_at", "invalid_opcode",
    "general_protection", "lustre_error", "lbug", "lustre_io_error",
    "dvs_error", "inode_error", "disk_error", "oom_invoked", "oom_kill",
    "page_alloc_fail", "fork_fail", "hung_task", "cpu_stall", "segfault",
    "gpu_xid", "app_exit_abnormal", "nhc_test_fail", "nhc_suspect",
    "l0_sysd_mce", "buffer_overflow", "bios_unknown",
})

# EXTERNAL_PRECURSOR_EVENTS / NODE_SCOPED_PRECURSORS now live in
# repro.core.external (next to the index tables keyed on them) and are
# re-exported above for compatibility.

#: symptoms the paper calls application-triggered (no enhancement expected)
APP_TRIGGERED_SYMPTOMS = frozenset({
    "app_exit", "oom", "mem_exhaustion", "segfault",
})


@dataclass(frozen=True)
class LeadTimeRecord:
    """Lead times of one failure."""

    node: str
    fail_time: float
    symptom: str
    internal_lead: Optional[float]
    external_lead: Optional[float]

    @property
    def enhanceable(self) -> bool:
        """An external precursor strictly improves on the internal lead."""
        return (
            self.external_lead is not None
            and self.internal_lead is not None
            and self.external_lead > self.internal_lead
        )

    @property
    def enhancement_factor(self) -> Optional[float]:
        if not self.enhanceable or not self.internal_lead:
            return None
        return self.external_lead / self.internal_lead

    @property
    def week(self) -> int:
        return int(self.fail_time // WEEK)


@dataclass(frozen=True)
class LeadTimeSummary:
    """Aggregate lead-time picture (the Fig. 13 numbers)."""

    failures: int
    enhanceable: int
    mean_internal_lead: float
    mean_external_lead: float
    mean_enhancement_factor: float

    @property
    def enhanceable_fraction(self) -> float:
        return self.enhanceable / self.failures if self.failures else 0.0


def indicative_times_by_node(
    internal: Iterable[ParsedRecord],
    stream: Optional["StreamIndex"] = None,
) -> dict[str, list[float]]:
    """Node -> sorted times of fault-indicative internal events.

    The grouping both the lead-time and false-positive analyses start
    from.  With a ``stream`` index, only the indicative-event buckets
    are touched instead of the full internal list.
    """
    source = (stream.select(INTERNAL_INDICATIVE) if stream is not None
              else internal)
    by_node: dict[str, list[float]] = defaultdict(list)
    if stream is not None:
        for rec in source:
            by_node[rec.component].append(rec.time)
    else:
        for rec in source:
            if rec.event in INTERNAL_INDICATIVE:
                by_node[rec.component].append(rec.time)
    for times in by_node.values():
        times.sort()
    return by_node


def compute_lead_times(
    failures: Sequence[DetectedFailure],
    internal: Iterable[ParsedRecord],
    index: ExternalIndex,
    precursor_window: float = 2 * HOUR,
    internal_lookback: float = HOUR,
    stream: Optional["StreamIndex"] = None,
) -> list[LeadTimeRecord]:
    """Per-failure internal and external lead times."""
    indicative_by_node = indicative_times_by_node(internal, stream)
    by_node, by_blade = index.precursor_candidates

    out: list[LeadTimeRecord] = []
    for f in failures:
        times = np.asarray(indicative_by_node.get(f.node, ()), dtype=float)
        internal_first: Optional[float] = None
        if times.size:
            lo = np.searchsorted(times, f.time - internal_lookback, side="left")
            hi = np.searchsorted(times, f.time, side="left")
            if hi > lo:
                internal_first = float(times[lo])
        internal_lead = (f.time - internal_first) if internal_first is not None else None

        external_lead: Optional[float] = None
        blade = _blade_of(f.node)
        horizon_start = f.time - precursor_window
        # the precursor must precede the first internal indication
        cutoff = internal_first if internal_first is not None else f.time
        candidates = list(by_node.get(f.node, ()))
        if blade is not None:
            candidates.extend(by_blade.get(blade, ()))
        candidates.sort()
        for t, _event in candidates:
            if t >= cutoff:
                break
            if t >= horizon_start:
                external_lead = f.time - t
                break
        out.append(
            LeadTimeRecord(
                node=f.node,
                fail_time=f.time,
                symptom=f.symptom,
                internal_lead=internal_lead,
                external_lead=external_lead,
            )
        )
    return out


def summarize_lead_times(records: Sequence[LeadTimeRecord]) -> LeadTimeSummary:
    """Aggregate the Fig. 13 headline quantities."""
    internal = [r.internal_lead for r in records if r.internal_lead is not None]
    enhanced = [r for r in records if r.enhanceable]
    factors = [r.enhancement_factor for r in enhanced if r.enhancement_factor]
    return LeadTimeSummary(
        failures=len(records),
        enhanceable=len(enhanced),
        mean_internal_lead=float(np.mean(internal)) if internal else 0.0,
        mean_external_lead=(
            float(np.mean([r.external_lead for r in enhanced])) if enhanced else 0.0
        ),
        mean_enhancement_factor=float(np.mean(factors)) if factors else 0.0,
    )


def weekly_enhanceable_fractions(
    records: Iterable[LeadTimeRecord],
) -> dict[int, float]:
    """Per-week fraction of failures with enhanceable lead times."""
    by_week: dict[int, list[LeadTimeRecord]] = defaultdict(list)
    for r in records:
        by_week[r.week].append(r)
    return {
        w: sum(r.enhanceable for r in rs) / len(rs)
        for w, rs in sorted(by_week.items())
    }


# -- registry declaration (see repro.core.analysis) -------------------------
from repro.core.analysis import AnalysisSpec, register  # noqa: E402

register(AnalysisSpec(
    name="lead_times",
    field="lead_time_records",
    inputs=("failures", "internal", "index", "records"),
    compute=lambda failures, internal, index, records: compute_lead_times(
        failures, internal, index, stream=records.internal),
    neutral=list,
    doc="Obs. 5: per-failure internal/external lead times (Fig. 13)",
))

register(AnalysisSpec(
    name="lead_time_summary",
    field="lead_times",
    depends_on=("lead_times",),
    compute=summarize_lead_times,
    neutral=lambda: summarize_lead_times([]),
    doc="aggregate lead-time enhancement picture over the records",
))
