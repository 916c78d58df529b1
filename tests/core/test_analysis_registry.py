"""The declarative analysis registry: contents, contract, laziness.

Covers the ISSUE 4 tentpole invariants that do not need the full s1-s5
parity sweep (that lives in ``test_parity_gate.py``):

* the registry declares exactly the analyses the report carries, with
  the same source-dependency table the old hardcoded constant had;
* registration order is a valid execution order (dependencies first);
* neutral factories are *lazy*: never invoked on the success path,
  invoked exactly for the skipped analyses when a source is missing;
* ``skipped_analyses()`` / ``degradation_reasons()`` both derive from
  the single ``degradation()`` registry query and agree with the legacy
  per-source algorithm;
* ``run(only=...)`` executes the dependency closure and nothing else.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core import analysis as analysis_mod
from repro.core.analysis import REGISTRY, AnalysisRegistry, AnalysisSpec
from repro.core.pipeline import HolisticDiagnosis
from repro.logs.record import LogSource
from repro.logs.store import LogStore

#: the pre-refactor hardcoded table, now a derived invariant
LEGACY_TABLE = {
    LogSource.SCHEDULER: ("job_census", "same_job_groups"),
    LogSource.CONTROLLER: (
        "nvf_correspondence",
        "nhf_correspondence",
        "nhf_breakdown",
        "faulty_fractions",
    ),
    LogSource.ERD: ("nhf_breakdown",),
}

EXPECTED_ANALYSES = {
    "weekly_inter_failure", "dominance", "dominance_summary",
    "nvf_correspondence", "nhf_correspondence", "nhf_breakdown",
    "faulty_fractions", "error_populations", "job_census",
    "same_job_groups", "lead_times", "lead_time_summary",
    "false_positives", "category_breakdown", "blade_sharing",
    "root_causes", "family_split",
    # platform-scoped (ISSUE 9): runs only under its declared catalog,
    # lands in report.platform_analyses rather than a dedicated field
    "ras_category_breakdown",
}


@pytest.fixture(scope="module")
def diag(diagnosed_scenario):
    _, _, store = diagnosed_scenario
    return HolisticDiagnosis.from_store(store)


class TestRegistryContents:
    def test_every_expected_analysis_registered(self):
        assert set(REGISTRY.names()) == EXPECTED_ANALYSES

    def test_source_dependents_match_legacy_table(self):
        assert REGISTRY.source_dependents() == LEGACY_TABLE

    def test_registration_order_is_execution_order(self):
        seen: set[str] = set()
        for spec in REGISTRY:
            assert set(spec.depends_on) <= seen, spec.name
            seen.add(spec.name)

    def test_report_fields_are_unique_and_known(self):
        from dataclasses import fields

        from repro.core.pipeline import DiagnosisReport

        report_fields = {f.name for f in fields(DiagnosisReport)}
        seen: set[str] = set()
        for spec in REGISTRY:
            if not spec.platforms:  # scoped specs land in platform_analyses
                assert spec.report_field in report_fields
            assert spec.report_field not in seen
            seen.add(spec.report_field)

    def test_platform_scoping(self):
        """Scoped specs run only under their catalog; universal specs
        apply everywhere, including stores with no known platform."""
        spec = REGISTRY.get("ras_category_breakdown")
        assert spec.platforms == ("bgq-ras",)
        assert spec.applies_to("bgq-ras")
        assert not spec.applies_to("cray-xc")
        assert not spec.applies_to(None)
        assert REGISTRY.platform_excluded("bgq-ras") == []
        assert REGISTRY.platform_excluded(None) == ["ras_category_breakdown"]
        universal = REGISTRY.get("dominance")
        assert universal.applies_to(None) and universal.applies_to("bgq-ras")


class TestRegistryValidation:
    def test_duplicate_name_rejected(self):
        reg = AnalysisRegistry()
        reg.register(AnalysisSpec(name="a", compute=lambda: 1, neutral=int))
        with pytest.raises(ValueError, match="duplicate"):
            reg.register(AnalysisSpec(name="a", compute=lambda: 2, neutral=int))

    def test_unregistered_dependency_rejected(self):
        reg = AnalysisRegistry()
        with pytest.raises(ValueError, match="unregistered"):
            reg.register(AnalysisSpec(
                name="b", compute=lambda x: x, neutral=int,
                depends_on=("missing",)))

    def test_clashing_report_field_rejected(self):
        reg = AnalysisRegistry()
        reg.register(AnalysisSpec(name="a", compute=lambda: 1, neutral=int))
        with pytest.raises(ValueError, match="field"):
            reg.register(AnalysisSpec(
                name="b", compute=lambda: 2, neutral=int, field="a"))

    def test_unknown_name_error_lists_registry(self):
        with pytest.raises(KeyError, match="registered:.*dominance"):
            REGISTRY.closure(["not_an_analysis"])

    def test_closure_pulls_dependencies(self):
        assert "dominance" in REGISTRY.closure(["dominance_summary"])
        assert "root_causes" in REGISTRY.closure(["family_split"])


@pytest.fixture
def spied_neutrals():
    """Replace every registered neutral with a counting spy (restored)."""
    calls: list[str] = []
    originals = {spec.name: spec.neutral for spec in REGISTRY}

    def spy(spec):
        original = originals[spec.name]
        return lambda: (calls.append(spec.name), original())[1]

    for spec in REGISTRY:
        object.__setattr__(spec, "neutral", spy(spec))
    try:
        yield calls
    finally:
        for spec in REGISTRY:
            object.__setattr__(spec, "neutral", originals[spec.name])


class TestNeutralLaziness:
    def test_success_path_never_builds_neutrals(
            self, diagnosed_scenario, spied_neutrals):
        """Regression (ISSUE 4 satellite): the old driver eagerly built
        ``exit_census({})`` and ``compare_fpr([], [], ExternalIndex())``
        on every run; the registry must not."""
        _, _, store = diagnosed_scenario
        report = HolisticDiagnosis.from_store(store).run()
        assert not report.degraded
        assert spied_neutrals == []

    def test_missing_source_builds_exactly_the_skipped_neutrals(
            self, diagnosed_scenario, tmp_path, spied_neutrals):
        _, _, store = diagnosed_scenario
        dst = tmp_path / "no-sched"
        shutil.copytree(store.root, dst)
        crippled = LogStore(dst)
        for path in crippled.source_files(LogSource.SCHEDULER):
            path.unlink()
        report = HolisticDiagnosis.from_store(crippled).run()
        assert sorted(spied_neutrals) == ["job_census", "same_job_groups"]
        assert report.job_census["jobs"] == 0


class TestDegradationContract:
    @pytest.mark.parametrize("source", list(LogSource))
    def test_matches_legacy_algorithm_exactly(
            self, diagnosed_scenario, tmp_path, source):
        """``degradation()`` reproduces the pre-refactor per-source loops
        (skip list and reason list, byte for byte)."""
        _, _, store = diagnosed_scenario
        dst = tmp_path / f"no-{source.value}"
        shutil.copytree(store.root, dst)
        crippled = LogStore(dst)
        for path in crippled.source_files(source):
            path.unlink()
        diag = HolisticDiagnosis.from_store(crippled)

        # the legacy algorithm, verbatim, over the derived table
        expected_skipped: list[str] = []
        for missing in diag.missing_sources:
            for name in LEGACY_TABLE.get(missing, ()):
                if name not in expected_skipped:
                    expected_skipped.append(name)
        expected_reasons: list[str] = []
        for missing in diag.missing_sources:
            dependents = LEGACY_TABLE.get(missing, ())
            if dependents:
                expected_reasons.append(
                    f"{missing.value} stream missing: skipped "
                    + ", ".join(dependents))
            elif missing in (LogSource.CONSOLE, LogSource.MESSAGES,
                             LogSource.CONSUMER):
                expected_reasons.append(
                    f"internal source {missing.value} missing: failure "
                    "detection may undercount")
        health = diag.ingestion_health
        if health is not None:
            for note in health.notes:
                if note not in expected_reasons:
                    expected_reasons.append(note)

        skipped, reasons = diag.degradation()
        assert skipped == expected_skipped
        assert reasons == expected_reasons
        assert diag.skipped_analyses() == expected_skipped
        assert diag.degradation_reasons() == expected_reasons

    def test_duplicate_reasons_are_deduped_first_seen(self, diag):
        diag_missing = HolisticDiagnosis(
            diag.internal, diag.external, diag.scheduler,
            missing_sources=[LogSource.SCHEDULER, LogSource.SCHEDULER])
        skipped, reasons = diag_missing.degradation()
        assert skipped == ["job_census", "same_job_groups"]
        assert len(reasons) == 1  # the old code would repeat it


class TestOnlySubset:
    def test_only_runs_closure_and_neutralizes_the_rest(self, diag):
        report = diag.run(only=["dominance_summary"])
        assert report.dominance, "dependency must have run"
        assert report.dominance_summary["days"] > 0
        assert report.root_causes == []  # deselected -> neutral
        assert report.lead_times.failures == 0
        assert not report.analysis_errors

    def test_only_unknown_name_raises(self, diag):
        with pytest.raises(KeyError, match="registered:"):
            diag.run(only=["nope"])


class TestComputeByName:
    def test_compute_matches_run_output(self, diag):
        report = diag.run()
        assert diag.compute("dominance") == report.dominance
        assert diag.compute("family_split") == report.family_split

    def test_compute_memoises(self, diag):
        assert diag.compute("root_causes") is diag.compute("root_causes")

    def test_compute_unknown_name(self, diag):
        with pytest.raises(KeyError, match="registered:"):
            diag.compute("nope")


class TestGuardedPrimitive:
    def test_error_capture(self):
        errors: dict[str, str] = {}

        def boom():
            raise RuntimeError("nope")

        assert analysis_mod.guarded("x", boom, 7, errors) == 7
        assert errors == {"x": "RuntimeError: nope"}

    def test_skip_list(self):
        errors: dict[str, str] = {}
        result = analysis_mod.guarded(
            "x", lambda: 1, 7, errors, skipped=("x",))
        assert result == 7 and errors == {}
