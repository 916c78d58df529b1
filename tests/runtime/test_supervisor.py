"""Supervised campaign execution: isolation, retry, breaker, resume.

Uses small synthetic experiment tables (the real registry is exercised
by the chaos gate) so each test costs worker spawns, not simulations.
The process-level tests are marked ``supervision`` and double as the
``pytest -m supervision`` smoke run by ``scripts/run_ci.sh``.
"""

import time

import pytest

from repro.experiments.registry import ExperimentSpec
from repro.experiments.result import ExperimentResult
from repro.runtime import (
    CampaignSupervisor,
    JournalError,
    RetryPolicy,
    SupervisorConfig,
)
from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

supervision = pytest.mark.supervision


def spec(exp, scenario=None, ok=True, work=0.0):
    def produce(seed):
        if work:
            time.sleep(work)
        return ExperimentResult(exp, f"title {exp}",
                                {"seed": seed, "v": 1.5}, {"v": 1.0}, ok)
    return ExperimentSpec(exp, scenario, produce)


def fast_config(**overrides):
    defaults = dict(
        deadline=5.0,
        heartbeat_interval=0.05,
        heartbeat_grace=5.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
        breaker_threshold=3,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def install_plan(monkeypatch, tmp_path, faults):
    path = FaultPlan(faults).dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(FAULT_PLAN_ENV, str(path))


@pytest.fixture(autouse=True)
def no_inherited_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


SPECS = (spec("a1", "sA"), spec("a2", "sA"), spec("b1", "sB"), spec("solo"))


class TestCleanCampaign:
    @supervision
    def test_isolated_happy_path(self, tmp_path):
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                 config=fast_config())
        report = sup.run()
        assert [o.status for o in report.outcomes] == ["completed"] * 4
        assert [o.attempts for o in report.outcomes] == [1, 1, 1, 1]
        assert not report.degraded and report.exit_code() == 0
        # outcomes come back in canonical spec order regardless of grouping
        assert [o.experiment for o in report.outcomes] == \
            ["a1", "a2", "b1", "solo"]
        for o in report.outcomes:
            assert sup.artifact_path(o.experiment).is_file()

    def test_inline_mode_happy_path(self, tmp_path):
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                 config=fast_config(isolated=False))
        report = sup.run()
        assert all(o.completed for o in report.outcomes)

    def test_shape_failure_is_exit_code_1(self, tmp_path):
        specs = (spec("good"), spec("bad", ok=False))
        report = CampaignSupervisor(
            tmp_path / "camp", specs=specs,
            config=fast_config(isolated=False)).run()
        assert all(o.completed for o in report.outcomes)
        assert report.exit_code() == 1

    def test_only_filter(self, tmp_path):
        sup = CampaignSupervisor(tmp_path / "camp", specs=SPECS,
                                 config=fast_config(isolated=False),
                                 only=["a2", "solo"])
        report = sup.run()
        assert [o.experiment for o in report.outcomes] == ["a2", "solo"]

    def test_only_rejects_unknown(self, tmp_path):
        with pytest.raises(KeyError, match="unknown experiments: nope"):
            CampaignSupervisor(tmp_path / "camp", specs=SPECS, only=["nope"])


class TestFaultRecovery:
    @supervision
    def test_crash_is_retried_in_fresh_worker(self, tmp_path, monkeypatch):
        install_plan(monkeypatch, tmp_path,
                     {"a1": [FaultSpec("crash", attempts=(1,))]})
        sup = CampaignSupervisor(tmp_path / "camp", specs=SPECS,
                                 config=fast_config())
        report = sup.run()
        assert all(o.completed for o in report.outcomes)
        by_id = {o.experiment: o for o in report.outcomes}
        assert by_id["a1"].attempts == 2
        assert by_id["a2"].attempts == 1
        events = [e["event"] for e in sup.journal.events()
                  if e.get("experiment") == "a1"]
        assert events == ["start", "attempt-failed", "start", "complete"]

    @supervision
    def test_sigkill_mid_experiment_is_retried(self, tmp_path, monkeypatch):
        """An uncatchable worker death loses only the in-flight attempt."""
        install_plan(monkeypatch, tmp_path,
                     {"a2": [FaultSpec("sigkill", attempts=(1,))]})
        sup = CampaignSupervisor(tmp_path / "camp", specs=SPECS,
                                 config=fast_config())
        report = sup.run()
        assert all(o.completed for o in report.outcomes)
        by_id = {o.experiment: o for o in report.outcomes}
        assert by_id["a1"].attempts == 1  # finished before the kill
        assert by_id["a2"].attempts == 2
        failed = [e for e in sup.journal.events()
                  if e["event"] == "attempt-failed"]
        assert len(failed) == 1 and "worker died" in failed[0]["reason"]

    @supervision
    def test_hang_is_killed_at_deadline_and_retried(self, tmp_path,
                                                    monkeypatch):
        install_plan(monkeypatch, tmp_path,
                     {"b1": [FaultSpec("hang", attempts=(1,))]})
        sup = CampaignSupervisor(
            tmp_path / "camp", specs=SPECS,
            config=fast_config(deadline=0.4))
        report = sup.run()
        assert all(o.completed for o in report.outcomes)
        failed = [e for e in sup.journal.events()
                  if e["event"] == "attempt-failed"]
        assert len(failed) == 1 and "deadline exceeded" in failed[0]["reason"]

    @supervision
    def test_heartbeat_loss_kills_the_worker(self, tmp_path, monkeypatch):
        """With heartbeats effectively disabled, silence is death."""
        install_plan(monkeypatch, tmp_path,
                     {"solo": [FaultSpec("slow", delay=1.0,
                                         attempts=(1, 2))]})
        sup = CampaignSupervisor(
            tmp_path / "camp", specs=(spec("solo"),),
            config=fast_config(
                heartbeat_interval=30.0, heartbeat_grace=0.2,
                retry=RetryPolicy(max_attempts=1, base_delay=0.01)))
        report = sup.run()
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert "heartbeat lost" in outcome.reason

    @supervision
    def test_retries_exhausted_fails_without_sinking_campaign(
            self, tmp_path, monkeypatch):
        install_plan(monkeypatch, tmp_path,
                     {"a1": [FaultSpec("crash", attempts=(1, 2))]})
        sup = CampaignSupervisor(
            tmp_path / "camp", specs=SPECS,
            config=fast_config(retry=RetryPolicy(max_attempts=2,
                                                 base_delay=0.01)))
        report = sup.run()
        by_id = {o.experiment: o for o in report.outcomes}
        assert by_id["a1"].status == "failed"
        assert "retries exhausted" in by_id["a1"].reason
        assert by_id["a2"].completed and by_id["b1"].completed
        assert report.exit_code() == 3

    @supervision
    def test_circuit_breaker_skips_rest_of_scenario(self, tmp_path,
                                                    monkeypatch):
        """Repeated worker deaths on one scenario open its circuit; the
        scenario's remaining experiments are skipped with a recorded
        reason and other scenarios are untouched."""
        install_plan(monkeypatch, tmp_path,
                     {"a1": [FaultSpec("sigkill", attempts=(1, 2))],
                      "a2": [FaultSpec("sigkill", attempts=(1, 2))]})
        sup = CampaignSupervisor(
            tmp_path / "camp", specs=SPECS,
            config=fast_config(retry=RetryPolicy(max_attempts=2,
                                                 base_delay=0.01),
                               breaker_threshold=3))
        report = sup.run()
        by_id = {o.experiment: o for o in report.outcomes}
        statuses = {o.experiment: o.status for o in report.outcomes}
        assert statuses["b1"] == "completed"
        assert statuses["solo"] == "completed"
        assert "skipped" in statuses.values()
        skipped = [o for o in report.outcomes if o.status == "skipped"]
        assert all("circuit open" in o.reason for o in skipped)
        skip_events = [e for e in sup.journal.events()
                       if e["event"] == "skip"]
        assert {e["experiment"] for e in skip_events} == \
            {o.experiment for o in skipped}
        opens = [e for e in sup.journal.events()
                 if e["event"] == "breaker-open"]
        assert len(opens) == 1 and opens[0]["key"] == "sA"
        assert by_id["a1"].status in ("failed", "skipped")

    def test_inline_mode_captures_crashes(self, tmp_path):
        def boom(seed):
            raise RuntimeError("scenario exploded")
        specs = (spec("ok1", "sA"),
                 ExperimentSpec("boom", "sA", boom),
                 spec("ok2", "sB"))
        sup = CampaignSupervisor(
            tmp_path / "camp", specs=specs,
            config=fast_config(isolated=False,
                               retry=RetryPolicy(max_attempts=2,
                                                 base_delay=0.01)))
        report = sup.run()
        by_id = {o.experiment: o for o in report.outcomes}
        assert by_id["ok1"].completed and by_id["ok2"].completed
        assert by_id["boom"].status == "failed"
        assert "scenario exploded" in by_id["boom"].reason


class TestResume:
    @supervision
    def test_resume_completes_interrupted_campaign_byte_identically(
            self, tmp_path, monkeypatch):
        """The acceptance property: kill a worker mid-campaign, resume,
        and the artifact set is byte-identical to an uninterrupted run."""
        config = fast_config(retry=RetryPolicy(max_attempts=1,
                                               base_delay=0.01))
        install_plan(monkeypatch, tmp_path,
                     {"a2": [FaultSpec("sigkill", attempts=(1,))]})
        first = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                   config=config).run()
        assert {o.experiment for o in first.outcomes if not o.completed} == \
            {"a2"}
        monkeypatch.delenv(FAULT_PLAN_ENV)
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                 config=config)
        resumed = sup.run(resume=True)
        assert all(o.completed for o in resumed.outcomes)
        rerun = {o.experiment for o in resumed.outcomes if not o.from_journal}
        assert rerun == {"a2"}  # completed work was not repeated
        clean = CampaignSupervisor(tmp_path / "clean", seed=7, specs=SPECS,
                                   config=config)
        clean.run()
        for spec_ in SPECS:
            interrupted = sup.artifact_path(spec_.experiment)
            reference = clean.artifact_path(spec_.experiment)
            assert interrupted.read_bytes() == reference.read_bytes()

    def test_resume_with_wrong_seed_refused(self, tmp_path):
        config = fast_config(isolated=False)
        CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                           config=config).run()
        with pytest.raises(JournalError, match="seed=7"):
            CampaignSupervisor(tmp_path / "camp", seed=8, specs=SPECS,
                               config=config).run(resume=True)

    def test_first_run_with_resume_records_the_seed(self, tmp_path):
        """``--resume`` on an empty directory starts fresh -- and records
        the start, so a later resume at another seed is refused rather
        than trusting the seed-7 artifacts."""
        config = fast_config(isolated=False)
        first = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                   config=config).run(resume=True)
        assert not any(o.from_journal for o in first.outcomes)
        with pytest.raises(JournalError, match="seed=7; cannot resume "
                           "with seed=8"):
            CampaignSupervisor(tmp_path / "camp", seed=8, specs=SPECS,
                               config=config).run(resume=True)

    def test_fresh_run_resets_stale_journal(self, tmp_path):
        config = fast_config(isolated=False)
        sup = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                 config=config)
        sup.run()
        sup2 = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                  config=config)
        sup2.run()
        starts = [e for e in sup2.journal.events()
                  if e["event"] == "campaign-start"]
        assert len(starts) == 1  # old history gone, not appended to

    def test_resume_of_complete_campaign_runs_nothing(self, tmp_path):
        config = fast_config(isolated=False)
        CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                           config=config).run()
        report = CampaignSupervisor(tmp_path / "camp", seed=7, specs=SPECS,
                                    config=config).run(resume=True)
        assert all(o.from_journal for o in report.outcomes)


class TestScheduler:
    """One scheduler: ``max_workers`` is a slot count, and whether a
    round runs in a forked worker or in-process is an execution
    detail -- the published bytes and the outcomes never depend on it."""

    def test_max_workers_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_workers must be at "
                           "least 1, got 0"):
            fast_config(max_workers=0)

    @supervision
    def test_slot_count_and_isolation_publish_the_same_bytes(
            self, tmp_path):
        runs = {"one-slot": fast_config(max_workers=1),
                "three-slots": fast_config(max_workers=3),
                "inline": fast_config(isolated=False)}
        published = {}
        for name, config in runs.items():
            sup = CampaignSupervisor(tmp_path / name, seed=7, specs=SPECS,
                                     config=config)
            report = sup.run()
            artifacts = sorted((sup.journal.root / "artifacts").glob("*.json"))
            published[name] = (
                {path.name: path.read_bytes() for path in artifacts},
                [(o.experiment, o.scenario, o.status, o.attempts, o.reason,
                  o.result.to_json()) for o in report.outcomes])
        reference = published["one-slot"]
        assert len(reference[0]) == len(SPECS)
        assert published["three-slots"] == reference
        assert published["inline"] == reference

    @staticmethod
    def _order(sup):
        return [(e["event"], e.get("experiment"))
                for e in sup.journal.events()]

    @supervision
    def test_backing_off_group_yields_the_only_slot(self, tmp_path,
                                                    monkeypatch):
        """With one slot, ``sB`` runs while ``sA`` waits out its backoff
        instead of queueing behind ``sA``'s retry."""
        install_plan(monkeypatch, tmp_path,
                     {"a1": [FaultSpec("crash", attempts=(1,))]})
        specs = (spec("a1", "sA"), spec("b1", "sB"))
        sup = CampaignSupervisor(tmp_path / "camp", specs=specs,
                                 config=fast_config(max_workers=1))
        report = sup.run()
        assert all(o.completed for o in report.outcomes)
        order = self._order(sup)
        a1_starts = [i for i, e in enumerate(order) if e == ("start", "a1")]
        assert len(a1_starts) == 2
        assert order.index(("complete", "b1")) < a1_starts[1]
        a1_events = [event for event, exp in order if exp == "a1"]
        assert a1_events == ["start", "attempt-failed", "start", "complete"]

    def test_inline_backoff_yields_to_the_next_group(self, tmp_path):
        """The same order in-process: a launched round runs to
        completion, then re-queues behind its backoff gate."""
        calls = []

        def flaky(seed):
            calls.append(seed)
            if len(calls) == 1:
                raise RuntimeError("first attempt fails")
            return ExperimentResult("a1", "title a1", {"seed": seed},
                                    {}, True)

        specs = (ExperimentSpec("a1", "sA", flaky), spec("b1", "sB"))
        sup = CampaignSupervisor(tmp_path / "camp", specs=specs,
                                 config=fast_config(isolated=False))
        report = sup.run()
        assert all(o.completed for o in report.outcomes)
        assert self._order(sup)[1:] == [
            ("start", "a1"), ("attempt-failed", "a1"),
            ("start", "b1"), ("complete", "b1"),
            ("start", "a1"), ("complete", "a1"),
            ("campaign-end", None)]
