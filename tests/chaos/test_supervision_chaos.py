"""Supervision chaos gate (tier-2): kill real campaigns, resume them.

The acceptance property for the resilient runner, end-to-end through the
CLI against real registry experiments: a campaign that loses a worker to
SIGKILL mid-experiment finishes under ``--resume`` with artifacts
byte-identical to an uninterrupted campaign.  Marked ``chaos`` like the
corruption gate; run via ``scripts/run_chaos.sh`` or ``pytest -m chaos``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.runtime.supervisor import ARTIFACTS_DIR

pytestmark = pytest.mark.chaos

# one scenario-less experiment plus two scenario-backed ones with small
# dedicated scenarios -- broad enough to cover grouping, cheap enough
# for a gate that runs campaigns several times over
EXPERIMENTS = ("table1", "fig11", "fig17")
SEED = 7


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One scenario cache shared by every campaign in the module."""
    return tmp_path_factory.mktemp("scenario-cache")


def run_cli(args, cache_dir, fault_plan=None, cwd=None):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH", "")]))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop(FAULT_PLAN_ENV, None)
    if fault_plan is not None:
        env[FAULT_PLAN_ENV] = str(fault_plan)
    return subprocess.run(
        [sys.executable, "-m", "repro", "run-all",
         "--seed", str(SEED), "--only", *EXPERIMENTS, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


def artifact_bytes(campaign_dir):
    art = Path(campaign_dir) / ARTIFACTS_DIR
    return {p.name: p.read_bytes() for p in sorted(art.glob("*.json"))}


def test_sigkill_then_resume_is_byte_identical(tmp_path, cache_dir):
    plan = FaultPlan(
        {"fig11": [FaultSpec("sigkill", attempts=(1,))]}
    ).dump(tmp_path / "plan.json")
    interrupted = tmp_path / "interrupted"

    first = run_cli(["--out", str(interrupted), "--max-attempts", "1"],
                    cache_dir, fault_plan=plan)
    assert first.returncode == 3, first.stdout + first.stderr
    assert "FAILED" in first.stdout

    resumed = run_cli(["--out", str(interrupted), "--resume"], cache_dir)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "[journal]" in resumed.stdout  # completed work was replayed

    clean = tmp_path / "clean"
    reference = run_cli(["--out", str(clean)], cache_dir)
    assert reference.returncode == 0, reference.stdout + reference.stderr

    got, want = artifact_bytes(interrupted), artifact_bytes(clean)
    assert set(got) == {f"{e}.json" for e in EXPERIMENTS}
    assert got == want


def test_hang_is_retried_within_one_run(tmp_path, cache_dir):
    """A hanging experiment is killed at the deadline and retried; the
    campaign still completes cleanly in the same invocation."""
    plan = FaultPlan(
        {"fig17": [FaultSpec("hang", attempts=(1,))]}
    ).dump(tmp_path / "plan.json")
    out = tmp_path / "camp"
    proc = run_cli(["--out", str(out), "--deadline", "5"],
                   cache_dir, fault_plan=plan)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    journal = [json.loads(line)
               for line in (out / "journal.jsonl").read_text().splitlines()]
    reasons = [e["reason"] for e in journal if e["event"] == "attempt-failed"]
    assert any("deadline exceeded" in r for r in reasons)


def test_crashing_scenario_trips_breaker_and_reports(tmp_path, cache_dir):
    """A scenario that dies every attempt ends up failed/skipped with
    recorded reasons while unrelated experiments still complete."""
    plan = FaultPlan(
        {"fig11": [FaultSpec("sigkill", attempts=(1, 2))]}
    ).dump(tmp_path / "plan.json")
    out = tmp_path / "camp"
    proc = run_cli(["--out", str(out), "--max-attempts", "2",
                    "--breaker-threshold", "2"],
                   cache_dir, fault_plan=plan)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "DEGRADED campaign" in proc.stdout
    assert "retries exhausted" in proc.stdout
    # the healthy experiments still produced artifacts
    art = artifact_bytes(out)
    assert "table1.json" in art and "fig17.json" in art
    assert "fig11.json" not in art
