"""Smoke runs of every perfbench workload on the two smallest stores.

Run from the checkout root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for one second with ``--smoke`` (s4 and bgq instead
of the full-size stores), traced and untraced.  The tests check the
result contract: every metric of ``BENCHMARK.json`` present with its
unit, the correctness checks run and passed, and the layers a workload
exercises reporting non-zero figures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: per-layer metrics each workload must move in a traced run
EXERCISED = {
    "warm-s3": ["ingest.ms", "ingest.sched_ms", "ingest.merge_ms",
                "cache.hits", "cache.hit_ratio", "cache.bytes", "build.ms",
                "build.external_ms", "build.detect_ms", "analysis.total_ms",
                "analysis.root_causes_ms", "serialize.ms",
                "serialize.to_jsonable_ms", "serialize.report_bytes"],
    "cold-mix": ["ingest.ms", "cache.misses", "cache.bytes", "cache.store_ms",
                 "parse.ms", "parse.lines_per_s", "build.ms",
                 "analysis.total_ms", "analysis.ras_category_breakdown_ms",
                 "serialize.ms"],
    "serve-mix": ["serve.hit_ms", "serve.miss_ms", "serve.fingerprint_ms",
                  "serve.hit_ratio", "serve.flights", "ingest.ms",
                  "build.ms", "analysis.total_ms", "serialize.ms"],
    "watch-live": ["watch.tick_ms", "watch.close_tick_ms",
                   "watch.finalize_ms", "watch.records", "watch.alerts",
                   "watch.windows", "build.ms", "analysis.total_ms",
                   "serialize.to_jsonable_ms"],
}


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, trace: int) -> None:
    code, lines = _run(ROOT, workload, trace)
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}
    provenance = json.loads(next(
        line for line in lines
        if line.startswith("provenance "))[len("provenance "):])
    assert provenance["checks"] >= result["attempted"]
    assert provenance["seed"] == 3
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    if workload == "warm-s3":
        assert provenance["parse_cache_misses"] == 0
        assert result["metrics"].get("cache.misses", {"value": 0})[
            "value"] == 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(tmp_path, WORKLOADS[0], 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_invalid_run_withholds_its_metrics(monkeypatch, capsys) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import common
    import run

    def invalid(ctx):
        outcome = common.Outcome(attempted=5, failed=2, checks=5)
        outcome.e2e = {entry["name"]: 1.0 for entry in SPEC["end_to_end"]}
        outcome.invalid = "the generator fell behind"
        return outcome

    real = run.importlib.import_module
    monkeypatch.setattr(
        run.importlib, "import_module",
        lambda name, *args: (types.SimpleNamespace(run=invalid)
                             if name == "serve_mix" else real(name, *args)))
    code = run.main(["--workload", "serve-mix", "--seed", "3",
                     "--seconds", "1", "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": 5, "failed": 2,
                      "metrics": {}}
    assert "the generator fell behind" in lines[-2]
