"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def logdir(tmp_path_factory):
    """A tiny diagnosable log directory for CLI commands."""
    from repro.faults import Campaign
    from repro.platform import Platform
    from repro.scheduler import WorkloadConfig, WorkloadGenerator, WorkloadScheduler
    from tests.conftest import make_tiny_spec

    plat = Platform(make_tiny_spec(nodes=64), seed=31)
    camp = Campaign(plat)
    camp.burst("mce_failstop", day=0, count=4, params={"precursor": True})
    camp.burst("app_exit_chain", day=0, count=3, start_hour=16.0)
    sched = WorkloadScheduler(plat, ledger=camp.ledger)
    gen = WorkloadGenerator(plat.rng.child("wl"))
    sched.submit_all(gen.generate(WorkloadConfig(jobs_per_day=30,
                                                 duration_days=1,
                                                 max_nodes=4)))
    plat.run(days=2)
    root = tmp_path_factory.mktemp("cli") / "logs"
    plat.write_logs(root)
    return root


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "bogus"])

    def test_all_subcommands_parse(self, tmp_path):
        parser = build_parser()
        assert parser.parse_args(["simulate", "cases"]).command == "simulate"
        assert parser.parse_args(["diagnose", "x"]).command == "diagnose"
        assert parser.parse_args(["predict", "x"]).command == "predict"
        assert parser.parse_args(["checkpoint", "x"]).command == "checkpoint"
        assert parser.parse_args(["experiments"]).command == "experiments"
        assert parser.parse_args(["run-all"]).command == "run-all"

    def test_run_all_defaults(self):
        args = build_parser().parse_args(["run-all"])
        assert args.seed == 7
        assert str(args.out) == "campaign"
        assert not args.resume and args.only is None
        assert args.max_attempts == 3 and args.breaker_threshold == 3

    def test_run_all_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run-all", "--out", str(tmp_path), "--resume",
             "--only", "fig4", "table3", "--deadline", "60",
             "--no-isolation"])
        assert args.resume and args.no_isolation
        assert args.only == ["fig4", "table3"]
        assert args.deadline == 60.0


class TestCommands:
    def test_diagnose(self, logdir, capsys):
        assert main(["diagnose", str(logdir)]) == 0
        out = capsys.readouterr().out
        assert "failures detected: 7" in out
        assert "failure categories" in out

    def test_diagnose_findings_and_cases(self, logdir, capsys):
        assert main(["diagnose", str(logdir), "--findings", "--cases"]) == 0
        out = capsys.readouterr().out
        assert "inference:" in out
        assert "Recommendation:" in out or "no findings" in out

    def test_predict(self, logdir, capsys):
        assert main(["predict", str(logdir)]) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out

    def test_predict_require_external(self, logdir, capsys):
        assert main(["predict", str(logdir), "--require-external"]) == 0
        assert "alarms:" in capsys.readouterr().out

    def test_checkpoint(self, logdir, capsys):
        assert main(["checkpoint", str(logdir), "--cost", "120"]) == 0
        out = capsys.readouterr().out
        assert "Young/Daly interval" in out
        assert "expected waste" in out

    def test_simulate_into_tmp(self, tmp_path, capsys):
        assert main(["simulate", "cases", "--seed", "3",
                     "--out", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "log lines per source" in out
        assert (tmp_path / "cache" / "cases-seed3" / "manifest.json").exists()

    def test_diagnose_missing_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not a log store"):
            main(["diagnose", str(tmp_path / "nowhere")])

    def test_diagnose_strict_fails_cleanly(self, logdir, tmp_path, capsys):
        """Strict policy on a damaged store: exit 2 + diagnostic, no
        traceback leaking out of main()."""
        import shutil

        from repro.logs.record import LogSource
        from repro.logs.store import LogStore

        damaged = tmp_path / "damaged"
        shutil.copytree(logdir, damaged)
        with LogStore(damaged).path_for(LogSource.CONSOLE).open("a") as fh:
            fh.write("complete garbage\n")
        assert main(["diagnose", str(damaged),
                     "--error-policy=strict"]) == 2
        err = capsys.readouterr().err
        assert "malformed line" in err
        assert "--error-policy=skip" in err

    def test_diagnose_list_analyses(self, capsys):
        """--list-analyses needs no logdir and prints the registry."""
        assert main(["diagnose", "--list-analyses"]) == 0
        out = capsys.readouterr().out
        assert "dominance_summary" in out
        assert "scheduler" in out  # required-source column

    def test_diagnose_requires_logdir_without_list(self):
        with pytest.raises(SystemExit, match="logdir is required"):
            main(["diagnose"])

    def test_diagnose_only_subset(self, logdir, capsys):
        assert main(["diagnose", str(logdir),
                     "--only", "dominance_summary"]) == 0
        out = capsys.readouterr().out
        assert "failures detected: 7" in out

    def test_diagnose_only_unknown_name(self, logdir):
        with pytest.raises(SystemExit, match="registered"):
            main(["diagnose", str(logdir), "--only", "bogus_analysis"])

    def test_diagnose_windowed(self, logdir, capsys):
        assert main(["diagnose", str(logdir), "--window-days", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # two one-day windows
        assert lines[0].startswith("days") and "failures" in lines[0]

    def test_diagnose_stride_needs_window(self, logdir):
        with pytest.raises(SystemExit, match="--window-days"):
            main(["diagnose", str(logdir), "--stride-days", "1"])

    def test_experiments_command_reports(self, capsys, monkeypatch):
        """The experiments subcommand prints per-experiment status and
        returns non-zero when any shape fails (run_all is stubbed so the
        test stays fast)."""
        from repro.experiments.registry import ExperimentRun
        from repro.experiments.result import ExperimentResult
        import repro.experiments.registry as registry

        def fake_run_all(seed):
            yield ExperimentRun(
                "figX", "s9", ExperimentResult("figX", "good", {}, {}, True))
            yield ExperimentRun(
                "figY", None, ExperimentResult("figY", "bad", {}, {}, False))
            yield ExperimentRun("figZ", None, None, error="scenario exploded")

        monkeypatch.setattr(registry, "run_all", fake_run_all)
        assert main(["experiments"]) == 1
        out = capsys.readouterr().out
        assert "ok   figX" in out
        assert "FAIL figY" in out
        assert "ERR  figZ" in out and "scenario exploded" in out
        assert "1/3 experiment shapes hold" in out

    def test_experiments_command_draw(self, capsys, monkeypatch):
        from repro.experiments.registry import ExperimentRun
        from repro.experiments.result import ExperimentResult
        import repro.experiments.registry as registry

        def fake_run_all(seed):
            yield ExperimentRun("fig16", "s2", ExperimentResult(
                "fig16", "t", {"app_exit": 0.4}, {}, True))

        monkeypatch.setattr(registry, "run_all", fake_run_all)
        assert main(["experiments", "--draw"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 16" in out and "#" in out


class TestRunAllCommand:
    """run-all against a stubbed experiment table (in-process mode so
    the stubs' closures need no fork; the real worker path is covered in
    tests/runtime/ and the chaos gate)."""

    @pytest.fixture
    def stub_specs(self, monkeypatch):
        from repro.experiments.registry import ExperimentSpec
        from repro.experiments.result import ExperimentResult
        import repro.runtime.supervisor as supervisor

        def make(exp, scenario, ok=True):
            def produce(seed):
                return ExperimentResult(exp, f"title {exp}",
                                        {"seed": seed}, {}, ok)
            return ExperimentSpec(exp, scenario, produce)

        specs = (make("figX", "s9"), make("figY", None, ok=False))
        monkeypatch.setattr(supervisor, "EXPERIMENT_SPECS", specs)
        return specs

    def test_clean_campaign(self, stub_specs, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        code = main(["run-all", "--out", str(out_dir), "--no-isolation",
                     "--only", "figX"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   figX" in out
        assert "1/1 experiments completed" in out
        assert "journal:" in out
        assert (out_dir / "journal.jsonl").is_file()
        assert (out_dir / "artifacts" / "figX.json").is_file()

    def test_shape_failure_exit_code(self, stub_specs, tmp_path, capsys):
        code = main(["run-all", "--out", str(tmp_path / "c"),
                     "--no-isolation"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL figY" in out
        assert "1/2 shapes hold" in out

    def test_resume_replays_journal(self, stub_specs, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX"]) == 0
        capsys.readouterr()
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX", "--resume"]) == 0
        assert "[journal]" in capsys.readouterr().out

    def test_seed_mismatch_is_clean_error(self, stub_specs, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        assert main(["run-all", "--out", out_dir, "--no-isolation",
                     "--only", "figX"]) == 0
        with pytest.raises(SystemExit, match="seed"):
            main(["run-all", "--out", out_dir, "--no-isolation",
                  "--only", "figX", "--resume", "--seed", "8"])

    def test_unknown_only_is_clean_error(self, stub_specs, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiments"):
            main(["run-all", "--out", str(tmp_path / "c"),
                  "--no-isolation", "--only", "nope"])


class TestWatchCommand:
    def test_resume_on_damaged_checkpoint_is_clean_error(self, logdir,
                                                         tmp_path):
        """Damage before the checkpoint's last line: exit 1 with the
        journal's diagnostic on stderr, no traceback (a real process, so
        the exit code and stream are the user's)."""
        out = tmp_path / "watch"
        out.mkdir()
        (out / "checkpoint.jsonl").write_text(
            '{"event": "watch-st\n{"event": "alerts", "ids": []}\n',
            encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "watch", str(logdir),
             "--out", str(out), "--resume", "--max-polls", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: corrupt journal line 1 ")
        assert "Traceback" not in proc.stderr


class TestFleetCommand:
    def test_zero_max_workers_is_clean_error(self, tmp_path):
        """Zero worker slots can never make progress: refused up front
        with a one-line error (a real process, so a hang would show as
        the timeout rather than pass)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet",
             str(tmp_path / "fleet"), "--systems", "1", "--days", "1",
             "--max-workers", "0"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "error: max_workers must be at least 1, got 0\n"
        assert not (tmp_path / "fleet").exists()


class TestCacheCommand:
    def test_stats_clear_verify_roundtrip(self, logdir, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "disk bytes:" in out
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_verify_flags_and_heals_rot(self, logdir, tmp_path, capsys):
        from repro.logs.cache import ParseCache

        cache_dir = tmp_path / "rot-cache"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        victim = ParseCache(cache_dir).entry_files()[0]
        victim.write_bytes(b"rotted")
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir), "--no-heal"]) == 1
        assert victim.exists()
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 1
        assert not victim.exists()
        assert main(["cache", "verify", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0

    def test_stats_hit_rate_from_metrics(self, logdir, tmp_path, capsys):
        cache_dir = tmp_path / "hr-cache"
        metrics = tmp_path / "metrics.json"
        assert main(["diagnose", str(logdir),
                     "--cache-dir", str(cache_dir)]) == 0
        assert main(["diagnose", str(logdir), "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", str(logdir),
                     "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "hit rate:     100.0%" in out

    def test_no_cache_conflicts_with_cache_dir(self, logdir):
        with pytest.raises(SystemExit, match="conflict"):
            main(["diagnose", str(logdir), "--no-cache",
                  "--cache-dir", "somewhere"])

    def test_no_cache_runs_uncached(self, logdir, capsys):
        assert main(["diagnose", str(logdir), "--no-cache"]) == 0
        assert "failures detected" in capsys.readouterr().out

    def test_cache_on_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not a log store"):
            main(["cache", "stats", str(tmp_path / "nope")])
