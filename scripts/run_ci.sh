#!/usr/bin/env bash
# Full local CI: every gate the repo defines, in escalating order.
#
#   1. tier-1: the default pytest run (fast unit + integration tests;
#      chaos-marked tests excluded via pyproject addopts)
#   2. supervision smoke: the process-level tests of the one task
#      scheduler alone, as a focused re-run (they are part of tier-1
#      too; this isolates worker/fork behaviour when debugging an
#      environment) -- the campaign (tests/runtime), the fleet
#      (tests/fleet) and the obs fork boundary
#      (tests/obs/test_fork_boundary.py) all ride the same engine --
#      plus the event-journal contract (tests/runtime/test_journal.py)
#      that the campaign, fleet and watch resumes all rely on
#   3. streaming smoke: a real `repro watch` subprocess tails a live
#      directory, alerts on a fed increment, and finalizes cleanly on
#      SIGTERM (tests/stream/test_cli_smoke.py, -m streaming); the
#      streamed-vs-batch replay-parity and SIGKILL-resume gates run in
#      the chaos tier below (tests/chaos/test_stream_chaos.py)
#   4. parity gate: the registry-driver report must stay byte-identical
#      (canonical JSON) to the committed pre-refactor goldens on s1-s5,
#      and one full-span window must equal the batch run (windowed
#      consistency); see tests/core/test_parity_gate.py -- including
#      the cache-transparency legs (cached, warm, post-corruption runs
#      must hash identically to the uncached goldens)
#   5. parse-cache warm-run smoke: focused re-run of the delta-only
#      ingest properties on the product read path (warm run parses
#      zero files, changed dirs parse only the delta);
#      tests/logs/test_cache.py::TestStoreIntegration
#   6. BG/Q dialect smoke: the bgq-ras platform catalog end-to-end
#      (scenario -> store -> cached ingest -> report) plus dialect
#      sniffing and per-catalog cache isolation
#      (tests/logs/test_catalogs.py; see docs/PLATFORMS.md)
#   7. serve smoke: a real `repro serve` subprocess answers POST
#      /v1/diagnose twice (second answer must be a byte-identical
#      cache hit), reports honest counters on /v1/health, and drains
#      cleanly on SIGTERM (tests/serve/test_cli_smoke.py, -m serve);
#      the in-process coalescing/quota/drain matrix is tier-1
#      (tests/serve/)
#   8. tier-2 chaos gate: corruption + supervision campaigns and the
#      overhead benchmarks (scripts/run_chaos.sh)
#   9. fleet chaos gate: shard_kill + corrupt_artifact on a fleet plus
#      driver SIGKILL/--resume byte-parity of fleet_report.json
#      (tests/chaos/test_fleet_chaos.py), then the fleet scaling and
#      shard-rebuild cost figures (benchmarks/bench_fleet.py)
#
# Usage:
#   scripts/run_ci.sh           # everything
#   scripts/run_ci.sh --fast    # tier-1 + supervision smoke only
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}$PWD/src"

echo "== API surface + trace schema gate (scripts/check_api.py) =="
python scripts/check_api.py

echo "== tier-1 (default pytest run) =="
python -m pytest -q

echo "== supervision smoke + journal contract (pytest -m supervision) =="
python -m pytest tests/runtime tests/fleet tests/obs/test_fork_boundary.py \
    -m supervision -q
python -m pytest tests/runtime/test_journal.py -q

echo "== streaming smoke (pytest -m streaming) =="
python -m pytest tests/stream -m streaming -q

echo "== parity + windowed-consistency gate (pytest -m parity) =="
python -m pytest tests/core/test_parity_gate.py -m parity -q

echo "== parse-cache warm-run smoke (zero files re-parsed) =="
# part of tier-1 too; the focused re-run isolates the cache property
# that matters operationally -- a warm second run must serve every
# file from cache (no parses) and a changed directory must parse only
# the delta
python -m pytest tests/logs/test_cache.py::TestStoreIntegration -q

echo "== BG/Q dialect smoke (second catalog through the same pipeline) =="
# the pluggable-catalog gate: the bgq-ras scenario must ingest, cache,
# analyse and report end-to-end, cache entries must stay per-dialect,
# and default-dialect reports must keep omitting platform_analyses
python -m pytest tests/logs/test_catalogs.py -q

echo "== serve smoke (pytest -m serve) =="
# a real `repro serve` process: announce, diagnose twice over raw
# sockets (miss then byte-identical hit), health counters, SIGTERM
# drain with exit 0 and the printed summary
python -m pytest tests/serve/test_cli_smoke.py -m serve -q

echo "== benchmark shape smoke (--benchmark-disable) =="
# bench_serve.py runs its storms in full here (it does not use the
# pytest-benchmark fixture), so this stage is also the service SLO
# gate: warm p99, warm hit rate, exactly-one-pipeline-run cold
python -m pytest benchmarks/ -m 'not chaos' --benchmark-disable -q

if [[ "${1:-}" == "--fast" ]]; then
    echo "== skipping tier-2 chaos gate (--fast) =="
    exit 0
fi

echo "== tier-2 chaos gate (scripts/run_chaos.sh) =="
scripts/run_chaos.sh

echo "== fleet chaos gate (tests/chaos/test_fleet_chaos.py) =="
# part of the chaos gate above too; the focused re-run isolates the
# fleet properties (shard_kill + corrupt_artifact degradation,
# driver SIGKILL + --resume byte parity) when debugging a failure
python -m pytest tests/chaos/test_fleet_chaos.py -m chaos -q

echo "== fleet scaling + rebuild cost (benchmarks/bench_fleet.py) =="
python -m pytest benchmarks/bench_fleet.py \
    -m 'not chaos' --benchmark-disable -q -s

echo "== supervision overhead (benchmarks/bench_supervisor.py) =="
python -m pytest benchmarks/bench_supervisor.py \
    -m 'not chaos' --benchmark-disable -q -s

echo "CI green"
