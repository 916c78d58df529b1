"""The repo benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload warm-s3 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Every answer the program gives is
checked against a reference in the same run.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it name the workload's own metrics and
the run's provenance.  The exit code is 0 only when every check passed
and the run is valid: a run whose load generator fell behind reports
``correct: false``, counts the late requests as failed and withholds
its metrics, because its timings measure the generator, not the program.
Every end-to-end time is in reference seconds: scaled by the host's
speed, which ``common.HostSpeed`` samples between operations on the
program's CPU.  ``--smoke`` swaps in the two smallest stores (s4, bgq)
for the benchmark's own tests.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

import common

WORKLOADS = ("warm-s3", "cold-mix", "serve-mix", "watch-live")


def _metrics(spec: dict, outcome: common.Outcome, trace: bool) -> dict:
    """The BENCHMARK.json metrics of this run, by name with unit.

    A per-layer metric of a layer the workload does not run reads 0;
    an end-to-end metric must always have been measured.
    """
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        source = outcome.layers if trace else outcome.e2e
        if name not in source and not trace:
            raise RuntimeError(f"workload measured no {name}")
        metrics[name] = {"value": float(source.get(name, 0.0)),
                         "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny stores (s4, bgq), for perfbench's tests")
    args = parser.parse_args(argv)

    common.bootstrap()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    common.prepare_inputs(args.smoke)
    workdir = common.DATA / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cpu = common.pin()
    ctx = common.Context(seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), smoke=args.smoke,
                         workdir=workdir, speed=common.HostSpeed())
    try:
        module = importlib.import_module(args.workload.replace("-", "_"))
        outcome = module.run(ctx)
    finally:
        ctx.speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = (outcome.failed == 0 and outcome.invalid is None
               and outcome.checks >= outcome.attempted >= 1)
    info = common.provenance(args.workload, args.seed, args.seconds,
                             ctx.trace, args.smoke)
    info.update(outcome.info)
    info.update(cpu=cpu, **ctx.speed.info())
    info["checks"] = outcome.checks
    if outcome.invalid is not None:
        info["invalid"] = outcome.invalid
        sys.stderr.write(f"perfbench: run invalid: {outcome.invalid}\n")
    info["wall_s"] = round(time.perf_counter() - started, 3)
    for name, entry in outcome.summary.items():
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        print(f"{name} = {entry['value']:.6g} {entry['unit']}"
              + (f"  {json.dumps(extra, sort_keys=True)}" if extra else ""))
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": ({} if outcome.invalid is not None
                    else _metrics(spec, outcome, ctx.trace)),
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
