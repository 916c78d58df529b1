"""Shared plumbing for the perfbench workloads.

Paths, the generated inputs, the correctness references, the
statistics every workload reports with, and the provenance record.
The program under test is imported from the checkout's own ``src/``
(see :func:`bootstrap`), never from an installed copy.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout root: perfbench/ lives directly under it
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark generates lives here (git-ignored)
DATA = ROOT / ".bench_build" / "perfbench"
GOLDENS = ROOT / "tests" / "data" / "parity_goldens.json"

#: The scenario stores are simulated at this fixed seed, whatever the
#: workload seed: every run then measures the same amount of work (the
#: stores differ a lot in size between simulator seeds), the s1-s5 parity
#: goldens apply to every report, and generating s3 (~20 s) happens once
#: per checkout.  ``--seed`` drives everything the workloads choose.
SCENARIO_SEED = 7

MB = 1_000_000.0


def bootstrap() -> None:
    """Import the program from ``ROOT/src``; exit 2 when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {SRC}/repro "
                         "is missing (run from a full checkout)\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)


def child_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# inputs

#: every store any full-size workload reads
ALL_SCENARIOS = ("s1", "s2", "s3", "s4", "s5", "bgq")
SMOKE_SCENARIOS = ("s4", "bgq")


#: simulates the named scenarios (argv) at SCENARIO_SEED into DATA
_GENERATE = """
import sys
from pathlib import Path
from repro.experiments.scenarios import materialize
for name in sys.argv[3:]:
    materialize(name, seed=int(sys.argv[1]), root=Path(sys.argv[2]))
"""


def scenario(name: str) -> Path:
    """The generated store of one scenario (see :func:`prepare_inputs`)."""
    return DATA / "scenarios" / f"{name}-seed{SCENARIO_SEED}"


def prepare_inputs(smoke: bool) -> None:
    """Simulate every store the workloads need, once per checkout.

    In a child process, so the simulator's memory never counts towards
    the benchmark process's peak RSS.
    """
    missing = [name for name in (SMOKE_SCENARIOS if smoke else ALL_SCENARIOS)
               if not (scenario(name) / "manifest.json").is_file()]
    if missing:
        subprocess.run([sys.executable, "-c", _GENERATE, str(SCENARIO_SEED),
                        str(DATA / "scenarios"), *missing],
                       env=child_env(), check=True, timeout=900)


def log_files(store: Path) -> list[Path]:
    """The log files of a store (what the program reads)."""
    return sorted(p for p in store.rglob("*.log")
                  if p.relative_to(store).parts[0]
                  not in (".parse-cache", "quarantine"))


def log_mb(store: Path) -> float:
    return sum(p.stat().st_size for p in log_files(store)) / MB


def dir_bytes(path: Path) -> int:
    """Bytes of every file under ``path`` (a parse-cache directory)."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def goldens() -> dict[str, str]:
    """Scenario -> canonical report sha256 from the parity goldens."""
    try:
        data = json.loads(GOLDENS.read_text())
    except FileNotFoundError:
        return {}
    if data.get("seed") != SCENARIO_SEED:
        return {}
    return {name: entry["sha256"]
            for name, entry in data["scenarios"].items()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Reference:
    """Uncached ``api.diagnose`` bytes of each store, computed once."""

    def __init__(self) -> None:
        self._golden = goldens()
        self.sizes: dict[str, dict] = {}
        self.golden_checked = 0
        #: stores whose uncached report disagrees with the goldens
        self.golden_mismatches: list[str] = []

    def add(self, name: str, store: Path) -> str:
        """Compute the reference of one store; check it against goldens."""
        from repro import api
        from repro.core.serialize import canonical_json

        diag = api.load_system(store)
        text = canonical_json(diag.run()).encode("utf-8")
        ref = digest(text)
        want = self._golden.get(name)
        if want is not None:
            self.golden_checked += 1
            if want != ref:
                sys.stderr.write(f"perfbench: uncached report of {name} "
                                 f"does not match the parity golden "
                                 f"({ref[:16]} != {want[:16]})\n")
                self.golden_mismatches.append(name)
        self.sizes[name] = {
            "log_mb": round(log_mb(store), 3),
            "records": (len(diag.internal) + len(diag.external)
                        + len(diag.scheduler)),
            "report_bytes": len(text),
        }
        return ref


# ----------------------------------------------------------------------
# statistics

def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  Below 21 samples no percentile
    above the median has ten samples beyond it, and the median stands
    in (percentile 50): the tail then says nothing the median does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return median(ordered), 50.0, n
    return float(ordered[n - 11]), round(100.0 * (n - 10) / n, 2), n


# ----------------------------------------------------------------------
# provenance

def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the program's sources: identifies a build without git."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(path.relative_to(SRC).as_posix().encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "scenario_seed": SCENARIO_SEED,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / MB
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# host speed

#: the probe's two halves, run in a helper interpreter on request: an
#: interpreter-bound loop and a memory-bound gather over a 64 MB array,
#: each timed in thread CPU time
_PROBE = """
import sys, time
import numpy
big = numpy.random.default_rng(0).integers(0, 1 << 20, size=8_000_000)
picks = numpy.random.default_rng(1).integers(0, big.size, size=200_000)

def interpreter():
    total, table = 0, {}
    for i in range(30_000):
        total += i
        table[i & 1023] = total
    ",".join(str(i) for i in range(3_000)).split(",")

def memory():
    big[picks].sum()

def timed(work):
    started = time.thread_time()
    work()
    return time.thread_time() - started

for _ in sys.stdin:
    print(timed(interpreter), timed(memory), flush=True)
"""


#: the CPUs this process may run on, before :func:`pin`
CPUS = sorted(os.sched_getaffinity(0))


def pin() -> int:
    """Pin this process, and every process it starts, to one CPU.

    The program and the speed probe then share one CPU, so the probe
    prices the program's speed.  The program never forks here (no store
    reaches its parallel-parse threshold), so this takes no core from
    it.  serve-mix moves its load generator to another CPU.
    """
    os.sched_setaffinity(0, {CPUS[-1]})
    return CPUS[-1]


#: a busy loop at the lowest scheduling priority
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


def die_with_parent() -> None:
    """Ask the kernel to SIGTERM this child if the benchmark dies first
    (a ``preexec_fn``)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PDEATHSIG


@contextlib.contextmanager
def awake():
    """Keep every CPU busy while the block runs, at idle priority.

    A program that sleeps between requests leaves its virtual CPU idle,
    and on a shared host waking an idle vCPU takes the hypervisor a
    varying while: serve-mix's median hit latency moved by a quarter
    from run to run with it.  One busy loop per CPU under
    ``SCHED_IDLE`` keeps the vCPUs running; the kernel hands the CPU to
    any other thread the moment it wakes, so the loops take no time
    from the program or the load generator.
    """
    spinners = []
    try:
        for cpu in CPUS:
            def setup(cpu=cpu) -> None:
                os.sched_setaffinity(0, {cpu})
                die_with_parent()

            spinners.append(subprocess.Popen([sys.executable, "-c", _SPIN],
                                             preexec_fn=setup))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class HostSpeed:
    """Prices the host's current speed, to time work in reference seconds.

    On a shared virtual machine each vCPU switches between speeds about
    1.75x apart as neighbours load the physical core under it, at times
    every second, at times only after minutes; a run's raw timings then
    say more about the neighbours than about the program.
    :meth:`sample`, called between timed operations, runs a fixed probe
    (an interpreter-bound and a memory-bound half, about 8 ms) in a
    helper process on the same CPU and records the factor by which the
    host is faster than the reference speed (factor < 1 when slower).
    :meth:`seconds` scales a timed interval by the median factor of the
    samples around it, so the interval reads as it would at reference
    speed.  The reference times are the probe's on the machine
    ``perfbench/README.md`` describes, in its fast state; the probe is
    the benchmark's own code, so a change to the program never moves
    it.
    """

    REFERENCE_INTERPRETER_S = 3.3e-3
    REFERENCE_MEMORY_S = 2.7e-3
    #: the shortest stretch of samples that prices an interval
    WINDOW_S = 1.0

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        interpreter, memory = map(float, self._proc.stdout.readline().split())
        factor = math.sqrt(self.REFERENCE_INTERPRETER_S / interpreter
                           * self.REFERENCE_MEMORY_S / memory)
        self.times.append(time.perf_counter())
        self.factors.append(factor)
        return factor

    def factor(self, start: float, end: float) -> float:
        """Median factor of the samples within ``WINDOW_S`` around the
        interval (or within the interval, when it is longer) and of the
        nearest one on either side.

        A long operation is priced by the samples next to it only: the
        speed can change within a second, and a factor smoothed over
        longer under-corrects.  A short one is priced by the samples of
        the second around it, so no single odd reading sets it; the
        highest of many short intervals (a tail) would otherwise be the
        ones an odd reading priced too high.
        """
        middle, reach = (start + end) / 2, max(end - start, self.WINDOW_S) / 2
        low = max(bisect.bisect_left(self.times, middle - reach) - 1, 0)
        high = bisect.bisect_right(self.times, middle + reach) + 1
        around = self.factors[low:high]
        if not around:
            raise RuntimeError("no host-speed sample taken")
        return median(around)

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds."""
        return (end - start) * self.factor(start, end)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def info(self) -> dict:
        factors = self.factors or [0.0]
        return {"speed_samples": len(self.factors),
                "speed_factor_p50": round(median(factors), 4),
                "speed_factor_min": round(min(factors), 4),
                "speed_factor_max": round(max(factors), 4)}


# ----------------------------------------------------------------------
# what a workload hands back to run.py

@dataclass
class Context:
    """One benchmark run's settings."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: scratch directory of this run (removed when it ends)
    workdir: Path
    #: the host-speed probe every timing is scaled by
    speed: HostSpeed


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: outputs compared against a reference (at least one per attempt)
    checks: int = 0
    #: end-to-end metric name -> value (tracing off)
    e2e: dict = field(default_factory=dict)
    #: per-layer metric name -> value (tracing on)
    layers: dict = field(default_factory=dict)
    #: the workload's own metric names, with unit and sample counts
    summary: dict = field(default_factory=dict)
    #: provenance: input sizes, rates, limits, sample counts
    info: dict = field(default_factory=dict)
    #: why the run's timings are not a measurement of the program (the
    #: load generator fell behind); run.py then withholds the metrics
    invalid: str | None = None

    def check(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1

    def note(self, name: str, value: float, unit: str, **extra) -> None:
        self.summary[name] = {"value": value, "unit": unit, **extra}


def halves(ctx: Context) -> list[tuple[bool, float]]:
    """The timed window as ``(traced, seconds)`` phases.

    A traced run spends its first half untraced and its second half
    traced, so the difference of the two halves prices the tracing.
    """
    if not ctx.trace:
        return [(False, ctx.seconds)]
    return [(False, ctx.seconds / 2), (True, ctx.seconds / 2)]
