"""poismech benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one job at a time on one thread, with BLAS and
OpenMP pinned to a single thread.  Each run

1. generates the inputs from ``--seed`` and runs one gated warm-up pass;
2. repeats timed passes over the whole job list for ``--seconds`` seconds,
   gating every job.  With ``--trace 0`` a calibration kernel runs between
   jobs and each job time is scaled by it (see ``end_to_end``), and
   ``SETUP_REPEATS`` fresh interpreters that import ``poismech.cli`` and
   build the workload's inputs are timed between passes (``setup_s``).
   With ``--trace 1`` untraced and traced passes alternate: the traced ones
   give the per-layer metrics, the difference of the two the tracing
   overhead; the spans are written to ``.perfbench-out/``, and the import is
   timed under ``-X importtime``.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "POISMECH_WORKERS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CAL_ITERATIONS = 400
# fastest time of the calibration kernel on an uncontended Intel Xeon vCPU
# (Python 3.11, numpy 2.4); it only fixes the scale of the reported times
CAL_NOMINAL_S = 0.61e-3
MIN_PASSES = 2
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mb": "MB"}


def _calibration_kernel() -> float:
    """Fixed work of the kind a poismech job does, interpreter bytecode and
    small numpy calls; its time tracks the speed the machine gives this process."""
    import numpy as np

    a = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3)
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        b = a @ a
        acc += float(b[0, 1]) + i * 0.5
        d = {"k": i, "v": [i, i + 1]}
        acc += len(d["v"])
    return acc


def calibration_time() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_package() -> None:
    """Import poismech from this checkout's src/, or fail."""
    if not (SRC / "poismech" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC}/poismech not found; run from a poismech source checkout")
    sys.path.insert(0, str(SRC))
    import poismech.cli

    if Path(poismech.__file__).resolve().parent != (SRC / "poismech").resolve():
        raise SystemExit(f"error: imported poismech from {poismech.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment and set-up


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    commit = "unavailable"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure_setup(workload: str, seed: int, probe_dir: Path) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    poismech.cli and built the workload's inputs.

    The child prints the wall-clock time when it is done, so neither its
    shutdown nor the parent's polling of it (50 ms steps under a timeout)
    is counted.  It is not calibrated: the child may run on another CPU than
    the calibration kernel, and pairing the two made the times spread more.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe", str(probe_dir)]
    t0 = time.time()
    proc = subprocess.run(cmd, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - t0


def _scipy_import_s(stderr: str) -> tuple[float, float]:
    """(scipy cumulative, poismech.cli cumulative) seconds from -X importtime.

    Children are printed before their parent, one indent level deeper; a
    scipy entry counts when its parent is not itself a scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    scipy_s, cli_s = 0.0, 0.0
    parents: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        parent = parents[-1][1] if parents else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cum
        if name == "poismech.cli":
            cli_s = cum
        parents.append((depth, name))
    return scipy_s, cli_s


def measure_import() -> tuple[float, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import poismech.cli"],
                              env=_child_env(), capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        runs.append(_scipy_import_s(proc.stderr))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs passes over the job list, gating every job."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.tracer = None
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self) -> tuple[float, list[float], list[float]]:
        """Returns (time in jobs, per-job latencies, per-job calibration
        times); gates run after the clock stops.

        The calibration kernel runs before the first job and after every
        job; a job's calibration time is the mean of the runs on either side.
        """
        gc.collect()
        results: list = []
        latencies: list[float] = []
        cal = [calibration_time()]
        for j, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job_id = self.passes * len(self.jobs) + j
            t0 = time.perf_counter()
            try:
                results.append((True, job.run()))
            except Exception as exc:  # noqa: BLE001 -- a failed job is counted, not fatal
                results.append((False, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t0)
            cal.append(calibration_time())
        for job, (ok, value) in zip(self.jobs, results):
            self.attempted += 1
            msg = job.check(value) if ok else value
            if msg is not None:
                self.failures.append(f"pass {self.passes} {job.name}: {msg}")
        self.passes += 1
        return sum(latencies), latencies, [0.5 * (a + b) for a, b in zip(cal, cal[1:])]


def _summary(per_job: list[float]) -> tuple[float, float, float]:
    """(sum, median, tail) of per-job latencies; the tail is the highest
    nearest-rank percentile with TAIL_BEYOND jobs above it."""
    ranked = sorted(per_job)
    return sum(ranked), statistics.median(ranked), ranked[len(ranked) - 1 - TAIL_BEYOND]


def end_to_end(runner: Runner, seconds: float, setup_probe: Callable[[int], float]) -> dict[str, float]:
    """Timed passes for ``seconds``; calibrated job and list times.

    The machines this runs on are shared, and the speed they give one
    process swings by tens of percent within seconds.  The calibration
    kernel runs between jobs, so each repetition of a job is paired with a
    measure of the machine's speed at that moment.  A job's latency is the
    median over its repetitions of (job time / calibration time), times
    CAL_NOMINAL_S: its time at the calibration kernel's nominal speed.
    ``wall_s`` is the sum of those latencies over the job list.

    The SETUP_REPEATS set-up probes are spread over the run, between passes,
    so that their median sees the same mix of machine speeds as the passes.
    """
    passes, setup = [], []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() < t_start + seconds:
        if (len(setup) < SETUP_REPEATS
                and time.perf_counter() >= t_start + len(setup) * seconds / SETUP_REPEATS):
            setup.append(setup_probe(len(setup)))
        passes.append(runner.one_pass())
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(len(setup)))
    walls = [p[0] for p in passes]
    ratios = zip(*([t / c for t, c in zip(p[1], p[2])] for p in passes))
    wall, p50, tail = _summary([statistics.median(r) * CAL_NOMINAL_S for r in ratios])
    raw_wall, raw_p50, raw_tail = _summary([min(col) for col in zip(*(p[1] for p in passes))])
    cal = [c for p in passes for c in p[2]]
    n = len(runner.jobs)
    print(f"passes {len(passes)} timed after 1 warm-up; {n} jobs per pass; job_tail_ms is "
          f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} over {n} jobs ({TAIL_BEYOND} beyond it)")
    print(f"calibration kernel (ms): min {min(cal) * 1e3:.4f} median "
          f"{statistics.median(cal) * 1e3:.4f} max {max(cal) * 1e3:.4f}; nominal "
          f"{CAL_NOMINAL_S * 1e3:.4f}")
    print(f"setup runs (s): {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"pass times in jobs (s): min {min(walls):.4f} median {statistics.median(walls):.4f} "
          f"max {max(walls):.4f}")
    print(f"uncalibrated, fastest repetitions: wall_s {raw_wall:.4f} "
          f"job_p50_ms {raw_p50 * 1e3:.4f} job_tail_ms {raw_tail * 1e3:.4f}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "job_p50_ms": p50 * 1e3,
        "job_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced passes, so that both see the same
    machine; layer metrics come from the traced ones."""
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass = []
    t_end = time.perf_counter() + seconds
    while len(walls[True]) < MIN_PASSES or time.perf_counter() < t_end:
        traced = len(walls[False]) > len(walls[True])
        tracing.switch(patches, traced)
        runner.tracer = tracer if traced else None
        walls[traced].append(runner.one_pass()[0])
        if traced:
            per_pass.append(tracer.end_pass())
    tracing.switch(patches, False)
    tracer.write(spans_path, [job.name for job in runner.jobs])
    layer, moved = tracing.summarize(per_pass)
    for name in moved:
        runner.failures.append(f"count {name} differs between traced passes: "
                               f"{[p[name] for p in per_pass]}")
    layer["cli.import.scipy_s"], layer["cli.import.total_s"] = measure_import()
    plain, traced = statistics.median(walls[False]), statistics.median(walls[True])
    layer["trace.untraced_wall_s"] = plain
    layer["trace.traced_wall_s"] = traced
    layer["trace.overhead_s"] = traced - plain
    print(f"passes {len(walls[False])} untraced and {len(walls[True])} traced, alternating, "
          f"after 1 warm-up; {len(tracer)} spans written to {spans_path.name}")
    return {name: layer[name] for name in sorted(layer)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_package()
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    scratch = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        inputs = scratch / "inputs"
        workloads.generate(workload, seed, inputs)
        jobs, stats = workloads.load_jobs(workload, inputs, scratch / "out")
        runner = Runner(jobs)
        runner.one_pass()  # warm-up; fixes the scenario tree digests
        if trace:
            values = per_layer(runner, seconds, OUT / f"spans-{workload}-seed{seed}.npz")
            metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
        else:
            values = end_to_end(
                runner, seconds, lambda k: measure_setup(workload, seed, scratch / f"setup{k}"))
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        if workload == "flow":
            print(f"omega_deviation (reported, not gated): max {stats.omega_deviation:.3e}")
        for failure in runner.failures[:20]:
            print(f"FAILED {failure}")
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
        return {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _import_package()
        inputs = Path(args.setup_probe)
        workloads.generate(args.workload, args.seed, inputs)
        workloads.load_jobs(args.workload, inputs, inputs / "out")
        print(repr(time.time()))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
