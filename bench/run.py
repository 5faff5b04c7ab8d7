"""Benchmark of the gupnlse package, run from the root of a source checkout.

    python3 bench/run.py --workload stationary --seed 0 --seconds 40 --trace 0

Imports ``gupnlse`` from the checkout's ``src/`` (and from nowhere else),
repeats passes over the calls of one workload for ``--seconds`` seconds,
verifies every call and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  ``--smoke`` runs tiny configurations.  The
workloads are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("stationary", "evolve", "check")
# set-up probes per run, spread evenly over it
SETUP_PROBES = 10
# one BLAS/OpenMP thread: steadier figures on a shared machine, and the
# same setting on every commit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny configurations")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def prepare_environment() -> None:
    """Cap threads and make ``import gupnlse`` resolve to the checkout."""
    if not (SRC / "gupnlse" / "__init__.py").is_file():
        raise SystemExit(f"error: no gupnlse sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    sys.path[:0] = [str(SRC), str(BENCH)]


def probe_setup(args) -> None:
    """Time the import of gupnlse and the building of the workload's inputs."""
    t0 = time.perf_counter()
    import gupnlse  # noqa: F401  (numpy and scipy come with it)
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.smoke)
    print(time.perf_counter() - t0)


def measure_setup(args) -> float:
    """Set-up time of one fresh interpreter, from the import of gupnlse on."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    if shutil.which("getconf") is None:
        return {}
    proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
    sizes = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def environment(args) -> dict:
    import numpy
    import scipy

    import gupnlse

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gupnlse": gupnlse.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "cache_bytes": _cache_sizes(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Runner:
    """Runs, times and verifies passes over the calls of one workload."""

    def __init__(self, calls, workdir: Path, tracer=None):
        self.calls = calls
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = [[] for _ in calls]  # per call: (seconds, work, clean), untraced
        self.pass_walls = []  # untraced pass times

    def one_pass(self, traced: bool = False, record: bool = True) -> None:
        from workloads import PassResult

        outdir = self.workdir / "pass"
        shutil.rmtree(outdir, ignore_errors=True)
        dirs = [outdir / f"call{i}" for i in range(len(self.calls))]
        for d in dirs:
            d.mkdir(parents=True)
        if traced:
            self.tracer.install()
            self.tracer.begin_pass()
        outcomes = []
        for call, d in zip(self.calls, dirs):
            t0 = time.perf_counter()
            try:
                raw, error = call.run(d), None
            except Exception:  # a crashed call is a failed call; keep measuring
                raw, error = None, traceback.format_exc()
            outcomes.append((raw, error, time.perf_counter() - t0))
        if traced:
            self.tracer.end_pass()
            self.tracer.uninstall()
        total = PassResult(attempted=0)
        for i, (call, d, (raw, error, seconds)) in enumerate(zip(self.calls, dirs, outcomes)):
            if error is None:
                result = call.verify(raw, d)
            else:
                result = PassResult(attempted=call.operations, failed=call.operations,
                                    problems=[f"{call.label}: {error}"])
            total.merge(result)
            if record and not traced:
                self.samples[i].append((seconds, result.work, result.failed == 0))
        if traced:
            self.tracer.counts[-1].update(total.counts)
        elif record:
            self.pass_walls.append(sum(seconds for _, _, seconds in outcomes))
        self.attempted += total.attempted
        self.failed += total.failed
        self.problems += total.problems


def end_to_end(runner: Runner, setup_times: list) -> dict:
    """A pass's time on an unloaded machine: the sum over the workload's
    calls of each call's fastest clean run.  On a shared machine the speed
    switches between states within seconds, so the mean or median of whole
    passes follows how busy the neighbours were; the fastest of many short
    calls does not.  A failed call never counts as a clean one; with none
    clean, the result is flagged incorrect and every run of the call counts."""
    wall = work = 0.0
    for samples in runner.samples:
        seconds, done, _ = min([s for s in samples if s[2]] or samples)
        wall += seconds
        work += done
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - runner.failed / runner.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    if args.probe_setup:
        probe_setup(args)
        return 0

    from spans import UNITS, Tracer
    from workloads import WORKLOADS

    print("# env " + json.dumps(environment(args), sort_keys=True), flush=True)
    calls = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(calls, workdir, Tracer() if args.trace else None)
    unsteady = []
    try:
        start = time.perf_counter()
        if args.trace:
            runner.one_pass(record=False)  # warm-up: lazy set-up, caches
            start = time.perf_counter()
            traced = False
            while (time.perf_counter() - start < args.seconds
                   or not runner.pass_walls or not runner.tracer.roots):
                runner.one_pass(traced=traced)
                traced = not traced
            metrics, unsteady = runner.tracer.layer_metrics(runner.pass_walls)
            units = UNITS
        else:
            setup_times = []
            while (elapsed := time.perf_counter() - start) < args.seconds or not runner.attempted:
                if (len(setup_times) < SETUP_PROBES
                        and elapsed >= len(setup_times) * args.seconds / SETUP_PROBES):
                    setup_times.append(measure_setup(args))
                runner.one_pass()
            metrics = end_to_end(runner, setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem, times in Counter(runner.problems).most_common(10):
        print(f"gate failed in {times} calls: {problem}", file=sys.stderr)
    for key in unsteady:
        print(f"count {key} differed between passes", file=sys.stderr)
    traced = len(runner.tracer.roots) if args.trace else 0
    walls = sorted(runner.pass_walls)
    print(f"# {args.workload}: {len(walls)} untraced passes (pass time min {walls[0]:.4f}, "
          f"median {statistics.median(walls):.4f}, max {walls[-1]:.4f}), {traced} traced "
          f"passes, {runner.attempted} operations, {runner.failed} failed", flush=True)
    for call, samples in zip(calls, runner.samples):
        times = sorted(s for s, _, _ in samples)
        print(f"#   {call.label}: fastest {times[0]:.4f} s, median {statistics.median(times):.4f} s "
              f"over {len(times)} runs", flush=True)
    result = {
        "correct": runner.failed == 0 and not unsteady,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
