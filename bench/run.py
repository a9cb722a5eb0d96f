"""Benchmark of the reconstab package: sweep rows and the covariance diagnostic.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-rf --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One workload runs per process, so its set-up time and peak memory are its
own; ``all`` runs each workload in a fresh process and prints a summary. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced
(``--trace 0``), the per-layer metrics traced (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# BLAS threads per workload, capped by the CPUs this process may use. The
# sweeps factor N in the thousands and run faster and steadier on two threads;
# covariance-rf factors N=200 hundreds of times, where a second thread made
# reps slower (3.4 s against 3.2 s) and noisier (CV 10% against 6%).
BLAS_THREADS = {"sweep-rf": 2, "sweep-ntk": 2, "covariance-rf": 1}
WORKLOAD_NAMES = tuple(BLAS_THREADS)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
# set-up is timed in this many fresh processes; the median is setup_s
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads(workload: str) -> int:
    """Fix the BLAS thread count; takes effect only before numpy is imported."""
    threads = max(1, min(BLAS_THREADS[workload], nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: int) -> dict:
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": nproc(),
        "blas_threads": threads,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "sweep_workers": 1,
    }


def child_args(workload: str, seed: int, *extra: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *extra]


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it reports its set-up done."""
    start = time.perf_counter()
    proc = subprocess.Popen(child_args(workload, seed, "--setup-only"),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {code})")
    return elapsed


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process: its result object, printed by the caller."""
    setup_times = [] if trace else [time_setup(workload_name, seed) for _ in range(SETUP_SAMPLES)]

    import tracing
    import workloads

    job = workloads.setup(workloads.WORKLOADS[workload_name], seed)
    run = workloads.measure(job, seconds, trace)
    tally = run.tally
    if trace:
        units = tracing.metric_units()
        values = tracing.summarize(run.traces, run.walls)
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(run.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    traced_walls = " traced " + " ".join(f"{t.wall():.4f}" for t in run.traces) if trace else ""
    print(f"workload {workload_name} seed {seed} untraced walls "
          + " ".join(f"{w:.4f}" for w in run.walls) + traced_walls)
    print(f"  fail_ratio {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted})")
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then one summary line per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            child_args(name, seed, "--seconds", str(seconds), "--trace", str(int(trace))),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + seconds,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for name, res in results.items():
        ratio = res["failed"] / res["attempted"]
        shown = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:14s} {shown}  fail_ratio={ratio:.3g}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "reconstab" / "__init__.py").is_file():
        print(f"no reconstab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    threads = pin_blas_threads(args.workload)
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import workloads

        workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(threads)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
