"""The benchmark's workloads, their output checks, and the timed rep loop.

Each workload drives the public API only: ``parse_config``/``run_sweep`` or
``covariance_diagnostic``. Its inputs are a pure function of the seed, so
every rep of a run computes the same thing, and a rep's output is checked
after its timer stops.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field, fields

import numpy as np

from reconstab import attack, harness
from reconstab.errors import ReconstabError
from reconstab.hermite import get_activation

import tracing

# a fit interpolates when its largest residual stays below this share of 1 + max|g|
FIT_RESIDUAL_TOL = 1e-8
# the first covariance equality holds when its gap is within this many combined SEs
GAP_SES = 3.0
# size of the SPD matrix the set-up factors once, so the first LAPACK call
# (loading and initialising the library) is paid in setup_s, not wall_s
WARMUP_SIZE = 512


@dataclass
class Tally:
    """Operations and output checks attempted and failed over a run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check_fits(fits: list, tally: Tally) -> None:
    """Every captured fit interpolates its targets."""
    if fits:
        worst = max(resid / (1.0 + scale) for resid, scale in fits)
        tally.record(worst <= FIT_RESIDUAL_TOL, f"fit residual {worst:.3e} x (1 + max|g|)")


def check_rows(rows, tally: Tally) -> None:
    """Each sweep row is an operation; it fails when its error column is set."""
    for row in rows:
        tally.record(row.error == "", f"row n={row.n} trial={row.trial}: {row.error}")
        if row.error == "":
            tally.record(_finite(row.gamma_mean, row.gamma_std),
                         f"row n={row.n}: gamma {row.gamma_mean}, {row.gamma_std}")


def check_covariance(result, tally: Tally) -> None:
    """The diagnostic is an operation; its fields must be finite and its
    first equality must hold within GAP_SES combined standard errors.
    """
    tally.record(not isinstance(result, ReconstabError), f"covariance raised {result!r}")
    if isinstance(result, ReconstabError):
        return
    values = [getattr(result, f.name) for f in fields(result)]
    tally.record(_finite(*values), f"covariance fields not finite: {result}")
    gap, se = result.first_equality_gap, result.combined_se
    tally.record(gap <= GAP_SES * se, f"covariance gap {gap:.4g} > {GAP_SES} x {se:.4g}")


class SweepJob:
    """One ``run_sweep`` over a config built from the seed."""

    def __init__(self, params: dict, seed: int):
        self.config = harness.parse_config(dict(params, master_seed=seed))

    def run(self):
        # entry points are looked up on their modules at call time, so the
        # tracer's wrappers see the calls made from here
        return harness.run_sweep(self.config, workers=1)

    check = staticmethod(check_rows)


class CovarianceJob:
    """One ``covariance_diagnostic`` with its master seed taken from the seed."""

    def __init__(self, params: dict, seed: int):
        params = dict(params, master_seed=seed)
        self.activation = get_activation(params.pop("activation"))
        self.args = params

    def run(self):
        try:
            return attack.covariance_diagnostic(activation=self.activation, **self.args)
        except ReconstabError as exc:
            return exc

    check = staticmethod(check_covariance)


@dataclass(frozen=True)
class Workload:
    name: str
    job: type
    params: dict


# why each workload is here: the "why" of each in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-rf", SweepJob,
                 dict(model="rf", k=4000, d_x=200, d_y=200, activation="h1+h2",
                      n_grid=[1500], trials=1, gamma_trials=20, test_size=1000)),
        Workload("sweep-ntk", SweepJob,
                 dict(model="ntk", k=64, d_x=128, d_y=128, activation="h0+h1",
                      n_grid=[3000], trials=1, gamma_trials=2, test_size=1000)),
        Workload("covariance-rf", CovarianceJob,
                 dict(activation="h1+h2", kind="rf", k=600, n=200, d_x=100, d_y=100,
                      trials=300)),
    )
}


def warm_up() -> None:
    a = np.random.default_rng(0).standard_normal((WARMUP_SIZE, WARMUP_SIZE))
    spd = a @ a.T + WARMUP_SIZE * np.eye(WARMUP_SIZE)
    np.linalg.eigvalsh(spd)
    chol = np.linalg.cholesky(spd)
    np.linalg.solve(chol, a[:, 0])


def setup(workload: Workload, seed: int):
    """Everything before the first timed rep: inputs and the LAPACK warm-up.

    Returns the job: ``run`` does the timed work, ``check`` judges its output.
    """
    job = workload.job(workload.params, seed)
    warm_up()
    return job


@dataclass
class RunResult:
    tally: Tally
    walls: list  # untraced reps
    traces: list  # traced reps, empty in an untraced run


def _run_checked(job, tally: Tally, tracer=None):
    """One rep, timed; its output and every fit it made are checked after
    the timer stops.
    """
    fits: list = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(tracing.capture_fits(fits))
        t0 = time.perf_counter()
        output = job.run()
        wall = time.perf_counter() - t0
    job.check(output, tally)
    check_fits(fits, tally)
    return wall


def measure(job, seconds: float, trace: bool) -> RunResult:
    """Repeat the job until another rep would overrun ``seconds`` (at least one).

    Untraced, each rep is timed whole. Traced, each step is an untraced rep
    followed by a traced one on the same inputs, so their difference is the
    tracing overhead.
    """
    tally = Tally()
    walls, traces = [], []
    step_times = []
    started = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        walls.append(_run_checked(job, tally))
        if trace:
            tracer = tracing.Tracer()
            _run_checked(job, tally, tracer)
            traces.append(tracer.trace)
        now = time.perf_counter()
        step_times.append(now - step_start)
        if now - started + statistics.median(step_times) > seconds:
            break
    return RunResult(tally=tally, walls=walls, traces=traces)
