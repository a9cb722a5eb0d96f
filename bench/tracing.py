"""Per-layer spans recorded from outside the package.

The benchmark treats ``reconstab`` as a black box: for the length of a traced
rep it wraps the public entry points of each module (module functions, methods
of the public classes, and methods of the object that ``prepare`` returns) and
puts the originals back afterwards. Nothing inside ``src/`` is traced.

A span's self time is its duration minus the durations of its child spans.
Diagnostics that cost work of their own (solve residuals, alignment margins)
run with the clock paused, so they add to no span. An entry point that does
not exist leaves its metrics out of the result instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "reconstab"

# (span name, module, entry point). A "Class.method" entry patches the class;
# a bare function is replaced under every name that binds it in the package.
ENTRY_POINTS = (
    ("featuremaps.prepare", "featuremaps", "RFMap.prepare"),
    ("featuremaps.prepare", "featuremaps", "NTKMap.prepare"),
    ("featuremaps.cross", "featuremaps", "RFMap.kernel"),
    ("featuremaps.cross", "featuremaps", "NTKMap.kernel"),
    ("linops.factor", "linops", "KernelSolveCache.factor"),
    ("linops.solve", "linops", "KernelSolveCache.solve"),
    ("trainer.fit", "trainer", "fit_min_norm"),
    ("trainer.eval", "trainer", "generalization_error"),
    ("alignment.context", "alignment", "AlignmentSolver.__init__"),
    ("alignment.trial", "alignment", "AlignmentSolver.alignment_parts"),
    ("alignment.gamma", "alignment", "estimate_gamma_on_instance"),
    ("attack.query_batch", "attack", "build_query_batch"),
    ("attack.run", "attack", "run_attack"),
    ("attack.covariance", "attack", "covariance_diagnostic"),
    ("data.generate", "data", "generate_synthetic"),
    ("hermite.coefficients", "hermite", "hermite_coefficients"),
    ("harness.row", "harness", "run_sweep"),
)

# Methods of the prepared-rows object that ``prepare`` returns. Its class is
# reached through the returned object, so renaming it loses no metric.
PREPARED_METHODS = (
    ("featuremaps.gram", "gram"),
    ("featuremaps.cross", "cross"),
    ("featuremaps.cross", "kernel_vector"),
)


@dataclass
class Span:
    name: str
    depth: int
    duration: float = 0.0
    self_time: float = 0.0


@dataclass
class Trace:
    """Spans and layer observations of one traced rep."""

    spans: list = field(default_factory=list)
    present: set = field(default_factory=set)
    gram_flop: float = 0.0
    condition: list = field(default_factory=list)
    solve_rhs: int = 0
    solve_resid: list = field(default_factory=list)
    den_margin: list = field(default_factory=list)
    hermite_nodes: list = field(default_factory=list)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def wall(self) -> float:
        """Duration of the outermost span: the traced wall time of the rep."""
        return sum(s.duration for s in self.spans if s.depth == 0)

    def top_level_time(self) -> float:
        """Summed durations of the spans directly under the outermost span."""
        return sum(s.duration for s in self.spans if s.depth == 1)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric, the end-to-end metric it should move, and the
    workloads on which it should move it (and those on which it should not).
    """

    name: str
    unit: str
    better: str
    needs: str
    moves: str
    shows_on: str
    quiet_on: str
    value: object

    def of(self, trace: Trace):
        if self.needs not in trace.present:
            return None
        return self.value(trace)


def _self(name):
    return lambda t: t.self_time(name)


def _calls(name):
    return lambda t: float(t.calls(name))


def _mean_ms(name):
    def value(t):
        spans = t.named(name)
        return 1000.0 * sum(s.duration for s in spans) / len(spans) if spans else None

    return value


SWEEPS = "sweep-rf,sweep-ntk"
ALL = "sweep-rf,sweep-ntk,covariance-rf"

# "_s" metrics are self times summed over a rep; alignment.trial_ms is the mean
# inclusive time of one alignment query. "moves" names the end-to-end metrics a
# change to the layer should move, "shows_on" the workloads where it should,
# "quiet_on" those where it should barely move.

LAYER_METRICS = (
    LayerMetric("featuremaps.prepare_s", "s", "lower", "featuremaps.prepare", "wall_s,peak_rss_mb",
                "sweep-rf", "sweep-ntk", _self("featuremaps.prepare")),
    LayerMetric("featuremaps.prepare_calls", "count", "lower", "featuremaps.prepare", "wall_s",
                ALL, "", _calls("featuremaps.prepare")),
    LayerMetric("featuremaps.gram_s", "s", "lower", "featuremaps.gram", "wall_s",
                "sweep-rf", "sweep-ntk", _self("featuremaps.gram")),
    LayerMetric("featuremaps.gram_calls", "count", "lower", "featuremaps.gram", "wall_s",
                ALL, "", _calls("featuremaps.gram")),
    LayerMetric("featuremaps.gram_gflop", "GFLOP", "lower", "featuremaps.gram", "wall_s",
                "sweep-rf", "sweep-ntk", lambda t: t.gram_flop / 1e9),
    LayerMetric("featuremaps.cross_s", "s", "lower", "featuremaps.cross", "wall_s,peak_rss_mb",
                "sweep-rf", "sweep-ntk", _self("featuremaps.cross")),
    LayerMetric("featuremaps.cross_calls", "count", "lower", "featuremaps.cross", "wall_s",
                "covariance-rf,sweep-rf", "sweep-ntk", _calls("featuremaps.cross")),
    LayerMetric("linops.factor_s", "s", "lower", "linops.factor", "wall_s",
                "sweep-ntk,covariance-rf", "sweep-rf", _self("linops.factor")),
    LayerMetric("linops.factor_calls", "count", "lower", "linops.factor", "wall_s",
                "sweep-ntk,covariance-rf", "", _calls("linops.factor")),
    LayerMetric("linops.solve_s", "s", "lower", "linops.solve", "wall_s",
                ALL, "", _self("linops.solve")),
    LayerMetric("linops.solve_calls", "count", "lower", "linops.solve", "wall_s",
                ALL, "", _calls("linops.solve")),
    LayerMetric("linops.solve_rhs", "count", "lower", "linops.solve", "wall_s",
                ALL, "", lambda t: float(t.solve_rhs)),
    LayerMetric("linops.condition", "ratio", "lower", "linops.factor", "",
                ALL, "", lambda t: max(t.condition) if t.condition else None),
    LayerMetric("linops.solve_resid_max", "ratio", "lower", "linops.solve", "",
                ALL, "", lambda t: max(t.solve_resid) if t.solve_resid else None),
    LayerMetric("trainer.fit_s", "s", "lower", "trainer.fit", "wall_s",
                "covariance-rf", SWEEPS, _self("trainer.fit")),
    LayerMetric("trainer.fit_calls", "count", "lower", "trainer.fit", "wall_s",
                "covariance-rf", SWEEPS, _calls("trainer.fit")),
    LayerMetric("trainer.eval_s", "s", "lower", "trainer.eval", "wall_s",
                SWEEPS, "covariance-rf", _self("trainer.eval")),
    LayerMetric("alignment.context_s", "s", "lower", "alignment.context", "wall_s",
                SWEEPS, "covariance-rf", _self("alignment.context")),
    LayerMetric("alignment.gamma_s", "s", "lower", "alignment.gamma", "wall_s",
                "sweep-rf", "sweep-ntk", _self("alignment.gamma")),
    LayerMetric("alignment.trial_ms", "ms", "lower", "alignment.trial", "wall_s",
                "sweep-rf", "sweep-ntk", _mean_ms("alignment.trial")),
    LayerMetric("alignment.den_margin_min", "ratio", "higher", "alignment.trial", "",
                ALL, "", lambda t: min(t.den_margin) if t.den_margin else None),
    LayerMetric("attack.query_batch_s", "s", "lower", "attack.query_batch", "wall_s",
                SWEEPS, "covariance-rf", _self("attack.query_batch")),
    LayerMetric("attack.run_s", "s", "lower", "attack.run", "wall_s",
                SWEEPS, "covariance-rf", _self("attack.run")),
    LayerMetric("attack.covariance_s", "s", "lower", "attack.covariance", "wall_s",
                "covariance-rf", SWEEPS, _self("attack.covariance")),
    LayerMetric("data.generate_s", "s", "lower", "data.generate", "wall_s",
                SWEEPS, "covariance-rf", _self("data.generate")),
    LayerMetric("data.generate_calls", "count", "lower", "data.generate", "wall_s",
                SWEEPS, "covariance-rf", _calls("data.generate")),
    LayerMetric("hermite.coefficients_s", "s", "lower", "hermite.coefficients", "setup_s,wall_s",
                "covariance-rf", SWEEPS, _self("hermite.coefficients")),
    LayerMetric("hermite.nodes", "count", "lower", "hermite.coefficients", "setup_s,wall_s",
                "covariance-rf", SWEEPS, lambda t: float(max(t.hermite_nodes, default=0))),
    LayerMetric("harness.row_s", "s", "lower", "harness.row", "",
                SWEEPS, "covariance-rf", _self("harness.row")),
)

# computed from the untraced and traced walls of a whole run, not one trace
HARNESS_METRICS = (
    ("harness.unaccounted_s", "s", "lower"),
    ("harness.trace_overhead_s", "s", "lower"),
)


def metric_units() -> dict:
    units = {m.name: m.unit for m in LAYER_METRICS}
    units.update({name: unit for name, unit, _ in HARNESS_METRICS})
    return units


def summarize(traces: list, untraced_walls: list) -> dict:
    """Median of each per-layer metric over the traced reps of one run.

    unaccounted: the untraced rep's wall time minus the top-level spans of
    the traced rep. trace overhead: traced minus untraced wall time.
    """
    out = {}
    for metric in LAYER_METRICS:
        values = [v for v in (metric.of(t) for t in traces) if v is not None]
        if values:
            out[metric.name] = statistics.median(values)
    untraced = statistics.median(untraced_walls)
    out["harness.unaccounted_s"] = untraced - statistics.median(
        t.top_level_time() for t in traces
    )
    out["harness.trace_overhead_s"] = statistics.median(t.wall() for t in traces) - untraced
    return out


def _package_modules():
    prefix = PACKAGE + "."
    return [m for name, m in list(sys.modules.items()) if name.startswith(prefix) and m]


def _wrap_raw(raw, make):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    return make(raw)


class Patcher:
    """Replaces attributes, and restores every one of them on ``restore``."""

    def __init__(self):
        self._saved = []

    def _set(self, owner, name: str, old, new) -> None:
        self._saved.append((owner, name, old))
        setattr(owner, name, new)

    def patch_attr(self, cls: type, name: str, make) -> bool:
        """Wrap a method defined on the class itself."""
        raw = cls.__dict__.get(name)
        if raw is None:
            return False
        self._set(cls, name, raw, _wrap_raw(raw, make))
        return True

    def patch_entry(self, module: str, path: str, make) -> bool:
        """Wrap one entry point; False when it does not exist."""
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            return isinstance(cls, type) and self.patch_attr(cls, attr, make)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return False
        # one wrapper under every binding, so a later patch finds them all by identity
        wrapped = make(fn)
        for m in _package_modules():
            for name, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, name, fn, wrapped)
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def _fit_record(dataset, model):
    """(max_residual, max|target|) of a fit, or None if it reports neither."""
    resid = getattr(getattr(model, "report", None), "max_residual", None)
    g = np.asarray(getattr(dataset, "g", ()), dtype=float)
    if resid is None or g.size == 0:
        return None
    return float(resid), float(np.max(np.abs(g)))


@contextlib.contextmanager
def capture_fits(sink: list):
    """Append the ``_fit_record`` of every min-norm fit to ``sink``.

    It takes no timings and costs one call per fit, so untraced reps use it.
    Entered inside ``Tracer.installed`` it wraps the tracer's wrapper.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(fmap, dataset, *args, **kwargs):
            model = fn(fmap, dataset, *args, **kwargs)
            record = _fit_record(dataset, model)
            if record is not None:
                sink.append(record)
            return model

        return wrapper

    patcher = Patcher()
    try:
        patcher.patch_entry("trainer", "fit_min_norm", make)
        yield
    finally:
        patcher.restore()


@dataclass
class _Frame:
    index: int
    start: float
    paused_at_start: float
    child_time: float = 0.0


# observers see malformed results only if the package changed shape; such a
# change drops the observation instead of failing the run
_OBSERVER_ERRORS = (AttributeError, LookupError, TypeError, ValueError)


class Tracer:
    """Records spans while ``installed`` is active; one tracer per rep.

    Not thread-safe: the workloads run their sweeps with one worker.
    """

    def __init__(self):
        self.trace = Trace()
        self._stack: list[_Frame] = []
        self._paused_total = 0.0
        self._pausing = False
        self._patcher = Patcher()
        self._prepared_types: set = set()

    @contextlib.contextmanager
    def installed(self):
        observers = {
            "featuremaps.prepare": self._observe_prepare,
            "linops.factor": self._observe_factor,
            "linops.solve": self._observe_solve,
            "alignment.trial": self._observe_alignment,
            "hermite.coefficients": self._observe_hermite,
        }
        try:
            for name, module, path in ENTRY_POINTS:
                if self._patcher.patch_entry(module, path, self._maker(name, observers.get(name))):
                    self.trace.present.add(name)
            yield self.trace
        finally:
            self._patcher.restore()
            self._prepared_types.clear()

    def _maker(self, name: str, observe=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._pausing:
                    return fn(*args, **kwargs)
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit()
                if observe is not None:
                    with self._paused():
                        try:
                            observe(args, result)
                        except _OBSERVER_ERRORS:
                            pass
                return result

            return wrapper

        return make

    def _enter(self, name: str) -> None:
        self.trace.spans.append(Span(name, len(self._stack)))
        self._stack.append(
            _Frame(len(self.trace.spans) - 1, time.perf_counter(), self._paused_total)
        )

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start - (self._paused_total - frame.paused_at_start)
        span = self.trace.spans[frame.index]
        span.duration = duration
        span.self_time = duration - frame.child_time
        if self._stack:
            self._stack[-1].child_time += duration

    @contextlib.contextmanager
    def _paused(self):
        start = time.perf_counter()
        self._pausing = True
        try:
            yield
        finally:
            self._pausing = False
            self._paused_total += time.perf_counter() - start

    # observers run paused, with the entry point's positional arguments and result

    def _observe_prepare(self, args, prepared) -> None:
        cls = type(prepared)
        if cls in self._prepared_types:
            return
        self._prepared_types.add(cls)
        for name, method in PREPARED_METHODS:
            observe = self._observe_gram if method == "gram" else None
            if self._patcher.patch_attr(cls, method, self._maker(name, observe)):
                self.trace.present.add(name)

    def _observe_gram(self, args, kernel) -> None:
        # multiply-adds of the Gram products: Phi Phi^T for RF, and
        # (Z Z^T) * (B B^T) with B = act'(Z W0^T) for the lazy tangent features
        fmap = args[0].map
        n = np.shape(kernel)[0]
        inner = {"rf": fmap.k, "ntk": fmap.k + fmap.d}[fmap.kind]
        self.trace.gram_flop += 2.0 * n * n * inner

    def _observe_factor(self, args, cache) -> None:
        self.trace.condition.append(float(cache.condition))

    def _observe_solve(self, args, x) -> None:
        cache, b = args[0], np.asarray(args[1], dtype=float)
        self.trace.solve_rhs += 1 if b.ndim == 1 else b.shape[1]
        # normwise backward error |Kx - b| / (|K| |x| + |b|) in the infinity norm
        matrix = cache.matrix
        resid = float(np.max(np.abs(matrix @ x - b)))
        scale = float(np.max(np.sum(np.abs(matrix), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b)))
        self.trace.solve_resid.append(resid / scale if scale > 0 else 0.0)

    def _observe_alignment(self, args, parts) -> None:
        # margin of the denominator over the guard that raises DegenerateDenominator
        solver, z1 = args[0], args[2]
        guard = importlib.import_module(f"{PACKAGE}.alignment").DENOMINATOR_GUARD
        scale = solver.map.kernel(z1, z1)
        self.trace.den_margin.append(float(parts[1]) / (guard * scale) if scale > 0 else math.inf)

    def _observe_hermite(self, args, spectrum) -> None:
        self.trace.hermite_nodes.append(int(spectrum.nodes))
