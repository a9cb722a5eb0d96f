"""Seeded sweep execution over (N, trials) grids with deterministic CSV output.

Every row is a pure function of (config, master seed), for a fixed BLAS
library and thread count: data, map, test draw, mask, and alignment trials all
get independent derived seeds. Another BLAS thread count can change the last
digits of gamma_mean and gamma_std. Rows may be computed concurrently but are
always emitted in (N, trial) order, so the CSV bytes do not depend on the
worker count.

A row runs in two phases, as ``reconstab fit`` does. ``fit_instance`` draws
the instance and fits its training rows in dataset order. The row then reads
the fit's system for the alignment trials, whose background system is every
training row but the last, the leading block of the fit's system, so a row
factors one Gram. The rows are exchangeable, so which one is held out does
not matter. Only then does ``score_instance`` draw the test set and the
masked queries, on the fit's weights alone: the factor and the prepared rows
are freed first, so a row's memory peaks at its fit. The alignment trials
mask their attacked samples with the config's mask, as the attack does, so
gamma and attack_acc describe the same query.

The numerics' health and the row's wall time are kept apart from the CSV, in
a trace (``reconstab.trace``): under a recorder, ``run_sweep`` notes one line
per row, in CSV order, keyed by the row's N index, trial and data seed, with
lambda_min(K)/p of the row's Gram and the row's wall time in ms. A row reads
lambda_min only then, since it costs a Lanczos run to convergence, where the
rank guard stops its own run early (``linops.KernelSolveCache``).
"""

from __future__ import annotations

import contextvars
import csv
import json
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields

from . import trace
from .alignment import estimate_gamma_on_instance
from .attack import build_query_batch, run_attack
from .data import MASKS, LabeledDataset, generate_synthetic, sample_teacher
from .errors import ConfigError, ReconstabError
from .featuremaps import sample_map
from .hermite import ActivationSpec, get_activation
from .seeding import (
    ROLE_DATA,
    ROLE_GAMMA,
    ROLE_MAP,
    ROLE_MASK,
    ROLE_TEACHER,
    ROLE_TEST,
    derive_seed,
)
from .trainer import Predictor, fit_min_norm, generalization_error

_INTEGERS = ("k", "d_x", "d_y", "trials", "test_size", "gamma_trials", "master_seed")


def _is_integer(value) -> bool:
    """A JSON integer: bool is an int subclass in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """One sweep: a model family crossed with an N grid and repeated trials.

    For tangent-kernel models the activation name refers to the derivative of
    the network activation (that is what the feature map applies). Every fit
    starts from the zero function (see ``trainer.TrainedModel``), so the
    initialization is not a key.
    """

    model: str
    k: int
    d_x: int
    d_y: int
    activation: str
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    mask: str = "resample"
    test_size: int = 1000
    gamma_trials: int = 20

    def __post_init__(self) -> None:
        if self.model not in ("rf", "ntk"):
            raise ConfigError(f"model must be 'rf' or 'ntk', got {self.model!r}")
        for name in _INTEGERS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            low = 2 if name == "gamma_trials" else 1  # gamma_std needs two trials
            if name != "master_seed" and value < low:
                raise ConfigError(f"{name} must be >= {low}")
            if name != "master_seed" and value > sys.maxsize:  # numpy's index range
                raise ConfigError(f"{name} must be <= {sys.maxsize}")
        if not isinstance(self.n_grid, (list, tuple)) or not all(
            _is_integer(n) for n in self.n_grid
        ):
            raise ConfigError(f"n_grid must be a list of integers, got {self.n_grid!r}")
        grid = tuple(self.n_grid)
        if not grid:
            raise ConfigError("n_grid must not be empty")
        if any(n < 1 for n in grid):
            raise ConfigError("n_grid entries must be >= 1")
        if any(n > sys.maxsize for n in grid):
            raise ConfigError(f"n_grid entries must be <= {sys.maxsize}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        self.n_grid = grid
        if self.mask not in MASKS:
            raise ConfigError(f"mask must be one of {MASKS}, got {self.mask!r}")
        try:
            get_activation(self.activation)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        n_max = max(grid)
        if self.model == "rf" and self.k < n_max:
            warnings.warn(
                f"k={self.k} below the largest N={n_max}; the kernel may be singular",
                stacklevel=2,
            )
        if self.model == "ntk" and self.k * self.d < n_max:
            warnings.warn(
                f"k*d={self.k * self.d} below the largest N={n_max}; "
                "the kernel may be singular",
                stacklevel=2,
            )

    @property
    def d(self) -> int:
        return self.d_x + self.d_y

    @property
    def alpha(self) -> float:
        return self.d_y / self.d


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, rejecting a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated config key {key!r}")
        doc[key] = value
    return doc


def parse_config(source) -> ExperimentConfig:
    """Build a config from a dict or from the path of a JSON file.

    Unknown and repeated keys are a hard error: a misspelled or doubled
    theory-sensitive parameter must not silently fall back to a default or
    to its last value.
    """
    try:
        if isinstance(source, dict):
            doc = source
        else:
            with open(source, encoding="utf-8") as f:
                doc = json.load(f, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    keys = fields(ExperimentConfig)
    unknown = set(doc) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in keys if f.default is MISSING and f.name not in doc]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResultRow:
    model: str
    n: int
    alpha: float
    activation: str
    trial: int
    seed: int
    test_acc: float | None = None
    attack_acc: float | None = None
    gamma_mean: float | None = None
    gamma_std: float | None = None
    error: str = ""


RESULT_COLUMNS = [f.name for f in fields(ResultRow)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_rows(rows, stream) -> None:
    """RFC-4180 CSV with the exact ResultRow header."""
    writer = csv.writer(stream, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, name)) for name in RESULT_COLUMNS])


def write_trace(lines, stream) -> None:
    """The trace lines of ``run_sweep``, one JSON object per line."""
    stream.writelines(json.dumps(line) + "\n" for line in lines)


def fit_instance(
    kind: str, k: int, d_x: int, d_y: int, activation: ActivationSpec, n: int,
    master_seed: int, prefix: tuple[int, ...] = (),
):
    """Draw one instance and fit its n rows in dataset order.

    The teacher comes from [ROLE_TEACHER] of the master seed, so every
    instance of a seed shares it; the rows and map come from
    [*prefix, role]. Returns (dataset, model); the model holds its map.
    """
    teacher = sample_teacher(d_x, derive_seed(master_seed, [ROLE_TEACHER]))
    dataset = generate_synthetic(
        n, d_x, d_y, teacher, derive_seed(master_seed, [*prefix, ROLE_DATA])
    )
    fmap = sample_map(
        kind, k, d_x + d_y, activation, derive_seed(master_seed, [*prefix, ROLE_MAP])
    )
    return dataset, fit_min_norm(fmap, dataset)


def score_instance(
    predictor: Predictor, dataset: LabeledDataset, test_size: int, mask: str,
    master_seed: int, prefix: tuple[int, ...] = (),
):
    """Evaluate the fit of ``fit_instance`` on a test draw and attack it with
    the masked queries of its training rows; the test set and mask come from
    [*prefix, role]. Returns (evaluation, attack accuracy).

    It reads the predictor's map and weights alone, so a caller that passes
    ``TrainedModel.predictor()`` and drops the model scores without the
    factor or the prepared rows.
    """
    teacher = sample_teacher(dataset.d_x, derive_seed(master_seed, [ROLE_TEACHER]))
    test = generate_synthetic(
        test_size, dataset.d_x, dataset.d_y, teacher,
        derive_seed(master_seed, [*prefix, ROLE_TEST]),
    )
    evaluation = generalization_error(predictor, test)
    queries = build_query_batch(dataset, mask, derive_seed(master_seed, [*prefix, ROLE_MASK]))
    return evaluation, run_attack(predictor, queries, dataset.g)


def _run_point(config: ExperimentConfig, n_idx: int, trial: int) -> ResultRow:
    """One (N, trial) row. A ReconstabError, or numpy's MemoryError or
    ValueError for an array it cannot allocate, becomes the row's error.
    """
    master = config.master_seed
    n = config.n_grid[n_idx]
    identity = dict(
        model=config.model, n=n, alpha=config.alpha, activation=config.activation,
        trial=trial, seed=derive_seed(master, [n_idx, trial, ROLE_DATA]),
    )

    try:
        dataset, model = fit_instance(
            config.model, config.k, config.d_x, config.d_y,
            get_activation(config.activation), n, master, (n_idx, trial),
        )
        gamma_mean, gamma_std = estimate_gamma_on_instance(
            model.system.leading(n - 1), config.d_x, config.gamma_trials,
            derive_seed(master, [n_idx, trial, ROLE_GAMMA]), config.mask,
        )
        trace.note("lambda_min_over_scale",
                   lambda: model.system.cache.min_eig / model.map.n_params)
        predictor = model.predictor()
        del model  # frees the factor and the prepared rows before scoring
        evaluation, attack_acc = score_instance(
            predictor, dataset, config.test_size, config.mask, master, (n_idx, trial)
        )
    except (ReconstabError, MemoryError, ValueError) as exc:
        return ResultRow(**identity, error=f"{type(exc).__name__}: {exc}")
    return ResultRow(
        **identity,
        test_acc=evaluation.accuracy,
        attack_acc=attack_acc,
        gamma_mean=gamma_mean,
        gamma_std=gamma_std,
    )


def _traced_point(config: ExperimentConfig, n_idx: int, trial: int):
    """The row, and its trace line when the caller records (else None).
    lambda_min_over_scale is None for a row that failed before reading it.
    """
    if not trace.active():
        return _run_point(config, n_idx, trial), None
    started = time.perf_counter()
    with trace.recording() as notes:
        row = _run_point(config, n_idx, trial)
    # wall time goes to the trace alone: the CSV must be a pure function of
    # the config bytes
    row_ms = (time.perf_counter() - started) * 1000.0
    return row, dict(n_idx=n_idx, trial=trial, seed=row.seed,
                     lambda_min_over_scale=notes.get("lambda_min_over_scale"), row_ms=row_ms)


def run_sweep(config: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """All (N, trial) rows in (N, trial) order, whatever the worker count;
    row errors, allocation failures included, are recorded in the error
    column and never abort the sweep. Under a recorder it also notes
    ``sweep.rows``, the rows' trace lines in the same order.
    """
    points = [
        (n_idx, trial)
        for n_idx in range(len(config.n_grid))
        for trial in range(config.trials)
    ]
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # each row runs in a copy of this context, so it sees the
            # caller's recorder
            futures = [
                pool.submit(contextvars.copy_context().run, _traced_point, config, *point)
                for point in points
            ]
            results = [future.result() for future in futures]
    else:
        results = [_traced_point(config, *point) for point in points]
    trace.note("sweep.rows", [line for _, line in results])
    return [row for row, _ in results]
