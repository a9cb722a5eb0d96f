"""Min-norm interpolation of +-1 labels in kernel space, and its evaluation.

Targets are a length-N vector and a model has one scalar output per row.
Predictions take rows: an (n, d) array, where a 1-D row is a batch of one.
Test accuracy is the sign readout of those outputs, a 0 output read as +1.
Every fit starts from the zero function and its weights live in the row span
of the training features, so a model is its KernelSystem (prepared training
rows and the Cholesky factor of their Gram, held as its packed row panels
in about N (N + 1) / 2 floats, with no copy of the Gram) plus
the dual coefficients c = K^{-1} g of the labels g. The fit turns c once into
the primal weights w = Phi^T c (O(N p)), a k-vector for random features and a
d x k matrix for tangent features, and measures its interpolation by the
residual Phi w - g of those weights on the training rows (O(N p)).
Predictions are the map's outputs at those weights, O(n p) for n queries,
with no n x N cross kernel, so they need neither the factor nor the prepared
rows. Alignments and the spectrum are read off the KernelSystem; a caller
that has read them scores on ``TrainedModel.predictor``, the map and weights
alone, and drops the model, so the factor is freed before the queries are
drawn. A prediction of n rows needs O(block k) transient memory, not the
n x k features of its queries. For random features a model holds its N x k
training features once. No ridge term is ever added: a singular kernel is a
hard error because every downstream identity presumes exact interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, sign_readout
from .errors import DimensionMismatch
from .linops import KernelSystem


@dataclass
class FitReport:
    """How closely the fit interpolates its labels: the largest entry of
    Phi w - g, the predictor's own outputs on its training rows against their
    labels, read off the prepared rows in O(N p). The spectrum of its Gram is
    read from ``model.system.cache``, where lambda_max is paid for only when
    read.
    """

    max_residual: float


@dataclass
class EvalReport:
    """Monte-Carlo estimate of the squared-residual risk plus sign-readout accuracy."""

    error: float
    accuracy: float


@dataclass(eq=False)
class Predictor:
    """The fitted function f(z) = phi(z) . w alone: the map, the primal
    weights and the number of rows they were fitted on. It holds no training
    rows and no factor, so it outlives the KernelSystem of its fit.
    """

    map: object
    weights: np.ndarray
    n_train: int

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Model outputs as a 1-D array, one per row; a 1-D row is a batch of one."""
        return self.map.outputs(rows, self.weights)


@dataclass(eq=False)
class TrainedModel:
    """Interpolating fit: predictions are f(z) = phi(z) . w with the primal
    weights w = Phi^T c, which equals k_z . c.

    Every fit starts from the zero function, by the doubling argument (Chizat,
    Oyallon & Bach, arXiv:1812.07956): pairing each neuron (w, a) with an
    antithetic twin (w, -a) makes the network's initial output vanish
    identically and doubles the tangent kernel to 2K, so the min-norm
    predictor 2K(z, Z) (2K)^{-1} g of the doubled network is exactly this
    one. Starting instead at a tangent map's own initialization vec(W0)
    leaves the alignment and the stability identity as they are (gamma_mean
    is equal under both starts), but at k=64, d=256 the linearized initial
    output has mean about 62 against +-1 labels, and test and attack
    accuracy fall to chance (0.49-0.54).
    """

    system: KernelSystem
    dual_coefs: np.ndarray
    weights: np.ndarray
    report: FitReport

    @property
    def map(self):
        return self.system.map

    @property
    def n_train(self) -> int:
        return self.system.n

    def predictor(self) -> Predictor:
        """This fit's predictor, which keeps neither the factor nor the
        prepared rows alive."""
        return Predictor(self.map, self.weights, self.n_train)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Model outputs as a 1-D array, one per row; a 1-D row is a batch of one."""
        return self.predictor().predict(rows)


def fit_min_norm(fmap, dataset: LabeledDataset) -> TrainedModel:
    """Interpolating fit of least parameter norm.

    An empty dataset gives the zero model. The targets must be a vector of
    one label per row.
    """
    targets = np.asarray(dataset.g, dtype=float)
    if targets.shape != (dataset.n,):
        raise DimensionMismatch(
            f"targets of shape {targets.shape} are not a vector of {dataset.n} labels"
        )
    system = KernelSystem.build(fmap, dataset.z)
    coefs = system.solve(targets)
    weights = system.prepared.weights(coefs)
    residuals = system.prepared.outputs(weights) - targets
    report = FitReport(max_residual=float(np.max(np.abs(residuals))) if residuals.size else 0.0)
    return TrainedModel(system=system, dual_coefs=coefs, weights=weights, report=report)


def generalization_error(model: Predictor | TrainedModel, test: LabeledDataset) -> EvalReport:
    """Mean squared residual and sign-readout accuracy on an independent test draw."""
    outputs = model.predict(test.z)
    labels = np.asarray(test.g, dtype=float)
    return EvalReport(
        error=float(np.mean((outputs - labels) ** 2)),
        accuracy=float(np.mean(sign_readout(outputs) == labels)),
    )
