"""Masked-query reconstruction attack and its covariance diagnostics.

The attacker queries the trained model with each training row's mask
z_i^m = [x, y_i] (the informative block replaced, the noise block kept
bit-exactly) and reads the +-1 label off the sign of the scalar output, a
0 output read as +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentSolver, attacked_instance, sample_alignments
from .data import LabeledDataset, mask_rows, sign_readout
from .errors import DimensionMismatch
from .hermite import ActivationSpec
from .trainer import Predictor, TrainedModel, fit_min_norm


def build_query_batch(dataset: LabeledDataset, mask: str, seed: int) -> np.ndarray:
    """The masked query of every training row, one row each."""
    return mask_rows(dataset.z, dataset.d_x, mask, seed)


def run_attack(model: Predictor | TrainedModel, queries: np.ndarray, labels: np.ndarray) -> float:
    """Attack accuracy: the fraction of the +-1 training labels read off the masked queries."""
    labels = np.asarray(labels)
    n = len(queries)
    if n != model.n_train or n != len(labels):
        raise DimensionMismatch(
            f"batch of {n} rows does not match model fitted on "
            f"{model.n_train} samples with {len(labels)} labels"
        )
    return float(np.mean(sign_readout(model.predict(queries)) == labels))


def _covariance(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Empirical covariance and a delta-method standard error."""
    products = (a - a.mean()) * (b - b.mean())
    cov = float(products.mean())
    se = float(np.std(products, ddof=1) / math.sqrt(len(products)))
    return cov, se


@dataclass
class CovarianceDiagnostic:
    """Joint statistics of the attack output and the hidden label.

    Per trial (one attacked pair from ``data.attacked_pairs``), the attack
    output at the masked query z1m is the fit on [z1; background], which the
    stability identity writes as
    f_-1(z1m) + F(z1m, z1) * S(z1) with S(z1) = g1 - f_-1(z1); stability is
    S(z1) and gamma_mean averages F(z1m, z1). The tested equality is
    Cov(attack output, label) = gamma_mean * Cov(S, label): first_equality_gap
    is the absolute difference of its sides and combined_se their combined
    standard error.

    No bound on the covariance is reported. Its square-root reading,
    gamma * sqrt(Var S * Var g), follows from the equality by Cauchy-Schwarz,
    which holds for every sample, so checking it adds nothing; the reading
    without the square root cannot be checked against the paper from its
    abstract alone.
    """

    gamma_mean: float
    cov_attack: float
    se_cov_attack: float
    cov_stability: float
    first_equality_gap: float
    combined_se: float


def covariance_diagnostic(
    kind: str,
    activation: ActivationSpec,
    k: int,
    n: int,
    d_x: int,
    d_y: int,
    trials: int,
    master_seed: int,
    mask: str = "resample",
    fmap=None,
) -> CovarianceDiagnostic:
    """Estimate Cov(attack output, label) and its stability-side counterpart.

    The diagnostic runs on ``alignment.attacked_instance``, the instance of
    ``alignment.estimate_gamma``, so for the same arguments and the resampling
    mask gamma_mean is that estimate's mean. The background rows are fitted
    once. The fit on [z1; background] is never formed: by
    S(z) = F(z, z1) * S(z1) its output at the masked query is the background
    fit's output plus the alignment times the stability at z1, so the whole
    diagnostic runs on one factored background system, with one batched
    prediction on all z1 and one on all z1m. Every label is the teacher's:
    the background rows keep the labels they were drawn with.
    fmap injects a prebuilt feature map (bypassing sampling and the
    nonlinearity screen) for constructed scenarios such as feature maps that
    ignore the noise block. An attacked sample whose features lie in the
    background span raises DegenerateDenominator.
    """
    if trials < 10:
        raise ValueError("need at least 10 trials")
    fmap, _, teacher, background, z1, z1m = attacked_instance(
        kind, activation, k, n, d_x, d_y, trials, master_seed, mask, fmap
    )
    # one background system serves the leave-one-out model and the alignment
    loo_model = fit_min_norm(fmap, background)
    labels = teacher.labels(z1[:, :d_x])
    # the fit on [z1; background] interpolates g1
    stability = labels - loo_model.predict(z1)
    nums, dens = sample_alignments(AlignmentSolver(loo_model.system), z1, z1m)
    alignments = nums / dens
    attack_out = loo_model.predict(z1m) + alignments * stability

    gamma_mean = float(np.mean(alignments))
    cov_attack, se_attack = _covariance(attack_out, labels)
    cov_stab, se_stab = _covariance(stability, labels)
    combined = math.sqrt(se_attack**2 + (gamma_mean * se_stab) ** 2)
    return CovarianceDiagnostic(
        gamma_mean=gamma_mean,
        cov_attack=cov_attack,
        se_cov_attack=se_attack,
        cov_stability=cov_stab,
        first_equality_gap=abs(cov_attack - gamma_mean * cov_stab),
        combined_se=combined,
    )
