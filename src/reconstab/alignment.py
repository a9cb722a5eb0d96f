"""Feature alignment between queries and a training sample, and its use as a
stability multiplier.

The alignment of z against z1, given the remaining training rows, is
    F(z, z1) = phi(z) . P_perp phi(z1) / ||P_perp phi(z1)||^2
with P_perp the projector orthogonal to the span of the remaining feature
rows. It is evaluated in kernel space against the KernelSystem of those rows:
    phi(a) . P_perp phi(z1) = K(a, z1) - k_a^T K_-1^{-1} k_{z1},
so one solve K_-1^{-1} k_{z1} serves numerator and denominator. Queries are
rows, and a single query is a batch of one; tangent features are never
materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import attacked_pairs, generate_synthetic, sample_teacher
from .errors import DegenerateDenominator, DegenerateSpectrum
from .featuremaps import sample_ntk_map, sample_rf_map
from .hermite import (
    DEFAULT_TRUNCATION,
    ActivationSpec,
    HermiteSpectrum,
    gamma_ntk_closed_form,
    gamma_rf_lower_bound,
    hermite_coefficients,
    series_tail_bound,
)
from .linops import KernelSystem
from .seeding import ROLE_DATA, ROLE_MAP, ROLE_QUERY, derive_seed
from .trainer import fit_leave_one_out, fit_min_norm, stability_eval

DENOMINATOR_GUARD = 1e-10


class AlignmentSolver:
    """Repeated alignment queries against one factored background system."""

    def __init__(self, system: KernelSystem):
        self.system = system

    @property
    def map(self):
        return self.system.map

    def alignment(self, z: np.ndarray, z1: np.ndarray) -> float:
        num, den = self.alignment_parts(z, z1)
        return num / den

    def alignment_parts(self, z: np.ndarray, z1: np.ndarray) -> tuple[float, float]:
        """phi(z) . P_perp phi(z1) and ||P_perp phi(z1)||^2 for single rows,
        from the Gram of the pair [z1; z] and one cross call on it.
        """
        pair = np.vstack([z1, z])
        own = self.map.prepare(pair).gram()
        scale = float(own[0, 0])
        k1, kz = self.system.cross(pair)
        solved = self.system.solve(k1)
        den = scale - float(k1 @ solved)
        if den <= DENOMINATOR_GUARD * scale:
            raise DegenerateDenominator(
                f"projected norm {den:.3e} below {DENOMINATOR_GUARD:.0e} * {scale:.3e}"
            )
        num = float(own[0, 1]) - float(kz @ solved)
        return num, den


def verify_stability_identity(
    fmap, dataset, z: np.ndarray, theta0="zero"
) -> tuple[float, float]:
    """Both sides of  S(z) = F(z, z1) * S(z1)  with z1 the first training row.

    lhs comes from two explicit fits; rhs from the projector algebra. The
    caller asserts their equality.
    """
    full = fit_min_norm(fmap, dataset, theta0=theta0)
    loo = fit_leave_one_out(fmap, dataset, 0, theta0=theta0)
    lhs = stability_eval(full, loo, z)
    # the leave-one-out system is the background system of z1
    alignment = AlignmentSolver(loo.system).alignment(z, dataset.z[0])
    rhs = alignment * stability_eval(full, loo, dataset.z[0])
    return lhs, rhs


@dataclass
class AlignmentEstimate:
    """Monte-Carlo alignment of masked queries against their originals."""

    mean: float
    std: float
    trials: int
    kind: str
    alpha: float
    activation: str
    lower: float
    upper: float
    closed_form: bool
    ratio_of_means: float
    tail_bound: float
    truncation: int
    values: np.ndarray


@dataclass
class GammaVerdict:
    passed: bool
    mean: float
    lower: float
    upper: float
    slack: float
    closed_form: bool

    @property
    def label(self) -> str:
        return "pass" if self.passed else "fail"


def check_nonlinearity(kind: str, spectrum: HermiteSpectrum, name: str = "") -> None:
    """Reject activation spectra the limit theory cannot cover.

    The random-features result needs a nonzero coefficient at order >= 2; the
    tangent-kernel result needs the derivative non-constant (order >= 1).
    """
    coeffs = spectrum.coefficients
    start = 2 if kind == "rf" else 1
    if not np.any(np.abs(coeffs[start:]) > 1e-10) and spectrum.tail_power <= 1e-12:
        what = "is linear" if kind == "rf" else "has a constant derivative"
        raise DegenerateSpectrum(
            f"activation {name!r} {what}; the masked-query limit degenerates"
        )


def sample_alignments(
    solver: AlignmentSolver, z1: np.ndarray, z1m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of F(z1m[t], z1[t]), one pair per row."""
    nums = np.empty(len(z1))
    dens = np.empty(len(z1))
    for t, (row, query) in enumerate(zip(z1, z1m)):
        try:
            nums[t], dens[t] = solver.alignment_parts(query, row)
        except DegenerateDenominator as exc:
            raise DegenerateDenominator(f"trial {t}: {exc}") from exc
    return nums, dens


def estimate_gamma(
    kind: str,
    activation: ActivationSpec,
    k: int,
    n: int,
    d_x: int,
    d_y: int,
    trials: int,
    master_seed: int,
    truncation: int = DEFAULT_TRUNCATION,
) -> AlignmentEstimate:
    """Monte-Carlo estimate of the limiting masked-query alignment.

    The feature map and the n-1 background rows are sampled once from the
    master seed and held fixed; each trial draws an attacked sample
    z1 = [x1, y1] and its resampled mask z1m = [x, y1] from
    ``data.attacked_pairs``. For tangent maps the activation argument is the
    spec of the activation derivative.
    """
    if kind not in ("rf", "ntk"):
        raise ValueError(f"unknown map kind {kind!r}")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if n < 2:
        raise ValueError("need at least one background row (n >= 2)")
    spectrum = hermite_coefficients(activation, truncation)
    check_nonlinearity(kind, spectrum, activation.name)

    d = d_x + d_y
    alpha = d_y / d
    map_seed = derive_seed(master_seed, [ROLE_MAP])
    data_seed = derive_seed(master_seed, [ROLE_DATA])
    query_seed = derive_seed(master_seed, [ROLE_QUERY])
    if kind == "rf":
        fmap = sample_rf_map(k, d, activation, map_seed)
    else:
        fmap = sample_ntk_map(k, d, activation, map_seed)
    background = generate_synthetic(
        n - 1, d_x, d_y, sample_teacher(d_x, data_seed), data_seed
    )
    solver = AlignmentSolver(KernelSystem.build(fmap, background.z))
    z1, z1m = attacked_pairs(query_seed, trials, d_x, d_y, "resample")
    nums, dens = sample_alignments(solver, z1, z1m)
    values = nums / dens

    if kind == "ntk":
        ref = gamma_ntk_closed_form(spectrum, alpha)
        lower = upper = ref
        closed = True
    else:
        lower = gamma_rf_lower_bound(spectrum, alpha)
        upper = 1.0
        closed = False
    return AlignmentEstimate(
        mean=float(np.mean(values)),
        std=float(np.std(values, ddof=1)),
        trials=trials,
        kind=kind,
        alpha=alpha,
        activation=activation.name,
        lower=lower,
        upper=upper,
        closed_form=closed,
        ratio_of_means=float(np.mean(nums) / np.mean(dens)),
        tail_bound=series_tail_bound(spectrum, alpha) if alpha < 1.0 else 0.0,
        truncation=spectrum.truncation,
        values=values,
    )


def estimate_gamma_on_instance(
    background: KernelSystem, d_x: int, trials: int, seed: int, mask: str
) -> tuple[float, float]:
    """Mean/std of the alignment of masked queries against their attacked
    samples, on one fixed background system (its map and factored rows).
    """
    z1, z1m = attacked_pairs(seed, trials, d_x, background.map.d - d_x, mask)
    nums, dens = sample_alignments(AlignmentSolver(background), z1, z1m)
    values = nums / dens
    return float(np.mean(values)), float(np.std(values, ddof=1))


def compare_gamma_theory(
    est: AlignmentEstimate,
    spectrum: HermiteSpectrum | None = None,
    alpha: float | None = None,
    tolerance: float = 0.05,
) -> GammaVerdict:
    """Check an estimate against its theoretical reference.

    Closed-form references must match within tolerance plus three standard
    errors; bound references must bracket the mean (lower bound softened by
    the same slack, upper by the tolerance alone).
    """
    alpha = est.alpha if alpha is None else alpha
    if spectrum is not None:
        if est.closed_form:
            lower = upper = gamma_ntk_closed_form(spectrum, alpha)
        else:
            lower, upper = gamma_rf_lower_bound(spectrum, alpha), 1.0
    else:
        lower, upper = est.lower, est.upper
    slack = 3.0 * est.std / math.sqrt(est.trials) + tolerance
    if est.closed_form:
        passed = abs(est.mean - lower) <= slack
    else:
        passed = (est.mean >= lower - slack) and (est.mean <= upper + tolerance)
    return GammaVerdict(
        passed=passed,
        mean=est.mean,
        lower=lower,
        upper=upper,
        slack=slack,
        closed_form=est.closed_form,
    )

