"""Feature alignment between queries and a training sample, and its use as a
stability multiplier.

The alignment of z against z1, given the remaining training rows, is
    F(z, z1) = phi(z) . P_perp phi(z1) / ||P_perp phi(z1)||^2
with P_perp the projector orthogonal to the span of the remaining feature
rows. It is evaluated in kernel space against the KernelSystem of those rows:
    phi(a) . P_perp phi(z1) = K(a, z1) - k_a^T K_-1^{-1} k_{z1},
so one solve K_-1^{-1} k_{z1} serves numerator and denominator. K(a, z1) and
k_a are read off the pair's rows prepared once; tangent features are never
materialized. ``attacked_instance`` draws the Monte-Carlo instance that
``estimate_gamma`` and ``attack.covariance_diagnostic`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import attacked_pairs, generate_synthetic, sample_teacher
from .errors import DegenerateDenominator, DegenerateSpectrum
from .featuremaps import sample_map
from .hermite import (
    ActivationSpec,
    HermiteSpectrum,
    gamma_ntk_closed_form,
    gamma_rf_lower_bound,
    hermite_coefficients,
    series_tail_bound,
)
from .linops import KernelSystem
from .seeding import ROLE_DATA, ROLE_MAP, ROLE_QUERY, derive_seed

DENOMINATOR_GUARD = 1e-10
# Model-error margin of a gamma verdict, by map kind, on top of three standard
# errors of the mean. The tangent-kernel reference is the large-N, large-k
# limit itself, and a finite instance keeps a bias that falls with N (0.02 at
# d=256, k=64, N=3000 in ``verify``). The random-features reference is a
# bracket [lower bound, 1] that the limit lies inside, so its margin only
# covers finite-size drift past an end. ``reconstab gamma`` and ``verify``
# both judge by this table.
GAMMA_TOLERANCE = {"ntk": 0.05, "rf": 0.02}


class AlignmentSolver:
    """Repeated alignment queries against one factored background system."""

    def __init__(self, system: KernelSystem):
        self.system = system

    @property
    def map(self):
        return self.system.map

    def alignment_parts(self, z: np.ndarray, z1: np.ndarray) -> tuple[float, float]:
        """phi(z) . P_perp phi(z1) and ||P_perp phi(z1)||^2 for single rows,
        from the pair [z1; z] prepared once: its 2 x 2 kernel, the syrks of
        its factors, and its cross block.
        """
        pair = self.map.prepare(np.vstack([z1, z]))
        own = pair.cross(pair)
        scale = float(own[0, 0])
        k1, kz = self.system.cross(pair)
        solved = self.system.solve(k1)
        den = scale - float(k1 @ solved)
        if den <= DENOMINATOR_GUARD * scale:
            raise DegenerateDenominator(
                f"projected norm {den:.3e} below {DENOMINATOR_GUARD:.0e} * {scale:.3e}"
            )
        num = float(own[1, 0]) - float(kz @ solved)
        return num, den


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
    ratio_of_means: float
    tail_bound: float
    truncation: int

    @property
    def closed_form(self) -> bool:
        """Tangent maps have a closed-form reference; random features a bracket."""
        return self.kind == "ntk"

    @property
    def upper(self) -> float:
        return self.lower if self.closed_form else 1.0


@dataclass
class GammaVerdict:
    passed: bool
    slack: float

    @property
    def label(self) -> str:
        return "pass" if self.passed else "fail"


def check_nonlinearity(kind: str, spectrum: HermiteSpectrum, name: str) -> None:
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


def attacked_instance(
    kind: str, activation: ActivationSpec, k: int, n: int, d_x: int, d_y: int,
    trials: int, master_seed: int, mask: str, fmap=None,
):
    """The instance every Monte-Carlo alignment of a master seed runs on:
    (fmap, spectrum, teacher, background, z1, z1m).

    Each part has its own seed derived from the master seed: the feature map,
    a teacher with the n-1 background rows it labels, and the attacked pairs
    z1 = [x1, y1] and masked queries z1m of ``data.attacked_pairs``. spectrum
    is the activation's, screened by ``check_nonlinearity``; an injected fmap
    skips the map draw and the screen, and spectrum is None. For tangent maps
    the activation is the spec of the derivative.
    """
    if n < 2:
        raise ValueError("need at least one background row (n >= 2)")
    spectrum = None
    if fmap is None:
        fmap = sample_map(kind, k, d_x + d_y, activation, derive_seed(master_seed, [ROLE_MAP]))
        spectrum = hermite_coefficients(activation)
        check_nonlinearity(kind, spectrum, activation.name)
    data_seed = derive_seed(master_seed, [ROLE_DATA])
    teacher = sample_teacher(d_x, data_seed)
    background = generate_synthetic(n - 1, d_x, d_y, teacher, data_seed)
    z1, z1m = attacked_pairs(derive_seed(master_seed, [ROLE_QUERY]), trials, d_x, d_y, mask)
    return fmap, spectrum, teacher, background, z1, z1m


def estimate_gamma(
    kind: str,
    activation: ActivationSpec,
    k: int,
    n: int,
    d_x: int,
    d_y: int,
    trials: int,
    master_seed: int,
) -> AlignmentEstimate:
    """Monte-Carlo estimate of the limiting masked-query alignment, with its
    theoretical reference: the closed form for tangent maps, the lower bound
    and 1 for random features.

    Each resampled attacked pair of ``attacked_instance`` is aligned against
    the system of its background rows.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    fmap, spectrum, _, background, z1, z1m = attacked_instance(
        kind, activation, k, n, d_x, d_y, trials, master_seed, "resample"
    )
    solver = AlignmentSolver(KernelSystem.build(fmap, background.z))
    nums, dens = sample_alignments(solver, z1, z1m)
    values = nums / dens

    alpha = d_y / (d_x + d_y)
    reference = gamma_ntk_closed_form if kind == "ntk" else gamma_rf_lower_bound
    return AlignmentEstimate(
        mean=float(np.mean(values)),
        std=float(np.std(values, ddof=1)),
        trials=trials,
        kind=kind,
        alpha=alpha,
        activation=activation.name,
        lower=reference(spectrum, alpha),
        ratio_of_means=float(np.mean(nums) / np.mean(dens)),
        tail_bound=series_tail_bound(spectrum, alpha),
        truncation=spectrum.truncation,
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


def compare_gamma_theory(est: AlignmentEstimate) -> GammaVerdict:
    """Check an estimate against its theoretical reference, with the
    tolerance of its kind from ``GAMMA_TOLERANCE``.

    Closed-form references must match within tolerance plus three standard
    errors; bound references must bracket the mean (lower bound softened by
    the same slack, upper by the tolerance alone).
    """
    tolerance = GAMMA_TOLERANCE[est.kind]
    slack = 3.0 * est.std / math.sqrt(est.trials) + tolerance
    if est.closed_form:
        passed = abs(est.mean - est.lower) <= slack
    else:
        passed = (est.mean >= est.lower - slack) and (est.mean <= est.upper + tolerance)
    return GammaVerdict(passed=passed, slack=slack)
