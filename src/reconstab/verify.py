"""Executable identity and theory checks, runnable from the CLI.

quick: the kernel-system path that fits, alignments and attacks run, checked
against explicit oracles (SVD projectors, leave-one-out refits, the min-norm
least-squares solution, a dense eigensolver), plus the stability multiplier
identity and the Hermite engine. full: adds the covariance form of the attack
at the benchmark's sizes, the Monte-Carlo alignment limits compared against
their theoretical references, and the tangent-kernel limit's convergence in N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linops
from .alignment import AlignmentSolver, compare_gamma_theory, estimate_gamma
from .attack import build_query_batch, covariance_diagnostic
from .data import generate_synthetic, sample_teacher
from .featuremaps import sample_map
from .hermite import (
    _gauss_hermite_nodes,
    _hermite_matrix,
    get_activation,
    hermite_coefficients,
)
from .seeding import derive_seed
from .trainer import fit_min_norm


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def label(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerifyReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


# desk-scale instances: N=30 rows of d=40 (d_x = d_y = 20), and per map kind
# the width k and the activation
_DESK_N, _DESK_D = 30, 40
_DESK = {"rf": (300, "h1+h2"), "ntk": (8, "h0+h1")}


def _desk_instance(kind: str, seed: int):
    k, activation = _DESK[kind]
    fmap = sample_map(kind, k, _DESK_D, get_activation(activation), derive_seed(seed, [1]))
    d_x = _DESK_D // 2
    teacher = sample_teacher(d_x, derive_seed(seed, [2]))
    dataset = generate_synthetic(_DESK_N, d_x, _DESK_D - d_x, teacher, derive_seed(seed, [3]))
    return fmap, dataset


def check_alignment_projector(
    instances: int = 5, seed: int = 101, tol: float = 1e-9
) -> CheckResult:
    """AlignmentSolver's kernel-space numerator and denominator of F(q_1, z_1)
    against the SVD projector of the materialized background features.
    """
    worst = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        for i in range(instances):
            inst_seed = derive_seed(seed, [kind_idx, i])
            fmap, dataset = _desk_instance(kind, inst_seed)
            z1 = dataset.z[0]
            query = build_query_batch(dataset, "resample", derive_seed(inst_seed, [1]))[0]
            background = linops.KernelSystem.build(fmap, dataset.z[1:])
            num, den = AlignmentSolver(background).alignment_parts(query, z1)
            _, _, vt = np.linalg.svd(fmap.feature_matrix(dataset.z[1:]), full_matrices=False)
            phi1, phiq = fmap.feature_matrix(np.stack([z1, query]))
            resid = phi1 - vt.T @ (vt @ phi1)
            scale = float(phi1 @ phi1)
            worst = max(
                worst,
                abs(num - float(phiq @ resid)) / scale,
                abs(den - float(resid @ resid)) / scale,
            )
    return CheckResult("alignment-projector", worst <= tol, f"max gap {worst:.2e}")


def closed_form_loo(model, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out stability and alignment of every training row, read off
    the full fit's factor (Rifkin & Lippert, Notes on Regularized Least
    Squares, MIT-CSAIL-TR-2007-025).

    With c = K^{-1} g and queries[i] the masked query q_i of z_i,
        S_i = g_i - f_-i(z_i) = c_i / (K^{-1})_ii,
        F(q_i, z_i | Z_-i) = [K^{-1} k(q_i)]_i.
    """
    k_inv = model.system.solve(np.eye(model.n_train))
    stability = model.dual_coefs / np.diag(k_inv)
    alignment = np.einsum("ij,ij->i", k_inv, model.system.cross(queries))
    return stability, alignment


def check_closed_form_loo(seed: int = 102, tol: float = 1e-8) -> CheckResult:
    """closed_form_loo against explicit leave-one-out refits of every row."""
    worst_s = worst_f = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        inst_seed = derive_seed(seed, [kind_idx])
        fmap, dataset = _desk_instance(kind, inst_seed)
        full = fit_min_norm(fmap, dataset)
        queries = build_query_batch(dataset, "resample", derive_seed(inst_seed, [1]))
        stability, alignment = closed_form_loo(full, queries)
        for i, (s_i, f_i) in enumerate(zip(stability.tolist(), alignment.tolist())):
            loo = fit_min_norm(fmap, dataset.drop_row(i))
            refit_s = full.predict(dataset.z[i]) - loo.predict(dataset.z[i])
            num, den = AlignmentSolver(loo.system).alignment_parts(queries[i], dataset.z[i])
            refit_f = num / den
            worst_s = max(worst_s, abs(s_i - refit_s) / (1.0 + abs(refit_s)))
            worst_f = max(worst_f, abs(f_i - refit_f) / (1.0 + abs(refit_f)))
    return CheckResult(
        "closed-form-loo",
        max(worst_s, worst_f) <= tol,
        f"max relative gap: stability {worst_s:.2e}, alignment {worst_f:.2e}",
    )


def check_loo_denominator_bound(instances: int = 5, seed: int = 104) -> CheckResult:
    """Every leave-one-out alignment denominator ||P_perp phi(z_i)||^2 =
    1/(K^{-1})_ii, a Schur complement of K, keeps at least lambda_min(K).
    """
    worst = -np.inf
    ok = True
    for kind_idx, kind in enumerate(("rf", "ntk")):
        for i in range(instances):
            fmap, dataset = _desk_instance(kind, derive_seed(seed, [kind_idx, i]))
            # the dense reference comes from a Gram of its own, not from the factor
            kernel = fmap.prepare(dataset.z).gram()
            system = linops.KernelSystem.build(fmap, dataset.z)
            denominators = 1.0 / np.diag(system.solve(np.eye(dataset.n)))
            gap = float(np.linalg.eigvalsh(kernel)[0]) - float(np.min(denominators))
            ok = ok and gap <= 1e-8 * float(np.max(np.abs(kernel)))
            worst = max(worst, gap)
    return CheckResult("loo-denominator-bound", ok, f"max violation {worst:.2e}")


def check_spectrum_estimate(seed: int = 109, tol: float = 1e-9) -> CheckResult:
    """The factor's Lanczos lambda_min/lambda_max against the dense eigensolver."""
    worst = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        fmap, dataset = _desk_instance(kind, derive_seed(seed, [kind_idx]))
        kernel = fmap.prepare(dataset.z).gram()
        # before the factor, which consumes the Gram
        exact = np.linalg.eigvalsh(kernel)
        cache = linops.KernelSolveCache.factor(kernel, p=fmap.n_params)
        exact_min, exact_max = float(exact[0]), float(exact[-1])
        worst = max(
            worst,
            abs(cache.min_eig - exact_min) / exact_min,
            abs(cache.max_eig - exact_max) / exact_max,
        )
    return CheckResult("spectrum-estimate", worst <= tol, f"max relative gap {worst:.2e}")


def verify_stability_identity(fmap, dataset, z: np.ndarray) -> tuple[float, float]:
    """Both sides of  S(z) = F(z, z1) * S(z1)  with z1 the first training row.

    lhs comes from two explicit fits; rhs from the projector algebra. The
    caller asserts their equality.
    """
    full = fit_min_norm(fmap, dataset)
    loo = fit_min_norm(fmap, dataset.drop_row(0))
    z1 = dataset.z[0]
    # the leave-one-out system is the background system of z1
    num, den = AlignmentSolver(loo.system).alignment_parts(z, z1)
    lhs = full.predict(z) - loo.predict(z)
    rhs = num / den * (full.predict(z1) - loo.predict(z1))
    return lhs, rhs


def check_stability_identity(
    per_kind: int = 20, seed: int = 105, tol: float = 1e-6
) -> CheckResult:
    """S(z) = F(z, z1) S(z1) on fresh desk-scale instances of both map kinds."""
    worst = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        for i in range(per_kind):
            inst_seed = derive_seed(seed, [kind_idx, i])
            fmap, dataset = _desk_instance(kind, inst_seed)
            probe = generate_synthetic(
                1, dataset.d_x, dataset.d_y,
                sample_teacher(dataset.d_x, 7), derive_seed(inst_seed, [99]),
            )
            lhs, rhs = verify_stability_identity(fmap, dataset, probe.z[0])
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return CheckResult("stability-identity", worst <= tol, f"max relative gap {worst:.2e}")


def check_interpolation(seed: int = 106) -> CheckResult:
    """Exact-fit contract: training residuals, and the fit's weights against
    the min-norm least-squares solution of Phi theta = g.
    """
    ok = True
    details = []
    for kind_idx, kind in enumerate(("rf", "ntk")):
        fmap, dataset = _desk_instance(kind, derive_seed(seed, [kind_idx]))
        model = fit_min_norm(fmap, dataset)
        preds = model.predict(dataset.z)
        resid = float(np.max(np.abs(preds - dataset.g)))
        bound = 1e-8 * (1.0 + float(np.max(np.abs(dataset.g))))
        phi = fmap.feature_matrix(dataset.z)
        oracle = np.linalg.lstsq(phi, dataset.g, rcond=None)[0]
        gap = float(np.linalg.norm(model.weights.ravel() - oracle) / np.linalg.norm(oracle))
        ok = ok and resid <= bound and gap <= 1e-9
        details.append(f"{kind}: resid {resid:.2e}, min-norm gap {gap:.2e}")
    return CheckResult("interpolation", ok, "; ".join(details))


def check_hermite_engine() -> CheckResult:
    spec = hermite_coefficients(get_activation("relu"))
    mu0_err = abs(float(spec.coefficients[0]) - 1.0 / math.sqrt(2.0 * math.pi))
    mu1_err = abs(float(spec.coefficients[1]) - 0.5)
    x, w = _gauss_hermite_nodes(120)
    basis = _hermite_matrix(8, x)
    gram_matrix = (basis * w) @ basis.T
    ortho_err = float(np.max(np.abs(gram_matrix - np.eye(9))))
    # tanh and d(tanh) by Gauss-Hermite quadrature, tied by Stein's identity
    # E[f h_l] = E[f' h_{l-1}] / sqrt(l); tanh is odd, so mu_0 = 0
    tanh = get_activation("tanh")
    mu = hermite_coefficients(tanh).coefficients
    dmu = hermite_coefficients(tanh.derivative()).coefficients
    orders = np.arange(1, mu.size)
    stein_err = float(np.max(np.abs(np.sqrt(orders) * mu[1:] - dmu[:-1])))
    tanh_mu0_err = abs(float(mu[0]))
    ok = (
        mu0_err <= 1e-6 and mu1_err <= 1e-6 and ortho_err <= 1e-10
        and stein_err <= 1e-10 and tanh_mu0_err <= 1e-12
    )
    return CheckResult(
        "hermite-engine",
        ok,
        f"mu0 err {mu0_err:.2e}, mu1 err {mu1_err:.2e}, ortho err {ortho_err:.2e}, "
        f"tanh Stein err {stein_err:.2e}, tanh mu0 {tanh_mu0_err:.2e}",
    )


def check_covariance_first_equality(seed: int = 110, trials: int = 300) -> CheckResult:
    """Cov(attack output, label) = gamma * Cov(S, label) within three combined
    standard errors, for RF (k=600) and NTK (k=16) at N=200, d_x = d_y = 100.
    """
    ok = True
    details = []
    for kind, activation, k in (("rf", "h1+h2", 600), ("ntk", "h0+h1", 16)):
        diag = covariance_diagnostic(
            kind, get_activation(activation), k=k, n=200, d_x=100, d_y=100,
            trials=trials, master_seed=seed,
        )
        ok = ok and diag.first_equality_gap <= 3.0 * diag.combined_se
        details.append(f"{kind}: gap {diag.first_equality_gap / diag.combined_se:.2f} SE")
    return CheckResult("covariance-first-equality", ok, "; ".join(details))


def _estimate_gamma_ntk(alpha: float, n: int, seed: int, trials: int):
    d = 256
    d_y = int(round(alpha * d))
    return estimate_gamma(
        "ntk", get_activation("h0+h1"), k=64, n=n, d_x=d - d_y, d_y=d_y,
        trials=trials, master_seed=seed,
    )


def check_gamma_ntk(alpha: float, seed: int = 107, trials: int = 50) -> CheckResult:
    """Closed-form alignment limit inside the theorem's regime: d=256, k=64,
    N=3000, so N >> d and N << kd = 16,384.
    """
    est = _estimate_gamma_ntk(alpha, 3000, seed, trials)
    verdict = compare_gamma_theory(est, tolerance=0.05)
    return CheckResult(
        f"gamma-ntk-alpha={alpha}",
        verdict.passed,
        f"mean {est.mean:.4f} vs {est.lower:.4f} (slack {verdict.slack:.4f})",
    )


def check_gamma_ntk_convergence(seed: int = 107, trials: int = 50) -> CheckResult:
    """The finite-size gap |mean - closed form| at alpha=0.5 falls with N: at
    N=3000 it is below half the gap at N=375, and the drop exceeds three
    combined standard errors.
    """
    sizes = (375, 750, 1500, 3000)
    gaps, errors = [], []
    for n in sizes:
        est = _estimate_gamma_ntk(0.5, n, seed, trials)
        gaps.append(abs(est.mean - est.lower))
        errors.append(est.std / math.sqrt(est.trials))
    drop = gaps[0] - gaps[-1]
    combined = math.hypot(errors[0], errors[-1])
    return CheckResult(
        "gamma-ntk-convergence",
        gaps[-1] < 0.5 * gaps[0] and drop > 3.0 * combined,
        f"gap {', '.join(f'{g:.4f}' for g in gaps)} at N={list(sizes)}; "
        f"drop {drop / combined:.1f} SE",
    )


def check_gamma_rf(alpha: float, seed: int = 108, trials: int = 50) -> CheckResult:
    """Bound check for the random-features alignment limit inside the
    theorem's regime: d=128, k=8000, N=1500, so N >> d and N << k.

    The estimate only has to fall in [lower bound - slack, 1 + tolerance], so
    a biased alignment still passes: with every alignment 0.1 too high the
    means are 0.36 (alpha=0.5) and 0.18 (alpha=0.25). The checks that guard
    the RF alignment route are alignment-projector and closed-form-loo.
    """
    d = 128
    d_y = int(round(alpha * d))
    est = estimate_gamma(
        "rf", get_activation("h1+h2"), k=8000, n=1500, d_x=d - d_y, d_y=d_y,
        trials=trials, master_seed=seed,
    )
    verdict = compare_gamma_theory(est, tolerance=0.02)
    return CheckResult(
        f"gamma-rf-alpha={alpha}",
        verdict.passed,
        f"mean {est.mean:.4f} vs [{est.lower:.4f}, {est.upper:.2f}] "
        f"(slack {verdict.slack:.4f})",
    )


def quick_checks() -> list[CheckResult]:
    return [
        check_alignment_projector(),
        check_closed_form_loo(),
        check_loo_denominator_bound(),
        check_spectrum_estimate(),
        check_interpolation(),
        check_stability_identity(),
        check_hermite_engine(),
    ]


def full_checks() -> list[CheckResult]:
    return quick_checks() + [
        check_covariance_first_equality(),
        check_gamma_ntk(0.5),
        check_gamma_ntk(0.25),
        check_gamma_ntk_convergence(),
        check_gamma_rf(0.5),
        check_gamma_rf(0.25),
    ]


def run_verify(level: str = "quick") -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return VerifyReport(checks=quick_checks() if level == "quick" else full_checks())
