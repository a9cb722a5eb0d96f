"""Executable identity and theory checks, runnable from the CLI.

quick: exact projector identities, the factor's spectrum estimates against a
dense eigensolver, interpolation contracts, the stability multiplier identity,
and the Hermite engine. full: adds the Monte-Carlo alignment limits compared
against their theoretical references at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linops
from .alignment import compare_gamma_theory, estimate_gamma, verify_stability_identity
from .data import generate_synthetic, sample_teacher
from .featuremaps import sample_ntk_map, sample_rf_map
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


def _random_wide(rng, n, p):
    return rng.standard_normal((n, p))


def check_projector_form(instances: int = 100, seed: int = 101) -> CheckResult:
    """Gram-form projection against an SVD orthonormal-basis projection."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, p = int(rng.integers(3, 8)), int(rng.integers(9, 16))
        a = _random_wide(rng, n, p)
        v = rng.standard_normal(p)
        via_gram = linops.project_rowspace(a, v)
        _, _, vt = np.linalg.svd(a, full_matrices=False)
        via_svd = vt.T @ (vt @ v)
        worst = max(worst, float(np.linalg.norm(via_gram - via_svd) / np.linalg.norm(v)))
    return CheckResult("projector-form", worst <= 1e-9, f"max gap {worst:.2e}")


def check_gram_schmidt_update(instances: int = 100, seed: int = 102) -> CheckResult:
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, p = int(rng.integers(3, 8)), int(rng.integers(9, 16))
        phi = _random_wide(rng, n, p)
        v = rng.standard_normal(p)
        lhs, rhs = linops.gram_schmidt_projector_update(phi, v)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(v)))
    return CheckResult("gram-schmidt-update", worst <= 1e-9, f"max gap {worst:.2e}")


def check_leave_one_out_trick(instances: int = 100, seed: int = 103) -> CheckResult:
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, p = int(rng.integers(3, 8)), int(rng.integers(9, 16))
        a = _random_wide(rng, n, p)
        v = rng.standard_normal(n)
        lhs, rhs = linops.leave_one_out_project(a, v)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(v)))
    return CheckResult("leave-one-out-trick", worst <= 1e-9, f"max gap {worst:.2e}")


def check_residual_norm_bound(instances: int = 100, seed: int = 104) -> CheckResult:
    """The projected-out first feature row keeps at least the kernel's
    smallest eigenvalue as squared norm.
    """
    worst = -np.inf
    ok = True
    for i in range(instances):
        rng = np.random.default_rng([seed, i])
        n, p = int(rng.integers(3, 8)), int(rng.integers(9, 16))
        phi = _random_wide(rng, n, p)
        kernel = linops.gram(phi)
        min_eig = linops.min_eigenvalue(kernel)
        resid = linops.residual_projection(phi[1:], phi[0])
        gap = min_eig - float(resid @ resid)
        slack = 1e-8 * float(np.max(np.abs(kernel)))
        ok = ok and gap <= slack
        worst = max(worst, gap)
    return CheckResult("first-row-residual-bound", ok, f"max violation {worst:.2e}")


def _desk_instance(kind: str, seed: int, n=30, d=40, k=None):
    if kind == "rf":
        k = 300 if k is None else k
        fmap = sample_rf_map(k, d, get_activation("h1+h2"), derive_seed(seed, [1]))
        theta0 = "zero"
    else:
        k = 8 if k is None else k
        fmap = sample_ntk_map(k, d, get_activation("h0+h1"), derive_seed(seed, [1]))
        theta0 = "init"
    d_x = d // 2
    teacher = sample_teacher(d_x, derive_seed(seed, [2]))
    dataset = generate_synthetic(n, d_x, d - d_x, teacher, derive_seed(seed, [3]))
    return fmap, dataset, theta0


def check_spectrum_estimate(seed: int = 109, tol: float = 1e-9) -> CheckResult:
    """The factor's Lanczos lambda_min/lambda_max against the dense eigensolver."""
    worst = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        fmap, dataset, _ = _desk_instance(kind, derive_seed(seed, [kind_idx]))
        kernel = fmap.prepare(dataset.z).gram()
        cache = linops.KernelSolveCache.factor(kernel, p=fmap.n_params)
        exact_min = linops.min_eigenvalue(kernel)
        exact_max = float(np.linalg.eigvalsh(kernel)[-1])
        worst = max(
            worst,
            abs(cache.min_eig - exact_min) / exact_min,
            abs(cache.max_eig - exact_max) / exact_max,
        )
    return CheckResult("spectrum-estimate", worst <= tol, f"max relative gap {worst:.2e}")


def check_stability_identity(
    per_kind: int = 20, seed: int = 105, tol: float = 1e-6
) -> CheckResult:
    """S(z) = F(z, z1) S(z1) on fresh desk-scale instances of both map kinds."""
    worst = 0.0
    for kind_idx, kind in enumerate(("rf", "ntk")):
        for i in range(per_kind):
            inst_seed = derive_seed(seed, [kind_idx, i])
            fmap, dataset, theta0 = _desk_instance(kind, inst_seed)
            probe = generate_synthetic(
                1, dataset.d_x, dataset.d_y,
                sample_teacher(dataset.d_x, 7), derive_seed(inst_seed, [99]),
            )
            lhs, rhs = verify_stability_identity(fmap, dataset, probe.z[0], theta0=theta0)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return CheckResult("stability-identity", worst <= tol, f"max relative gap {worst:.2e}")


def check_interpolation(seed: int = 106) -> CheckResult:
    """Exact-fit contract: training residuals and the row-span property."""
    ok = True
    details = []
    for kind_idx, kind in enumerate(("rf", "ntk")):
        fmap, dataset, theta0 = _desk_instance(kind, derive_seed(seed, [kind_idx]))
        model = fit_min_norm(fmap, dataset, theta0=theta0)
        preds = model.predict(dataset.z)
        resid = float(np.max(np.abs(preds - dataset.g)))
        bound = 1e-8 * (1.0 + float(np.max(np.abs(dataset.g))))
        theta = model.materialize_theta()
        correction = theta if theta0 == "zero" else theta - (
            model.map.w0.T.ravel() if theta0 == "init" else model.theta0_vector
        )
        phi = fmap.feature_matrix(dataset.z)
        span_resid = linops.residual_projection(phi, correction)
        rel = float(np.linalg.norm(span_resid) / max(np.linalg.norm(correction), 1e-300))
        ok = ok and resid <= bound and rel <= 1e-9
        details.append(f"{kind}: resid {resid:.2e}, span {rel:.2e}")
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


def check_gamma_ntk(alpha: float, seed: int = 107, trials: int = 50) -> CheckResult:
    """Closed-form alignment limit at desk scale (d=256, k=64, N=300)."""
    d = 256
    d_y = int(round(alpha * d))
    est = estimate_gamma(
        "ntk", get_activation("h0+h1"), k=64, n=300, d_x=d - d_y, d_y=d_y,
        trials=trials, master_seed=seed,
    )
    verdict = compare_gamma_theory(est, tolerance=0.05)
    return CheckResult(
        f"gamma-ntk-alpha={alpha}",
        verdict.passed,
        f"mean {est.mean:.4f} vs {verdict.lower:.4f} (slack {verdict.slack:.4f})",
    )


def check_gamma_rf(alpha: float, seed: int = 108, trials: int = 50) -> CheckResult:
    """Bound check for the random-features alignment limit (k=2000, N=300)."""
    d = 256
    d_y = int(round(alpha * d))
    est = estimate_gamma(
        "rf", get_activation("h1+h2"), k=2000, n=300, d_x=d - d_y, d_y=d_y,
        trials=trials, master_seed=seed,
    )
    verdict = compare_gamma_theory(est, tolerance=0.02)
    return CheckResult(
        f"gamma-rf-alpha={alpha}",
        verdict.passed,
        f"mean {est.mean:.4f} vs [{verdict.lower:.4f}, {verdict.upper:.2f}] "
        f"(slack {verdict.slack:.4f})",
    )


def quick_checks() -> list[CheckResult]:
    return [
        check_projector_form(),
        check_gram_schmidt_update(),
        check_leave_one_out_trick(),
        check_residual_norm_bound(),
        check_spectrum_estimate(),
        check_interpolation(),
        check_stability_identity(),
        check_hermite_engine(),
    ]


def full_checks() -> list[CheckResult]:
    return quick_checks() + [
        check_gamma_ntk(0.5),
        check_gamma_ntk(0.25),
        check_gamma_rf(0.5),
        check_gamma_rf(0.25),
    ]


def run_verify(level: str = "quick") -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return VerifyReport(checks=quick_checks() if level == "quick" else full_checks())
