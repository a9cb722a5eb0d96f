from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconstab.alignment import (
    GAMMA_TOLERANCE,
    AlignmentEstimate,
    AlignmentSolver,
    check_nonlinearity,
    compare_gamma_theory,
    estimate_gamma,
)
from reconstab.attack import build_query_batch
from reconstab.data import LabeledDataset, generate_synthetic, sample_teacher
from reconstab.errors import DegenerateDenominator, DegenerateSpectrum
from reconstab.featuremaps import sample_map
from reconstab.hermite import (
    ActivationSpec,
    activation_names,
    gamma_ntk_closed_form,
    get_activation,
    hermite_coefficients,
)
from reconstab.linops import KernelSystem
from reconstab.trainer import fit_min_norm
from reconstab.verify import closed_form_loo, verify_stability_identity


def _rf_instance(n=20, d_x=15, d_y=15, k=200, seed=0, activation="h1+h2"):
    teacher = sample_teacher(d_x, seed)
    dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
    fmap = sample_map("rf", k, d_x + d_y, get_activation(activation), seed + 2)
    return fmap, dataset, teacher


def _alignment(fmap, rows, z, z1):
    """F(z, z1) against the background system of the given rows."""
    num, den = AlignmentSolver(KernelSystem.build(fmap, rows)).alignment_parts(z, z1)
    return num / den


def _svd_alignment(fmap, rows, z, z1):
    """F(z, z1) from the SVD projector of the materialized background features."""
    _, _, vt = np.linalg.svd(fmap.feature_matrix(rows), full_matrices=False)
    phi1, phiq = fmap.feature_matrix(np.stack([z1, z]))
    resid = phi1 - vt.T @ (vt @ phi1)
    return float(phiq @ resid) / float(resid @ resid)


class TestFeatureAlignment:
    def test_self_alignment_is_one(self):
        fmap, dataset, _ = _rf_instance()
        value = _alignment(fmap, dataset.z[1:], dataset.z[0], dataset.z[0])
        assert abs(value - 1.0) <= 1e-12

    def test_orthogonal_query_gives_zero(self):
        # tangent kernels factor through z . z', so a query orthogonal to z1
        # and to every background row has exactly zero alignment
        rng = np.random.default_rng(1)
        fmap = sample_map("ntk", 4, 8, get_activation("h0+h1"), seed=2)
        rows = np.hstack([rng.standard_normal((5, 5)), np.zeros((5, 3))])
        z1 = np.concatenate([rng.standard_normal(5), np.zeros(3)])
        z = np.concatenate([np.zeros(5), rng.standard_normal(3)])
        assert _alignment(fmap, rows, z, z1) == 0.0

    def test_matches_materialized_svd_projector_oracle(self):
        # k = N + 5 puts the background Gram's condition number near 6e5
        for n, k in ((20, 200), (300, 305)):
            fmap, dataset, teacher = _rf_instance(n=n, d_x=15, d_y=15, k=k)
            probe = generate_synthetic(1, 15, 15, teacher, 99).z[0]
            kernel_space = _alignment(fmap, dataset.z[1:], probe, dataset.z[0])
            oracle = _svd_alignment(fmap, dataset.z[1:], probe, dataset.z[0])
            assert abs(kernel_space - oracle) <= 1e-8 * (1 + abs(oracle))

    def test_kernel_space_matches_materialized_route_ntk(self):
        rng = np.random.default_rng(3)
        fmap = sample_map("ntk", 6, 10, get_activation("h0+h3"), seed=4)
        rows = rng.standard_normal((7, 10))
        z1 = rng.standard_normal(10)
        z = rng.standard_normal(10)
        kernel_space = _alignment(fmap, rows, z, z1)
        materialized = _svd_alignment(fmap, rows, z, z1)
        assert abs(kernel_space - materialized) <= 1e-8 * (1 + abs(materialized))

    def test_degenerate_denominator(self):
        fmap, dataset, _ = _rf_instance(n=6)
        rows_including_z1 = dataset.z  # z1 lies inside the background span
        with pytest.raises(DegenerateDenominator):
            _alignment(fmap, rows_including_z1, dataset.z[2], dataset.z[0])

    def test_empty_background_is_plain_cosine_ratio(self):
        fmap, dataset, _ = _rf_instance(n=2)
        z, z1 = dataset.z[1], dataset.z[0]
        value = _alignment(fmap, dataset.z[:0], z, z1)
        expected = fmap.kernel(z, z1) / fmap.kernel(z1, z1)
        assert value == pytest.approx(expected, rel=1e-12)


class TestVerifyStabilityIdentity:
    def test_query_at_z1_is_exact(self):
        fmap, dataset, _ = _rf_instance()
        lhs, rhs = verify_stability_identity(fmap, dataset, dataset.z[0])
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_zero_correction_fit_gives_zero_both_sides(self):
        fmap, dataset, teacher = _rf_instance(n=12)
        matched = LabeledDataset(
            z=dataset.z, g=np.zeros(dataset.n), d_x=dataset.d_x, d_y=dataset.d_y
        )
        probe = generate_synthetic(1, dataset.d_x, dataset.d_y, teacher, 123).z[0]
        lhs, rhs = verify_stability_identity(fmap, matched, probe)
        assert abs(lhs) <= 1e-10
        assert abs(rhs) <= 1e-10

    @pytest.mark.parametrize("kind", ["rf", "ntk"])
    def test_random_instances(self, kind):
        for seed in range(5):
            teacher = sample_teacher(10, seed)
            dataset = generate_synthetic(14, 10, 10, teacher, seed + 30)
            if kind == "rf":
                fmap = sample_map("rf", 120, 20, get_activation("h1+h4"), seed + 60)
            else:
                fmap = sample_map("ntk", 5, 20, get_activation("h0+h1"), seed + 60)
            probe = generate_synthetic(1, 10, 10, teacher, seed + 90).z[0]
            lhs, rhs = verify_stability_identity(fmap, dataset, probe)
            assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs))


class TestEstimateGamma:
    def test_deterministic(self):
        kwargs = dict(k=30, n=20, d_x=8, d_y=8, trials=5, master_seed=11)
        a = estimate_gamma("rf", get_activation("h1+h2"), **kwargs)
        b = estimate_gamma("rf", get_activation("h1+h2"), **kwargs)
        assert a.mean == b.mean and a.std == b.std

    def test_linear_rf_activation_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            estimate_gamma(
                "rf", get_activation("identity"), k=30, n=20, d_x=8, d_y=8,
                trials=5, master_seed=0,
            )

    def test_constant_ntk_derivative_rejected(self):
        constant = ActivationSpec(name="const", coeffs=(1.0,))
        with pytest.raises(DegenerateSpectrum):
            estimate_gamma(
                "ntk", constant, k=8, n=20, d_x=8, d_y=8, trials=5, master_seed=0
            )

    def test_ntk_alpha_near_one_matches_closed_form(self):
        d = 48
        est = estimate_gamma(
            "ntk", get_activation("h0+h1"), k=24, n=100, d_x=1, d_y=d - 1,
            trials=20, master_seed=5,
        )
        reference = gamma_ntk_closed_form(
            hermite_coefficients(get_activation("h0+h1")), (d - 1) / d
        )
        assert abs(est.mean - reference) <= 3 * est.std / np.sqrt(est.trials) + 0.05

    def test_reports_both_estimators_and_tail(self):
        est = estimate_gamma(
            "rf", get_activation("relu"), k=60, n=25, d_x=10, d_y=10,
            trials=8, master_seed=3,
        )
        assert np.isfinite(est.ratio_of_means)
        assert est.tail_bound >= 0.0
        assert est.lower <= 1.0 and est.upper == 1.0


def _estimate(kind, mean, lower, std=0.0, trials=50):
    return AlignmentEstimate(
        mean=mean, std=std, trials=trials, kind=kind, alpha=0.5, activation="h1+h2",
        lower=lower, ratio_of_means=mean, tail_bound=0.0, truncation=40,
    )


class TestCompareGammaTheory:
    def test_ntk_reference(self):
        est = _estimate("ntk", 0.25, 0.25)
        assert est.closed_form and est.upper == est.lower
        assert compare_gamma_theory(est).passed

    def test_rf_bounds(self):
        est = _estimate("rf", 0.5, 0.125, std=0.1)
        assert not est.closed_form and est.upper == 1.0
        assert compare_gamma_theory(est).passed
        # the bracket is the estimate's own [lower - slack, upper + tolerance]
        assert not compare_gamma_theory(replace(est, mean=0.0)).passed
        assert not compare_gamma_theory(replace(est, mean=1.06)).passed

    def test_exact_match_passes_with_zero_margin(self):
        # a mean on the reference with std 0: the slack is the kind's tolerance alone
        for kind in ("ntk", "rf"):
            verdict = compare_gamma_theory(_estimate(kind, 0.0625, 0.0625, trials=10))
            assert verdict.passed and verdict.slack == GAMMA_TOLERANCE[kind]

    @pytest.mark.parametrize("kind, mean, lower, passed", [
        # a gap of 0.04 or 0.06 from the closed form 0.25, on either side
        ("ntk", 0.29, 0.25, True), ("ntk", 0.21, 0.25, True),
        ("ntk", 0.31, 0.25, False), ("ntk", 0.19, 0.25, False),
        # the upper end 1, then the lower bound 0.125 less 0.01 or 0.03
        ("rf", 1.01, 0.125, True), ("rf", 1.03, 0.125, False),
        ("rf", 0.115, 0.125, True), ("rf", 0.095, 0.125, False),
    ])
    def test_tolerance_edges(self, kind, mean, lower, passed):
        assert compare_gamma_theory(_estimate(kind, mean, lower)).passed is passed

    def test_far_off_mean_fails(self):
        assert not compare_gamma_theory(_estimate("ntk", 0.9, 0.25, std=0.01)).passed


def _accepted_activations(kind):
    names = []
    for name in activation_names():
        spec = get_activation(name)
        try:
            check_nonlinearity(kind, hermite_coefficients(spec), name)
        except DegenerateSpectrum:
            continue
        names.append(name)
    return names


@st.composite
def _loo_instances(draw):
    """Sizes with k >= 2n (RF) or k * d >= 2n (NTK), and an activation the
    limit theory accepts.

    At least 24 neurons more than that: with ReLU all k features of a row
    vanish with probability 2^-k, and the row's kernel with it.
    """
    kind = draw(st.sampled_from(["rf", "ntk"]))
    n = draw(st.integers(2, 40))
    d_x = d_y = 10
    if kind == "rf":
        k = draw(st.integers(2 * n + 24, 2 * n + 64))
    else:
        least = -(-2 * n // (d_x + d_y))
        k = draw(st.integers(least + 24, least + 32))
    activation = draw(st.sampled_from(_accepted_activations(kind)))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n, d_x, d_y, k, activation, seed


class TestClosedFormLeaveOneOut:
    @settings(max_examples=30, deadline=None)
    @given(_loo_instances())
    def test_matches_explicit_refits(self, instance):
        kind, n, d_x, d_y, k, activation, seed = instance
        teacher = sample_teacher(d_x, seed)
        dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
        fmap = sample_map(kind, k, d_x + d_y, get_activation(activation), seed + 2)
        full = fit_min_norm(fmap, dataset)
        queries = build_query_batch(dataset, "resample", seed + 3)
        stability, alignment = closed_form_loo(full, queries)
        for i in range(n):
            loo = fit_min_norm(fmap, dataset.drop_row(i))
            refit_s = dataset.g[i] - loo.predict(dataset.z[i])
            num, den = AlignmentSolver(loo.system).alignment_parts(queries[i], dataset.z[i])
            refit_f = num / den
            assert abs(stability[i] - refit_s) <= 1e-8 * (1.0 + abs(refit_s))
            assert abs(alignment[i] - refit_f) <= 1e-8 * (1.0 + abs(refit_f))
