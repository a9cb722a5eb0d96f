import numpy as np
import pytest

from reconstab.alignment import (
    AlignmentEstimate,
    AlignmentSolver,
    alignment_decomposition,
    compare_gamma_theory,
    estimate_gamma,
    feature_alignment,
    feature_alignment_from_vectors,
    verify_stability_identity,
)
from reconstab.data import LabeledDataset, generate_synthetic, sample_teacher
from reconstab.errors import DegenerateDenominator, DegenerateSpectrum
from reconstab.featuremaps import sample_ntk_map, sample_rf_map
from reconstab.hermite import (
    ActivationSpec,
    gamma_ntk_closed_form,
    get_activation,
    hermite_coefficients,
)


def _rf_instance(n=20, d_x=15, d_y=15, k=200, seed=0, activation="h1+h2"):
    teacher = sample_teacher(d_x, seed)
    dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
    fmap = sample_rf_map(k, d_x + d_y, get_activation(activation), seed + 2)
    return fmap, dataset, teacher


class TestFeatureAlignment:
    def test_self_alignment_is_one(self):
        fmap, dataset, _ = _rf_instance()
        value = feature_alignment(fmap, dataset.z[1:], dataset.z[0], dataset.z[0])
        assert abs(value - 1.0) <= 1e-12

    def test_orthogonal_query_gives_zero(self):
        # tangent kernels factor through z . z', so a query orthogonal to z1
        # and to every background row has exactly zero alignment
        rng = np.random.default_rng(1)
        fmap = sample_ntk_map(4, 8, get_activation("h0+h1"), seed=2)
        rows = np.hstack([rng.standard_normal((5, 5)), np.zeros((5, 3))])
        z1 = np.concatenate([rng.standard_normal(5), np.zeros(3)])
        z = np.concatenate([np.zeros(5), rng.standard_normal(3)])
        assert feature_alignment(fmap, rows, z, z1) == 0.0

    def test_matches_materialized_svd_projector_oracle(self):
        fmap, dataset, teacher = _rf_instance(n=20, d_x=15, d_y=15, k=200)
        probe = generate_synthetic(1, 15, 15, teacher, 99).z[0]
        kernel_space = feature_alignment(fmap, dataset.z[1:], probe, dataset.z[0])
        phi_rest = fmap.feature_matrix(dataset.z[1:])
        _, _, vt = np.linalg.svd(phi_rest, full_matrices=False)
        phi1 = fmap.feature_matrix(dataset.z[0])[0]
        phiq = fmap.feature_matrix(probe)[0]
        resid = phi1 - vt.T @ (vt @ phi1)
        oracle = float(phiq @ resid) / float(resid @ resid)
        assert abs(kernel_space - oracle) <= 1e-8 * (1 + abs(oracle))

    def test_kernel_space_matches_materialized_route_ntk(self):
        rng = np.random.default_rng(3)
        fmap = sample_ntk_map(6, 10, get_activation("h0+h3"), seed=4)
        rows = rng.standard_normal((7, 10))
        z1 = rng.standard_normal(10)
        z = rng.standard_normal(10)
        kernel_space = feature_alignment(fmap, rows, z, z1)
        materialized = feature_alignment_from_vectors(
            fmap.feature_matrix(z)[0],
            fmap.feature_matrix(z1)[0],
            fmap.feature_matrix(rows),
        )
        assert abs(kernel_space - materialized) <= 1e-8 * (1 + abs(materialized))

    def test_degenerate_denominator(self):
        fmap, dataset, _ = _rf_instance(n=6)
        rows_including_z1 = dataset.z  # z1 lies inside the background span
        with pytest.raises(DegenerateDenominator):
            feature_alignment(fmap, rows_including_z1, dataset.z[2], dataset.z[0])

    def test_empty_background_is_plain_cosine_ratio(self):
        fmap, dataset, _ = _rf_instance(n=2)
        z, z1 = dataset.z[1], dataset.z[0]
        value = feature_alignment(fmap, dataset.z[:0], z, z1)
        expected = fmap.kernel(z, z1) / fmap.kernel(z1, z1)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_scale_proportional_in_query_features(self):
        rng = np.random.default_rng(5)
        fmap, dataset, _ = _rf_instance(n=10)
        phi_rest = fmap.feature_matrix(dataset.z[1:])
        phi1 = fmap.feature_matrix(dataset.z[0])[0]
        phiq = fmap.feature_matrix(dataset.z[0] * 0.9 + 0.1 * rng.standard_normal(dataset.d))[0]
        base = feature_alignment_from_vectors(phiq, phi1, phi_rest)
        for c in (0.5, 2.0, 7.5):
            scaled = feature_alignment_from_vectors(c * phiq, phi1, phi_rest)
            assert scaled == pytest.approx(c * base, rel=1e-12)


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
                fmap = sample_rf_map(120, 20, get_activation("h1+h4"), seed + 60)
                theta0 = "zero"
            else:
                fmap = sample_ntk_map(5, 20, get_activation("h0+h1"), seed + 60)
                theta0 = "init"
            probe = generate_synthetic(1, 10, 10, teacher, seed + 90).z[0]
            lhs, rhs = verify_stability_identity(fmap, dataset, probe, theta0=theta0)
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
        assert est.values.shape == (8,)
        assert np.isfinite(est.ratio_of_means)
        assert est.tail_bound >= 0.0
        assert est.lower <= 1.0 and est.upper == 1.0


class TestCompareGammaTheory:
    def test_ntk_reference(self):
        spec = hermite_coefficients(get_activation("h0+h1"))
        est = AlignmentEstimate(
            mean=0.25, std=0.0, trials=50, kind="ntk", alpha=0.5, activation="h0+h1",
            lower=0.25, upper=0.25, closed_form=True, ratio_of_means=0.25,
            tail_bound=0.0, truncation=40, values=np.full(50, 0.25),
        )
        verdict = compare_gamma_theory(est, spec, 0.5)
        assert verdict.passed and verdict.lower == pytest.approx(0.25)

    def test_rf_bounds(self):
        spec = hermite_coefficients(get_activation("h1+h2"))
        est = AlignmentEstimate(
            mean=0.5, std=0.1, trials=50, kind="rf", alpha=0.5, activation="h1+h2",
            lower=0.125, upper=1.0, closed_form=False, ratio_of_means=0.5,
            tail_bound=0.0, truncation=40, values=np.full(50, 0.5),
        )
        verdict = compare_gamma_theory(est, spec, 0.5)
        assert verdict.passed
        assert verdict.lower == pytest.approx(0.125)
        assert verdict.upper == 1.0

    def test_exact_match_passes_with_zero_margin(self):
        est = AlignmentEstimate(
            mean=0.0625, std=0.0, trials=10, kind="ntk", alpha=0.25, activation="h0+h1",
            lower=0.0625, upper=0.0625, closed_form=True, ratio_of_means=0.0625,
            tail_bound=0.0, truncation=40, values=np.full(10, 0.0625),
        )
        verdict = compare_gamma_theory(est, tolerance=0.0)
        assert verdict.passed and verdict.slack == 0.0

    def test_far_off_mean_fails(self):
        est = AlignmentEstimate(
            mean=0.9, std=0.01, trials=50, kind="ntk", alpha=0.5, activation="h0+h1",
            lower=0.25, upper=0.25, closed_form=True, ratio_of_means=0.9,
            tail_bound=0.0, truncation=40, values=np.full(50, 0.9),
        )
        assert not compare_gamma_theory(est).passed


class TestAlignmentDecomposition:
    def test_zero_mean_activation_keeps_raw_equal_centered(self):
        fmap, dataset, teacher = _rf_instance(activation="h1+h2")
        z1 = dataset.z[0]
        z1m = generate_synthetic(1, 15, 15, teacher, 321).z[0]
        dec = alignment_decomposition(fmap, dataset.z[1:], z1, z1m)
        assert dec.raw == pytest.approx(dec.centered, abs=1e-12)
        assert dec.centering_correction == pytest.approx(0.0, abs=1e-12)

    def test_linear_activation_centered_equals_linearized(self):
        fmap, dataset, teacher = _rf_instance(activation="identity")
        z1 = dataset.z[0]
        z1m = generate_synthetic(1, 15, 15, teacher, 322).z[0]
        dec = alignment_decomposition(fmap, dataset.z[1:], z1, z1m)
        assert dec.linearized == pytest.approx(dec.centered, abs=1e-8)

    def test_components_recombine(self):
        fmap, dataset, teacher = _rf_instance(activation="relu")
        z1 = dataset.z[0]
        z1m = generate_synthetic(1, 15, 15, teacher, 323).z[0]
        dec = alignment_decomposition(fmap, dataset.z[1:], z1, z1m)
        assert dec.raw == pytest.approx(dec.centered + dec.centering_correction, abs=1e-12)
        assert dec.centered == pytest.approx(
            dec.linearized + dec.linearization_correction, abs=1e-12
        )
        assert 0.0 <= dec.noise_ratio <= 1.0

    def test_ntk_noise_ratio_shrinks_with_dimension(self):
        # mirrors the vanishing projected-noise trend at growing width/dimension;
        # each (seed, d) point averages a handful of query draws
        wins = 0
        for seed in range(10):
            ratios = []
            for d in (64, 128, 256):
                fmap = sample_ntk_map(16, d, get_activation("h0+h1"), seed=seed + 7 * d)
                teacher = sample_teacher(d // 2, seed)
                rows = generate_synthetic(40, d // 2, d // 2, teacher, seed + d).z
                draws = []
                for q in range(6):
                    pair = generate_synthetic(2, d // 2, d // 2, teacher, 1000 + 13 * seed + 31 * d + q)
                    z1 = pair.z[0]
                    z1m = np.concatenate([pair.z[1][: d // 2], z1[d // 2 :]])
                    dec = alignment_decomposition(fmap, rows, z1, z1m)
                    draws.append(dec.noise_ratio)
                ratios.append(float(np.mean(draws)))
            if ratios[0] > ratios[1] > ratios[2]:
                wins += 1
        assert wins >= 8
