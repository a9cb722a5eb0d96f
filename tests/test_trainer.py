import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconstab import featuremaps
from reconstab.alignment import check_nonlinearity
from reconstab.attack import build_query_batch, run_attack
from reconstab.data import LabeledDataset, generate_synthetic, sample_teacher
from reconstab.errors import DegenerateSpectrum, DimensionMismatch, SingularKernel
from reconstab.featuremaps import sample_map
from reconstab.hermite import activation_names, get_activation, hermite_coefficients

from panels import dense_gram
from reconstab.trainer import fit_min_norm, generalization_error


def _rf_instance(n=20, d_x=10, d_y=10, k=100, seed=0):
    teacher = sample_teacher(d_x, seed)
    dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
    fmap = sample_map("rf", k, d_x + d_y, get_activation("h1+h2"), seed + 2)
    return fmap, dataset, teacher


def _ntk_instance(n=15, d_x=10, d_y=10, k=6, seed=0):
    teacher = sample_teacher(d_x, seed)
    dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
    fmap = sample_map("ntk", k, d_x + d_y, get_activation("h0+h1"), seed + 2)
    return fmap, dataset, teacher


class TestFitMinNorm:
    def test_single_sample_interpolates(self):
        fmap, dataset, _ = _rf_instance(n=1)
        model = fit_min_norm(fmap, dataset)
        assert model.predict(dataset.z[0]) == pytest.approx(dataset.g[0], abs=1e-10)

    def test_targets_already_matched_gives_zero_correction(self):
        # the zero start already matches zero targets
        fmap, dataset, _ = _ntk_instance()
        matched = LabeledDataset(
            z=dataset.z, g=np.zeros(dataset.n), d_x=dataset.d_x, d_y=dataset.d_y
        )
        model = fit_min_norm(fmap, matched)
        assert np.allclose(model.dual_coefs, 0.0, atol=1e-10)
        assert np.allclose(model.weights.ravel(), 0.0, atol=1e-9)

    def test_matches_pseudoinverse_oracle(self):
        fmap, dataset, _ = _ntk_instance()
        model = fit_min_norm(fmap, dataset)
        phi = fmap.feature_matrix(dataset.z)
        kernel = phi @ phi.T
        oracle = phi.T @ np.linalg.solve(kernel, dataset.g)
        assert np.linalg.norm(model.weights.ravel() - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_doubled_tangent_map_gives_the_same_predictor(self):
        # the doubling argument behind the zero start: stacking W0 twice
        # doubles the tangent kernel, and the min-norm predictor
        # 2K(z, Z) (2K)^{-1} g is the single map's
        fmap, dataset, teacher = _ntk_instance()
        doubled = featuremaps.NTKMap(np.vstack([fmap.w, fmap.w]), fmap.activation)
        kernel = dense_gram(fmap.prepare(dataset.z).gram())
        assert np.linalg.norm(dense_gram(doubled.prepare(dataset.z).gram()) - 2.0 * kernel) <= (
            1e-12 * 2.0 * np.linalg.norm(kernel)
        )
        queries = generate_synthetic(20, dataset.d_x, dataset.d_y, teacher, 80).z
        single = fit_min_norm(fmap, dataset).predict(queries)
        twice = fit_min_norm(doubled, dataset).predict(queries)
        assert np.max(np.abs(twice - single)) <= 1e-10 * max(1.0, float(np.max(np.abs(single))))

    def test_interpolation_contract(self):
        for builder in (_rf_instance, _ntk_instance):
            fmap, dataset, _ = builder()
            model = fit_min_norm(fmap, dataset)
            resid = np.max(np.abs(model.predict(dataset.z) - dataset.g))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(dataset.g)))

    def test_min_norm_property(self):
        fmap, dataset, _ = _rf_instance()
        model = fit_min_norm(fmap, dataset)
        correction = model.weights
        phi = fmap.feature_matrix(dataset.z)
        _, _, vt = np.linalg.svd(phi, full_matrices=False)
        span_resid = correction - vt.T @ (vt @ correction)
        assert np.linalg.norm(span_resid) <= 1e-9 * np.linalg.norm(correction)

    def test_duplicate_rows_raise(self):
        fmap, dataset, _ = _rf_instance(n=5)
        z = np.vstack([dataset.z, dataset.z[0]])
        g = np.concatenate([dataset.g, dataset.g[:1]])
        dup = LabeledDataset(z=z, g=g, d_x=dataset.d_x, d_y=dataset.d_y)
        with pytest.raises(SingularKernel):
            fit_min_norm(fmap, dup)

    def test_dual_primal_consistency(self):
        fmap, dataset, teacher = _rf_instance()
        model = fit_min_norm(fmap, dataset)
        theta = model.weights
        probes = generate_synthetic(10, dataset.d_x, dataset.d_y, teacher, 77)
        via_dual = model.predict(probes.z)
        via_theta = fmap.feature_matrix(probes.z) @ theta
        assert np.allclose(via_dual, via_theta, atol=1e-9 * (1 + np.max(np.abs(via_theta))))

    @pytest.mark.parametrize("shape", [(12, 3), (12, 1), (11,)], ids=["one-hot", "column", "short"])
    def test_targets_must_be_one_label_per_row(self, shape):
        fmap, dataset, _ = _rf_instance(n=12)
        ds = LabeledDataset(z=dataset.z, g=np.ones(shape), d_x=dataset.d_x, d_y=dataset.d_y)
        with pytest.raises(DimensionMismatch, match="vector of 12 labels"):
            fit_min_norm(fmap, ds)


class TestFitLeaveOneOut:
    def test_two_samples_reduces_to_single_fit(self):
        fmap, dataset, _ = _rf_instance(n=2)
        loo = fit_min_norm(fmap, dataset.drop_row(0))
        survivor = LabeledDataset(
            z=dataset.z[1:], g=dataset.g[1:], d_x=dataset.d_x, d_y=dataset.d_y
        )
        direct = fit_min_norm(fmap, survivor)
        probe = np.random.default_rng(3).standard_normal(dataset.d)
        assert loo.predict(probe) == pytest.approx(direct.predict(probe), abs=1e-12)

    def test_remove_then_readd_matches_row_reorder(self):
        fmap, dataset, _ = _rf_instance(n=10)
        reordered = LabeledDataset(
            z=np.vstack([dataset.z[1:], dataset.z[:1]]),
            g=np.concatenate([dataset.g[1:], dataset.g[:1]]),
            d_x=dataset.d_x,
            d_y=dataset.d_y,
        )
        a = fit_min_norm(fmap, dataset)
        b = fit_min_norm(fmap, reordered)
        preds_a = a.predict(dataset.z)
        preds_b = b.predict(dataset.z)
        assert np.allclose(preds_a, preds_b, atol=1e-8)
        assert np.max(np.abs(preds_b - dataset.g)) <= 1e-8 * 2

    def test_independent_of_removed_sample(self):
        fmap, dataset, _ = _rf_instance(n=8)
        perturbed = LabeledDataset(
            z=dataset.z.copy(), g=dataset.g.copy(), d_x=dataset.d_x, d_y=dataset.d_y
        )
        perturbed.z[0, : dataset.d_x] *= -1.0
        a = fit_min_norm(fmap, dataset.drop_row(0))
        b = fit_min_norm(fmap, perturbed.drop_row(0))
        assert np.array_equal(a.dual_coefs, b.dual_coefs)

    def test_single_sample_leaves_init_model(self):
        fmap, dataset, _ = _ntk_instance(n=1)
        loo = fit_min_norm(fmap, dataset.drop_row(0))
        probe = np.random.default_rng(4).standard_normal(dataset.d)
        assert loo.predict(probe) == pytest.approx(0.0, abs=1e-12)


class TestStabilityEval:
    def test_orthogonal_feature_query_gives_zero(self):
        fmap, dataset, _ = _ntk_instance(n=6, d_x=4, d_y=4, k=3)
        full = fit_min_norm(fmap, dataset)
        loo = fit_min_norm(fmap, dataset.drop_row(0))
        # a zero input has zero tangent features, hence no correction term
        zero = np.zeros(dataset.d)
        assert full.predict(zero) - loo.predict(zero) == pytest.approx(0.0, abs=1e-12)

    def test_at_training_sample_equals_label_residual(self):
        fmap, dataset, _ = _rf_instance()
        full = fit_min_norm(fmap, dataset)
        loo = fit_min_norm(fmap, dataset.drop_row(0))
        lhs = full.predict(dataset.z[0]) - loo.predict(dataset.z[0])
        rhs = dataset.g[0] - loo.predict(dataset.z[0])
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


class TestGeneralizationError:
    def test_training_set_as_test_has_tiny_error(self):
        fmap, dataset, _ = _rf_instance()
        model = fit_min_norm(fmap, dataset)
        report = generalization_error(model, dataset)
        assert report.error <= 1e-16 * max(1.0, float(np.max(dataset.g**2)))
        assert report.accuracy == 1.0

    def test_zero_model_on_balanced_labels(self):
        fmap, dataset, teacher = _rf_instance()
        zero = fit_min_norm(
            fmap,
            LabeledDataset(
                z=dataset.z, g=np.zeros(dataset.n), d_x=dataset.d_x, d_y=dataset.d_y
            ),
        )
        test = generate_synthetic(500, dataset.d_x, dataset.d_y, teacher, 43)
        report = generalization_error(zero, test)
        assert report.error == pytest.approx(1.0, abs=1e-9)
        assert report.accuracy == pytest.approx(float(np.mean(test.g == 1.0)), abs=1e-12)

    def test_learned_direction_beats_chance(self):
        fmap, dataset, teacher = _rf_instance(n=300, d_x=50, d_y=50, k=800, seed=9)
        model = fit_min_norm(fmap, dataset)
        test = generate_synthetic(1000, 50, 50, teacher, 44)
        report = generalization_error(model, test)
        se = np.sqrt(report.accuracy * (1 - report.accuracy) / test.n)
        assert report.accuracy > 0.5 + 5 * se

    def test_squared_stability_matches_loo_risk(self):
        # mean of S^2 at resampled first samples == Monte-Carlo risk of the
        # leave-one-out model, within combined statistical error
        fmap, dataset, teacher = _rf_instance(n=40, d_x=15, d_y=15, k=120, seed=21)
        loo = fit_min_norm(fmap, dataset.drop_row(0))
        draws = generate_synthetic(200, 15, 15, teacher, 45)
        stab_sq = (draws.g - loo.predict(draws.z)) ** 2
        risk_draws = generate_synthetic(200, 15, 15, teacher, 46)
        report = generalization_error(loo, risk_draws)
        risk_sq = (risk_draws.g - loo.predict(risk_draws.z)) ** 2
        assert report.error == np.mean(risk_sq)
        se_stab = np.std(stab_sq, ddof=1) / np.sqrt(len(stab_sq))
        se_risk = np.std(risk_sq, ddof=1) / np.sqrt(len(risk_sq))
        combined = np.sqrt(se_stab**2 + se_risk**2)
        assert abs(np.mean(stab_sq) - report.error) <= 3 * combined


def _accepted_activations(kind):
    # the same screen as tests/test_alignment.py; a test module imports no other
    names = []
    for name in activation_names():
        try:
            check_nonlinearity(kind, hermite_coefficients(get_activation(name)), name)
        except DegenerateSpectrum:
            continue
        names.append(name)
    return names


@st.composite
def _predict_instances(draw):
    """A map kind, an accepted activation of it, and
    sizes with at least 24 features more than twice the rows (ReLU features
    of a row all vanish with probability 2^-k). Rows are 20 wide: polynomial
    activations on narrower rows span too few features for 30 rows.
    """
    kind = draw(st.sampled_from(["rf", "ntk"]))
    n = draw(st.integers(1, 30))
    d_x = d_y = 10
    least = 2 * n if kind == "rf" else -(-2 * n // (d_x + d_y))
    k = draw(st.integers(least + 24, least + 40))
    activation = draw(st.sampled_from(_accepted_activations(kind)))
    n_queries = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n, d_x, d_y, k, activation, n_queries, seed


class TestPrimalPrediction:
    @settings(max_examples=40, deadline=None)
    @given(_predict_instances())
    def test_matches_dual_cross_kernel_prediction(self, instance):
        kind, n, d_x, d_y, k, activation, n_queries, seed = instance
        teacher = sample_teacher(d_x, seed)
        dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
        fmap = sample_map(kind, k, d_x + d_y, get_activation(activation), seed + 2)
        model = fit_min_norm(fmap, dataset)
        queries = generate_synthetic(n_queries, d_x, d_y, teacher, seed + 3).z
        dual = model.system.cross(model.map.prepare(queries)) @ model.dual_coefs
        primal = model.predict(queries)
        assert np.all(np.abs(primal - dual) <= 1e-10 * np.maximum(np.abs(dual), 1.0))

    @pytest.mark.parametrize("builder", [_rf_instance, _ntk_instance], ids=["rf", "ntk"])
    def test_evaluation_and_attack_make_no_cross_kernel(self, builder, monkeypatch):
        fmap, dataset, teacher = builder()
        model = fit_min_norm(fmap, dataset)

        def forbidden(*args, **kwargs):
            raise AssertionError("predictions must go through the primal weights")

        monkeypatch.setattr(featuremaps._Prepared, "cross", forbidden)
        test = generate_synthetic(50, dataset.d_x, dataset.d_y, teacher, 78)
        assert 0.0 <= generalization_error(model, test).accuracy <= 1.0
        queries = build_query_batch(dataset, "resample", 79)
        assert 0.0 <= run_attack(model, queries, dataset.g) <= 1.0
        assert model.predict(queries).shape == (dataset.n,)
