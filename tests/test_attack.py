import numpy as np
import pytest

from reconstab import attack
from reconstab.alignment import AlignmentSolver, estimate_gamma
from reconstab.attack import _covariance, build_query_batch, covariance_diagnostic, run_attack
from reconstab.data import (
    LabeledDataset,
    attacked_pairs,
    generate_synthetic,
    sample_teacher,
    sign_readout,
)
from reconstab.errors import DegenerateDenominator, DimensionMismatch
from reconstab.featuremaps import RFMap, sample_map
from reconstab.hermite import get_activation
from reconstab.linops import KernelSystem
from reconstab.seeding import ROLE_DATA, ROLE_QUERY, derive_seed
from reconstab.trainer import fit_min_norm


def _record_fits(monkeypatch) -> list:
    """(fmap, dataset, model) of every fit the attack module makes."""
    calls = []
    real = attack.fit_min_norm

    def recording(fmap, dataset):
        model = real(fmap, dataset)
        calls.append((fmap, dataset, model))
        return model

    monkeypatch.setattr(attack, "fit_min_norm", recording)
    return calls


def _fitted_instance(n=30, d_x=12, d_y=12, k=150, seed=0):
    teacher = sample_teacher(d_x, seed)
    dataset = generate_synthetic(n, d_x, d_y, teacher, seed + 1)
    fmap = sample_map("rf", k, d_x + d_y, get_activation("h1+h2"), seed + 2)
    return fmap, dataset, fit_min_norm(fmap, dataset)


class TestReadouts:
    def test_sign_maps_zero_to_plus_one(self):
        assert np.array_equal(sign_readout(np.array([-1.5, 0.0, 2.0])), [-1, 1, 1])


class TestBuildQueryBatch:
    def test_zero_strategy_blanks_every_x_block(self):
        _, dataset, _ = _fitted_instance()
        queries = build_query_batch(dataset, "zero", 0)
        assert np.array_equal(queries[:, : dataset.d_x], np.zeros((dataset.n, dataset.d_x)))

    def test_resample_deterministic(self):
        _, dataset, _ = _fitted_instance()
        a = build_query_batch(dataset, "resample", 5)
        b = build_query_batch(dataset, "resample", 5)
        assert np.array_equal(a, b)

    def test_y_blocks_preserved_bit_exactly(self):
        _, dataset, _ = _fitted_instance()
        queries = build_query_batch(dataset, "resample", 6)
        assert np.array_equal(queries[:, dataset.d_x :], dataset.z[:, dataset.d_x :])

    def test_rows_get_distinct_masks(self):
        _, dataset, _ = _fitted_instance()
        queries = build_query_batch(dataset, "resample", 7)
        assert not np.allclose(queries[0, : dataset.d_x], queries[1, : dataset.d_x])


class TestRunAttack:
    def test_shuffled_labels_give_chance_accuracy(self):
        fmap, dataset, model = _fitted_instance(n=400, d_x=50, d_y=50, k=500, seed=3)
        queries = build_query_batch(dataset, "resample", 8)
        rng = np.random.default_rng(9)
        shuffled = rng.permutation(dataset.g)
        accuracy = run_attack(model, queries, shuffled)
        assert abs(accuracy - 0.5) <= 4.0 / np.sqrt(dataset.n)

    def test_single_sample_closed_form(self):
        # with one training row and zero initialization the masked output is
        # exactly the alignment times the label
        teacher = sample_teacher(10, 4)
        dataset = generate_synthetic(1, 10, 10, teacher, 5)
        fmap = sample_map("rf", 80, 20, get_activation("h1+h2"), 6)
        model = fit_min_norm(fmap, dataset)
        queries = build_query_batch(dataset, "resample", 10)
        accuracy = run_attack(model, queries, dataset.g)
        empty = KernelSystem.build(fmap, dataset.z[:0])
        num, den = AlignmentSolver(empty).alignment_parts(queries[0], dataset.z[0])
        alignment = num / den
        output = model.predict(queries)[0]
        assert output == pytest.approx(alignment * dataset.g[0], rel=1e-10)
        if alignment > 0:
            assert accuracy == 1.0

    def test_zero_model_reads_plus_one_everywhere(self):
        fmap, dataset, _ = _fitted_instance(n=24)
        zero_model = fit_min_norm(
            fmap,
            LabeledDataset(z=dataset.z, g=np.zeros(dataset.n), d_x=dataset.d_x, d_y=dataset.d_y),
        )
        queries = build_query_batch(dataset, "zero", 0)
        accuracy = run_attack(zero_model, queries, dataset.g)
        assert accuracy == pytest.approx(float(np.mean(dataset.g == 1.0)))

    def test_unmasked_batch_recovers_everything(self):
        _, dataset, model = _fitted_instance()
        assert run_attack(model, dataset.z.copy(), dataset.g) == 1.0

    def test_deterministic_reports(self):
        _, dataset, model = _fitted_instance()
        queries = build_query_batch(dataset, "resample", 11)
        assert np.array_equal(model.predict(queries), model.predict(queries))
        assert run_attack(model, queries, dataset.g) == run_attack(model, queries, dataset.g)

    def test_size_mismatch_raises(self):
        _, dataset, model = _fitted_instance()
        with pytest.raises(DimensionMismatch):
            run_attack(model, dataset.z[:5].copy(), dataset.g[:5])


class TestCovarianceDiagnostic:
    def test_first_equality_within_combined_error(self):
        diag = covariance_diagnostic(
            "rf", get_activation("h1+h2"), k=150, n=24, d_x=12, d_y=12,
            trials=80, master_seed=1,
        )
        assert diag.first_equality_gap <= 3.0 * diag.combined_se

    def test_label_blind_features_give_null_covariance(self):
        # feature map reading only the informative block: masked queries carry
        # no label information, so the attack covariance vanishes
        d_x, d_y = 32, 8
        v = np.hstack([np.eye(d_x), np.zeros((d_x, d_y))])
        fmap = RFMap(w=v, activation=get_activation("identity"))
        diag = covariance_diagnostic(
            "rf", get_activation("identity"), k=d_x, n=20, d_x=d_x, d_y=d_y,
            trials=60, master_seed=2, fmap=fmap,
        )
        assert abs(diag.gamma_mean) <= 0.3
        assert abs(diag.cov_attack) <= 3.0 * diag.se_cov_attack

    @pytest.mark.parametrize("mask", ["resample", "zero"])
    @pytest.mark.parametrize(
        "kind, activation, k", [("rf", "h1+h2", 120), ("ntk", "h0+h1", 8)]
    )
    def test_matches_explicit_refits(self, monkeypatch, kind, activation, k, mask):
        # oracle: each trial's attack output from an explicit fit on [z1; background]
        d_x, d_y, n, trials, seed = 6, 6, 16, 12, 4
        calls = _record_fits(monkeypatch)
        diag = covariance_diagnostic(
            kind, get_activation(activation), k=k, n=n, d_x=d_x, d_y=d_y,
            trials=trials, master_seed=seed, mask=mask,
        )
        ((fmap, background, loo),) = calls
        teacher = sample_teacher(d_x, derive_seed(seed, [ROLE_DATA]))
        query_seed = derive_seed(seed, [ROLE_QUERY])
        outputs, stability, labels = [], [], []
        for z1, z1m in zip(*attacked_pairs(query_seed, trials, d_x, d_y, mask)):
            (g1,) = teacher.labels(z1[:d_x])
            full = LabeledDataset(
                z=np.vstack([z1, background.z]),
                g=np.concatenate([[g1], background.g]),
                d_x=d_x,
                d_y=d_y,
            )
            outputs.append(fit_min_norm(fmap, full).predict(z1m)[0])
            stability.append(g1 - loo.predict(z1)[0])
            labels.append(g1)
        cov_attack, _ = _covariance(np.array(outputs), np.array(labels))
        cov_stability, _ = _covariance(np.array(stability), np.array(labels))
        gap = abs(cov_attack - diag.gamma_mean * cov_stability)
        assert diag.cov_attack == pytest.approx(cov_attack, rel=1e-10)
        assert diag.first_equality_gap == pytest.approx(gap, rel=1e-10)

    @pytest.mark.parametrize(
        "kind, activation, k", [("rf", "h1+h2", 80), ("ntk", "h0+h1", 8)]
    )
    def test_gamma_mean_is_estimate_gamma_mean(self, kind, activation, k):
        # both align the attacked pairs of alignment.attacked_instance
        # against its background rows
        args = dict(k=k, n=16, d_x=8, d_y=8, trials=12, master_seed=7)
        diag = covariance_diagnostic(kind, get_activation(activation), **args)
        assert diag.gamma_mean == estimate_gamma(kind, get_activation(activation), **args).mean

    def test_one_fit_per_diagnostic(self, monkeypatch):
        calls = _record_fits(monkeypatch)
        covariance_diagnostic(
            "rf", get_activation("h1+h2"), k=80, n=16, d_x=8, d_y=8,
            trials=30, master_seed=5,
        )
        assert len(calls) == 1

    def test_attacked_sample_in_background_span_rejected(self):
        # label-blind features span R^{d_x} with the d_x background rows, so
        # every attacked sample's feature lies in the background span
        d_x, d_y = 8, 4
        v = np.hstack([np.eye(d_x), np.zeros((d_x, d_y))])
        fmap = RFMap(w=v, activation=get_activation("identity"))
        with pytest.raises(DegenerateDenominator):
            covariance_diagnostic(
                "rf", get_activation("identity"), k=d_x, n=d_x + 1, d_x=d_x, d_y=d_y,
                trials=10, master_seed=6, fmap=fmap,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            covariance_diagnostic(
                "foo", get_activation("h1+h2"), k=80, n=16, d_x=8, d_y=8,
                trials=12, master_seed=0,
            )
