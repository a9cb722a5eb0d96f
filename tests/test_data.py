import tracemalloc

import numpy as np
import pytest

from reconstab.data import (
    MASKS,
    TeacherVector,
    _onto_sphere,
    _row_norms,
    _sphere_rows,
    attacked_pairs,
    generate_synthetic,
    mask_rows,
    sample_teacher,
)


@pytest.fixture
def teacher():
    return sample_teacher(6, seed=0)


class TestGenerateSynthetic:
    def test_exact_block_norms(self, teacher):
        ds = generate_synthetic(50, 6, 4, teacher, seed=1)
        assert np.allclose(np.linalg.norm(ds.z[:, : ds.d_x], axis=1), np.sqrt(6), atol=1e-10)
        assert np.allclose(np.linalg.norm(ds.z[:, ds.d_x :], axis=1), np.sqrt(4), atol=1e-10)

    def test_one_dimensional_x(self):
        t = sample_teacher(1, seed=2)
        ds = generate_synthetic(40, 1, 3, t, seed=3)
        assert set(np.unique(ds.z[:, : ds.d_x])) <= {-1.0, 1.0}
        assert np.array_equal(ds.g, t.labels(ds.z[:, : ds.d_x]))

    def test_label_balance(self):
        t = sample_teacher(50, seed=4)
        ds = generate_synthetic(10_000, 50, 10, t, seed=5)
        balance = float(np.mean(ds.g == 1.0))
        assert abs(balance - 0.5) <= 4.0 / np.sqrt(10_000)

    def test_deterministic(self, teacher):
        a = generate_synthetic(20, 6, 4, teacher, seed=6)
        b = generate_synthetic(20, 6, 4, teacher, seed=6)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.g, b.g)

    def test_block_independence(self):
        t = sample_teacher(4, seed=7)
        ds = generate_synthetic(10_000, 4, 4, t, seed=8)
        n = ds.n
        x, y = ds.z[:, : ds.d_x], ds.z[:, ds.d_x :]
        for i in range(4):
            for j in range(4):
                corr = np.corrcoef(x[:, i], y[:, j])[0, 1]
                assert abs(corr) <= 5.0 / np.sqrt(n)

    def test_labels_depend_only_on_x(self, teacher):
        base = generate_synthetic(30, 6, 4, teacher, seed=9)
        fresh_noise = generate_synthetic(30, 6, 7, teacher, seed=9)
        assert np.array_equal(base.z[:, : base.d_x], fresh_noise.z[:, : fresh_noise.d_x])
        assert np.array_equal(base.g, fresh_noise.g)
        assert not np.allclose(base.z[:, base.d_x :], fresh_noise.z[:, fresh_noise.d_x :][:, :4])

    @pytest.mark.parametrize("i", [-1, 3, 99])
    def test_drop_row_out_of_range_raises(self, teacher, i):
        ds = generate_synthetic(3, 6, 4, teacher, seed=10)
        with pytest.raises(IndexError, match="out of range for n=3"):
            ds.drop_row(i)

    def test_sign_zero_goes_positive(self):
        t = TeacherVector(u=np.array([0.0, 1.0]))
        assert np.array_equal(t.labels(np.array([5.0, 0.0])), [1.0])


class TestMaskSample:
    def test_zero_strategy(self):
        out = mask_rows(np.array([[1.0, 2, 3, 4, 5]]), 3, "zero", 0)
        assert np.array_equal(out, [[0, 0, 0, 4, 5]])

    def test_zero_idempotent(self):
        z = np.arange(12.0).reshape(2, 6)
        once = mask_rows(z, 2, "zero", 0)
        assert np.array_equal(mask_rows(once, 2, "zero", 0), once)

    def test_resample_preserves_y_block(self):
        z = np.arange(16.0).reshape(2, 8)
        out = mask_rows(z, 5, "resample", 3)
        assert np.array_equal(out[:, 5:], z[:, 5:])
        assert not np.allclose(out[:, :5], z[:, :5])
        assert np.linalg.norm(out[:, :5], axis=1) == pytest.approx(np.sqrt(5))

    def test_resample_deterministic(self):
        z = np.arange(16.0).reshape(2, 8)
        assert np.array_equal(mask_rows(z, 5, "resample", 4), mask_rows(z, 5, "resample", 4))

    def test_one_generator_for_all_rows(self):
        z = np.arange(24.0).reshape(3, 8)
        rng = np.random.default_rng(4)
        assert np.array_equal(mask_rows(z, 5, "resample", 4)[:, :5], _sphere_rows(rng, 3, 5))

    def test_unknown_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            mask_rows(np.zeros((2, 4)), 2, "blur", 0)

    def test_rows_shorter_than_the_x_block_rejected(self):
        with pytest.raises(ValueError, match="d_x"):
            mask_rows(np.zeros((2, 4)), 5, "zero", 0)

    @pytest.mark.parametrize("mask", MASKS)
    def test_empty_x_block_rejected(self, mask):
        # an empty row has norm 0, so resampling it until nonzero never ends,
        # and zeroing it leaves the query equal to the training row
        with pytest.raises(ValueError, match="d_x=0"):
            mask_rows(np.zeros((2, 4)), 0, mask, 0)


class TestSphereRows:
    @pytest.mark.parametrize("n, dim", [(1, 1), (7, 3), (3000, 128), (2, 70_000)])
    def test_row_norms_are_the_bits_of_one_norm(self, n, dim):
        rows = np.random.default_rng(n).standard_normal((n, dim))
        assert np.array_equal(_row_norms(rows), np.linalg.norm(rows, axis=1, keepdims=True))

    def test_row_norms_of_split_blocks(self):
        # attacked_pairs' blocks: strided column splits of one draw per trial
        draws = np.random.default_rng(1).standard_normal((300, 328))
        for block in np.split(draws, [100, 228], axis=1):
            assert np.array_equal(_row_norms(block), np.linalg.norm(block, axis=1, keepdims=True))

    def test_sphere_rows_form_no_array_of_squares(self):
        # the rows and their norms, and 1 MiB for one block's squares and the
        # reduction's temporaries; the 3000 x 128 squares (2.9 MB) do not fit
        n, dim = 3000, 128
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _sphere_rows(rng, n, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * dim + n) + 2**20


class TestAttackedPairs:
    def test_trial_draws_x1_y1_then_fresh_x(self):
        z1, z1m = attacked_pairs(5, 3, 4, 2, "resample")
        for t in range(3):
            rng = np.random.default_rng([5, t])
            x1, y1, x = (_sphere_rows(rng, 1, dim)[0] for dim in (4, 2, 4))
            assert np.array_equal(z1[t], np.concatenate([x1, y1]))
            assert np.array_equal(z1m[t], np.concatenate([x, y1]))

    def test_zero_mask_keeps_attacked_samples(self):
        z1, _ = attacked_pairs(6, 4, 3, 5, "resample")
        zero_z1, zero_z1m = attacked_pairs(6, 4, 3, 5, "zero")
        assert np.array_equal(zero_z1, z1)
        assert np.array_equal(zero_z1m[:, :3], np.zeros((4, 3)))
        assert np.array_equal(zero_z1m[:, 3:], z1[:, 3:])

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("d_x, d_y", [(1, 1), (5, 7), (100, 100), (128, 128)])
    def test_one_draw_per_trial_equals_the_per_block_draws(self, mask, d_x, d_y):
        trials = 6
        z1, z1m = attacked_pairs(9, trials, d_x, d_y, mask)
        # the per-trial loop of one-row sphere draws that the batch replaced
        ref_z1 = np.empty((trials, d_x + d_y))
        ref_z1m = np.empty_like(ref_z1)
        for t in range(trials):
            rng = np.random.default_rng([9, t])
            ref_z1[t, :d_x] = _sphere_rows(rng, 1, d_x)[0]
            ref_z1[t, d_x:] = _sphere_rows(rng, 1, d_y)[0]
            ref_z1m[t, :d_x] = _sphere_rows(rng, 1, d_x)[0] if mask == "resample" else 0.0
        ref_z1m[:, d_x:] = ref_z1[:, d_x:]
        assert np.array_equal(z1, ref_z1)
        assert np.array_equal(z1m, ref_z1m)

    def test_all_zero_row_is_redrawn_from_its_generator(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]])
        redraw = np.random.default_rng(4).standard_normal(2)
        out = _onto_sphere(rows, lambda i: np.random.default_rng(4))
        assert np.array_equal(out[0], np.array([3.0, 4.0]) / 5.0 * np.sqrt(2))
        assert np.array_equal(out[1], redraw / np.linalg.norm(redraw) * np.sqrt(2))

    def test_unknown_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            attacked_pairs(0, 2, 3, 3, "blur")

    @pytest.mark.parametrize("mask", MASKS)
    def test_unallocatable_trial_count_fails_before_the_generators(self, mask, monkeypatch):
        # 2**61 trials of six or more normals each exceed numpy's index
        # range; a generator per trial made before the draws would fill
        # memory first, so the stub stops that loop after 1,000 generators
        made = []
        real = np.random.default_rng

        def counting(seed):
            made.append(seed)
            if len(made) > 1000:
                raise AssertionError("1,000 generators made before any allocation")
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        with pytest.raises(ValueError):
            attacked_pairs(0, 2**61, 3, 3, mask)
        assert made == []

    @pytest.mark.parametrize("d_x, d_y", [(3, 0), (0, 3)], ids=["empty-y", "empty-x"])
    def test_empty_block_rejected(self, d_x, d_y):
        with pytest.raises(ValueError, match="dimension"):
            attacked_pairs(0, 2, d_x, d_y, "resample")
