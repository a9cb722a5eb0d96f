import struct

import numpy as np
import pytest

from reconstab import data as datamod
from reconstab.data import (
    MaskStrategy,
    generate_synthetic,
    load_matrix,
    mask_sample,
    sample_teacher,
    save_matrix,
)
from reconstab.errors import BadMagic, DimensionOverflow, TruncatedFile


@pytest.fixture
def teacher():
    return sample_teacher(6, seed=0)


class TestGenerateSynthetic:
    def test_exact_block_norms(self, teacher):
        ds = generate_synthetic(50, 6, 4, teacher, seed=1)
        assert np.allclose(np.linalg.norm(ds.x_block(), axis=1), np.sqrt(6), atol=1e-10)
        assert np.allclose(np.linalg.norm(ds.y_block(), axis=1), np.sqrt(4), atol=1e-10)

    def test_one_dimensional_x(self):
        t = sample_teacher(1, seed=2)
        ds = generate_synthetic(40, 1, 3, t, seed=3)
        assert set(np.unique(ds.x_block())) <= {-1.0, 1.0}
        assert np.array_equal(ds.g, t.labels(ds.x_block()))

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
        x, y = ds.x_block(), ds.y_block()
        for i in range(4):
            for j in range(4):
                corr = np.corrcoef(x[:, i], y[:, j])[0, 1]
                assert abs(corr) <= 5.0 / np.sqrt(n)

    def test_labels_depend_only_on_x(self, teacher):
        base = generate_synthetic(30, 6, 4, teacher, seed=9)
        fresh_noise = generate_synthetic(30, 6, 4, teacher, seed=9, y_seed=999)
        assert np.array_equal(base.x_block(), fresh_noise.x_block())
        assert np.array_equal(base.g, fresh_noise.g)
        assert not np.allclose(base.y_block(), fresh_noise.y_block())

    def test_sign_zero_goes_positive(self):
        t = datamod.TeacherVector(u=np.array([0.0, 1.0]), seed=0)
        assert t.label(np.array([5.0, 0.0])) == 1.0


class TestMaskSample:
    def test_zero_strategy(self):
        out = mask_sample(np.array([1.0, 2, 3, 4, 5]), 3, MaskStrategy("zero"))
        assert np.array_equal(out, [0, 0, 0, 4, 5])

    def test_zero_idempotent(self):
        z = np.arange(6.0)
        strategy = MaskStrategy("zero")
        once = mask_sample(z, 2, strategy)
        assert np.array_equal(mask_sample(once, 2, strategy), once)

    def test_resample_preserves_y_block(self):
        z = np.arange(8.0)
        out = mask_sample(z, 5, MaskStrategy("resample", seed=3))
        assert np.array_equal(out[5:], z[5:])
        assert not np.allclose(out[:5], z[:5])
        assert np.linalg.norm(out[:5]) == pytest.approx(np.sqrt(5))

    def test_resample_deterministic(self):
        z = np.arange(8.0)
        a = mask_sample(z, 5, MaskStrategy("resample", seed=4))
        b = mask_sample(z, 5, MaskStrategy("resample", seed=4))
        assert np.array_equal(a, b)

    def test_resample_distinct_per_index(self):
        z = np.arange(8.0)
        a = mask_sample(z, 5, MaskStrategy("resample", seed=4), index=0)
        b = mask_sample(z, 5, MaskStrategy("resample", seed=4), index=1)
        assert not np.allclose(a[:5], b[:5])


class TestMatrixFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-200, 200, size=(7, 5)))
        path = tmp_path / "m.glma"
        save_matrix(path, m)
        out = load_matrix(path)
        assert np.array_equal(out, m)
        assert out.dtype == np.float64

    def test_layout_on_disk(self, tmp_path):
        path = tmp_path / "m.glma"
        save_matrix(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"GLMA"
        assert struct.unpack("<II", raw[4:12]) == (2, 2)
        assert struct.unpack("<4d", raw[12:]) == (1.0, 2.0, 3.0, 4.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.glma"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\0" * 8)
        with pytest.raises(BadMagic):
            load_matrix(path)

    def test_oversized_header(self, tmp_path):
        path = tmp_path / "huge.glma"
        path.write_bytes(b"GLMA" + struct.pack("<II", 2**20, 2**20))
        with pytest.raises(DimensionOverflow):
            load_matrix(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.glma"
        path.write_bytes(b"GLMA" + struct.pack("<II", 2, 2) + b"\0" * 8)
        with pytest.raises(TruncatedFile):
            load_matrix(path)


class TestMetadata:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ds.meta"
        meta = {"n": 10, "d_x": 4, "d_y": 2, "seed": 7, "label_mode": "sign", "frame_width": 0}
        datamod.write_metadata(path, meta)
        back = datamod.read_metadata(path)
        assert back == {k: str(v) for k, v in meta.items()}

