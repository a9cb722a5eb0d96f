import tracemalloc

import numpy as np
import pytest

from reconstab.errors import DimensionMismatch
from reconstab.featuremaps import _ROW_BLOCK, sample_map
from reconstab.hermite import ACTIVATION_CHUNK, _hermite_matrix, get_activation
from reconstab.linops import _SOLVE_PANEL as P

from panels import dense_gram, held_bytes


def _features(fmap, z):
    """Features of one row: the first row of a batch of one."""
    return fmap.feature_matrix(z)[0]


class TestSampleRfMap:
    def test_deterministic_for_seed(self):
        a = sample_map("rf", 20, 10, get_activation("relu"), seed=7)
        b = sample_map("rf", 20, 10, get_activation("relu"), seed=7)
        assert np.array_equal(a.w, b.w)

    def test_entry_statistics(self):
        m = sample_map("rf", 100, 100, get_activation("relu"), seed=1)
        assert abs(m.w.mean()) <= 4.0 / np.sqrt(100 * 100 * 100)
        assert abs(m.w.var() * 100 - 1.0) <= 0.2

    def test_scalar_entry_variance_across_seeds(self):
        draws = np.array(
            [sample_map("rf", 1, 1, get_activation("relu"), seed=s).w[0, 0] for s in range(10_000)]
        )
        assert abs(draws.var() - 1.0) <= 0.05


class TestRfFeatures:
    def test_identity_activation_gives_preactivations(self):
        m = sample_map("rf", 6, 4, get_activation("identity"), seed=2)
        z = np.arange(4.0)
        assert np.allclose(_features(m, z), m.w @ z, atol=0)

    def test_relu_of_zero_input(self):
        m = sample_map("rf", 5, 3, get_activation("relu"), seed=3)
        assert np.array_equal(_features(m, np.zeros(3)), np.zeros(5))

    def test_matches_scalar_loop(self):
        m = sample_map("rf", 7, 5, get_activation("h1+h2"), seed=4)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5)
        feats = _features(m, z)
        for i in range(7):
            u = float(m.w[i] @ z)
            expected = _hermite_matrix(1, u)[1] + _hermite_matrix(2, u)[2]
            assert feats[i] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        m = sample_map("rf", 3, 4, get_activation("relu"), seed=5)
        with pytest.raises(DimensionMismatch):
            _features(m, np.zeros(5))


class TestNtkFeatures:
    def test_sparse_input_pattern(self):
        m = sample_map("ntk", 1, 3, get_activation("h0+h1"), seed=6)
        z = np.eye(3)[0]
        vec = _features(m, z)
        w = m.activation(m.w @ z)
        assert np.allclose(vec[:1], w, atol=0)
        assert np.array_equal(vec[1:], np.zeros(2))

    def test_norm_factorizes(self):
        m = sample_map("ntk", 4, 6, get_activation("h0+h3"), seed=7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rng.standard_normal(6)
            w = m.activation(m.w @ z)
            expected = float(z @ z) * float(w @ w)
            assert abs(m.kernel(z, z) - expected) <= 1e-10 * expected

    def test_matches_double_loop_kronecker(self):
        m = sample_map("ntk", 2, 3, get_activation("h0+h1"), seed=8)
        z = np.array([0.3, -1.2, 2.0])
        vec = _features(m, z)
        w = m.activation(m.w @ z)
        expected = np.empty(6)
        for i in range(3):
            for j in range(2):
                expected[i * 2 + j] = z[i] * w[j]
        assert np.array_equal(vec, expected)

    def test_feature_matrix_matches_per_row_features(self):
        m = sample_map("ntk", 3, 4, get_activation("h0+h1"), seed=9)
        rows = np.random.default_rng(2).standard_normal((5, 4))
        mat = m.feature_matrix(rows)
        for i, row in enumerate(rows):
            assert np.allclose(mat[i], _features(m, row), atol=0)


class TestKernelEval:
    def test_ntk_orthogonal_inputs(self):
        m = sample_map("ntk", 4, 4, get_activation("h0+h1"), seed=10)
        assert m.kernel(np.eye(4)[0], np.eye(4)[1]) == 0.0

    def test_self_kernel_is_norm(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(5)
        rf = sample_map("rf", 6, 5, get_activation("h1+h2"), seed=11)
        assert rf.kernel(z, z) == pytest.approx(float(_features(rf, z) @ _features(rf, z)))
        ntk = sample_map("ntk", 3, 5, get_activation("h0+h1"), seed=12)
        assert ntk.kernel(z, z) == pytest.approx(float(_features(ntk, z) @ _features(ntk, z)))

    def test_matches_materialized_dot(self):
        m = sample_map("ntk", 3, 4, get_activation("h0+h3"), seed=13)
        rng = np.random.default_rng(4)
        z, zp = rng.standard_normal(4), rng.standard_normal(4)
        explicit = float(_features(m, z) @ _features(m, zp))
        assert abs(m.kernel(z, zp) - explicit) <= 1e-12 * max(abs(explicit), 1.0)

    def test_feature_kernel_consistency_50_pairs(self):
        rng = np.random.default_rng(5)
        rf = sample_map("rf", 40, 8, get_activation("relu"), seed=14)
        ntk = sample_map("ntk", 5, 8, get_activation("h0+h1"), seed=15)
        for _ in range(50):
            z, zp = rng.standard_normal(8), rng.standard_normal(8)
            rf_explicit = float(_features(rf, z) @ _features(rf, zp))
            assert abs(rf.kernel(z, zp) - rf_explicit) <= 1e-9 * max(abs(rf_explicit), 1.0)
            ntk_explicit = float(_features(ntk, z) @ _features(ntk, zp))
            assert abs(ntk.kernel(z, zp) - ntk_explicit) <= 1e-9 * max(abs(ntk_explicit), 1.0)


class TestGramAssembly:
    def test_rf_gram_matches_materialized(self):
        m = sample_map("rf", 500, 10, get_activation("h1+h4"), seed=16)
        rows = np.random.default_rng(6).standard_normal((12, 10))
        via_prepared = dense_gram(m.prepare(rows).gram())
        phi = m.feature_matrix(rows)
        direct = phi @ phi.T
        assert np.allclose(via_prepared, direct, rtol=1e-9)

    def test_ntk_gram_matches_materialized(self):
        m = sample_map("ntk", 100, 20, get_activation("h0+h1"), seed=17)  # kd = 2000
        rows = np.random.default_rng(7).standard_normal((9, 20))
        via_prepared = dense_gram(m.prepare(rows).gram())
        phi = m.feature_matrix(rows)
        direct = phi @ phi.T
        assert np.allclose(via_prepared, direct, rtol=1e-9)

    def test_cross_matches_kernel_eval(self):
        m = sample_map("rf", 30, 6, get_activation("relu"), seed=18)
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((4, 6))
        queries = rng.standard_normal((3, 6))
        cross = m.prepare(rows).cross(m.prepare(queries))
        for i, q in enumerate(queries):
            for j, r in enumerate(rows):
                assert cross[i, j] == pytest.approx(m.kernel(q, r), rel=1e-12)


class TestNtkExpectedKernel:
    def test_mean_kernel_over_map_draws(self):
        # E over W0 of the kernel at normalized inputs: (z . z') k (1 + (z . z')/d)
        d, k = 10, 12
        rng = np.random.default_rng(13)
        z = rng.standard_normal(d)
        z *= np.sqrt(d) / np.linalg.norm(z)
        zp = rng.standard_normal(d)
        zp *= np.sqrt(d) / np.linalg.norm(zp)
        vals = np.array(
            [
                sample_map("ntk", k, d, get_activation("h0+h1"), seed=s).kernel(z, zp)
                for s in range(200)
            ]
        )
        dot = float(z @ zp)
        expected = dot * k * (1.0 + dot / d)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - expected) <= 5.0 * se


class TestInitOutputs:
    def test_rf_zero_init(self):
        m = sample_map("rf", 5, 4, get_activation("relu"), seed=23)
        assert m.outputs(np.ones(4), np.zeros(m.k))[0] == 0.0

    def test_ntk_init_output_is_feature_dot_initialization(self):
        m = sample_map("ntk", 3, 4, get_activation("h0+h1"), seed=24)
        z = np.random.default_rng(14).standard_normal(4)
        theta0 = m.w.T.ravel()
        explicit = float(_features(m, z) @ theta0)
        assert m.outputs(z, m.w.T)[0] == pytest.approx(explicit, rel=1e-12)
        assert m.outputs(z[None, :], m.w.T)[0] == pytest.approx(explicit, rel=1e-12)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), counted from its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRfRowBlocks:
    """Random features are activated over their pre-activations and turned
    into outputs _ROW_BLOCK rows at a time; the results do not depend on the
    blocking.
    """

    @pytest.mark.parametrize("n", [1, _ROW_BLOCK, 3 * _ROW_BLOCK + 17])
    @pytest.mark.parametrize("activation", ["h1+h2", "relu", "tanh"])
    def test_prepared_features_equal_unblocked_activation(self, activation, n):
        m = sample_map("rf", 40, 6, get_activation(activation), seed=25)
        rows = np.random.default_rng(n).standard_normal((n, 6))
        (phi,) = m.prepare(rows).factors
        assert np.array_equal(phi, m.activation(rows @ m.w.T))

    @pytest.mark.parametrize("shape", [(0, 6), (1, 6), (6,), (2 * _ROW_BLOCK + 5, 6)])
    def test_outputs_match_feature_matrix(self, shape):
        m = sample_map("rf", 40, 6, get_activation("h1+h2"), seed=26)
        rng = np.random.default_rng(15)
        rows, w = rng.standard_normal(shape), rng.standard_normal(40)
        out = m.outputs(rows, w)
        expected = m.feature_matrix(rows) @ w
        assert out.shape == expected.shape == (np.atleast_2d(rows).shape[0],)
        assert np.allclose(out, expected, rtol=1e-12, atol=0)

    def test_outputs_never_hold_the_query_features(self):
        k, n = 1000, 8 * _ROW_BLOCK
        m = sample_map("rf", k, 8, get_activation("h1+h2"), seed=27)
        rows = np.random.default_rng(16).standard_normal((n, 8))
        w = np.random.default_rng(17).standard_normal(k)
        block_bytes = _ROW_BLOCK * k * 8
        assert _traced_peak(lambda: m.outputs(rows, w)) < 3 * block_bytes
        assert _traced_peak(lambda: m.outputs(rows[: 2 * _ROW_BLOCK], w)) < 3 * block_bytes

    def test_prepare_holds_one_feature_buffer(self):
        k, n = 1000, 8 * _ROW_BLOCK
        m = sample_map("rf", k, 8, get_activation("h1+h2"), seed=28)
        rows = np.random.default_rng(18).standard_normal((n, 8))
        assert _traced_peak(lambda: m.prepare(rows)) < 1.5 * n * k * 8

    @pytest.mark.parametrize("kind", ["rf", "ntk"])
    @pytest.mark.parametrize("activation", ["h1+h2", "tanh"])
    def test_prepare_activates_over_the_pre_activations(self, kind, activation):
        # one n x k buffer (RF features, or tangent derivatives) and the
        # activation's chunk buffers; a second block of rows would exceed it
        k, n = 1000, 8 * _ROW_BLOCK
        m = sample_map(kind, k, 8, get_activation(activation), seed=29)
        rows = np.random.default_rng(19).standard_normal((n, 8))
        assert _traced_peak(lambda: m.prepare(rows)) < 1.1 * n * k * 8

    def test_outputs_hold_one_row_block(self):
        k, n = 1000, 8 * _ROW_BLOCK
        m = sample_map("rf", k, 8, get_activation("h1+h2"), seed=30)
        rows = np.random.default_rng(20).standard_normal((n, 8))
        w = np.random.default_rng(21).standard_normal(k)
        assert _traced_peak(lambda: m.outputs(rows, w)) < 1.5 * _ROW_BLOCK * k * 8


def _lower_panel(x, s, e):
    """Rows s:e and columns :e of x x^T, as whole row panels of it were
    built: one GEMM left of the diagonal block and a syrk on it."""
    out = np.empty((e - s, e))
    if s:
        np.matmul(x[s:e], x[:s].T, out=out[:, :s])
    np.matmul(x[s:e], x[s:e].T, out=out[:, s:])
    return out


def _prepared(n, kind="ntk"):
    z = np.random.default_rng(n).standard_normal((n, 256))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    activation = get_activation("h0+h1" if kind == "ntk" else "h1+h2")
    return sample_map(kind, 64, 256, activation, 31).prepare(z)


_PANEL_SIZES = [P, P + 1, 2 * P, 2 * P + 1, 3 * P + 5]


class TestNtkGramBlocks:
    """One builder serves both maps: it multiplies each row panel of the
    first factor's product by the next factor's, D D^T for tangent rows,
    one P x P block at a time, with the entries of whole panel products.
    Random-feature rows have the one factor Phi."""

    @pytest.mark.parametrize(
        "kind, n",
        [pytest.param("ntk", n, id=str(n)) for n in _PANEL_SIZES]
        + [pytest.param("rf", n, id=f"rf-{n}") for n in _PANEL_SIZES],
    )
    def test_lower_triangles_equal_the_panel_products(self, kind, n):
        prepared = _prepared(n, kind)
        for s, e, rect, diag in prepared.gram():
            whole = 1.0
            for f in prepared.factors:
                whole = whole * _lower_panel(f, s, e)
            assert np.array_equal(rect, whole[:, :s])
            assert np.array_equal(np.tril(diag), np.tril(whole[:, s:]))

    def test_build_holds_one_block_beside_its_panels(self):
        # a P x n panel of D D^T, 6.3 MB in the third panel, would exceed it
        prepared = _prepared(3 * P + 5)
        tracemalloc.start()
        try:
            gram = prepared.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held_bytes(gram) + 8 * (P * P + ACTIVATION_CHUNK)
