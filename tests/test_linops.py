import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconstab import linops
from reconstab.errors import SingularKernel
from reconstab.featuremaps import sample_map
from reconstab.hermite import get_activation


def _instance(seed, n=None, p=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8)) if n is None else n
    p = int(rng.integers(9, 16)) if p is None else p
    return rng, rng.standard_normal((n, p))


class TestGram:
    def test_orthonormal_rows(self):
        assert np.array_equal(linops.gram(np.eye(2)), np.eye(2))

    def test_single_row(self):
        assert np.allclose(linops.gram(np.array([[3.0, 4.0]])), [[25.0]], atol=0)

    def test_matches_dot_product_loop(self):
        rng, a = _instance(0, n=5, p=8)
        expected = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                expected[i, j] = float(a[i] @ a[j])
        assert np.allclose(linops.gram(a), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, linops.SOLVE_BLOCK + 1, 3 * linops.SOLVE_BLOCK + 7])
    def test_syrk_grams_are_exactly_symmetric(self, n):
        rng = np.random.default_rng(n)
        k = linops.gram(rng.standard_normal((n, 2 * n)))
        assert np.array_equal(k, k.T)
        rows = rng.standard_normal((n, 12))
        rf = sample_map("rf", 2 * n, 12, get_activation("h1+h2"), n)
        ntk = sample_map("ntk", n, 12, get_activation("h0+h1"), n)
        for fmap in (rf, ntk):
            k = fmap.prepare(rows).gram()
            assert np.array_equal(k, k.T)

    def test_symmetric_psd(self):
        _, a = _instance(1)
        k = linops.gram(a)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k)[0] > -1e-12


def _project_rowspace(a, v):
    """P_A v = A^T (A A^T)^{-1} A v through the factored Gram: the kernel-space
    projector the alignment solver applies to the background rows."""
    cache = linops.KernelSolveCache.factor(linops.gram(a), p=a.shape[1])
    return a.T @ cache.solve(a @ v)


def _residual_projection(a, v):
    return v - _project_rowspace(a, v)


class TestProjectRowspace:
    def test_row_is_fixed_point(self):
        _, a = _instance(2)
        assert np.allclose(_project_rowspace(a, a[0]), a[0], atol=1e-10)

    def test_orthogonal_vector_maps_to_zero(self):
        rng = np.random.default_rng(3)
        a = np.hstack([rng.standard_normal((4, 6)), np.zeros((4, 4))])
        v = np.concatenate([np.zeros(6), rng.standard_normal(4)])
        assert np.allclose(_project_rowspace(a, v), 0.0, atol=1e-12)

    def test_matches_svd_oracle(self):
        rng, a = _instance(4, n=4, p=10)
        v = rng.standard_normal(10)
        _, _, vt = np.linalg.svd(a, full_matrices=False)
        oracle = vt.T @ (vt @ v)
        assert np.allclose(_project_rowspace(a, v), oracle, atol=1e-9)

    def test_idempotent(self):
        for seed in range(20):
            rng, a = _instance(seed)
            v = rng.standard_normal(a.shape[1])
            once = _project_rowspace(a, v)
            twice = _project_rowspace(a, once)
            assert np.linalg.norm(twice - once) <= 1e-10 * (1 + np.linalg.norm(once))

    def test_pythagoras(self):
        for seed in range(20):
            rng, a = _instance(seed + 100)
            v = rng.standard_normal(a.shape[1])
            p = _project_rowspace(a, v)
            r = _residual_projection(a, v)
            lhs = float(v @ v)
            assert abs(lhs - (p @ p + r @ r)) <= 1e-9 * lhs

    def test_singular_gram_raises(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(SingularKernel):
            _project_rowspace(a, np.ones(3))


class TestResidualProjection:
    def test_vector_in_span_gives_zero(self):
        rng, a = _instance(5)
        v = a.T @ rng.standard_normal(a.shape[0])
        assert np.allclose(_residual_projection(a, v), 0.0, atol=1e-9 * np.linalg.norm(v))

    def test_orthogonal_vector_unchanged(self):
        rng = np.random.default_rng(6)
        a = np.hstack([rng.standard_normal((4, 6)), np.zeros((4, 4))])
        v = np.concatenate([np.zeros(6), rng.standard_normal(4)])
        assert np.allclose(_residual_projection(a, v), v, atol=1e-12)

    def test_orthogonality_and_complement(self):
        rng, a = _instance(7)
        v = rng.standard_normal(a.shape[1])
        r = _residual_projection(a, v)
        assert np.max(np.abs(a @ r)) <= 1e-9 * np.linalg.norm(v)
        assert np.allclose(r + _project_rowspace(a, v), v, atol=1e-13 * np.linalg.norm(v))


class TestKernelSolveCache:
    def test_factorization_reproduces_matrix(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((6, 9))
        k = linops.gram(a)
        cache = linops.KernelSolveCache.factor(k.copy())
        rebuilt = cache.chol @ cache.chol.T
        assert np.linalg.norm(rebuilt - k) <= 1e-10 * np.linalg.norm(k)
        assert cache.min_eig >= 0.0

    def test_solve_with_refinement(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((8, 12))
        k = linops.gram(a)
        cache = linops.KernelSolveCache.factor(k.copy())
        b = rng.standard_normal(8)
        x = cache.solve(b)
        assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


B = linops.SOLVE_BLOCK
P = linops._SOLVE_PANEL


def _one_level_solve(cache, b):
    """The substitution over SOLVE_BLOCK-wide diagonal blocks alone, without
    row panels: the reference that systems of at most P rows match bit for bit."""
    l, inv, n = cache.chol, cache.diag_inv, cache.n
    blocks = [(s, min(s + B, n)) for s in range(0, n, B)]
    y = np.array(b, dtype=float)
    for i, (s, e) in enumerate(blocks):
        if s:
            y[s:e] -= l[s:e, :s] @ y[:s]
        y[s:e] = inv[i, : e - s, : e - s] @ y[s:e]
    for i, (s, e) in reversed(list(enumerate(blocks))):
        y[s:e] = inv[i, : e - s, : e - s].T @ y[s:e]
        if s:
            y[:s] -= l[s:e, :s].T @ y[s:e]
    return y


def _wishart_gram(n):
    rng = np.random.default_rng(n)
    return rng, linops.gram(rng.standard_normal((n, n + 20)))


class TestBlockedSolve:
    @pytest.mark.parametrize(
        "n", [0, 1, B - 1, B, B + 1, 3 * B + 5, P - 1, P, P + 1, 2 * P + B + 5]
    )
    @pytest.mark.parametrize("width", [None, 3])
    def test_matches_dense_solve(self, n, width):
        rng, k = _wishart_gram(n)
        b = rng.standard_normal(n if width is None else (n, width))
        cache = linops.KernelSolveCache.factor(k.copy())
        x = cache.solve(b)
        oracle = np.linalg.solve(k, b) if n else np.zeros_like(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))
        # the blocked substitution against the triangular solves it replaced
        if n:
            chol = cache.chol
            ref = np.linalg.solve(chol.T, np.linalg.solve(chol, b))
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # up to one panel the panels change nothing; past it, only the
        # order of the sums
        one_level = _one_level_solve(cache, b)
        if n <= P:
            assert np.array_equal(x, one_level)
        else:
            assert np.linalg.norm(x - one_level) <= 1e-12 * np.linalg.norm(one_level)

    @pytest.mark.parametrize("m", [P - 1, P + 1, P + B // 2, 2 * P + B + 4])
    def test_leading_view_that_cuts_a_panel(self, m):
        # n - 1 rows, the view every sweep row takes, cuts the last panel
        rng, k = _wishart_gram(2 * P + B + 5)
        view = linops.KernelSolveCache.factor(k.copy()).leading(m)
        direct = linops.KernelSolveCache.factor(k[:m, :m].copy())
        b = rng.standard_normal((m, 2))
        for rhs in (b, b[:, 0]):
            x, oracle = view.solve(rhs), direct.solve(rhs)
            assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_ntk_gram_wider_than_a_panel(self):
        n, d = P + 100, 64
        z = np.random.default_rng(1).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 2)
        k = fmap.prepare(z).gram()
        cache = linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params)
        b = np.random.default_rng(3).standard_normal(n)
        oracle = np.linalg.solve(k, b)
        assert np.linalg.norm(cache.solve(b) - oracle) <= 1e-10 * np.linalg.norm(oracle)
        _assert_spectrum_close(cache, k)

    def test_ill_conditioned_rf_gram(self):
        # k = N + 5 random features put the condition number near 3e7
        n, d = 300, 30
        rng = np.random.default_rng(0)
        fmap = sample_map("rf", n + 5, d, get_activation("h1+h2"), 0)
        z = rng.standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        k = fmap.prepare(z).gram()
        cache = linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params)
        assert cache.condition > 1e7
        b = rng.standard_normal(n)
        resid = np.linalg.norm(k @ cache.solve(b) - b)
        oracle_resid = np.linalg.norm(k @ np.linalg.solve(k, b) - b)
        assert resid <= oracle_resid


class TestFactorInPlace:
    """The factor is written over the Gram, one block column of P rows at a
    time; a Gram of at most P rows is one LAPACK Cholesky."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, P])
    def test_one_panel_is_lapack_bit_for_bit(self, n):
        _, k = _wishart_gram(n)
        chol = np.linalg.cholesky(k)
        cache = linops.KernelSolveCache.factor(k)
        assert np.shares_memory(cache.chol, k)
        assert np.array_equal(cache.chol, chol)
        assert np.array_equal(cache.diag_inv, linops._diagonal_inverses(chol))

    @pytest.mark.parametrize("n", [P + 1, 2 * P + B + 5])
    def test_block_columns_match_lapack(self, n):
        _, k = _wishart_gram(n)
        chol = np.linalg.cholesky(k)
        cache = linops.KernelSolveCache.factor(k)
        assert np.linalg.norm(cache.chol - chol) <= 1e-14 * np.linalg.norm(chol)
        assert not np.any(np.triu(cache.chol, 1))
        assert np.array_equal(cache.diag_inv, linops._diagonal_inverses(cache.chol))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_breakdown_in_the_second_panel_raises(self, seed):
        # k = 1050 random features: the leading P x P block is positive
        # definite, and the Gram of N = 1100 rows has rank 1050
        n, d = P + 76, 60
        z = np.random.default_rng(seed).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("rf", P + 26, d, get_activation("h1+h2"), seed)
        k = fmap.prepare(z).gram()
        np.linalg.cholesky(k[:P, :P])
        with pytest.raises(SingularKernel, match="not positive definite"):
            linops.KernelSolveCache.factor(k, p=fmap.n_params)

    @pytest.mark.parametrize("n", [P, P + 276])
    def test_ntk_gram_by_row_panels(self, n):
        d = 64
        z = np.random.default_rng(1).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        prepared = sample_map("ntk", 64, d, get_activation("h1+h2"), 2).prepare(z)
        k = prepared.gram()
        whole = (prepared.rows @ prepared.rows.T) * (prepared.derivs @ prepared.derivs.T)
        if n <= P:
            assert np.array_equal(k, whole) and np.array_equal(k, k.T)
        else:
            # a panel is a GEMM, the whole product a syrk: they may differ
            # in the last bit
            assert np.max(np.abs(k - whole)) <= 1e-15 * np.max(np.abs(whole))

    def test_matrix_is_formed_on_read_and_kept(self):
        _, k = _wishart_gram(B + 5)
        cache = linops.KernelSolveCache.factor(k.copy())
        assert cache._matrix is None
        matrix = cache.matrix
        assert cache.matrix is matrix
        assert np.array_equal(matrix, cache.chol @ cache.chol.T)
        assert np.linalg.norm(matrix - k) <= 1e-14 * np.linalg.norm(k)

    def test_build_holds_one_gram_sized_buffer(self):
        # in units of one N x N array, net of the prepared rows: a Gram kept
        # beside its factor holds 2, and a second N x N temporary peaks above 2
        n, d = 1500, 256
        z = np.random.default_rng(0).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 1)
        tracemalloc.start()
        try:
            system = linops.KernelSystem.build(fmap, z)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = system.prepared.derivs.nbytes
        unit = n * n * 8
        assert (held - rows) / unit <= 1.2
        assert (peak - rows) / unit <= 1.9


class TestResidualNormBound:
    def test_first_row_residual_keeps_min_eigenvalue(self):
        for seed in range(50):
            rng, phi = _instance(seed + 300)
            k = linops.gram(phi)
            _, _, vt = np.linalg.svd(phi[1:], full_matrices=False)
            resid = phi[0] - vt.T @ (vt @ phi[0])
            bound = np.linalg.eigvalsh(k)[0] - 1e-8 * np.max(np.abs(k))
            assert float(resid @ resid) >= bound


def _kernel_gram(kind, n, seed=0):
    """Gram of n unit-norm rows under an RF (k = 2n + 40) or NTK (k*d = 1200) map."""
    d = 40
    z = np.random.default_rng(seed).standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    if kind == "rf":
        fmap = sample_map("rf", 2 * n + 40, d, get_activation("h1+h2"), seed + 1)
    else:
        fmap = sample_map("ntk", 30, d, get_activation("h0+h1"), seed + 1)
    return fmap, fmap.prepare(z).gram()


def _with_spectrum(eigs, seed=0):
    """Q diag(eigs) Q^T for a random orthogonal Q."""
    n = len(eigs)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    k = (q * eigs) @ q.T
    return 0.5 * (k + k.T)


def _assert_spectrum_close(cache, k, rel=1e-9, eig_err=0.0):
    """Estimates within ``rel`` relative of eigvalsh; ``eig_err`` * lambda_max
    allows for eigvalsh's own error on an ill-conditioned matrix."""
    exact = np.linalg.eigvalsh(k)
    slack = eig_err * exact[-1]
    assert abs(cache.min_eig - exact[0]) <= rel * exact[0] + slack
    assert abs(cache.max_eig - exact[-1]) <= rel * exact[-1] + slack


class TestSpectrumEstimate:
    @pytest.mark.parametrize("kind", ["rf", "ntk"])
    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, 300])
    def test_matches_eigvalsh_on_kernel_grams(self, kind, n):
        fmap, k = _kernel_gram(kind, n)
        _assert_spectrum_close(linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params), k)

    def test_ill_conditioned_rf_gram(self):
        # the Gram of TestBlockedSolve.test_ill_conditioned_rf_gram: k = N + 5
        n, d = 300, 30
        fmap = sample_map("rf", n + 5, d, get_activation("h1+h2"), 0)
        z = np.random.default_rng(0).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        k = fmap.prepare(z).gram()
        cache = linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params)
        assert cache.condition > 1e7
        _assert_spectrum_close(cache, k, eig_err=1e-12)

    def test_identity_breaks_down_at_step_one(self):
        calls = []

        def apply(v):
            calls.append(v)
            return v.copy()

        assert linops._top_eigenvalue(apply, 50) == pytest.approx(1.0, rel=1e-15)
        assert len(calls) == 1
        cache = linops.KernelSolveCache.factor(np.eye(50))
        assert cache.min_eig == pytest.approx(1.0, rel=1e-15)
        assert cache.max_eig == pytest.approx(1.0, rel=1e-15)

    def test_two_factors_give_the_same_bits(self):
        fmap, k = _kernel_gram("ntk", 200)
        a = linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params)
        b = linops.KernelSolveCache.factor(k.copy(), p=fmap.n_params)
        assert (a.min_eig, a.max_eig, a.tol) == (b.min_eig, b.max_eig, b.tol)
        assert np.array_equal(a.chol, b.chol) and np.array_equal(a.diag_inv, b.diag_inv)
        # lambda_max is read late, and gives the bits of an eager run on L L^T
        l = a.chol
        top = linops._top_eigenvalue(lambda v: l @ (l.T @ v), len(k))
        assert a.max_eig == top
        assert a.tol == linops.rank_tolerance(top, len(k), fmap.n_params)
        assert a.condition == top / a.min_eig

    @pytest.fixture
    def lanczos_sizes(self, monkeypatch):
        """The sizes of the Lanczos runs made while the test runs."""
        sizes = []
        real = linops._top_eigenvalue

        def counting(apply, n):
            sizes.append(n)
            return real(apply, n)

        monkeypatch.setattr(linops, "_top_eigenvalue", counting)
        return sizes

    def test_spectrum_beyond_lambda_min_is_read_once_and_only_on_demand(self, lanczos_sizes):
        fmap, k = _kernel_gram("rf", 100)
        cache = linops.KernelSolveCache.factor(k, p=fmap.n_params)
        assert lanczos_sizes == [100]
        view = cache.leading(60)
        assert np.isnan(view.max_eig) and np.isnan(view.tol) and np.isnan(view.condition)
        assert lanczos_sizes == [100]
        first = (cache.max_eig, cache.tol, cache.condition)
        assert (cache.max_eig, cache.tol, cache.condition) == first
        assert lanczos_sizes == [100, 100]

    def test_between_the_two_tolerances_accepts_after_the_lambda_max_run(self, lanczos_sizes):
        # lambda_min = 2 tol(lambda_max) sits below tol(trace) = tol(40.5), so
        # only lambda_max settles the verdict
        n = 80
        tol = linops.rank_tolerance(1.0, n, n)
        k = _with_spectrum(np.linspace(2.0 * tol, 1.0, n), seed=1)
        trace = np.trace(k)
        cache = linops.KernelSolveCache.factor(k)
        assert lanczos_sizes == [n, n]
        assert cache.tol < cache.min_eig < linops.rank_tolerance(trace, n, n)

    def test_below_tolerance_raises_on_the_lanczos_path(self):
        n = 80
        tol = linops.rank_tolerance(1.0, n, n)
        eigs = np.linspace(0.5 * tol, 1.0, n)
        k = _with_spectrum(eigs, seed=1)
        np.linalg.cholesky(k)  # positive definite: only the estimate can reject it
        with pytest.raises(SingularKernel, match="below tolerance"):
            linops.KernelSolveCache.factor(k)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 100),
        p_over_n=st.integers(1, 4),
        log_ratio=st.floats(-1.0, 3.0),
        bulk_at_bottom=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_is_the_eager_rule_near_the_tolerance(
        self, n, p_over_n, log_ratio, bulk_at_bottom, seed
    ):
        # lambda_min within a factor 10 below to 1000 above tol(lambda_max = 1);
        # a bulk at the bottom puts the trace next to lambda_max
        p = p_over_n * n
        low = 10.0**log_ratio * linops.rank_tolerance(1.0, n, p)
        rng = np.random.default_rng(seed)
        bulk = np.full(n - 2, low) if bulk_at_bottom else rng.uniform(low, 1.0, n - 2)
        k = _with_spectrum(np.concatenate([[low, 1.0], bulk]), seed)
        chol = np.linalg.cholesky(k)
        eager = linops.KernelSolveCache(
            chol=chol, diag_inv=linops._diagonal_inverses(chol), min_eig=0.0, p=p
        )
        min_eig = 1.0 / linops._top_eigenvalue(eager.solve, n)
        max_eig = linops._top_eigenvalue(lambda v: chol @ (chol.T @ v), n)
        accepted = min_eig > linops.rank_tolerance(max_eig, n, p)
        try:
            linops.KernelSolveCache.factor(k, p=p)
        except SingularKernel:
            assert not accepted
        else:
            assert accepted

    def test_indefinite_raises_on_the_cholesky_path(self):
        k = _with_spectrum(np.linspace(-1.0, 1.0, 40), seed=2)
        with pytest.raises(SingularKernel, match="not positive definite"):
            linops.KernelSolveCache.factor(k)

    def test_lands_inside_a_cluster_of_smallest_eigenvalues(self):
        n = 120
        cluster = 1.0 + 1e-7 * np.linspace(0.0, 1.0, 5)
        eigs = np.concatenate([cluster, np.linspace(2.0, 50.0, n - 5)])
        cache = linops.KernelSolveCache.factor(_with_spectrum(eigs, seed=3))
        # roundoff of the factored matrix: eps * condition, far inside the cluster
        slack = 1e-12
        assert cluster[0] * (1 - slack) <= cache.min_eig <= cluster[-1] * (1 + slack)
        assert cache.max_eig == pytest.approx(50.0, rel=1e-9)

    def test_finds_an_extreme_eigenvector_the_start_vector_barely_touches(self):
        # three distinct eigenvalues, and a start vector whose component along
        # the lambda = 1 eigenvector is 3e-4: the bound on the second
        # eigenvalue holds one step before the Krylov space is exhausted
        n = 110
        eigs = np.concatenate([[1.0, 2.03125], np.full(n - 2, 1.015625)])
        k = _with_spectrum(eigs, seed=263)
        _assert_spectrum_close(linops.KernelSolveCache.factor(k.copy()), k)

    def test_top_of_a_tight_cluster_needs_reorthogonalization(self):
        # five eigenvalues within 1e-4 relative at the top, one far below: the
        # Lanczos vectors lose orthogonality as the cluster converges, and
        # without full reorthogonalization the Ritz value misses the top of
        # the cluster by about 7e-7 relative
        eigs = np.concatenate([[1.0], 100.0 * (1.0 + 1e-4 * np.arange(5) / 4)])
        k = _with_spectrum(eigs, seed=3)
        top = np.linalg.eigvalsh(k)[-1]
        assert abs(linops.KernelSolveCache.factor(k).max_eig - top) <= 1e-10 * top

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 150),
        log_cond=st.floats(0.0, 6.0),
        gaps=st.tuples(st.floats(1e-3, 0.5), st.floats(1e-3, 0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimates_on_random_spectra(self, n, log_cond, gaps, seed):
        # lambda_2 >= lambda_1 (1 + gap_lo) and lambda_{n-1} <= lambda_n (1 - gap_hi)
        rng = np.random.default_rng(seed)
        top = max(10.0**log_cond, (1 + gaps[0]) / (1 - gaps[1]))
        lo = 1.0 + gaps[0]
        hi = max(lo, top * (1.0 - gaps[1]))
        if n == 1:
            eigs = np.array([top])
        elif n == 2:
            eigs = np.array([1.0, top])
        else:
            eigs = np.concatenate([[1.0, top], rng.uniform(lo, hi, n - 2)])
        k = _with_spectrum(eigs, seed)
        _assert_spectrum_close(linops.KernelSolveCache.factor(k.copy()), k, eig_err=1e-12)
