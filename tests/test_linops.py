import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconstab import linops
from reconstab.errors import SingularKernel
from reconstab.featuremaps import sample_map
from reconstab.hermite import get_activation

from panels import dense_gram, dense_lower, packed


def _instance(seed, n=None, p=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8)) if n is None else n
    p = int(rng.integers(9, 16)) if p is None else p
    return rng, rng.standard_normal((n, p))


class TestGram:
    @pytest.mark.parametrize("n", [5, linops.SOLVE_BLOCK + 1, 3 * linops.SOLVE_BLOCK + 7])
    def test_syrk_grams_are_exactly_symmetric(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 12))
        rf = sample_map("rf", 2 * n, 12, get_activation("h1+h2"), n)
        ntk = sample_map("ntk", n, 12, get_activation("h0+h1"), n)
        # the syrk product is exactly symmetric, so the packed Gram, which
        # keeps only its lower triangle, loses nothing
        for fmap in (rf, ntk):
            prepared = fmap.prepare(rows)
            whole = np.prod([f @ f.T for f in prepared.factors], axis=0)
            assert np.array_equal(whole, whole.T)
            (k,) = prepared.gram().diags
            assert np.array_equal(np.tril(k), np.tril(whole))


def _project_rowspace(a, v):
    """P_A v = A^T (A A^T)^{-1} A v through the factored Gram: the kernel-space
    projector the alignment solver applies to the background rows."""
    cache = linops.KernelSolveCache.factor(packed(a @ a.T), p=a.shape[1])
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
        k = a @ a.T
        cache = linops.KernelSolveCache.factor(packed(k))
        l = dense_lower(cache.chol)
        rebuilt = l @ l.T
        assert np.linalg.norm(rebuilt - k) <= 1e-10 * np.linalg.norm(k)
        assert cache.min_eig >= 0.0

    def test_solve_with_refinement(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((8, 12))
        k = a @ a.T
        cache = linops.KernelSolveCache.factor(packed(k))
        b = rng.standard_normal(8)
        x = cache.solve(b)
        assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


B = linops.SOLVE_BLOCK
P = linops._SOLVE_PANEL


def _one_level_solve(cache, b):
    """The substitution over SOLVE_BLOCK-wide diagonal blocks alone, without
    row panels: the reference that systems of at most P rows match bit for bit."""
    l, inv, n = dense_lower(cache.chol), cache.diag_inv, cache.n
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
    a = rng.standard_normal((n, n + 20))
    return rng, a @ a.T


class TestBlockedSolve:
    @pytest.mark.parametrize(
        "n",
        [0, 1, B - 1, B, B + 1, 3 * B + 5, P - 1, P, P + 1]
        + [2 * P - 1, 2 * P, 2 * P + 1, 2 * P + B + 5, 4 * P + B + 5],
    )
    @pytest.mark.parametrize("width", [None, 3])
    def test_matches_dense_solve(self, n, width):
        rng, k = _wishart_gram(n)
        b = rng.standard_normal(n if width is None else (n, width))
        cache = linops.KernelSolveCache.factor(packed(k))
        x = cache.solve(b)
        oracle = np.linalg.solve(k, b) if n else np.zeros_like(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))
        # the blocked substitution against the triangular solves it replaced
        if n:
            chol = dense_lower(cache.chol)
            ref = np.linalg.solve(chol.T, np.linalg.solve(chol, b))
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # up to one panel the panels change nothing; past it, only the
        # order of the sums
        one_level = _one_level_solve(cache, b)
        if n <= P:
            assert np.array_equal(x, one_level)
        else:
            assert np.linalg.norm(x - one_level) <= 1e-12 * np.linalg.norm(one_level)

    @pytest.mark.parametrize(
        "m",
        [P - 1, P + 1, P + B // 2, 2 * P - 1, 2 * P + 1, 2 * P + B // 2, 4 * P + B + 4],
    )
    def test_leading_view_that_cuts_a_panel(self, m):
        # views on either side of the first and second panel edges; n - 1
        # rows, the view every sweep row takes, cuts the last panel
        rng, k = _wishart_gram(4 * P + B + 5)
        view = linops.KernelSolveCache.factor(packed(k)).leading(m)
        direct = linops.KernelSolveCache.factor(packed(k[:m, :m]))
        b = rng.standard_normal((m, 2))
        for rhs in (b, b[:, 0]):
            x, oracle = view.solve(rhs), direct.solve(rhs)
            assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("m", [P - 1, P, P + 1, 2 * P, 2 * P + 1, 4 * P + B + 4])
    def test_leading_view_shares_the_factor(self, m):
        rng, k = _wishart_gram(4 * P + B + 5)
        full = linops.KernelSolveCache.factor(packed(k))
        view = full.leading(m)
        spans = linops.RowPanels.spans(m)
        assert view.n == m and len(view.chol.rects) == len(view.chol.diags) == len(spans)
        for part, whole in zip(view.chol.rects, full.chol.rects):
            assert part.size == 0 or np.shares_memory(part, whole)
        for part, whole in zip(view.chol.diags, full.chol.diags):
            assert np.shares_memory(part, whole)
        direct = linops.KernelSolveCache.factor(packed(k[:m, :m]))
        b = rng.standard_normal(m)
        x, oracle = view.solve(b), direct.solve(b)
        if m % P == 0:
            # the fresh factor's panels are the view's, bit for bit
            assert np.array_equal(x, oracle)
        else:
            # the fresh factor inverts its partial last diagonal block alone
            assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_ntk_gram_wider_than_a_panel(self):
        n, d = P + 100, 64
        z = np.random.default_rng(1).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 2)
        k = dense_gram(fmap.prepare(z).gram())
        cache = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
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
        k = dense_gram(fmap.prepare(z).gram())
        cache = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
        assert cache.condition > 1e7
        b = rng.standard_normal(n)
        resid = np.linalg.norm(k @ cache.solve(b) - b)
        oracle_resid = np.linalg.norm(k @ np.linalg.solve(k, b) - b)
        assert resid <= oracle_resid

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_rf_gram_over_block_columns(self, seed):
        # k = N + 5 random features of a degree-2 activation on d = 50 inputs,
        # whose 1,326 monomials of degree <= 2 barely exceed N: condition near
        # 1e6, and a factor of three block columns. The normwise backward
        # error of the solve stays within N eps.
        n, d = 2 * P + B + 5, 50
        rng = np.random.default_rng(seed)
        fmap = sample_map("rf", n + 5, d, get_activation("h1+h2"), seed)
        z = rng.standard_normal((n, d))
        z *= np.sqrt(d) / np.linalg.norm(z, axis=1, keepdims=True)
        k = dense_gram(fmap.prepare(z).gram())
        cache = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
        assert cache.condition > 5e5
        b = rng.standard_normal(n)
        x = cache.solve(b)
        resid = np.max(np.abs(k @ x - b))
        backward = resid / (np.linalg.norm(k, np.inf) * np.max(np.abs(x)) + np.max(np.abs(b)))
        assert backward <= n * np.finfo(float).eps


class TestBlockWalk:
    """``RowPanels.blocks`` with the diagonal tiles is the lower triangle."""

    @pytest.mark.parametrize(
        "n, m",
        [(n, n) for n in (1, B - 1, B, B + 1, P, P + 1, 2 * P + 1, 2 * P + B + 5)]
        + [(2 * P + B + 5, 2 * P + B // 2)],
    )
    def test_blocks_and_tiles_cover_the_lower_triangle_once(self, n, m):
        # the last case is a leading view that cuts a tile and a panel
        panels = packed(np.random.default_rng(n).standard_normal((n, n))).leading(m)
        blocks = panels.blocks()
        # in row order, each starting at a tile: block i ends at tile i
        assert [rows.start for rows, _, _ in blocks] == list(range(0, m, B))
        out, count = np.zeros((m, m)), np.zeros((m, m), dtype=int)
        for rows, cols, block in blocks:
            assert cols.stop == rows.start
            out[rows, cols] += block
            count[rows, cols] += 1
        for s, e, _, diag in panels:
            for a, tile in zip(range(s, e, B), linops._diagonal_tiles(diag)):
                r = min(B, e - a)
                out[a : a + r, a : a + r] += np.tril(tile[:r, :r])
                count[a : a + r, a : a + r] += np.tri(r, dtype=int)
        assert np.array_equal(out, dense_lower(panels))
        assert np.array_equal(count, np.tri(m, dtype=int))


class TestFactorInPlace:
    """The factor is written over the Gram, one block column of P rows at a
    time; a Gram of at most P rows is one LAPACK Cholesky."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, P])
    def test_one_panel_is_lapack_bit_for_bit(self, n):
        _, k = _wishart_gram(n)
        chol = np.linalg.cholesky(k)
        gram = packed(k)
        cache = linops.KernelSolveCache.factor(gram)
        assert cache.chol.diags[0] is gram.diags[0]
        assert np.array_equal(np.tril(cache.chol.diags[0]), chol)
        assert np.array_equal(cache.diag_inv, np.linalg.inv(linops._diagonal_tiles(chol)))

    @pytest.mark.parametrize("n", [P + 1, 2 * P, 2 * P + 1, 2 * P + B + 5, 4 * P + B + 5])
    def test_block_columns_match_lapack(self, n):
        _, k = _wishart_gram(n)
        chol = np.linalg.cholesky(k)
        cache = linops.KernelSolveCache.factor(packed(k))
        l = dense_lower(cache.chol)
        assert np.linalg.norm(l - chol) <= 1e-14 * np.linalg.norm(chol)
        assert np.array_equal(cache.diag_inv, np.linalg.inv(linops._diagonal_tiles(l)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_breakdown_in_the_second_panel_raises(self, seed):
        # k = P + 26 random features: the leading P x P block is positive
        # definite, and the Gram of N = P + 76 rows has rank P + 26
        n, d = P + 76, 60
        z = np.random.default_rng(seed).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("rf", P + 26, d, get_activation("h1+h2"), seed)
        k = dense_gram(fmap.prepare(z).gram())
        np.linalg.cholesky(k[:P, :P])
        with pytest.raises(SingularKernel, match="not positive definite"):
            linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)

    @pytest.mark.parametrize("n", [P, P + 276, 2 * P, 2 * P + 276])
    def test_ntk_gram_by_row_panels(self, n):
        d = 64
        z = np.random.default_rng(1).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        prepared = sample_map("ntk", 64, d, get_activation("h1+h2"), 2).prepare(z)
        k = dense_gram(prepared.gram())
        rows, dv = prepared.factors
        whole = (rows @ rows.T) * (dv @ dv.T)
        if n <= P:
            assert np.array_equal(k, whole) and np.array_equal(k, k.T)
        else:
            # a panel is a GEMM, the whole product a syrk: they may differ
            # in the last bit
            assert np.max(np.abs(k - whole)) <= 1e-15 * np.max(np.abs(whole))

    @pytest.mark.parametrize("n", [1, B + 1, P + 1, 2 * P + B + 5])
    def test_product_operator_is_l_times_l_transpose(self, n):
        # lambda_max's operator on one row, two tiles of one panel, a
        # packed pair with a one-row partner, and a pair and a lone block
        _, k = _wishart_gram(n)
        cache = linops.KernelSolveCache.factor(packed(k))
        l = dense_lower(cache.chol)
        v = np.random.default_rng(n).standard_normal(n)
        dense = l @ (l.T @ v)
        assert np.linalg.norm(cache._product()(v) - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_matrix_is_formed_on_read_and_kept(self):
        _, k = _wishart_gram(B + 5)
        cache = linops.KernelSolveCache.factor(packed(k))
        assert cache._matrix is None
        matrix = cache.matrix
        assert cache.matrix is matrix
        l = dense_lower(cache.chol)
        assert np.array_equal(matrix, l @ l.T)
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
        rows = system.prepared.factors[1].nbytes
        unit = n * n * 8
        assert (held - rows) / unit <= 1.2
        assert (peak - rows) / unit <= 1.9

    def test_build_peaks_at_one_gram_and_one_panel(self):
        # the N x N Gram, one P x N panel (of D D^T while the Gram is built,
        # of a block column's update while it is factored) and the prepared
        # rows, with 2 N B floats for the diagonal-block inverses and the
        # temporaries that compute them
        n, d = 3 * P + B + 5, 256
        z = np.random.default_rng(2).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 3)
        tracemalloc.start()
        try:
            system = linops.KernelSystem.build(fmap, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = system.prepared.factors[1].nbytes
        assert peak <= 8 * (n * n + P * n + 2 * n * B) + rows


    def test_build_holds_the_lower_panels_and_one_panel(self):
        # past six panels: the Gram's lower row panels, at most n (n + P) / 2
        # floats, one P x n panel of D D^T while the Gram is built, and 2 n B
        # floats for the diagonal-block inverses and the temporaries that
        # compute them; an N x N array and one P x N panel would not fit
        n, d = 6 * P + 5, 256
        bound = 8 * (n * (n + P) // 2 + P * n + 2 * n * B)
        assert bound < 8 * (n * n + P * n)
        z = np.random.default_rng(6).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 7)
        tracemalloc.start()
        try:
            system = linops.KernelSystem.build(fmap, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + system.prepared.factors[1].nbytes

    def test_build_holds_the_packed_panels(self):
        # past six panels: the packed Gram, N (N + 1) / 2 floats and one P x P
        # block more for a partial pair or a lone block; the larger of the
        # transients the tests above allow, one P x P block and LAPACK's two
        # copies of a diagonal block, which never coexist; 2 N B floats for
        # the diagonal-block inverses; and the prepared rows. Row panels of
        # N (N + P) / 2 floats with the same transients would not fit.
        n, d = 6 * P + 5, 256
        transients = 2 * P * P + 2 * n * B
        bound = 8 * (n * (n + 1) // 2 + P * P + transients)
        assert 8 * (n * (n + P) // 2 + transients) > bound
        z = np.random.default_rng(8).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fmap = sample_map("ntk", 64, d, get_activation("h0+h1"), 9)
        tracemalloc.start()
        try:
            system = linops.KernelSystem.build(fmap, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + system.prepared.factors[1].nbytes


class TestResidualNormBound:
    def test_first_row_residual_keeps_min_eigenvalue(self):
        for seed in range(50):
            rng, phi = _instance(seed + 300)
            k = phi @ phi.T
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
    return fmap, dense_gram(fmap.prepare(z).gram())


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


def _lanczos_with_basis_list(apply, n):
    """``linops._top_eigenvalue`` as it was written with a list of Lanczos
    vectors, stacked anew at each step: the reference its bits must match."""
    q = np.random.default_rng(linops.LANCZOS_SEED).standard_normal(n)
    basis = [q / np.linalg.norm(q)]
    alphas, betas = [], []
    settled = False
    while True:
        q = basis[-1]
        w = apply(q)
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        if betas:
            w -= betas[-1] * basis[-2]
        stacked = np.array(basis)
        w -= stacked.T @ (stacked @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = float(ritz[-1])
        r = beta * abs(float(vecs[-1, -1]))
        gap = theta - float(ritz[-2]) if len(ritz) > 1 else 0.0
        bound = min(r, r * r / gap) if gap > 0.0 else r
        converged = bound <= linops.LANCZOS_TOL * theta
        if beta <= linops.LANCZOS_TOL * theta or len(basis) == n or (converged and settled):
            return theta
        settled = converged
        betas.append(beta)
        basis.append(w / beta)


class TestSpectrumEstimate:
    @pytest.mark.parametrize("kind", ["rf", "ntk"])
    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B, B + 1, 300])
    def test_matches_eigvalsh_on_kernel_grams(self, kind, n):
        fmap, k = _kernel_gram(kind, n)
        _assert_spectrum_close(linops.KernelSolveCache.factor(packed(k), p=fmap.n_params), k)

    @pytest.mark.parametrize(
        "kind, n",
        [("spectrum", P + 1), ("spectrum", P + B + 5), ("spectrum", 2 * P + B + 5),
         ("ntk", P + 1), ("ntk", P + B + 5)],
    )
    def test_matches_eigvalsh_past_a_panel_edge(self, kind, n):
        # a packed pair, whose second block is a transposed view, and at
        # 2 P + B + 5 a lone block after it; RF Grams on d = 40 inputs are
        # singular at these sizes
        if kind == "spectrum":
            p, k = None, _with_spectrum(np.geomspace(1.0, 1e4, n))
        else:
            fmap, k = _kernel_gram(kind, n)
            p = fmap.n_params
        _assert_spectrum_close(linops.KernelSolveCache.factor(packed(k), p=p), k)

    def test_ill_conditioned_rf_gram(self):
        # the Gram of TestBlockedSolve.test_ill_conditioned_rf_gram: k = N + 5
        n, d = 300, 30
        fmap = sample_map("rf", n + 5, d, get_activation("h1+h2"), 0)
        z = np.random.default_rng(0).standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        k = dense_gram(fmap.prepare(z).gram())
        cache = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
        assert cache.condition > 1e7
        _assert_spectrum_close(cache, k, eig_err=1e-12)

    def test_identity_breaks_down_at_step_one(self):
        calls = []

        def apply(v):
            calls.append(v)
            return v.copy()

        assert linops._top_eigenvalue(apply, 50) == pytest.approx(1.0, rel=1e-15)
        assert len(calls) == 1
        cache = linops.KernelSolveCache.factor(packed(np.eye(50)))
        assert cache.min_eig == pytest.approx(1.0, rel=1e-15)
        assert cache.max_eig == pytest.approx(1.0, rel=1e-15)

    def test_two_factors_give_the_same_bits(self):
        fmap, k = _kernel_gram("ntk", 200)
        a = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
        b = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
        assert (a.min_eig, a.max_eig, a.tol) == (b.min_eig, b.max_eig, b.tol)
        l = dense_lower(a.chol)
        assert np.array_equal(l, dense_lower(b.chol)) and np.array_equal(a.diag_inv, b.diag_inv)
        # lambda_max is read late, and gives the bits of an eager run of its
        # operator on the other factor
        top = linops._top_eigenvalue(b._product(), len(k))
        assert a.max_eig == top
        assert a.tol == linops.rank_tolerance(top, len(k), fmap.n_params)
        assert a.condition == top / a.min_eig
        # and the top eigenvalue of L L^T, up to the order of the sums
        dense = linops._top_eigenvalue(lambda v: l @ (l.T @ v), len(k))
        assert abs(top - dense) <= 1e-14 * dense

    @pytest.mark.parametrize("kind, n", [("ntk", 3000), ("rf", 1500), ("rf", 199)])
    def test_basis_array_gives_the_bits_of_a_basis_list(self, kind, n):
        # the sweeps' NTK and RF Grams and covariance-rf's, on the operators of
        # lambda_min (solves) and lambda_max (products)
        d = 256 if kind == "ntk" else 400
        z = np.random.default_rng(n).standard_normal((n, d))
        z *= (1.0 if kind == "ntk" else np.sqrt(d)) / np.linalg.norm(z, axis=1, keepdims=True)
        k, activation = (64, "h0+h1") if kind == "ntk" else (4000, "h1+h2")
        fmap = sample_map(kind, k, d, get_activation(activation), 1)
        cache = linops.KernelSystem.build(fmap, z).cache
        for apply in (cache.solve, cache._product()):
            assert linops._top_eigenvalue(apply, n) == _lanczos_with_basis_list(apply, n)

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_basis_array_on_small_and_invariant_spaces(self, n):
        # n = 1 and 2 stop when the space is exhausted; the identity breaks
        # down at step one
        a = np.random.default_rng(n).standard_normal((n, n))
        for matrix in (a @ a.T + np.eye(n), np.eye(n)):
            apply = matrix.__matmul__
            assert linops._top_eigenvalue(apply, n) == _lanczos_with_basis_list(apply, n)

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
        cache = linops.KernelSolveCache.factor(packed(k), p=fmap.n_params)
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
        cache = linops.KernelSolveCache.factor(packed(k))
        assert lanczos_sizes == [n, n]
        assert cache.tol < cache.min_eig < linops.rank_tolerance(trace, n, n)

    def test_below_tolerance_raises_on_the_lanczos_path(self):
        n = 80
        tol = linops.rank_tolerance(1.0, n, n)
        eigs = np.linspace(0.5 * tol, 1.0, n)
        k = _with_spectrum(eigs, seed=1)
        np.linalg.cholesky(k)  # positive definite: only the estimate can reject it
        with pytest.raises(SingularKernel, match="below tolerance"):
            linops.KernelSolveCache.factor(packed(k))

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
            chol=packed(chol), diag_inv=np.linalg.inv(linops._diagonal_tiles(chol)),
            min_eig=0.0, p=p,
        )
        min_eig = 1.0 / linops._top_eigenvalue(eager.solve, n)
        max_eig = linops._top_eigenvalue(lambda v: chol @ (chol.T @ v), n)
        accepted = min_eig > linops.rank_tolerance(max_eig, n, p)
        try:
            linops.KernelSolveCache.factor(packed(k), p=p)
        except SingularKernel:
            assert not accepted
        else:
            assert accepted

    def test_indefinite_raises_on_the_cholesky_path(self):
        k = _with_spectrum(np.linspace(-1.0, 1.0, 40), seed=2)
        with pytest.raises(SingularKernel, match="not positive definite"):
            linops.KernelSolveCache.factor(packed(k))

    def test_lands_inside_a_cluster_of_smallest_eigenvalues(self):
        n = 120
        cluster = 1.0 + 1e-7 * np.linspace(0.0, 1.0, 5)
        eigs = np.concatenate([cluster, np.linspace(2.0, 50.0, n - 5)])
        cache = linops.KernelSolveCache.factor(packed(_with_spectrum(eigs, seed=3)))
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
        _assert_spectrum_close(linops.KernelSolveCache.factor(packed(k)), k)

    def test_top_of_a_tight_cluster_needs_reorthogonalization(self):
        # five eigenvalues within 1e-4 relative at the top, one far below: the
        # Lanczos vectors lose orthogonality as the cluster converges, and
        # without full reorthogonalization the Ritz value misses the top of
        # the cluster by about 7e-7 relative
        eigs = np.concatenate([[1.0], 100.0 * (1.0 + 1e-4 * np.arange(5) / 4)])
        k = _with_spectrum(eigs, seed=3)
        top = np.linalg.eigvalsh(k)[-1]
        assert abs(linops.KernelSolveCache.factor(packed(k)).max_eig - top) <= 1e-10 * top

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
        _assert_spectrum_close(linops.KernelSolveCache.factor(packed(k)), k, eig_err=1e-12)
