import numpy as np
import pytest
import scipy.linalg

from reconstab import linops
from reconstab.errors import NotSymmetric, SingularGram
from reconstab.featuremaps import sample_rf_map
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

    def test_symmetric_psd(self):
        _, a = _instance(1)
        k = linops.gram(a)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k)[0] > -1e-12


class TestProjectRowspace:
    def test_row_is_fixed_point(self):
        _, a = _instance(2)
        assert np.allclose(linops.project_rowspace(a, a[0]), a[0], atol=1e-10)

    def test_orthogonal_vector_maps_to_zero(self):
        rng = np.random.default_rng(3)
        a = np.hstack([rng.standard_normal((4, 6)), np.zeros((4, 4))])
        v = np.concatenate([np.zeros(6), rng.standard_normal(4)])
        assert np.allclose(linops.project_rowspace(a, v), 0.0, atol=1e-12)

    def test_matches_svd_oracle(self):
        rng, a = _instance(4, n=4, p=10)
        v = rng.standard_normal(10)
        _, _, vt = np.linalg.svd(a, full_matrices=False)
        oracle = vt.T @ (vt @ v)
        assert np.allclose(linops.project_rowspace(a, v), oracle, atol=1e-9)

    def test_idempotent(self):
        for seed in range(20):
            rng, a = _instance(seed)
            v = rng.standard_normal(a.shape[1])
            once = linops.project_rowspace(a, v)
            twice = linops.project_rowspace(a, once)
            assert np.linalg.norm(twice - once) <= 1e-10 * (1 + np.linalg.norm(once))

    def test_pythagoras(self):
        for seed in range(20):
            rng, a = _instance(seed + 100)
            v = rng.standard_normal(a.shape[1])
            p = linops.project_rowspace(a, v)
            r = linops.residual_projection(a, v)
            lhs = float(v @ v)
            assert abs(lhs - (p @ p + r @ r)) <= 1e-9 * lhs

    def test_singular_gram_raises(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(SingularGram):
            linops.project_rowspace(a, np.ones(3))


class TestResidualProjection:
    def test_vector_in_span_gives_zero(self):
        rng, a = _instance(5)
        v = a.T @ rng.standard_normal(a.shape[0])
        assert np.allclose(linops.residual_projection(a, v), 0.0, atol=1e-9 * np.linalg.norm(v))

    def test_orthogonal_vector_unchanged(self):
        rng = np.random.default_rng(6)
        a = np.hstack([rng.standard_normal((4, 6)), np.zeros((4, 4))])
        v = np.concatenate([np.zeros(6), rng.standard_normal(4)])
        assert np.allclose(linops.residual_projection(a, v), v, atol=1e-12)

    def test_orthogonality_and_complement(self):
        rng, a = _instance(7)
        v = rng.standard_normal(a.shape[1])
        r = linops.residual_projection(a, v)
        assert np.max(np.abs(a @ r)) <= 1e-9 * np.linalg.norm(v)
        assert np.allclose(r + linops.project_rowspace(a, v), v, atol=1e-13 * np.linalg.norm(v))


class TestGramSchmidtUpdate:
    def test_v_equal_to_residual_direction(self):
        rng, phi = _instance(8, n=5, p=12)
        u = linops.residual_projection(phi[1:], phi[0])
        lhs, rhs = linops.gram_schmidt_projector_update(phi, u)
        assert np.allclose(lhs, u, atol=1e-9)
        assert np.allclose(rhs, u, atol=1e-9)

    def test_orthogonal_vector_gives_zero_pair(self):
        rng = np.random.default_rng(9)
        phi = np.hstack([rng.standard_normal((4, 7)), np.zeros((4, 5))])
        v = np.concatenate([np.zeros(7), rng.standard_normal(5)])
        lhs, rhs = linops.gram_schmidt_projector_update(phi, v)
        assert np.allclose(lhs, 0.0, atol=1e-12)
        assert np.allclose(rhs, 0.0, atol=1e-12)

    def test_random_instance(self):
        rng, phi = _instance(10, n=6, p=12)
        v = rng.standard_normal(12)
        lhs, rhs = linops.gram_schmidt_projector_update(phi, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(v)


class TestLeaveOneOutProject:
    def test_first_basis_vector(self):
        _, a = _instance(11, n=5, p=9)
        lhs, rhs = linops.leave_one_out_project(a, np.eye(5)[0])
        assert np.allclose(rhs, 0.0, atol=1e-12)
        assert np.allclose(lhs, 0.0, atol=1e-9)

    def test_zero_first_entry(self):
        rng, a = _instance(12, n=5, p=9)
        v = rng.standard_normal(5)
        v[0] = 0.0
        lhs, rhs = linops.leave_one_out_project(a, v)
        cache = linops.KernelSolveCache.factor(linops.gram(a[1:]))
        direct = a[1:].T @ cache.solve(v[1:])
        assert np.linalg.norm(rhs - direct) <= 1e-9 * np.linalg.norm(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(v)

    def test_random_instance(self):
        rng, a = _instance(13, n=5, p=9)
        v = rng.standard_normal(5)
        lhs, rhs = linops.leave_one_out_project(a, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(v)


class TestMinEigenvalue:
    def test_identity(self):
        assert linops.min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linops.min_eigenvalue(np.diag([2.0, 5.0, 0.1])) == pytest.approx(0.1)

    def test_matches_independent_eigensolver(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((10, 12))
        k = linops.gram(a)
        oracle = float(scipy.linalg.eigh(k, eigvals_only=True, driver="ev")[0])
        norm = np.linalg.norm(k, 2)
        assert abs(linops.min_eigenvalue(k) - oracle) <= 1e-8 * norm

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            linops.min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestKernelSolveCache:
    def test_factorization_reproduces_matrix(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((6, 9))
        k = linops.gram(a)
        cache = linops.KernelSolveCache.factor(k)
        rebuilt = cache.chol @ cache.chol.T
        assert np.linalg.norm(rebuilt - k) <= 1e-10 * np.linalg.norm(k)
        assert cache.min_eig >= 0.0

    def test_solve_with_refinement(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((8, 12))
        k = linops.gram(a)
        cache = linops.KernelSolveCache.factor(k)
        b = rng.standard_normal(8)
        x = cache.solve(b)
        assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


B = linops.SOLVE_BLOCK


class TestBlockedSolve:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("width", [None, 3])
    def test_matches_dense_solve(self, n, width):
        rng = np.random.default_rng(n)
        k = linops.gram(rng.standard_normal((n, n + 20)))
        b = rng.standard_normal(n if width is None else (n, width))
        cache = linops.KernelSolveCache.factor(k)
        x = cache.solve(b)
        oracle = np.linalg.solve(k, b) if n else np.zeros_like(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - oracle) <= 1e-10 * (1.0 + np.linalg.norm(oracle))
        # the unrefined substitution against the triangular solves it replaced
        if n:
            chol = cache.chol
            ref = np.linalg.solve(chol.T, np.linalg.solve(chol, b))
            got = cache._chol_solve(b)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_ill_conditioned_rf_gram(self):
        # k = N + 5 random features put the condition number near 3e7
        n, d = 300, 30
        rng = np.random.default_rng(0)
        fmap = sample_rf_map(n + 5, d, get_activation("h1+h2"), 0)
        z = rng.standard_normal((n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        k = fmap.prepare(z).gram()
        cache = linops.KernelSolveCache.factor(k, p=fmap.n_params)
        assert cache.condition > 1e7
        b = rng.standard_normal(n)
        resid = np.linalg.norm(k @ cache.solve(b) - b)
        oracle_resid = np.linalg.norm(k @ np.linalg.solve(k, b) - b)
        assert resid <= oracle_resid


class TestResidualNormBound:
    def test_first_row_residual_keeps_min_eigenvalue(self):
        for seed in range(50):
            rng, phi = _instance(seed + 300)
            k = linops.gram(phi)
            resid = linops.residual_projection(phi[1:], phi[0])
            bound = linops.min_eigenvalue(k) - 1e-8 * np.max(np.abs(k))
            assert float(resid @ resid) >= bound
