"""Dense linear algebra: Gram matrices, row-space projections, min-norm solves.

All projections go through the Gram form  P_A v = A^T (A A^T)^{-1} A v, so only
N x N systems are ever factored (the feature dimension p can be much larger
than N and the explicit p x p projector is never materialized).

Each Gram is factored once, by Cholesky. Solves against the factor are blocked
triangular substitutions: off-diagonal blocks are BLAS matrix products and
only the small diagonal blocks go through a direct solve, so no N x N system
is ever handed to a general LU. The factor of a leading principal block is the
leading block of the factor, so the system on the first m training rows is a
view of the full system (``KernelSystem.leading``), not a second factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, SingularGram, SingularKernel

# "Invertible" means the smallest eigenvalue of A A^T clears this multiple of
# the largest one (scaled by max matrix dimension). Below it we raise instead
# of regularizing: a ridge term would silently break exact interpolation.
RANK_TOL_FACTOR = 1e-10

# Width of the diagonal blocks of the triangular solves. The direct solves of
# the diagonal blocks cost O(N * SOLVE_BLOCK^2) per call. On a 2-core Xeon with
# 2 BLAS threads, at N = 1500 and 3000 with 1 and 20 right-hand sides, widths
# 32 and 64 were within 15% of each other and 128 to 512 were slower.
SOLVE_BLOCK = 64


def gram(a: np.ndarray) -> np.ndarray:
    """Return A A^T for a matrix with samples on its rows."""
    a = np.asarray(a, dtype=float)
    k = a @ a.T
    # roundoff can leave k very slightly asymmetric; symmetrize once
    return 0.5 * (k + k.T)


def rank_tolerance(max_eig: float, n: int, p: int) -> float:
    return RANK_TOL_FACTOR * max(n, p) * max(max_eig, 0.0)


@dataclass
class KernelSolveCache:
    """Cholesky factorization of an SPD Gram/kernel matrix plus spectrum metadata.

    Solves run blocked forward substitution on L and back substitution on L^T,
    then one iterative-refinement pass: the alignment ratio divides two small
    quantities and benefits from the extra digit of accuracy. A leading view
    (``leading``) shares the factor's memory and has no spectrum of its own:
    its eigenvalue fields are NaN.
    """

    chol: np.ndarray
    matrix: np.ndarray
    min_eig: float
    max_eig: float
    tol: float

    @classmethod
    def factor(cls, k: np.ndarray, p: int | None = None) -> "KernelSolveCache":
        k = np.asarray(k, dtype=float)
        n = k.shape[0]
        if k.shape != (n, n):
            raise SingularGram(f"expected square matrix, got {k.shape}")
        if n == 0:
            return cls(chol=np.zeros((0, 0)), matrix=k, min_eig=0.0, max_eig=0.0, tol=0.0)
        eigs = np.linalg.eigvalsh(k)
        min_eig, max_eig = float(eigs[0]), float(eigs[-1])
        tol = rank_tolerance(max_eig, n, p if p is not None else n)
        if min_eig <= tol:
            raise SingularGram(
                f"smallest eigenvalue {min_eig:.3e} below tolerance {tol:.3e}"
            )
        chol = np.linalg.cholesky(k)
        return cls(chol=chol, matrix=k, min_eig=min_eig, max_eig=max_eig, tol=tol)

    @property
    def n(self) -> int:
        return self.chol.shape[0]

    def leading(self, m: int) -> "KernelSolveCache":
        """The factor of the leading m x m block, as a view of this one.

        By interlacing, lambda_min of the block is at least this matrix's, so
        the block clears the rank tolerance whenever this matrix does.
        """
        if not 0 <= m <= self.n:
            raise ValueError(f"leading block of {m} rows out of range for n={self.n}")
        nan = float("nan")
        return KernelSolveCache(
            chol=self.chol[:m, :m], matrix=self.matrix[:m, :m],
            min_eig=nan, max_eig=nan, tol=nan,
        )

    @property
    def condition(self) -> float:
        """lambda_max / lambda_min; 1.0 for the empty system, NaN for a view."""
        if self.n == 0:
            return 1.0
        return np.inf if self.min_eig <= 0 else self.max_eig / self.min_eig

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve K x = b with one refinement pass."""
        b = np.asarray(b, dtype=float)
        if self.n == 0:
            return np.zeros_like(b)
        x = self._chol_solve(b)
        r = b - self.matrix @ x
        return x + self._chol_solve(r)

    def _chol_solve(self, b: np.ndarray) -> np.ndarray:
        """(L L^T)^{-1} b by forward then back substitution over diagonal blocks."""
        l = self.chol
        n = self.n
        starts = range(0, n, SOLVE_BLOCK)
        y = np.array(b, dtype=float)
        for s in starts:
            e = min(s + SOLVE_BLOCK, n)
            if s:
                y[s:e] -= l[s:e, :s] @ y[:s]
            y[s:e] = np.linalg.solve(l[s:e, s:e], y[s:e])
        for s in reversed(starts):
            e = min(s + SOLVE_BLOCK, n)
            if e < n:
                y[s:e] -= l[e:, s:e].T @ y[e:]
            y[s:e] = np.linalg.solve(l[s:e, s:e].T, y[s:e])
        return y


@dataclass(eq=False)
class KernelSystem:
    """Training rows prepared by a feature map, with their Gram factored once.

    Fits, predictions, alignments and attacks all query this one object:
    ``cross`` gives the kernel rows of queries against the training rows and
    ``solve`` applies the inverse Gram. A singular Gram raises SingularKernel
    here and nowhere else; no ridge term is ever added.
    """

    map: object
    prepared: object
    cache: KernelSolveCache

    @classmethod
    def build(cls, fmap, rows: np.ndarray) -> "KernelSystem":
        prepared = fmap.prepare(rows)
        try:
            cache = KernelSolveCache.factor(prepared.gram(), p=fmap.n_params)
        except SingularGram as exc:
            raise SingularKernel(str(exc)) from exc
        return cls(map=fmap, prepared=prepared, cache=cache)

    @property
    def n(self) -> int:
        return self.prepared.n

    def cross(self, rows: np.ndarray) -> np.ndarray:
        """Kernel rows, one per query row, against the training rows."""
        return self.prepared.cross(rows)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.cache.solve(b)

    def leading(self, m: int) -> "KernelSystem":
        """The system on the first m training rows, sharing this one's
        prepared rows and factor: no second Gram or factorization.
        """
        return KernelSystem(
            map=self.map, prepared=self.prepared.head(m), cache=self.cache.leading(m)
        )


def project_rowspace(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the span of the rows of A (Gram form, kernel space)."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    if a.shape[0] == 0:
        return np.zeros_like(v)
    cache = KernelSolveCache.factor(gram(a), p=a.shape[1])
    return a.T @ cache.solve(a @ v)


def residual_projection(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to the row span of A."""
    return np.asarray(v, dtype=float) - project_rowspace(a, v)


def gram_schmidt_projector_update(phi: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the rank-one projector update.

    lhs is the projection of v onto the rows of Phi; rhs rebuilds it from the
    projector onto the last N-1 rows plus the rank-one term along
    u = (residual of the first row). The caller asserts lhs == rhs.
    """
    phi = np.asarray(phi, dtype=float)
    v = np.asarray(v, dtype=float)
    lhs = project_rowspace(phi, v)
    phi_rest = phi[1:]
    u = residual_projection(phi_rest, phi[0])
    u_norm_sq = float(u @ u)
    if u_norm_sq <= RANK_TOL_FACTOR * max(float(phi[0] @ phi[0]), 1.0):
        raise SingularGram("first-row residual is numerically zero")
    rhs = project_rowspace(phi_rest, v) + u * (u @ v) / u_norm_sq
    return lhs, rhs


def leave_one_out_project(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the identity  P_{A_-1} A^+ v = A_-1^+ v_-1.

    v lives in R^N (coefficient space); v_-1 drops its first entry.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    cache = KernelSolveCache.factor(gram(a), p=a.shape[1])
    a_plus_v = a.T @ cache.solve(v)
    lhs = project_rowspace(a[1:], a_plus_v)
    rest = a[1:]
    cache_rest = KernelSolveCache.factor(gram(rest), p=rest.shape[1])
    rhs = rest.T @ cache_rest.solve(v[1:])
    return lhs, rhs


def min_eigenvalue(k: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    k = np.asarray(k, dtype=float)
    scale = float(np.max(np.abs(k))) if k.size else 0.0
    if not np.allclose(k, k.T, atol=1e-10 * max(scale, 1.0), rtol=0.0):
        raise NotSymmetric("asymmetry beyond 1e-10 relative")
    if k.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (k + k.T))[0])
