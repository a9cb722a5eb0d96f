"""Dense linear algebra: Gram matrices, their factorization, min-norm solves.

Everything runs in kernel space: only the N x N Gram A A^T of the N training
rows is ever factored (the feature dimension p can be much larger than N, and
no p x p matrix is ever formed).

Each Gram is factored once, by Cholesky, and that is the only O(N^3) step. A
fit holds one N x N buffer: ``KernelSolveCache.factor`` consumes the Gram it
is given and writes the factor over it, block column by block column, and no
copy of the Gram is kept beside the factor. The extreme eigenvalues come from
Lanczos on the factored matrix L L^T, not from a dense eigensolver, and each
is paid for only where it is needed. lambda_min (solves against the factor)
is computed by every factorization, because the rank guard needs it.
lambda_max (products v -> L (L^T v)) is computed on first read, and the rank
guard reads it only when the trace, read before the factor overwrites the
diagonal, cannot settle the verdict: a positive definite Gram has
trace >= lambda_max, so a lambda_min above the tolerance of the trace is
above the tolerance of lambda_max too. Solves against the factor are blocked
triangular substitutions over two levels: wide row panels, whose
off-diagonal products are threaded BLAS matrix products, and small diagonal
blocks inside each panel, multiplied by their inverses, computed once per
factor as it is built. So no N x N system is ever handed to a general LU. The
factor of a leading principal block is the leading block of the factor, so
the system on the first m training rows is a view of the full system
(``KernelSystem.leading``), not a second factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularKernel

# "Invertible" means the smallest eigenvalue of A A^T clears this multiple of
# the largest one (scaled by max matrix dimension). Below it we raise instead
# of regularizing: a ridge term would silently break exact interpolation.
RANK_TOL_FACTOR = 1e-10

# Width of the diagonal blocks of the triangular solves. Inverting the diagonal
# blocks costs O(N * SOLVE_BLOCK^2) once per factor and holds N * SOLVE_BLOCK
# floats; applying them costs O(N * SOLVE_BLOCK) per right-hand side, against
# O(N^2) for the off-diagonal products. On a 2-core Xeon with 2 BLAS threads,
# at N = 1500 and 3000 with 1 and 20 right-hand sides, 128 was 1-11% faster
# than 64 on one right-hand side and tied on 20, but costs twice as much to
# invert (18 against 9 ms at N = 3000); 32 was slower in every case.
SOLVE_BLOCK = 64
# Width of the row panels of the triangular solves, a multiple of SOLVE_BLOCK.
# A panel's off-diagonal product L[S:E, :S] @ y[:S] is one BLAS call that
# OpenBLAS threads; inside the panel the SOLVE_BLOCK loop runs as before, so a
# system of at most _SOLVE_PANEL rows is solved exactly as without panels.
# On the sweep's NTK Gram (N = 3000) with 2 BLAS threads, one right-hand side
# took 6.1 ms without panels, 4.7 ms at 1024 and 5.2 ms at 2048; 4 and 20
# right-hand sides took 14.5 and 20.4 ms without, 11.2 and 19.1 ms at 1024.
# 512 was within noise of 1024 on one right-hand side, at N = 1500 and 3000,
# and 1024 leaves every system of up to 1024 rows as it was.
# It is also the width of the block columns of the factorization, so a Gram
# of up to _SOLVE_PANEL rows is one LAPACK Cholesky and factors bit for bit as
# before. With 2 BLAS threads the NTK Gram of N = 3000 factored in 0.23 s at
# 1024, 0.24 at 256 and 0.27 at 64 (one LAPACK call: 0.38); the RF Gram of
# N = 1500 in 0.061 s at 1024 and 0.035 at 64 (LAPACK: 0.057). A 64-wide
# factor of the ill-conditioned RF Gram of
# TestBlockedSolve.test_ill_conditioned_rf_gram solves with 1.09 times the
# residual of LU, where the one LAPACK call gives 0.95 times.
_SOLVE_PANEL = 1024

# Lanczos stops once a bound on the distance from its top Ritz value to an
# eigenvalue falls below this fraction of that Ritz value.
LANCZOS_TOL = 1e-10
# Seed of the Lanczos start vector: a fixed generator, not the global one, so
# an estimate (and the sweep CSV that reports it) depends on the matrix alone.
LANCZOS_SEED = 0


def gram(a: np.ndarray) -> np.ndarray:
    """Return A A^T for a matrix with samples on its rows.

    numpy computes ``a @ a.T`` by a BLAS syrk, which fills one triangle and
    mirrors it, so the result is exactly symmetric and needs no symmetrizing
    pass.
    """
    a = np.asarray(a, dtype=float)
    return a @ a.T


def rank_tolerance(max_eig: float, n: int, p: int) -> float:
    return RANK_TOL_FACTOR * max(n, p) * max(max_eig, 0.0)


def _top_eigenvalue(apply, n: int) -> float:
    """Largest eigenvalue of the symmetric positive definite operator ``apply``
    on R^n, by Lanczos with full reorthogonalization.

    Let theta be the top Ritz value of the j-step tridiagonal T_j, s its unit
    eigenvector and beta the next off-diagonal. Then r = beta |s_j| bounds the
    distance from theta to an eigenvalue, and so does r^2 / gap, with gap the
    distance from theta to the next Ritz value (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, sections 11-13). The gap form needs two Ritz
    values, so it is used from step 2 on. Iteration stops at breakdown
    (beta <= LANCZOS_TOL * theta: the Krylov space is invariant), after n
    steps, or when the smaller bound is at most LANCZOS_TOL * theta at two
    consecutive steps. The bounds place theta near some eigenvalue, not
    necessarily the largest: when the start vector barely touches the top
    eigenvector and the rest of the spectrum is a few distinct points, one
    step can meet the bound on the second eigenvalue just before the Krylov
    space is exhausted and the top one surfaces. In exact arithmetic theta
    never exceeds the largest eigenvalue.
    """
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    basis = [q / np.linalg.norm(q)]
    alphas: list[float] = []
    betas: list[float] = []
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
        converged = bound <= LANCZOS_TOL * theta
        if beta <= LANCZOS_TOL * theta or len(basis) == n or (converged and settled):
            return theta
        settled = converged
        betas.append(beta)
        basis.append(w / beta)


def _diagonal_inverses(chol: np.ndarray) -> np.ndarray:
    """Inverses of the SOLVE_BLOCK-wide diagonal blocks of a lower-triangular
    factor, stacked. The last, partial block is padded with the identity, so
    block i of the inverse of the leading r x r block is ``[i, :r, :r]``.
    """
    n = chol.shape[0]
    starts = range(0, n, SOLVE_BLOCK)
    blocks = np.tile(np.eye(SOLVE_BLOCK), (len(starts), 1, 1))
    for i, s in enumerate(starts):
        e = min(s + SOLVE_BLOCK, n)
        blocks[i, : e - s, : e - s] = chol[s:e, s:e]
    return np.linalg.inv(blocks)


def _forward_blocks(l: np.ndarray, inv: np.ndarray, y: np.ndarray, ps: int, pe: int) -> None:
    """y[ps:pe] <- L[ps:pe, ps:pe]^{-1} y[ps:pe], in place, by forward
    substitution over the SOLVE_BLOCK-wide diagonal blocks of the panel; block
    i of ``inv`` is the inverse of L's diagonal block that starts at row
    i * SOLVE_BLOCK.
    """
    for s in range(ps, pe, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, pe)
        if s > ps:
            y[s:e] -= l[s:e, ps:s] @ y[ps:s]
        y[s:e] = inv[s // SOLVE_BLOCK, : e - s, : e - s] @ y[s:e]


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the SPD matrix ``a`` with its lower Cholesky factor and return
    the inverses of the factor's diagonal blocks (as ``_diagonal_inverses``).

    Left-looking over _SOLVE_PANEL-wide block columns (Golub & Van Loan,
    Matrix Computations, 4th ed., section 4.2): each column is updated by one
    product with the columns already factored, its diagonal block is factored
    by LAPACK, and the panel below solves against that block by the forward
    substitution of ``solve``. Only the lower triangle of ``a`` is read, and
    the upper one is zeroed. The transient memory is one block column and
    LAPACK's copies of one diagonal block.
    """
    n = a.shape[0]
    diag_inv = np.empty(((n + SOLVE_BLOCK - 1) // SOLVE_BLOCK, SOLVE_BLOCK, SOLVE_BLOCK))
    for j in range(0, n, _SOLVE_PANEL):
        e = min(j + _SOLVE_PANEL, n)
        if j:
            a[j:, j:e] -= a[j:, :j] @ a[j:e, :j].T
            a[:j, j:e] = 0.0
        try:
            a[j:e, j:e] = np.linalg.cholesky(a[j:e, j:e])
        except np.linalg.LinAlgError as exc:
            raise SingularKernel("Gram matrix is not positive definite") from exc
        blocks = slice(j // SOLVE_BLOCK, (e + SOLVE_BLOCK - 1) // SOLVE_BLOCK)
        diag_inv[blocks] = _diagonal_inverses(a[j:e, j:e])
        # the rows below: L[e:, j:e] = A[e:, j:e] L[j:e, j:e]^{-T}
        _forward_blocks(a, diag_inv, a[e:].T, j, e)
    return diag_inv


@dataclass
class KernelSolveCache:
    """Cholesky factorization of an SPD Gram/kernel matrix plus spectrum metadata.

    ``factor`` consumes its argument: the Gram's buffer becomes the factor
    ``chol``, so a factored system holds one N x N array and no copy of the
    Gram. A caller that needs the Gram afterwards passes a copy.

    ``min_eig`` and ``max_eig`` are Lanczos estimates (``_top_eigenvalue``) on
    the factored matrix L L^T, each within about LANCZOS_TOL relative of the
    exact eigenvalue of that matrix. lambda_min also carries the
    factorization's roundoff, at most of order n * eps * lambda_max, because
    its Lanczos runs on (L L^T)^{-1}; on an RF Gram of condition 3e7 it differs
    from a dense eigensolver's by 2e-10 relative. In exact arithmetic Ritz
    values never exceed the top eigenvalue, so max_eig is a lower bound and
    min_eig, the reciprocal of the top eigenvalue of K^{-1}, an upper bound
    (1/theta >= lambda_min).

    ``factor`` computes min_eig. ``max_eig``, and with it ``tol`` and
    ``condition``, is computed on first read, by Lanczos on v -> L (L^T v),
    and kept; it starts from the same fixed vector whenever it runs, so a late
    read gives the same bits as an eager one. The rank guard accepts a Gram at
    once when min_eig clears the tolerance of (1 + n eps) trace(K): trace(K) >=
    lambda_max >= theta_max, and the pad covers the roundoff of the trace's n
    positive terms. Otherwise it reads max_eig and applies the rule
    min_eig > tol(max_eig), so the verdict is that of the eager rule for every
    Gram.

    Solves are one blocked forward and one back substitution. Cholesky is
    backward stable, so a refinement pass in working precision would not
    reduce the forward error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 12); on RF and NTK Grams of condition up to 5.6e5
    it did not move alignments closer to the SVD-projector oracle. A leading
    view (``leading``) shares the factor's memory and has no spectrum of its
    own: its eigenvalue fields are NaN and reading them runs no Lanczos.
    """

    chol: np.ndarray
    diag_inv: np.ndarray
    min_eig: float
    p: int
    _max_eig: float | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def factor(cls, k: np.ndarray, p: int | None = None) -> "KernelSolveCache":
        """Factor the Gram ``k``, writing the factor over a float array ``k``:
        the caller must not read ``k`` afterwards."""
        k = np.asarray(k, dtype=float)
        n = k.shape[0]
        if k.shape != (n, n):
            raise SingularKernel(f"expected square matrix, got {k.shape}")
        p = n if p is None else p
        # trace(K) >= lambda_max: only a lambda_min below the tolerance of the
        # trace needs lambda_max for the verdict
        trace_bound = (1.0 + n * np.finfo(float).eps) * float(np.trace(k))
        cache = cls(chol=k, diag_inv=_cholesky_in_place(k), min_eig=0.0, p=p)
        if n == 0:
            cache._max_eig = 0.0
            return cache
        cache.min_eig = 1.0 / _top_eigenvalue(cache.solve, n)
        if cache.min_eig <= rank_tolerance(trace_bound, n, p) and cache.min_eig <= cache.tol:
            raise SingularKernel(
                f"smallest eigenvalue {cache.min_eig:.3e} below tolerance {cache.tol:.3e}"
            )
        return cache

    @property
    def max_eig(self) -> float:
        """Lanczos estimate of lambda_max, computed on first read."""
        if self._max_eig is None:
            l = self.chol
            self._max_eig = _top_eigenvalue(lambda v: l @ (l.T @ v), self.n)
        return self._max_eig

    @property
    def matrix(self) -> np.ndarray:
        """The factored matrix L L^T, formed on first read and kept.

        Nothing in the package reads it, so an untraced run never forms it.
        It is kept for the benchmark's tracer, which measures solve residuals
        against it, until the package records its own trace (ROADMAP,
        direction 1) and this property goes.
        """
        if self._matrix is None:
            self._matrix = self.chol @ self.chol.T
        return self._matrix

    @property
    def tol(self) -> float:
        """The rank tolerance: the smallest lambda_min the factor accepts."""
        return rank_tolerance(self.max_eig, self.n, self.p)

    @property
    def n(self) -> int:
        return self.chol.shape[0]

    def leading(self, m: int) -> "KernelSolveCache":
        """The factor of the leading m x m block, as a view of this one.

        By interlacing, lambda_min of the block is at least this matrix's, so
        the block clears the rank tolerance whenever this matrix does. The
        inverse of a leading block of a lower-triangular matrix is the leading
        block of its inverse, so the stored diagonal-block inverses serve the
        view as they are.
        """
        if not 0 <= m <= self.n:
            raise ValueError(f"leading block of {m} rows out of range for n={self.n}")
        nan = float("nan")
        return KernelSolveCache(
            chol=self.chol[:m, :m], diag_inv=self.diag_inv[: (m + SOLVE_BLOCK - 1) // SOLVE_BLOCK],
            min_eig=nan, p=self.p, _max_eig=nan,
        )

    @property
    def condition(self) -> float:
        """lambda_max / lambda_min; 1.0 for the empty system, NaN for a view."""
        if self.n == 0:
            return 1.0
        return np.inf if self.min_eig <= 0 else self.max_eig / self.min_eig

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b = (L L^T)^{-1} b by forward then back substitution over
        row panels, and over diagonal blocks inside each panel.

        Both passes read L by row panels L[s:e, :s], the faster access for a
        row-major factor: the back substitution subtracts each solved block's
        contribution from the rows above it instead of gathering the columns
        below. Contributions across panels are one product per panel; those
        inside a panel, one per diagonal block.
        """
        l, inv, n = self.chol, self.diag_inv, self.n
        panels = [(ps, min(ps + _SOLVE_PANEL, n)) for ps in range(0, n, _SOLVE_PANEL)]
        y = np.array(b, dtype=float)
        for ps, pe in panels:
            if ps:
                y[ps:pe] -= l[ps:pe, :ps] @ y[:ps]
            _forward_blocks(l, inv, y, ps, pe)
        for ps, pe in reversed(panels):
            for s in reversed(range(ps, pe, SOLVE_BLOCK)):
                e = min(s + SOLVE_BLOCK, pe)
                y[s:e] = inv[s // SOLVE_BLOCK, : e - s, : e - s].T @ y[s:e]
                if s > ps:
                    y[ps:s] -= l[s:e, ps:s].T @ y[s:e]
            if ps:
                # as y^T L rather than L^T y: with 20 right-hand sides at
                # N = 3000 the back substitution took 14 ms that way, 11 this
                y[:ps] -= (y[ps:pe].T @ l[ps:pe, :ps]).T
        return y


@dataclass(eq=False)
class KernelSystem:
    """Training rows prepared by a feature map, with their Gram factored once.

    Fits, predictions, alignments and attacks all query this one object:
    ``cross`` gives the kernel rows of queries against the training rows and
    ``solve`` applies the inverse Gram. A singular Gram raises SingularKernel
    from ``KernelSolveCache.factor``; no ridge term is ever added.
    """

    map: object
    prepared: object
    cache: KernelSolveCache

    @classmethod
    def build(cls, fmap, rows: np.ndarray) -> "KernelSystem":
        prepared = fmap.prepare(rows)
        cache = KernelSolveCache.factor(prepared.gram(), p=fmap.n_params)
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

