"""Dense linear algebra: the factorization of Gram matrices, min-norm solves.

Everything runs in kernel space: only the N x N Gram A A^T of the N training
rows is ever factored (the feature dimension p can be much larger than N, and
no p x p matrix is ever formed).

A Gram and its Cholesky factor are held by row panels of rows
s = i * _SOLVE_PANEL to e = s + _SOLVE_PANEL in rectangular full packed form
(``RowPanels``): each panel's block left of the diagonal, and the lower
triangles of two diagonal blocks packed into one (_SOLVE_PANEL + 1) x
_SOLVE_PANEL array, about N (N + 1) / 2 floats in all (36.3 MB at N = 3000,
against 72 MB for an N x N array), and no N x N array is allocated on the
fit path. ``RowPanels.gram`` builds every Gram, from the factor matrices of
prepared rows, and this module is the only one that knows the packed layout.
Each Gram is factored once, by Cholesky, and that is the only O(N^3) step.
``KernelSolveCache.factor`` consumes the panels it is given and writes the
factor over them, block column by block column, and no copy of the Gram is
kept beside the factor. Beside the panels a fit's temporaries are at most
512 x 512 floats each (_SOLVE_PANEL = 512; 2 MB): a Gram of two factors, the
tangent one, has the second factor's products multiplied in one such strip
or block at a time, the update of a block column is one 512 x 512 product
per row panel, and LAPACK copies a 512 x 512 diagonal block twice (4 MB).
The extreme eigenvalues come from Lanczos on the factored matrix L L^T, not
from a dense eigensolver, and each is paid for only where it is needed.
lambda_min (solves against the factor) is computed by every factorization,
because the rank guard needs it. lambda_max (products v -> L (L^T v), over
the row panels) is computed on first read, and the rank guard reads it only
when the trace, read before the factor overwrites the diagonal, cannot
settle the verdict: a positive definite Gram has trace >= lambda_max, so a
lambda_min above the tolerance of the trace is above the tolerance of
lambda_max too. Solves against the factor are blocked triangular
substitutions over two levels: the row panels, whose off-diagonal products
are threaded BLAS matrix products, and small diagonal blocks inside each
panel, multiplied by their inverses, computed once per factor as it is
built. So no N x N system is ever handed to a general LU. The factor of a
leading principal block is the leading block of the factor, so the system on
the first m training rows is a view of the full system
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
# It is also the height of the row panels in which a Gram and its factor are
# held (``RowPanels``) and the width of the block columns of the
# factorization, so a Gram of up to _SOLVE_PANEL rows is one panel, built by
# one syrk and factored by one LAPACK Cholesky, bit for bit as it would be
# without panels; no temporary of the Gram's build or of its factorization is
# larger than _SOLVE_PANEL x _SOLVE_PANEL.
# Medians of 15 interleaved runs on a 2-core Xeon with 2 BLAS threads, at
# widths 256 / 512 / 1024: the factor of the sweep's RF Gram (N = 1500) took
# 45 / 53 / 65 ms and of its NTK Gram (N = 3000) 254 / 252 / 279 ms; that NTK
# Gram was built in 91 / 93 / 93 ms; a solve against its factor took
# 5.3 / 4.3 / 4.5 ms with one right-hand side and 13.6 / 14.5 / 15.1 ms with
# 20. LAPACK factors one 1024-wide diagonal block in about 40 ms, near
# 9 GFLOP/s, where a GEMM like a block column's update ran near 100 GFLOP/s:
# narrower block columns move flops from the one to the other. 512
# rather than 256 because it keeps the Gram of N = 300 in
# TestBlockedSolve.test_ill_conditioned_rf_gram one LAPACK call, which solves
# with 0.95 times the residual of LU there; two block columns of 256 gave
# 1.004 times.
_SOLVE_PANEL = 512

# Lanczos stops once a bound on the distance from its top Ritz value to an
# eigenvalue falls below this fraction of that Ritz value.
LANCZOS_TOL = 1e-10
# Seed of the Lanczos start vector: a fixed generator, not the global one, so
# an estimate (and the sweep CSV that reports it) depends on the matrix alone.
LANCZOS_SEED = 0


def rank_tolerance(max_eig: float, n: int, p: int) -> float:
    return RANK_TOL_FACTOR * max(n, p) * max(max_eig, 0.0)


@dataclass(eq=False)
class RowPanels:
    """An N x N Gram, or its lower Cholesky factor, held by row panels of rows
    s = i * _SOLVE_PANEL to e = min(s + _SOLVE_PANEL, N) in rectangular full
    packed form (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37(2),
    2010). Panel i is two parts:

    - ``rects[i]``, the contiguous (e - s) x s block [s:e, :s];
    - ``diags[i]``, an (e - s) x (e - s) view whose lower triangle is the
      diagonal block [s:e, s:e].

    Diagonal blocks 2t and 2t + 1 share one (P + 1) x P array, P =
    _SOLVE_PANEL: block 2t is its rows 1:, whose lower triangle is the
    array's strict lower triangle, and block 2t + 1, of r rows, is the
    transpose of its leading r x r block, whose lower triangle is the array's
    upper one. So above its diagonal a paired view holds its partner's
    entries. A lone last block owns its r x r array, and so does every Gram
    of at most P rows. In all this is about N (N + 1) / 2 floats plus at most
    one P x P block (36.3 MB at N = 3000, against 72 MB for an N x N array).

    ``gram`` builds every Gram. ``write`` is the one writer, and it writes
    lower triangles only, but a lone block whole. Every reader stays on or
    below the diagonal.
    """

    n: int
    rects: list
    diags: list

    @staticmethod
    def spans(n: int) -> list[tuple[int, int]]:
        """(s, e) of each row panel of an n x n matrix."""
        return [(s, min(s + _SOLVE_PANEL, n)) for s in range(0, n, _SOLVE_PANEL)]

    @classmethod
    def empty(cls, n: int) -> "RowPanels":
        """Uninitialized panels of an n x n matrix."""
        spans = cls.spans(n)
        diags = []
        for t in range(0, len(spans), 2):
            if t + 1 < len(spans):
                r = spans[t + 1][1] - spans[t + 1][0]
                pair = np.empty((_SOLVE_PANEL + 1, _SOLVE_PANEL))
                diags += [pair[1:], pair[:r, :r].T]
            else:
                r = spans[t][1] - spans[t][0]
                diags.append(np.empty((r, r)))
        return cls(n, [np.empty((e - s, s)) for s, e in spans], diags)

    @classmethod
    def gram(cls, factors) -> "RowPanels":
        """The Gram (F_1 F_1^T) * (F_2 F_2^T) * ... of the row factors F_i,
        entrywise, as its packed row panels. The first factor gives a GEMM for
        each rectangle left of a diagonal block and a syrk for each diagonal
        block. Each further factor's products are multiplied in place: a
        rectangle's in strips of whole rows of at most _SOLVE_PANEL^2 entries
        (2 MB), a diagonal block's whole. So the only temporary is one such
        strip or block, no product is ever formed above the diagonal or
        whole, and a Gram of at most one panel is the product of the syrks
        bit for bit.
        """
        first, *rest = factors
        gram = cls.empty(len(first))
        for s, e, rect, diag in gram:
            if s:
                np.matmul(first[s:e], first[:s].T, out=rect)
                # whole rows of the rectangle are contiguous, so numpy
                # multiplies them in place without buffering
                h = max(1, _SOLVE_PANEL**2 // s)
                for f in rest:
                    for a in range(s, e, h):
                        rect[a - s : a - s + h] *= f[a : min(a + h, e)] @ f[:s].T
            gram.write(diag, first[s:e] @ first[s:e].T)
            for f in rest:
                gram.write(diag, f[s:e] @ f[s:e].T, np.multiply)
        return gram

    @staticmethod
    def write(diag: np.ndarray, block: np.ndarray, ufunc=None) -> None:
        """Write the lower triangle of the square ``block`` over that of the
        diagonal block ``diag``, or ufunc(diag, block) there; a lone block,
        one that owns its array, whole. A shared one goes in SOLVE_BLOCK-wide
        tiles, masked on the diagonal: numpy buffers a ufunc on strided views
        at up to 24 bytes per entry, so a tile bounds that to 96 KB.
        """

        def put(out, x, where=True):
            if ufunc is None:
                np.copyto(out, x, where=where)
            else:
                ufunc(out, x, out=out, where=where)

        if diag.flags.owndata:
            put(diag, block)
            return
        tri = np.tri(SOLVE_BLOCK, dtype=bool)
        for s in range(0, len(diag), SOLVE_BLOCK):
            e = min(s + SOLVE_BLOCK, len(diag))
            for c in range(0, s, SOLVE_BLOCK):
                put(diag[s:e, c : c + SOLVE_BLOCK], block[s:e, c : c + SOLVE_BLOCK])
            put(diag[s:e, s:e], block[s:e, s:e], tri[: e - s, : e - s])

    @staticmethod
    def lower_strips(diag: np.ndarray):
        """(a, b, left, tri) for each strip of rows a:b of a factor's diagonal
        block: left is diag[a:b, :a] and tri the lower triangle of
        diag[a:b, a:b], a SOLVE_BLOCK x SOLVE_BLOCK copy. A lone block is one
        strip, read whole as it is written whole: in a factor it holds zeros
        above its diagonal.
        """
        if diag.flags.owndata:
            yield 0, len(diag), diag[:, :0], diag
            return
        tri = np.tri(SOLVE_BLOCK, dtype=bool)
        for a in range(0, len(diag), SOLVE_BLOCK):
            b = min(a + SOLVE_BLOCK, len(diag))
            yield a, b, diag[a:b, :a], np.where(tri[: b - a, : b - a], diag[a:b, a:b], 0.0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def __iter__(self):
        """(s, e, rect, diag) for each row panel, top to bottom."""
        spans = self.spans(self.n)
        return ((s, e, r, d) for (s, e), r, d in zip(spans, self.rects, self.diags))

    def trace(self) -> float:
        """The sum of the diagonal, added as np.trace adds it."""
        return float(np.sum(np.concatenate([np.zeros(0), *map(np.diagonal, self.diags)])))

    def leading(self, m: int) -> "RowPanels":
        """The leading m x m block, as views of these panels."""
        spans = self.spans(m)
        rects = [r[: e - s] for (s, e), r in zip(spans, self.rects)]
        return RowPanels(m, rects, [d[: e - s, : e - s] for (s, e), d in zip(spans, self.diags)])


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
    # the Lanczos vectors are the rows of one array, grown by doubling
    basis = np.empty((min(n, 16), n))
    basis[0] = q / np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    settled = False
    j = 0
    while True:
        q = basis[j]
        w = apply(q)
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        if betas:
            w -= betas[-1] * basis[j - 1]
        stacked = basis[: j + 1]
        w -= stacked.T @ (stacked @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = float(ritz[-1])
        r = beta * abs(float(vecs[-1, -1]))
        gap = theta - float(ritz[-2]) if len(ritz) > 1 else 0.0
        bound = min(r, r * r / gap) if gap > 0.0 else r
        converged = bound <= LANCZOS_TOL * theta
        if beta <= LANCZOS_TOL * theta or j + 1 == n or (converged and settled):
            return theta
        settled = converged
        betas.append(beta)
        j += 1
        if j == len(basis):
            grown = np.empty((min(2 * j, n), n))
            grown[:j] = basis
            basis = grown
        basis[j] = w / beta


def _diagonal_inverses(chol: np.ndarray) -> np.ndarray:
    """Inverses of the SOLVE_BLOCK-wide diagonal blocks of the lower triangle
    of the square ``chol`` (nothing above its diagonal is read), stacked. The
    last, partial block is padded with the identity, so block i of the
    inverse of the leading r x r block is ``[i, :r, :r]``.
    """
    n = chol.shape[0]
    starts = range(0, n, SOLVE_BLOCK)
    blocks = np.tile(np.eye(SOLVE_BLOCK), (len(starts), 1, 1))
    for i, s in enumerate(starts):
        e = min(s + SOLVE_BLOCK, n)
        blocks[i, : e - s, : e - s] = np.tril(chol[s:e, s:e])
    return np.linalg.inv(blocks)


def _forward_blocks(diag: np.ndarray, inv: np.ndarray, y: np.ndarray, ps: int) -> None:
    """y <- L[ps:pe, ps:pe]^{-1} y, in place, for the lower triangle ``diag``
    of L's diagonal block at row ps and its pe - ps rows of ``y``, by forward
    substitution over SOLVE_BLOCK-wide blocks; block i of ``inv`` is the
    inverse of L's diagonal block that starts at row i * SOLVE_BLOCK.
    """
    for s in range(0, len(y), SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, len(y))
        if s:
            y[s:e] -= diag[s:e, :s] @ y[:s]
        y[s:e] = inv[(ps + s) // SOLVE_BLOCK, : e - s, : e - s] @ y[s:e]


def _cholesky_in_place(a: RowPanels) -> np.ndarray:
    """Overwrite the SPD matrix ``a`` with its lower Cholesky factor and
    return the inverses of the factor's diagonal blocks (as
    ``_diagonal_inverses``).

    Left-looking over _SOLVE_PANEL-wide block columns (Golub & Van Loan,
    Matrix Computations, 4th ed., section 4.2). Block column j is updated
    from the columns already factored: by a GEMM in each rectangle below it,
    and by the syrk of its own rectangle in the lower triangle of its
    diagonal block. LAPACK factors that block, and each rectangle below
    solves against it row by row, X <- X L^{-T}, over SOLVE_BLOCK-wide strips
    of the block and their inverses. Only lower triangles are read or
    written. The transient memory is one _SOLVE_PANEL x _SOLVE_PANEL product
    and LAPACK's two copies of one diagonal block, 2 MB each.
    """
    n = a.n
    diag_inv = np.empty(((n + SOLVE_BLOCK - 1) // SOLVE_BLOCK, SOLVE_BLOCK, SOLVE_BLOCK))
    panels = list(a)
    for j, (s, e, top, diag) in enumerate(panels):
        if s:
            for _, _, rect, _ in panels[j + 1 :]:
                rect[:, s:e] -= rect[:, :s] @ top.T
            a.write(diag, top @ top.T, np.subtract)
        try:
            a.write(diag, np.linalg.cholesky(diag))
        except np.linalg.LinAlgError as exc:
            raise SingularKernel("Gram matrix is not positive definite") from exc
        diag_inv[s // SOLVE_BLOCK : (e + SOLVE_BLOCK - 1) // SOLVE_BLOCK] = _diagonal_inverses(diag)
        # the rectangles below: L[r, s:e] = A[r, s:e] L[s:e, s:e]^{-T}
        for _, _, rect, _ in panels[j + 1 :]:
            x = rect[:, s:e]
            for bs in range(0, e - s, SOLVE_BLOCK):
                be = min(bs + SOLVE_BLOCK, e - s)
                if bs:
                    x[:, bs:be] -= x[:, :bs] @ diag[bs:be, :bs].T
                x[:, bs:be] = x[:, bs:be] @ diag_inv[(s + bs) // SOLVE_BLOCK, : be - bs, : be - bs].T
    return diag_inv


@dataclass
class KernelSolveCache:
    """Cholesky factorization of an SPD Gram/kernel matrix plus spectrum metadata.

    ``factor`` consumes its argument: the Gram's row panels become those of
    the factor ``chol``, so a factored system holds about N (N + 1) / 2
    floats (``RowPanels``) and no copy of the Gram. A caller that needs the
    Gram afterwards passes a copy.

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

    chol: RowPanels
    diag_inv: np.ndarray
    min_eig: float
    p: int
    _max_eig: float | None = field(default=None, repr=False)
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def factor(cls, k: RowPanels, p: int | None = None) -> "KernelSolveCache":
        """Factor the Gram ``k``, writing the factor over its packed row
        panels, about N (N + 1) / 2 floats: the caller must not read ``k``
        afterwards."""
        n = k.n
        p = n if p is None else p
        # trace(K) >= lambda_max: only a lambda_min below the tolerance of the
        # trace needs lambda_max for the verdict
        trace_bound = (1.0 + n * np.finfo(float).eps) * k.trace()
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
            self._max_eig = _top_eigenvalue(self._product, self.n)
        return self._max_eig

    def _product(self, v: np.ndarray) -> np.ndarray:
        """L (L^T v), reading only the factor's lower triangle."""
        u = np.zeros(self.n)
        out = np.empty(self.n)
        for s, e, rect, diag in self.chol:
            u[:s] += rect.T @ v[s:e]
            for a, b, left, tri in self.chol.lower_strips(diag):
                u[s : s + a] += left.T @ v[s + a : s + b]
                u[s + a : s + b] += tri.T @ v[s + a : s + b]
        for s, e, rect, diag in self.chol:
            out[s:e] = rect @ u[:s]
            for a, b, left, tri in self.chol.lower_strips(diag):
                out[s + a : s + b] += left @ u[s : s + a] + tri @ u[s + a : s + b]
        return out

    @property
    def matrix(self) -> np.ndarray:
        """The factored matrix L L^T, formed on first read and kept.

        Nothing in the package reads it, so an untraced run never forms it.
        It is kept for the benchmark's tracer, which measures solve residuals
        against it, until the package records its own trace (ROADMAP,
        direction 1) and this property goes.
        """
        if self._matrix is None:
            l = np.zeros(self.chol.shape)
            for s, e, rect, diag in self.chol:
                l[s:e, :s] = rect
                l[s:e, s:e] = np.tril(diag)
            self._matrix = l @ l.T
        return self._matrix

    @property
    def tol(self) -> float:
        """The rank tolerance: the smallest lambda_min the factor accepts."""
        return rank_tolerance(self.max_eig, self.n, self.p)

    @property
    def n(self) -> int:
        return self.chol.n

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
            chol=self.chol.leading(m),
            diag_inv=self.diag_inv[: (m + SOLVE_BLOCK - 1) // SOLVE_BLOCK],
            min_eig=nan, p=self.p, _max_eig=nan,
        )

    @property
    def condition(self) -> float:
        """lambda_max / lambda_min; 1.0 for the empty system, NaN for a view."""
        return 1.0 if self.n == 0 else self.max_eig / self.min_eig

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b = (L L^T)^{-1} b by forward then back substitution over
        row panels, and over diagonal blocks inside each panel.

        Both passes read only the rectangles and the lower triangles of the
        diagonal blocks: the back substitution subtracts each solved block's
        contribution from the rows above it instead of gathering the columns
        below. Contributions across panels are one product per rectangle;
        those inside a panel, one per SOLVE_BLOCK-wide diagonal block.
        """
        inv, panels = self.diag_inv, list(self.chol)
        y = np.array(b, dtype=float)
        for ps, pe, rect, diag in panels:
            if ps:
                y[ps:pe] -= rect @ y[:ps]
            _forward_blocks(diag, inv, y[ps:pe], ps)
        for ps, pe, rect, diag in reversed(panels):
            yp = y[ps:pe]
            for s in reversed(range(0, pe - ps, SOLVE_BLOCK)):
                e = min(s + SOLVE_BLOCK, pe - ps)
                yp[s:e] = inv[(ps + s) // SOLVE_BLOCK, : e - s, : e - s].T @ yp[s:e]
                if s:
                    yp[:s] -= diag[s:e, :s].T @ yp[s:e]
            if ps:
                # as y^T L rather than L^T y: with 20 right-hand sides at
                # N = 3000 the back substitution took 14 ms that way, 11 this
                y[:ps] -= (yp.T @ rect).T
        return y


@dataclass(eq=False)
class KernelSystem:
    """Training rows prepared by a feature map, with their Gram factored once.

    Fits, predictions, alignments and attacks all query this one object:
    ``cross`` gives the kernel rows of prepared queries against the training
    rows and ``solve`` applies the inverse Gram. A singular Gram raises
    SingularKernel from ``KernelSolveCache.factor``; no ridge is ever added.
    """

    prepared: object
    cache: KernelSolveCache

    @classmethod
    def build(cls, fmap, rows: np.ndarray) -> "KernelSystem":
        prepared = fmap.prepare(rows)
        cache = KernelSolveCache.factor(prepared.gram(), p=fmap.n_params)
        return cls(prepared=prepared, cache=cache)

    @property
    def map(self):
        return self.prepared.map

    @property
    def n(self) -> int:
        return self.prepared.n

    def cross(self, queries) -> np.ndarray:
        """Kernel rows, one per row prepared by this system's map."""
        return self.prepared.cross(queries)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.cache.solve(b)

    def leading(self, m: int) -> "KernelSystem":
        """The system on the first m training rows, sharing this one's
        prepared rows and factor: no second Gram or factorization.
        """
        return KernelSystem(prepared=self.prepared.head(m), cache=self.cache.leading(m))
