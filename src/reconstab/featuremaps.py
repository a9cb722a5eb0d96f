"""Random-feature and tangent-kernel feature maps: kernels for fits and
alignments, primal weights for model outputs.

Every entry point takes rows: an (n, d) array, where a 1-D row of length d is
a batch of one. ``prepare`` is the only code that turns rows into features;
every Gram, kernel block and output is read off the prepared rows it returns:
their ``gram``, built as its packed row panels (``linops.RowPanels``, about
N (N + 1) / 2 floats) and never as an N x N array, ``cross(queries)`` against prepared queries, ``outputs(theta)``
phi(z) . theta for a parameter in the map's weight layout, and ``weights(c)``,
the dual coefficients in that layout, Phi^T c, at O(N p) once; outputs then
cost O(n p), without an n x N cross kernel. ``head(m)`` is the first m rows,
without copying. A map's ``outputs(rows, theta)`` prepares rows block by
block, ``kernel(z, zp)`` is the one-row cross kernel, ``feature_matrix`` the
(n, p) features. ``sample_map`` is the one place a map kind picks its class
and draws its weights.

Random features act(W z), and tangent derivatives act'(W z), are built in
place: the activation overwrites the pre-activations Z W^T, one
hermite.ACTIVATION_CHUNK at a time, so n prepared rows hold one n x k buffer
and no second one. ``outputs`` holds one block of rows at a time, with
O(block k) transient memory and never the n x k features of its queries.

Tangent features z (x) act'(W z) have dimension k*d. Prepared tangent rows
keep the two factors and never materialize them, because every kernel entry
factorizes as (z . z') * (act'(W z) . act'(W z')); their weights are the
d x k matrix Z^T (c * act'(Z W^T)), entry (i, j) at feature index i*k + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hermite import ActivationSpec
from .linops import _SOLVE_PANEL, RowPanels

# Rows per block when a map turns rows into outputs; an RF block holds
# _ROW_BLOCK * k floats once, its activations written over its
# pre-activations. Medians of 15 interleaved runs on a 2-core Xeon with 2 BLAS
# threads, at k = 4000, d = 400: outputs of 1000 rows took 71 ms (h1+h2) and
# 50 ms (relu) at 256, against 66 and 45 ms unblocked, 68 and 46 ms at 512 for
# twice the memory, and 76 and 55 ms at 128.
_ROW_BLOCK = 256


def _as_rows(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != d:
        raise DimensionMismatch(f"rows have shape {rows.shape}, expected width {d}")
    return rows


@dataclass(eq=False)
class _FeatureMap:
    """What RF and tangent maps share: the k x d matrix w, and the activation
    the map applies to the pre-activations w z."""

    w: np.ndarray
    activation: ActivationSpec

    @property
    def k(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def kernel(self, z: np.ndarray, zp: np.ndarray) -> float:
        return float(self.prepare(zp).cross(self.prepare(z))[0, 0])

    def outputs(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """phi(z) . theta for each row, with theta in the map's weight layout,
        from _ROW_BLOCK prepared rows at a time, never all of them at once.
        """
        rows = _as_rows(rows, self.d)
        out = np.empty(len(rows))
        for s in range(0, len(rows), _ROW_BLOCK):
            out[s : s + _ROW_BLOCK] = self.prepare(rows[s : s + _ROW_BLOCK]).outputs(weights)
        return out


class RFMap(_FeatureMap):
    """Feature map z -> act(W z) with a fixed Gaussian matrix W (k x d)."""

    kind = "rf"

    @property
    def n_params(self) -> int:
        return self.k

    def feature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """The (n, k) features act(Z W^T), written by the activation over the
        pre-activations: one n x k array, plus the activation's chunk buffers.
        """
        return self.activation.in_place(_as_rows(rows, self.d) @ self.w.T)

    def prepare(self, rows: np.ndarray) -> "_PreparedRF":
        return _PreparedRF(self, self.feature_matrix(rows))


class NTKMap(_FeatureMap):
    """Gradient features of a two-layer network at its random initialization
    w; the activation is the spec of the network activation's derivative."""

    kind = "ntk"

    @property
    def n_params(self) -> int:
        return self.k * self.d

    def _derivs(self, rows: np.ndarray) -> np.ndarray:
        """act'(W z) for each of the (already checked) rows, written over the
        pre-activations."""
        return self.activation.in_place(rows @ self.w.T)

    def feature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Materialized N x (k d) features, index i*k + j; desk-scale sizes only."""
        rows = _as_rows(rows, self.d)
        return np.einsum("ni,nj->nij", rows, self._derivs(rows)).reshape(len(rows), self.n_params)

    def prepare(self, rows: np.ndarray) -> "_PreparedNTK":
        rows = _as_rows(rows, self.d)
        return _PreparedNTK(self, rows, self._derivs(rows))


class _PreparedRF:
    """Rows prepared by an RF map, kept as their feature matrix only."""

    def __init__(self, fmap: RFMap, phi: np.ndarray):
        self.map = fmap
        self.phi = phi

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def head(self, m: int) -> "_PreparedRF":
        """The first m rows, sharing this object's arrays."""
        return _PreparedRF(self.map, self.phi[:m])

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """Phi^T c, of length k."""
        return self.phi.T @ coefs

    def outputs(self, weights: np.ndarray) -> np.ndarray:
        """phi(z) . w for each row, with w of length k."""
        return self.phi @ weights

    def gram(self) -> RowPanels:
        """Phi Phi^T as its packed row panels, about N (N + 1) / 2 floats: a
        GEMM for each rectangle left of a diagonal block and a syrk for each
        diagonal block, so a Gram of at most one panel is the syrk Phi Phi^T
        bit for bit.
        """
        gram = RowPanels.empty(self.n)
        for s, e, rect, diag in gram:
            x = self.phi[s:e]
            if s:
                np.matmul(x, self.phi[:s].T, out=rect)
            gram.write(diag, x @ x.T)
        return gram

    def cross(self, queries: "_PreparedRF") -> np.ndarray:
        """Kernel evaluations of each prepared query row against each row here."""
        return queries.phi @ self.phi.T


class _PreparedNTK:
    """Rows prepared by a tangent map, kept in factorized (rows, derivs) form."""

    def __init__(self, fmap: NTKMap, rows: np.ndarray, derivs: np.ndarray):
        self.map = fmap
        self.rows = rows
        self.derivs = derivs

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def head(self, m: int) -> "_PreparedNTK":
        """The first m rows, sharing this object's arrays."""
        return _PreparedNTK(self.map, self.rows[:m], self.derivs[:m])

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """Phi^T c as the d x k matrix Z^T (c * D), D = act'(Z W^T)."""
        return self.rows.T @ (coefs[:, None] * self.derivs)

    def outputs(self, weights: np.ndarray) -> np.ndarray:
        """phi(z) . vec(W) for each row, with W of shape d x k."""
        return np.einsum("nk,nk->n", self.derivs, self.rows @ weights)

    def gram(self) -> RowPanels:
        """(Z Z^T) * (D D^T), D = act'(Z W^T), as its packed row panels,
        about N (N + 1) / 2 floats. Each rectangle of Z Z^T is multiplied in
        place by D D^T's, formed in strips of whole rows of at most
        _SOLVE_PANEL^2 entries (2 MB); each diagonal block is written from
        Z Z^T's block, then D D^T's is multiplied in. So the only temporary
        is one such strip or block, and neither factor is ever formed above
        the diagonal or whole. Rectangles are GEMMs and diagonal blocks
        syrks, so a Gram of at most one panel is the product of the two
        syrks bit for bit.
        """
        gram = RowPanels.empty(self.n)
        z, dv = self.rows, self.derivs
        for s, e, rect, diag in gram:
            if s:
                np.matmul(z[s:e], z[:s].T, out=rect)
                # whole rows of the rectangle are contiguous, so numpy
                # multiplies them in place without buffering
                h = max(1, _SOLVE_PANEL**2 // s)
                for a in range(s, e, h):
                    rect[a - s : a - s + h] *= dv[a : min(a + h, e)] @ dv[:s].T
            gram.write(diag, z[s:e] @ z[s:e].T)
            gram.write(diag, dv[s:e] @ dv[s:e].T, np.multiply)
        return gram

    def cross(self, queries: "_PreparedNTK") -> np.ndarray:
        """Kernel evaluations of each prepared query row against each row here."""
        return (queries.rows @ self.rows.T) * (queries.derivs @ self.derivs.T)


def sample_map(kind: str, k: int, d: int, activation: ActivationSpec, seed: int) -> RFMap | NTKMap:
    """Draw the k x d matrix of a map of the given kind ("rf" or "ntk") with
    i.i.d. N(0, 1/d) entries, reproducibly from the seed. For tangent maps the
    activation is the spec of the network activation's derivative.
    """
    if kind not in ("rf", "ntk"):
        raise ValueError(f"unknown map kind {kind!r}")
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    weights = np.random.default_rng(seed).standard_normal((k, d)) / np.sqrt(d)
    return (RFMap if kind == "rf" else NTKMap)(weights, activation)
