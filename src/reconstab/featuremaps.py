"""Random-feature and tangent-kernel feature maps: kernels for fits and
alignments, primal weights for model outputs.

Every entry point takes rows: an (n, d) array, where a 1-D row of length d is
a batch of one. ``feature_matrix`` returns the (n, p) features, and
``outputs(rows, weights)`` the n outputs phi(z) . theta of a parameter given in
the map's weight layout. ``prepare`` holds training rows whose ``gram`` and
``cross`` give the kernel against them and whose ``weights(c)`` turn dual
coefficients into that layout, Phi^T c, at O(N p) once; outputs then cost
O(n p), without an n x N cross kernel. ``head(m)`` is the first m training
rows, without copying. ``kernel(z, zp)`` is the one-row cross kernel.
``sample_map`` is the one place a map kind picks its class and draws its
weights.

Random features act(V z) are built in place: the activation overwrites the
pre-activations Z V^T block by block of rows, so n prepared rows hold one
n x k buffer, and ``outputs`` takes one block of rows at a time, with
O(block k) transient memory and never the n x k features of its queries.

Tangent features z (x) act'(W0 z) have dimension k*d. Prepared tangent rows
keep the two factors and never materialize them, because every kernel entry
factorizes as (z . z') * (act'(W0 z) . act'(W0 z')); their weights are the
d x k matrix Z^T (c * act'(Z W0^T)), entry (i, j) at feature index i*k + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hermite import ActivationSpec
from .linops import _SOLVE_PANEL, gram

# Rows per block when random features are activated or turned into outputs; a
# block holds _ROW_BLOCK * k floats twice (pre-activations and activations). On
# a 2-core Xeon with 2 BLAS threads, at k = 4000, d = 400, outputs of 1000 rows
# took 74 ms (h1+h2) and 49 ms (relu) at 256, against 77 and 45 ms unblocked,
# 71 and 45 ms at 512 for twice the memory, and 92 and 71 ms at 128; activating
# 1500 prepared rows took 94 and 61 ms at 256 against 111 and 70 ms unblocked.
_ROW_BLOCK = 256


def _as_rows(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != d:
        raise DimensionMismatch(f"rows have shape {rows.shape}, expected width {d}")
    return rows


@dataclass(eq=False)
class RFMap:
    """Feature map z -> act(V z) with a fixed Gaussian matrix V (k x d)."""

    v: np.ndarray
    activation: ActivationSpec

    kind = "rf"

    @property
    def k(self) -> int:
        return self.v.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[1]

    @property
    def n_params(self) -> int:
        return self.k

    def feature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """The (n, k) features act(Z V^T), activated in place in the buffer of
        the pre-activations, _ROW_BLOCK rows at a time: one n x k array, plus
        O(_ROW_BLOCK k) transient memory.
        """
        phi = _as_rows(rows, self.d) @ self.v.T
        for s in range(0, len(phi), _ROW_BLOCK):
            phi[s : s + _ROW_BLOCK] = self.activation(phi[s : s + _ROW_BLOCK])
        return phi

    def kernel(self, z: np.ndarray, zp: np.ndarray) -> float:
        return float(self.prepare(zp).cross(z)[0, 0])

    def prepare(self, rows: np.ndarray) -> "_PreparedRF":
        return _PreparedRF(self, self.feature_matrix(rows))

    def outputs(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """phi(z) . w for each row, with w of length k, _ROW_BLOCK rows at a
        time: O(_ROW_BLOCK k) transient memory, never the n x k features.
        """
        rows = _as_rows(rows, self.d)
        out = np.empty(len(rows))
        for s in range(0, len(rows), _ROW_BLOCK):
            out[s : s + _ROW_BLOCK] = self.feature_matrix(rows[s : s + _ROW_BLOCK]) @ weights
        return out


@dataclass(eq=False)
class NTKMap:
    """Gradient features of a two-layer network at its random initialization.

    w0 has i.i.d. N(0, 1/d) entries; activation_derivative is the spec of the
    derivative of the network activation, applied to the pre-activations.
    """

    w0: np.ndarray
    activation_derivative: ActivationSpec

    kind = "ntk"

    @property
    def k(self) -> int:
        return self.w0.shape[0]

    @property
    def d(self) -> int:
        return self.w0.shape[1]

    @property
    def n_params(self) -> int:
        return self.k * self.d

    def _derivs(self, rows: np.ndarray) -> np.ndarray:
        """act'(W0 z) for each of the (already checked) rows."""
        return self.activation_derivative(rows @ self.w0.T)

    def feature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Materialized N x (k d) features, index i*k + j; desk-scale sizes only."""
        rows = _as_rows(rows, self.d)
        return np.einsum("ni,nj->nij", rows, self._derivs(rows)).reshape(len(rows), self.n_params)

    def kernel(self, z: np.ndarray, zp: np.ndarray) -> float:
        return float(self.prepare(zp).cross(z)[0, 0])

    def prepare(self, rows: np.ndarray) -> "_PreparedNTK":
        rows = _as_rows(rows, self.d)
        return _PreparedNTK(self, rows, self._derivs(rows))

    def outputs(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """phi(z) . vec(W) for each row, with W of shape d x k."""
        rows = _as_rows(rows, self.d)
        return _PreparedNTK(self, rows, self._derivs(rows)).outputs(weights)


class _PreparedRF:
    """RF training rows, kept as their feature matrix only."""

    def __init__(self, fmap: RFMap, phi: np.ndarray):
        self.map = fmap
        self.phi = phi

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    def head(self, m: int) -> "_PreparedRF":
        """The first m training rows, sharing this object's arrays."""
        return _PreparedRF(self.map, self.phi[:m])

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """Phi^T c, of length k."""
        return self.phi.T @ coefs

    def outputs(self, weights: np.ndarray) -> np.ndarray:
        """phi(z) . w for each training row, with w of length k."""
        return self.phi @ weights

    def gram(self) -> np.ndarray:
        return gram(self.phi)

    def cross(self, queries: np.ndarray) -> np.ndarray:
        """Kernel evaluations of each query row against each training row."""
        return self.map.feature_matrix(queries) @ self.phi.T


class _PreparedNTK:
    """Tangent-feature training rows kept in factorized (rows, derivs) form."""

    def __init__(self, fmap: NTKMap, rows: np.ndarray, derivs: np.ndarray):
        self.map = fmap
        self.rows = rows
        self.derivs = derivs

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def head(self, m: int) -> "_PreparedNTK":
        """The first m training rows, sharing this object's arrays."""
        return _PreparedNTK(self.map, self.rows[:m], self.derivs[:m])

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """Phi^T c as the d x k matrix Z^T (c * D), D = act'(Z W0^T)."""
        return self.rows.T @ (coefs[:, None] * self.derivs)

    def outputs(self, weights: np.ndarray) -> np.ndarray:
        """phi(z) . vec(W) for each training row, with W of shape d x k."""
        return np.einsum("nk,nk->n", self.derivs, self.rows @ weights)

    def gram(self) -> np.ndarray:
        """(Z Z^T) * (D D^T), D = act'(Z W0^T), with D D^T multiplied in by
        row panels of the factor's width: one N x N array, and no second one
        for the derivative factor.

        Up to one panel the product is numpy's syrk, and the Gram is exactly
        symmetric. Past it, each panel is a GEMM, whose entries at the BLAS
        kernel's tile edges can differ from the syrk's, and from their mirror
        images, in the last bit; the factor and ``eigvalsh`` read the lower
        triangle only.
        """
        k = self.rows @ self.rows.T
        for s in range(0, self.n, _SOLVE_PANEL):
            k[s : s + _SOLVE_PANEL] *= self.derivs[s : s + _SOLVE_PANEL] @ self.derivs.T
        return k

    def cross(self, queries: np.ndarray) -> np.ndarray:
        """Kernel evaluations of each query row against each training row."""
        queries = _as_rows(queries, self.map.d)
        return (queries @ self.rows.T) * (self.map._derivs(queries) @ self.derivs.T)


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
