"""Random-feature and tangent-kernel feature maps: kernels for fits and
alignments, primal weights for model outputs.

Every entry point takes rows: an (n, d) array, where a 1-D row of length d is
a batch of one. ``prepare`` is the only code that turns rows into features.
It keeps them as the factor matrices of the map's kernel: (Phi,) for random
features, Phi = act(Z W^T), with K = Phi Phi^T; and (Z, D) for tangent
features z (x) act'(W z), D = act'(Z W^T), with K = (Z Z^T) * (D D^T). A
feature row is the Kronecker product of its factor rows (``feature_matrix``,
index i*k + j for tangent features), and is never formed otherwise, so
tangent rows of dimension k*d cost n (k + d) floats. Every Gram, kernel block
and output is read off the prepared rows: their ``gram``, built by
``linops.RowPanels`` as its packed row panels and never as an N x N array,
``cross(queries)`` against prepared queries, ``outputs(theta)`` phi(z) . theta
for a parameter in the map's weight layout, and ``weights(c)``, the dual
coefficients in that layout, Phi^T c (for tangent rows the d x k matrix
Z^T (c * D)), at O(N p) once; outputs then cost O(n p), without an n x N
cross kernel. ``head(m)`` is the first m rows, without copying. A map's
``outputs(rows, theta)`` prepares rows block by block, and ``kernel(z, zp)``
is the one-row cross kernel. ``sample_map`` is the one place a map kind picks
its class and draws its weights.

Phi and D are built in place: the activation overwrites the pre-activations
Z W^T, one hermite.ACTIVATION_CHUNK at a time, so n prepared rows hold one
n x k buffer and no second one. ``outputs`` holds one block of rows at a
time, with O(block k) transient memory and never the n x k features of its
queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hermite import ActivationSpec
from .linops import RowPanels

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
        """The one-row cross kernel, kept for bench/tracing.py's alignment.trial observer."""
        return float(self.prepare(zp).cross(self.prepare(z))[0, 0])

    def feature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """The (n, p) features, row by row the Kronecker product of the
        factors' rows; materialized tangent features are for desk-scale sizes
        only."""
        out, *rest = self.factors(rows)
        for f in rest:
            out = np.einsum("ni,nj->nij", out, f).reshape(len(out), -1)
        return out

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

    def factors(self, rows: np.ndarray) -> tuple[np.ndarray]:
        """(Phi,): the (n, k) features act(Z W^T), written by the activation
        over the pre-activations."""
        return (self.activation.in_place(_as_rows(rows, self.d) @ self.w.T),)

    def prepare(self, rows: np.ndarray) -> "_Prepared":
        """On each map class for bench/tracing.py's featuremaps.prepare entry point."""
        return _Prepared(self, self.factors(rows))


class NTKMap(_FeatureMap):
    """Gradient features of a two-layer network at its random initialization
    w; the activation is the spec of the network activation's derivative."""

    kind = "ntk"

    @property
    def n_params(self) -> int:
        return self.k * self.d

    def factors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z, D): the checked rows and D = act'(Z W^T), written by the
        activation over the pre-activations."""
        rows = _as_rows(rows, self.d)
        return rows, self.activation.in_place(rows @ self.w.T)

    def prepare(self, rows: np.ndarray) -> "_Prepared":
        """On each map class for bench/tracing.py's featuremaps.prepare entry point."""
        return _Prepared(self, self.factors(rows))


class _Prepared:
    """Rows prepared by a map, kept as the factor matrices of its kernel."""

    def __init__(self, fmap: RFMap | NTKMap, factors: tuple[np.ndarray, ...]):
        self.map = fmap
        self.factors = factors

    @property
    def n(self) -> int:
        return self.factors[0].shape[0]

    def head(self, m: int) -> "_Prepared":
        """The first m rows, sharing this object's arrays."""
        return _Prepared(self.map, tuple(f[:m] for f in self.factors))

    def weights(self, coefs: np.ndarray) -> np.ndarray:
        """Phi^T c: of length k, or for tangent rows the d x k matrix Z^T (c * D)."""
        first, *rest = self.factors
        return first.T @ (coefs[:, None] * rest[0] if rest else coefs)

    def outputs(self, weights: np.ndarray) -> np.ndarray:
        """phi(z) . theta for each row, with theta of length k, or d x k."""
        first, *rest = self.factors
        out = first @ weights
        return np.einsum("nk,nk->n", rest[0], out) if rest else out

    def gram(self) -> RowPanels:
        """The Gram of these rows as its packed row panels."""
        return RowPanels.gram(self.factors)

    def cross(self, queries: "_Prepared") -> np.ndarray:
        """Kernel evaluations of each prepared query row against each row here."""
        out = queries.factors[0] @ self.factors[0].T
        for q, f in zip(queries.factors[1:], self.factors[1:]):
            out *= q @ f.T
        return out


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
