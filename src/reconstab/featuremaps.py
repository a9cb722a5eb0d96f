"""Random-feature and tangent-kernel feature maps, evaluated in kernel space.

Every entry point takes rows: an (n, d) array, where a 1-D row of length d is
a batch of one. ``feature_matrix`` returns the (n, p) features,
``init_outputs`` the n model outputs at the initialization, and ``prepare``
holds training rows whose ``gram`` and ``cross`` give the kernel against them
and whose ``feature_matrix()`` gives their features; ``head(m)`` is the first
m of them, without copying. ``kernel(z, zp)`` is the one-row cross kernel.

Tangent features z (x) act'(W0 z) have dimension k*d. Prepared tangent rows
keep the two factors and never materialize them, because every kernel entry
factorizes as (z . z') * (act'(W0 z) . act'(W0 z')).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .hermite import ActivationSpec
from .linops import gram


def _as_rows(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != d:
        raise DimensionMismatch(f"rows have shape {rows.shape}, expected width {d}")
    return rows


def _kron_rows(rows: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """Row-wise z (x) w, laid out as z_i * w_j at index i*k + j."""
    n, d = rows.shape
    return np.einsum("ni,nj->nij", rows, derivs).reshape(n, d * derivs.shape[1])


@dataclass(eq=False)
class RFMap:
    """Feature map z -> act(V z) with a fixed Gaussian matrix V (k x d)."""

    v: np.ndarray
    activation: ActivationSpec
    seed: int

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
        return self.activation(_as_rows(rows, self.d) @ self.v.T)

    def kernel(self, z: np.ndarray, zp: np.ndarray) -> float:
        return float(self.prepare(zp).cross(z)[0, 0])

    def prepare(self, rows: np.ndarray) -> "_PreparedRF":
        rows = _as_rows(rows, self.d)
        return _PreparedRF(self, self.feature_matrix(rows))

    def init_outputs(self, rows: np.ndarray) -> np.ndarray:
        """Model outputs at the zero parameter vector."""
        return np.zeros(_as_rows(rows, self.d).shape[0])


@dataclass(eq=False)
class NTKMap:
    """Gradient features of a two-layer network at its random initialization.

    w0 has i.i.d. N(0, 1/d) entries; activation_derivative is the spec of the
    derivative of the network activation, applied to the pre-activations.
    """

    w0: np.ndarray
    activation_derivative: ActivationSpec
    seed: int

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
        """Materialized N x (k d) feature matrix; desk-scale sizes only."""
        rows = _as_rows(rows, self.d)
        return _kron_rows(rows, self._derivs(rows))

    def kernel(self, z: np.ndarray, zp: np.ndarray) -> float:
        return float(self.prepare(zp).cross(z)[0, 0])

    def prepare(self, rows: np.ndarray) -> "_PreparedNTK":
        rows = _as_rows(rows, self.d)
        return _PreparedNTK(self, rows, self._derivs(rows))

    def init_outputs(self, rows: np.ndarray) -> np.ndarray:
        """Linearized model outputs at the initialization parameters vec(W0)."""
        pre = _as_rows(rows, self.d) @ self.w0.T
        return np.einsum("nk,nk->n", self.activation_derivative(pre), pre)


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

    def feature_matrix(self) -> np.ndarray:
        return self.phi

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

    def feature_matrix(self) -> np.ndarray:
        """Materialized N x (k d) features of the rows; desk-scale sizes only."""
        return _kron_rows(self.rows, self.derivs)

    def gram(self) -> np.ndarray:
        k = (self.rows @ self.rows.T) * (self.derivs @ self.derivs.T)
        return 0.5 * (k + k.T)

    def cross(self, queries: np.ndarray) -> np.ndarray:
        """Kernel evaluations of each query row against each training row."""
        queries = _as_rows(queries, self.map.d)
        return (queries @ self.rows.T) * (self.map._derivs(queries) @ self.derivs.T)


def sample_rf_map(k: int, d: int, activation: ActivationSpec, seed: int) -> RFMap:
    """Draw V with i.i.d. N(0, 1/d) entries, reproducibly from the seed."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((k, d)) / np.sqrt(d)
    return RFMap(v=v, activation=activation, seed=seed)


def sample_ntk_map(k: int, d: int, activation_derivative: ActivationSpec, seed: int) -> NTKMap:
    """Draw W0 with i.i.d. N(0, 1/d) entries, reproducibly from the seed."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((k, d)) / np.sqrt(d)
    return NTKMap(w0=w0, activation_derivative=activation_derivative, seed=seed)
