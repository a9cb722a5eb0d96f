"""Probabilists' Hermite polynomials, activation spectra, and alignment constants.

The orthonormal convention is used throughout: h_0 = 1, h_1 = rho,
h_2 = (rho^2 - 1)/sqrt(2), ..., with E[h_l(rho) h_m(rho)] = delta_lm under the
standard Gaussian. No physicists'-convention conversion is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSpectrum, QuadratureNonconvergent

DEFAULT_TRUNCATION = 40
DEFAULT_NODES = 80
MAX_NODES = 640
CONVERGENCE_TOL = 1e-8
# Activations are evaluated this many entries at a time. A Hermite combination
# of order L works in an (L + 1)-row basis of this length, made by each call,
# and one row-sized temporary of the recurrence: 4 chunks (512 KB) for h1+h2,
# 6 for h1+h4. An activation written over a pre-activation matrix of any size
# needs no second matrix, and two threads activating different arrays share
# nothing.
ACTIVATION_CHUNK = 16384


def _hermite_matrix(max_l: int, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows 0..max_l of the orthonormal Hermite basis evaluated at rho, by the
    stable recurrence h_{l+1} = (rho h_l - sqrt(l) h_{l-1}) / sqrt(l+1), in
    out (shape (max_l + 1, rho.size)) when it is given.
    """
    rho = np.asarray(rho, dtype=float)
    if out is None:
        out = np.empty((max_l + 1, rho.size))
    out[0] = 1.0
    if max_l >= 1:
        out[1] = rho
    for j in range(1, max_l):
        h = np.multiply(rho, out[j], out=out[j + 1])
        h -= math.sqrt(j) * out[j - 1]
        h /= math.sqrt(j + 1)
    return out


@dataclass(frozen=True)
class ActivationSpec:
    """Scalar activation, either an explicit Hermite combination or a callable."""

    name: str
    coeffs: tuple[float, ...] | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.coeffs is None) == (self.fn is None):
            raise ValueError("exactly one of coeffs or fn must be given")

    def __call__(self, u):
        """act(u) in a new array; u is left as it is."""
        return self.in_place(np.array(u, dtype=float))

    def in_place(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the contiguous float array u with act(u), ACTIVATION_CHUNK
        entries at a time, and return it.

        A callable is applied to each chunk, so it must act entry by entry. For
        a Hermite combination each chunk's basis rows h_0..h_L come from
        ``_hermite_matrix`` into one buffer of the call, and the chunk becomes
        c_0, then c_0 + c_1 h_1, ... + c_L h_L, summed in that order.
        """
        if u.dtype != np.float64 or not (u.flags.c_contiguous or u.flags.f_contiguous):
            raise ValueError("in-place activation needs a contiguous float64 array")
        flat = u.reshape(-1, order="A")
        c = self.coeffs
        if c is not None:
            basis = np.empty((len(c), min(flat.size, ACTIVATION_CHUNK)))
        for s in range(0, flat.size, ACTIVATION_CHUNK):
            rho = flat[s : s + ACTIVATION_CHUNK]
            if c is None:
                rho[:] = self.fn(rho)
                continue
            h = _hermite_matrix(len(c) - 1, rho, out=basis[:, : rho.size])
            rho.fill(c[0])
            for c_l, h_l in zip(c[1:], h[1:]):
                rho += np.multiply(h_l, c_l, out=h_l)
        return u


@dataclass(frozen=True)
class HermiteSpectrum:
    """Truncated Hermite coefficients of an activation.

    tail_power bounds the squared-coefficient mass beyond the truncation order
    (zero when the expansion is exact). nodes records the per-half-line node
    count of the quadrature rule that produced the coefficients (0 for explicit
    combinations).
    """

    coefficients: np.ndarray
    tail_power: float = 0.0
    nodes: int = 0

    @property
    def truncation(self) -> int:
        return self.coefficients.size - 1


def _half_range_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for E[f(rho)] split at 0, exact for f smooth on each half line.

    Gauss-Legendre on [0, R] against the explicit Gaussian weight, mirrored to
    the negative axis. R = 12 truncates a tail below double precision.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    r = 12.0
    x_pos = 0.5 * r * (t + 1.0)
    w_pos = 0.5 * r * w * np.exp(-0.5 * x_pos**2) / math.sqrt(2.0 * math.pi)
    return np.concatenate([-x_pos[::-1], x_pos]), np.concatenate([w_pos[::-1], w_pos])


def _quadrature_coeffs(
    act: ActivationSpec, order: int, nodes: int
) -> tuple[np.ndarray, float]:
    """mu_0..mu_order and E[act^2] on one rule of the given node count."""
    x, w = _half_range_nodes(nodes)
    values = act(x)
    return _hermite_matrix(order, x) @ (w * values), float(np.sum(w * values**2))


def hermite_coefficients(act: ActivationSpec, order: int = DEFAULT_TRUNCATION) -> HermiteSpectrum:
    """Coefficients mu_l = E[act(rho) h_l(rho)] for l = 0..order.

    Explicit Hermite combinations return their coefficient list exactly.
    Callables are integrated by quadrature, doubling the node count, from the
    first DEFAULT_NODES * 2^j above order, until the coefficients move by less
    than 1e-8 (QuadratureNonconvergent past the cap).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if act.coeffs is not None:
        coeffs = np.zeros(order + 1)
        upto = min(order + 1, len(act.coeffs))
        coeffs[:upto] = act.coeffs[:upto]
        tail = float(sum(c**2 for c in act.coeffs[order + 1 :]))
        return HermiteSpectrum(coefficients=coeffs, tail_power=tail)

    # start with more nodes on each half line than h_order has roots
    n = DEFAULT_NODES
    while n <= order:
        n *= 2
    if 2 * n > MAX_NODES:
        raise QuadratureNonconvergent(f"order {order} needs {n} nodes and a doubling, past {MAX_NODES}")
    cur, _ = _quadrature_coeffs(act, order, n)
    while True:
        if 2 * n > MAX_NODES:
            raise QuadratureNonconvergent(f"coefficients still moving after {n} nodes")
        nxt, second_moment = _quadrature_coeffs(act, order, 2 * n)
        converged = float(np.max(np.abs(nxt - cur))) < CONVERGENCE_TOL
        cur, n = nxt, 2 * n
        if converged:
            break

    # Parseval remainder: E[act^2], on the rule the coefficients converged
    # on, minus the sum of the captured squared coefficients
    tail = max(second_moment - float(np.sum(cur**2)), 0.0)
    return HermiteSpectrum(coefficients=cur, tail_power=tail, nodes=n)


def _alpha_series(spec: HermiteSpectrum, alpha: float, start: int, scale: float) -> float:
    """scale * (sum_{l>=start} mu_l^2 alpha^l) / (sum_{l>=1} mu_l^2)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    mu_sq = spec.coefficients**2
    denom = float(np.sum(mu_sq[1:]))
    if denom <= 0.0:
        raise DegenerateSpectrum("all coefficients with l >= 1 vanish")
    powers = alpha ** np.arange(len(mu_sq))
    return scale * float(np.sum(mu_sq[start:] * powers[start:])) / denom


def gamma_rf_lower_bound(spec: HermiteSpectrum, alpha: float) -> float:
    """Lower bound on the limiting masked-query alignment for the RF model:
    (sum_{l>=2} mu_l^2 alpha^l) / (sum_{l>=1} mu_l^2).
    """
    return _alpha_series(spec, alpha, 2, 1.0)


def gamma_ntk_closed_form(spec: HermiteSpectrum, alpha: float) -> float:
    """Closed-form limiting alignment for the NTK model, from the spectrum of
    the activation derivative: alpha * (sum_{l>=1} mu_l^2 alpha^l) / (sum_{l>=1} mu_l^2).
    """
    return _alpha_series(spec, alpha, 1, alpha)


def series_tail_bound(spec: HermiteSpectrum, alpha: float) -> float:
    """Upper bound alpha^(L+1) * tail_power on the discarded tail
    sum_{l>L} mu_l^2 alpha^l: each of its terms is at most alpha^(L+1) mu_l^2,
    and those mu_l^2 sum to tail_power.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha ** (spec.truncation + 1) * spec.tail_power


def _relu(u: np.ndarray) -> np.ndarray:
    return np.maximum(u, 0.0)


def _tanh_prime(u: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(u) ** 2


# Named activations usable from the CLI and sweep configs. For NTK models the
# relevant object is the derivative of the activation; the h0+h1 / h0+h3
# entries below are meant to be used directly as derivative specs.
_REGISTRY: dict[str, ActivationSpec] = {
    spec.name: spec
    for spec in (
        ActivationSpec(name="relu", fn=_relu),
        ActivationSpec(name="h1+h2", coeffs=(0.0, 1.0, 1.0)),
        ActivationSpec(name="h1+h4", coeffs=(0.0, 1.0, 0.0, 0.0, 1.0)),
        ActivationSpec(name="h0+h1", coeffs=(1.0, 1.0)),
        ActivationSpec(name="h0+h3", coeffs=(1.0, 0.0, 0.0, 1.0)),
        ActivationSpec(name="identity", coeffs=(0.0, 1.0)),
        ActivationSpec(name="tanh", fn=np.tanh),
    )
}


def get_activation(name: str) -> ActivationSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None


def activation_names() -> list[str]:
    return sorted(_REGISTRY)
