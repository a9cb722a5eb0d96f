"""Synthetic two-block datasets with +-1 labels, and sample masking.

Samples are rows z = [x, y]: x carries the label information, y is noise the
attacker knows. Both blocks are drawn uniformly on their spheres (Gaussian
rescaled to exact radius), which satisfies the normalized-norm, centered, and
concentration requirements exactly rather than approximately. Labels are the
sign readout of a teacher direction, g = sign(u . x) with 0 mapped to +1; a
mask replaces the x-block of a row and keeps its y-block bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROLE_X = 0
_ROLE_Y = 1

# "resample" replaces the x-block with a fresh draw from its sphere; "zero"
# writes zeros
MASKS = ("resample", "zero")


def sign_readout(values: np.ndarray) -> np.ndarray:
    """+-1 labels read off outputs, with the 0-output tie mapped to +1."""
    return np.where(np.asarray(values) >= 0.0, 1.0, -1.0)


def _check_mask(mask: str) -> None:
    if mask not in MASKS:
        raise ValueError(f"unknown mask kind {mask!r}")


@dataclass(eq=False)
class LabeledDataset:
    """Training rows, their vector of +-1 labels g, and the x/y block split."""

    z: np.ndarray
    g: np.ndarray
    d_x: int
    d_y: int

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.d_x + self.d_y

    @property
    def alpha(self) -> float:
        return self.d_y / self.d

    def drop_row(self, i: int) -> "LabeledDataset":
        """The dataset without row i, for 0 <= i < n."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} out of range for n={self.n}")
        keep = np.arange(self.n) != i
        return LabeledDataset(z=self.z[keep], g=self.g[keep], d_x=self.d_x, d_y=self.d_y)


@dataclass(frozen=True)
class TeacherVector:
    """Unit vector defining the labeling rule g(x) = sign(u . x)."""

    u: np.ndarray

    def labels(self, x_rows: np.ndarray) -> np.ndarray:
        return sign_readout(np.atleast_2d(x_rows) @ self.u)


def sample_teacher(d_x: int, seed: int) -> TeacherVector:
    rng = np.random.default_rng([seed, 0x7EAC])
    u = rng.standard_normal(d_x)
    return TeacherVector(u=u / np.linalg.norm(u))


# Entries per block of rows whose norms are taken at once: np.linalg.norm
# forms the squares of its input, so a block bounds them to 512 KB.
_NORM_BLOCK = 2**16


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, as an (n, 1) column: the bits of
    ``np.linalg.norm(rows, axis=1, keepdims=True)``, taken over blocks of
    rows so that no n x dim array of squares is formed."""
    step = max(1, _NORM_BLOCK // rows.shape[1])
    norms = np.empty((len(rows), 1))
    for s in range(0, len(rows), step):
        norms[s : s + step] = np.linalg.norm(rows[s : s + step], axis=1, keepdims=True)
    return norms


def _onto_sphere(rows: np.ndarray, rng_of) -> np.ndarray:
    """Gaussian rows scaled onto the sphere of radius sqrt(dim), for dim >= 1,
    in place: it overwrites ``rows`` and returns them. Each all-zero row
    (measure zero) is first redrawn from the generator ``rng_of(i)``, rather
    than divided by 0."""
    dim = rows.shape[1]
    if dim < 1:
        # an empty row has norm 0 however often it is redrawn
        raise ValueError(f"sphere dimension must be >= 1, got {dim}")
    norms = _row_norms(rows)
    while np.any(norms == 0.0):
        for i in np.flatnonzero(norms[:, 0] == 0.0):
            rows[i] = rng_of(i).standard_normal(dim)
        norms = _row_norms(rows)
    rows /= norms
    rows *= np.sqrt(dim)
    return rows


def _sphere_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n rows uniform on the sphere of radius sqrt(dim), for dim >= 1."""
    return _onto_sphere(rng.standard_normal((n, dim)), lambda i: rng)


def generate_synthetic(
    n: int,
    d_x: int,
    d_y: int,
    teacher: TeacherVector,
    seed: int,
) -> LabeledDataset:
    """Draw n rows [x_i, y_i] with exact block norms and labels sign(u . x_i).

    x and y come from independent substreams of the seed, so the x-blocks and
    labels do not depend on d_y.
    """
    if n < 1 or d_x < 1 or d_y < 1:
        raise ValueError("n, d_x, d_y must be >= 1")
    rng_x = np.random.default_rng([seed, _ROLE_X])
    rng_y = np.random.default_rng([seed, _ROLE_Y])
    x = _sphere_rows(rng_x, n, d_x)
    y = _sphere_rows(rng_y, n, d_y)
    return LabeledDataset(z=np.hstack([x, y]), g=teacher.labels(x), d_x=d_x, d_y=d_y)


def attacked_pairs(
    seed: int, trials: int, d_x: int, d_y: int, mask: str
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo attacked samples z1 = [x1, y1] and their masked queries
    z1m = [x, y1], one pair per row.

    Trial t draws x1, then y1, then the fresh x from the substream [seed, t];
    the "zero" mask writes zeros in place of the fresh x.
    """
    _check_mask(mask)
    widths = (d_x, d_y, d_x) if mask == "resample" else (d_x, d_y)
    if min(widths) < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {min(widths)}")
    # one draw per trial, the normals of its blocks' draws in order, into an
    # array allocated first: an unallocatable trial count fails at once
    draws = np.empty((trials, sum(widths)))
    rngs = [np.random.default_rng([seed, t]) for t in range(trials)]
    for rng, row in zip(rngs, draws):
        rng.standard_normal(len(row), out=row)
    x1, y1, *fresh = (
        _onto_sphere(block, lambda i: rngs[i])
        for block in np.split(draws, np.cumsum(widths)[:-1], axis=1)
    )
    z1m = np.hstack([fresh[0] if fresh else np.zeros_like(x1), y1])
    return np.hstack([x1, y1]), z1m


def mask_rows(z: np.ndarray, d_x: int, mask: str, seed: int) -> np.ndarray:
    """Masked copies of the rows of z: the y-blocks kept bit-exactly, the
    x-blocks zeroed or resampled, all rows from one generator seeded by seed.
    """
    _check_mask(mask)
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or not 1 <= d_x <= z.shape[1]:
        raise ValueError(f"z must be rows of length >= d_x={d_x} >= 1, got shape {z.shape}")
    out = np.empty(z.shape)
    out[:, d_x:] = z[:, d_x:]
    if mask == "zero":
        out[:, :d_x] = 0.0
    else:
        out[:, :d_x] = _sphere_rows(np.random.default_rng(seed), len(z), d_x)
    return out
