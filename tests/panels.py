"""Dense arrays assembled from ``linops.RowPanels``, for tests that compare a
Gram or a factor held as lower row panels with dense references."""

import numpy as np


def dense_lower(panels):
    """The N x N array whose rows s:e, columns :e are each panel: a factor
    L, with zeros above the diagonal."""
    out = np.zeros(panels.shape)
    for s, e, panel in panels:
        out[s:e, :e] = panel
    return out


def dense_gram(panels):
    """The symmetric N x N Gram, its upper triangle mirrored from the lower."""
    lower = dense_lower(panels)
    return np.tril(lower) + np.tril(lower, -1).T
