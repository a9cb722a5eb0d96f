"""Dense arrays and ``linops.RowPanels``, converted both ways, for tests that
compare a Gram or a factor held as row panels with dense references."""

import numpy as np

from reconstab.linops import RowPanels


def dense_lower(panels):
    """The N x N lower triangle of the panels: a factor L, with zeros above
    the diagonal."""
    out = np.zeros((panels.n, panels.n))
    for s, e, rect, diag in panels:
        out[s:e, :s] = rect
        out[s:e, s:e] = np.tril(diag)
    return out


def dense_gram(panels):
    """The symmetric N x N Gram, its upper triangle mirrored from the lower."""
    lower = dense_lower(panels)
    return lower + np.tril(lower, -1).T


def packed(a):
    """The lower triangle of the N x N array ``a`` packed as row panels
    through the layout's own writer."""
    out = RowPanels.empty(len(a))
    for s, e, rect, diag in out:
        rect[...] = a[s:e, :s]
        out.write(diag, a[s:e, s:e])
    return out


def held_bytes(panels):
    """The bytes the panels hold, each array shared by two diagonal blocks
    counted once."""
    owners = {id(d if d.base is None else d.base): d if d.base is None else d.base
              for d in panels.diags}
    return sum(r.nbytes for r in panels.rects) + sum(a.nbytes for a in owners.values())
