"""The scalar loss the tests backpropagate from: a weighted sum as one tape node."""

import numpy as np

from momentgraph import autodiff as ad


def weighted_sum(t, weights=None):
    """sum(t * weights) as a scalar tape node; weights broadcast to t's shape
    (None: all ones), so its backward hands t the weights times the upstream gradient."""
    w = np.broadcast_to(np.ones(()) if weights is None else np.asarray(weights, dtype=np.float64), t.data.shape)
    return ad.record(np.array((t.data * w).sum()), (t,), lambda g: (g * w,))
