"""Test-side tape ops: the scalar loss the tests backpropagate from, and a
product for building test cases, each one tape node."""

import numpy as np

from momentgraph import autodiff as ad


def weighted_sum(t, weights=None):
    """sum(t * weights) as a scalar tape node; weights broadcast to t's shape
    (None: all ones), so its backward hands t the weights times the upstream gradient."""
    w = np.broadcast_to(np.ones(()) if weights is None else np.asarray(weights, dtype=np.float64), t.data.shape)
    return ad.record(np.array((t.data * w).sum()), (t,), lambda g: (g * w,))


def matmul(a, b):
    """a·b of two 2-D tensors as a tape node with inputs (a, b)."""
    return ad.record(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
