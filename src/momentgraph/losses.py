"""Target construction and training losses (KL + spatial).

Each loss is one tape node with a hand-written backward: the KL takes the
start and end distributions as the two columns of one array. Both floor the
argument of their log at EPS, and where the floor holds no gradient flows
through the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, InputError

EPS = 1e-12
SMOOTHINGS = ("onehot", "gaussian")
SIGMA_POS = 1.0  # width, in feature steps, of a gaussian target around its index


@dataclass
class MomentTarget:
    """Ground-truth feature-domain span and its target distributions."""

    start_index: int
    end_index: int
    dist: np.ndarray  # t x 2: the start distribution, then the end one


def _smooth(indices: list[int], t: int, smoothing: str) -> np.ndarray:
    """t x len(indices): one distribution over t steps per index, as columns."""
    if smoothing == "onehot":
        dist = np.zeros((t, len(indices)))
        dist[indices, np.arange(len(indices))] = 1.0
        return dist
    if smoothing == "gaussian":
        offsets = np.arange(t)[:, None] - np.asarray(indices)
        dist = np.exp(-(offsets**2) / (2.0 * SIGMA_POS**2))
        return dist / dist.sum(axis=0)
    raise InputError(f"unknown smoothing '{smoothing}' (expected one of {', '.join(SMOOTHINGS)})")


def build_targets(
    t_start_s: float,
    t_end_s: float,
    stride_seconds: float,
    t: int,
    smoothing: str = "onehot",
) -> MomentTarget:
    """Map ground-truth seconds to feature indices and target distributions."""
    if t_start_s > t_end_s:
        raise InputError(f"inverted ground-truth times: start {t_start_s}s > end {t_end_s}s")
    si = min(max(int(t_start_s // stride_seconds), 0), t - 1)
    ei = min(max(int(t_end_s // stride_seconds), 0), t - 1)
    if ei < si:
        ei = si
    return MomentTarget(start_index=si, end_index=ei, dist=_smooth([si, ei], t, smoothing))


def kl_divergence(p: Tensor, q: np.ndarray) -> Tensor:
    """D_KL(p || q) = sum p_i log(p_i / q_i), with p and q floored at 1e-12.

    One tape node. p is the predicted distribution (differentiable); q is a
    fixed target with p's entries in p's order (any shape of the same size).
    For a stacked batch the sum runs over every sample's entries, so it is
    the sum of the per-sample divergences. p comes from a softmax, so in
    practice p_i > 0; the floor keeps log finite regardless, and no gradient
    flows through the log where it holds.
    """
    q = np.asarray(q, dtype=np.float64)
    if p.data.size != q.size:
        raise ContractError(f"kl: prediction shape {p.data.shape} vs target {q.shape}")
    q = q.reshape(p.data.shape)
    # both sides use the same floor so that KL(p || p) is exactly zero
    floored = np.maximum(p.data, EPS)
    log_ratio = np.log(floored) - np.log(np.maximum(q, EPS))

    def backward(g):
        return (g * log_ratio + ((g * p.data) / floored) * (p.data > EPS),)

    return ad.record((p.data * log_ratio).sum(), (p,), backward)


def kl_loss(bounds: Tensor, targets: list[MomentTarget]) -> Tensor:
    """Start-side plus end-side KL divergence, prediction first, summed over a batch.

    bounds stacks the batch's start / end distributions as its two columns, in target order.
    """
    return kl_divergence(bounds, np.concatenate([t.dist for t in targets]))


def spatial_loss(y: Tensor, start_index, end_index) -> Tensor:
    """-sum log(1 - y_i) over the positions of y outside every [start, end] window (inclusive).

    start_index / end_index are ints, or equal-length sequences of ints for a
    stacked batch, and index y's entries in order (a sample's window is
    offset by its first row in the stack), so the result is the batch sum.
    """
    n = y.data.size
    outside = np.ones(n)
    for start, end in zip(np.atleast_1d(start_index), np.atleast_1d(end_index)):
        if not (0 <= start <= end < n):
            raise ContractError(f"span [{start}, {end}] out of range for t={n}")
        outside[start : end + 1] = 0.0
    outside = outside.reshape(y.data.shape)
    rest = 1.0 - y.data
    floored = np.maximum(rest, EPS)

    def backward(g):
        return (((g * outside) / floored) * (rest > EPS),)

    return ad.record(-(outside * np.log(floored)).sum(), (y,), backward)

