"""Temporal model: 2-layer bidirectional GRU over contextualized activity
representations, the three softmax heads and index -> seconds decoding.

Each head, softmax(x·w) within each sample's rows, is one fused tape node
(`softmax_head`) with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .init import glorot
from .text import GruParams, bigru_forward


@dataclass
class TemporalParams:
    layer1_fwd: GruParams
    layer1_bwd: GruParams
    layer2_fwd: GruParams
    layer2_bwd: GruParams
    # the three heads feed softmaxes, which cancel any bias, so they have none
    w_start: Tensor
    w_end: Tensor
    w_score: Tensor  # g: latent -> 1, feeds the spatial-score softmax
    dropout: float

    @classmethod
    def create(cls, rng, latent: int, hidden: int, dropout: float, registry: dict) -> "TemporalParams":
        p = cls(
            layer1_fwd=GruParams.create(rng, latent, hidden, registry, "temporal.l1_fwd"),
            layer1_bwd=GruParams.create(rng, latent, hidden, registry, "temporal.l1_bwd"),
            layer2_fwd=GruParams.create(rng, 2 * hidden, hidden, registry, "temporal.l2_fwd"),
            layer2_bwd=GruParams.create(rng, 2 * hidden, hidden, registry, "temporal.l2_bwd"),
            w_start=glorot(rng, 2 * hidden, 1),
            w_end=glorot(rng, 2 * hidden, 1),
            w_score=glorot(rng, latent, 1),
            dropout=dropout,
        )
        for name in ("w_start", "w_end", "w_score"):
            registry[f"temporal.{name}"] = getattr(p, name)
        return p


@dataclass
class MomentPrediction:
    """Start/end categorical distributions plus decoded times."""

    start_dist: np.ndarray
    end_dist: np.ndarray
    start_index: int
    end_index: int
    start_seconds: float
    end_seconds: float
    degenerate: bool  # end index decoded before start index


def softmax_head(x: Tensor, w: Tensor, samples: ad.SortedSegments) -> Tensor:
    """softmax(x·w) over each sample's rows of x: an N x 1 column, one tape
    node with inputs (x, w). samples maps x's rows to their samples. A w
    that is not x-wide by 1, or a map of another row count, is a DimensionError.
    """
    if x.data.ndim != 2 or w.data.shape != (x.data.shape[1], 1):
        raise DimensionError(f"softmax_head: a map of shape {w.data.shape} for rows of shape {x.data.shape}")
    if samples.rows != x.data.shape[0]:
        raise DimensionError(f"softmax_head: {samples.rows} ids for {x.data.shape[0]} rows")
    p = samples.softmax(x.data @ w.data)

    def backward(g):
        d = samples.softmax_backward(p, g)
        return d @ w.data.T, x.data.T @ d

    return ad.record(p, (x, w), backward)


def temporal_forward(
    a_ctx: Tensor,
    frames: ad.SortedSegments,
    params: TemporalParams,
    rng: np.random.Generator | None = None,
) -> dict[str, Tensor]:
    """Stacked N x latent -> per-sample start/end distributions over time plus spatial scores y.

    a_ctx stacks B samples' timesteps, which frames maps to their samples;
    both BiGRU layers and the three softmax heads read that one map. Each
    output is an N x 1 column holding every sample's distribution in its own
    rows. Dropout between the GRU layers runs if and only if an rng is given,
    one draw over the stacked rows. A sample with no timestep is an
    InputError. Returns tape tensors so losses can backpropagate through them.
    """
    h1 = bigru_forward(a_ctx, params.layer1_fwd, params.layer1_bwd, frames)
    if rng is not None:
        h1 = ad.dropout(h1, params.dropout, rng)
    h2 = bigru_forward(h1, params.layer2_fwd, params.layer2_bwd, frames)
    return {
        "start_dist": softmax_head(h2, params.w_start, frames),
        "end_dist": softmax_head(h2, params.w_end, frames),
        "y": softmax_head(a_ctx, params.w_score, frames),
    }


def decode(
    start_dist: np.ndarray,
    end_dist: np.ndarray,
    stride_seconds: float,
    duration_seconds: float,
    swap_degenerate: bool = False,
) -> MomentPrediction:
    """Argmax decoding (lowest index wins ties) and feature index -> seconds.

    The start maps to the left edge of its feature window, the end to the
    right edge, clamped to the video duration. No ordering constraint is
    enforced. This is the one place that decides degenerate predictions: an
    end index before the start index is flagged, and swapped when
    swap_degenerate is set; the flag stays set either way.
    """
    start_dist = np.asarray(start_dist, dtype=np.float64).reshape(-1)
    end_dist = np.asarray(end_dist, dtype=np.float64).reshape(-1)
    si = int(np.argmax(start_dist))
    ei = int(np.argmax(end_dist))
    degenerate = ei < si
    if degenerate and swap_degenerate:
        si, ei = ei, si
    start_s = min(si * stride_seconds, duration_seconds)
    end_s = min((ei + 1) * stride_seconds, duration_seconds)
    return MomentPrediction(
        start_dist=start_dist,
        end_dist=end_dist,
        start_index=si,
        end_index=ei,
        start_seconds=start_s,
        end_seconds=end_s,
        degenerate=degenerate,
    )
