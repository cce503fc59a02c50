"""The segment maps tests hand to the package's stacked-axis ops, built as
the package builds them."""

import numpy as np

from momentgraph.autodiff import SortedSegments


def seq_map(lengths):
    """The row -> sequence map of consecutive sequences of these lengths:
    words -> queries, frames -> samples, or a BiGRU's sequences."""
    return SortedSegments.from_counts(lengths, "rows")


def graph_maps(frame_sample, h_seg, o_seg):
    """spatial_graph's frames, humans and objects maps from sorted ids: each
    frame's sample (one more sample than the largest id) and each node's frame."""
    t = len(frame_sample)
    n_samples = int(np.max(frame_sample, initial=-1)) + 1
    return (
        SortedSegments(frame_sample, n_samples, "frame_sample"),
        SortedSegments(h_seg, t, "h_seg"),
        SortedSegments(o_seg, t, "o_seg"),
    )
