"""The full moment-localization model: query encoder, per-timestep spatial
graph (or an ablation variant) and the temporal head, wired for training
and inference on a minibatch of samples as one forward pass (a single
sample is a batch of one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import SortedSegments, Tensor
from .checkpoint import load_params, save_params
from .config import MODEL_FIELDS, RunConfig
from .dataio import AnnotatedSample
from .errors import CheckpointError, DataError, InputError
from .graph import (
    FULL_BLOCKS, SINGLE_QUERY_BLOCKS, GraphWeights, PairMap, check_variant, create_graph, project, spatial_graph
)
from .losses import MomentTarget, build_targets, kl_loss, spatial_loss
from .temporal import MomentPrediction, TemporalParams, decode, temporal_forward
from .text import HEADS, TextEncoderParams, Vocabulary, encode_query, tokenize
from .visual import CategoryMap, Detections, NodeEmbedParams, embed_nodes, route_detections


@dataclass
class PreparedSample:
    """A sample with every per-sample input settled up front: the query as
    vocabulary ids and the routed detections (for no_graph, one human row
    per frame: the mean of its kept detections, zeros where it kept none).

    The four node arrays are the video's: every sample of one video prepared
    in one prepare_all call shares them, so they are read-only. sample keeps
    no detections: once routed into the stacked arrays, its detection lists
    or columns are released, not held for the whole run."""

    sample: AnnotatedSample
    word_ids: np.ndarray
    humans_stacked: np.ndarray  # all frames' human features, with frame ids
    objects_stacked: np.ndarray
    human_frame_ids: np.ndarray
    object_frame_ids: np.ndarray
    target: MomentTarget

    @property
    def frames(self) -> int:
        """Timesteps of the sample's video."""
        return self.sample.features.features.shape[0]


class MomentModel:
    def __init__(self, config: RunConfig, vocab: Vocabulary):
        check_variant(config.variant)
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(config.seed)
        # each variant builds only what its forward reads: no_graph reads no
        # query and no node latents, single_query no attention heads
        self.text = self.embed = self.graph_params = self.nograph_params = None
        if config.variant == "no_graph":
            self.nograph_params = PairMap.create(rng, config.d_v + config.d_o, config.latent, self.params, "nograph")
        else:
            single = config.variant == "single_query"
            heads = () if single else HEADS
            self.text = TextEncoderParams.create(rng, len(vocab), config.d_w, config.hidden, self.params, heads)
            self.embed = NodeEmbedParams.create(rng, config.d_v, config.d_o, config.latent, self.params)
            blocks = SINGLE_QUERY_BLOCKS if single else FULL_BLOCKS
            self.graph_params = create_graph(rng, blocks, 2 * config.hidden, config.latent, self.params)
        self.temporal = TemporalParams.create(rng, config.latent, config.hidden, config.dropout, self.params)

    # ------------------------------------------------------------------
    # data preparation

    def prepare(self, sample: AnnotatedSample, cmap: CategoryMap) -> PreparedSample:
        """One sample's inputs: prepare_all of a one-sample split."""
        return self.prepare_all([sample], cmap)[0]

    def prepare_all(self, samples: list[AnnotatedSample], cmap: CategoryMap) -> list[PreparedSample]:
        """Every sample's inputs, in input order.

        A video's work (its checks, routing and no_graph's frame means) runs
        once per call: samples holding the same features and detections
        objects, as load_dataset and synth.generate hand out a video's
        tuples, are one video and share its read-only node arrays. Nothing is
        kept between calls. A sample's own work is its query's word ids and
        its target. Errors come in input order, a video's at its first sample.
        """
        cfg = self.config
        videos: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}  # (features, detections) ids -> node arrays
        prepared = []
        for sample in samples:
            tokens = tokenize(sample.query)
            if not tokens:  # no_graph reads no query, but ablate trains every variant on one dataset
                raise DataError(f"video '{sample.video_id}': query {sample.query!r} has no words")
            key = (id(sample.features), id(sample.detections))
            if key not in videos:
                videos[key] = self._route_video(sample, cmap)
            word_ids = np.array([self.vocab.index(tok) for tok in tokens], dtype=np.intp)
            t, stride = sample.features.features.shape[0], sample.features.stride_seconds
            target = build_targets(sample.t_start_s, sample.t_end_s, stride, t, cfg.smoothing)
            prepared.append(PreparedSample(replace(sample, detections=[]), word_ids, *videos[key], target))
        return prepared

    def _route_video(self, sample: AnnotatedSample, cmap: CategoryMap) -> tuple[np.ndarray, ...]:
        """A video's node arrays in PreparedSample's field order: (humans, objects, human frame ids,
        object frame ids), read-only."""
        cfg = self.config
        features = sample.features.features
        t = features.shape[0]
        if features.shape[1] != cfg.d_v:
            raise DataError(
                f"video '{sample.video_id}': activity features are {features.shape[1]} wide, config d_v is {cfg.d_v}"
            )
        dets = sample.detections
        if not isinstance(dets, Detections):
            try:
                dets = Detections.from_frames(dets, cfg.d_o)
            except InputError as exc:
                raise DataError(f"video '{sample.video_id}': {exc}")
        if dets.frames != t:
            raise DataError(f"video '{sample.video_id}': detections span {dets.frames} frames, its activity features {t}")
        rows, width = dets.features.shape
        if width != cfg.d_o:
            if rows:
                raise DataError(f"video '{sample.video_id}': detection features are {width} wide, config d_o is {cfg.d_o}")
            dets = replace(dets, features=np.zeros((0, cfg.d_o)))  # no rows, so no width of its own
        route_map = CategoryMap() if cfg.variant == "no_node_types" else cmap
        humans, h_seg, objects, o_seg = route_detections(dets, route_map, cfg.top_n)
        if cfg.variant == "no_graph":  # each frame's mean, summing humans before objects
            h_map, o_map = SortedSegments(h_seg, t, "humans"), SortedSegments(o_seg, t, "objects")
            counts = np.maximum(h_map.counts + o_map.counts, 1)[:, None]
            humans, h_seg = (h_map.sum(humans, 0) + o_map.sum(objects, 0)) / counts, np.arange(t)
        if cfg.variant == "no_human_node":
            humans, h_seg = humans[:0], h_seg[:0]
        if cfg.variant in ("no_object_node", "no_graph"):
            objects, o_seg = objects[:0], o_seg[:0]
        nodes = humans, objects, h_seg, o_seg
        for arr in nodes:  # shared by the video's samples: a write raises instead of reaching them all
            arr.flags.writeable = False
        return nodes

    # ------------------------------------------------------------------
    # forward

    def spatial_forward(
        self, batch: list[PreparedSample], views: list[Tensor] | None, frames: SortedSegments, weights: GraphWeights | None
    ) -> Tensor:
        """Contextualized activity representations of a minibatch, stacked: N x latent.

        Every timestep of every sample runs through one spatial_graph node
        (frames are independent): node frame ids are offset by their sample's
        first stacked row, and the graph reads each sample's row of the
        linguistic views through frames, the frame -> sample map. views and
        weights are None for no_graph, which reads neither.
        """
        cfg = self.config
        features = np.concatenate([p.sample.features.features for p in batch])
        humans = np.concatenate([p.humans_stacked for p in batch])
        if cfg.variant == "no_graph":  # prepare left each frame's detection mean as its human row
            return project(np.hstack([features, humans]), self.nograph_params)
        objects = np.concatenate([p.objects_stacked for p in batch])
        h_seg = np.concatenate([p.human_frame_ids + f for p, f in zip(batch, frames.starts)])
        o_seg = np.concatenate([p.object_frame_ids + f for p, f in zip(batch, frames.starts)])
        a0, h0, o0 = embed_nodes(features, humans, objects, self.embed)
        del features, humans, objects  # untaped, nothing holds them through the graph
        nodes = SortedSegments(h_seg, frames.rows, "humans"), SortedSegments(o_seg, frames.rows, "objects")
        return spatial_graph(a0, h0, o0, *views, frames, *nodes, weights, cfg.iterations)

    def forward(self, batch: list[PreparedSample], frames: SortedSegments, rng: np.random.Generator | None = None):
        """One forward pass over a minibatch; outputs stack the samples in batch order.
        frames, the batch's frame_map, is the one map the graph and the temporal head read.
        Dropout runs if and only if an rng is given.

        The query encoder and the temporal head run once over the batch. While
        a tape records the parameters the graph does too; untaped, it runs once
        per block of about GRAPH_BLOCK_NODES node rows, each block with its own
        frame map, and the blocks share one GraphWeights."""
        views = None if self.text is None else encode_query([p.word_ids for p in batch], self.text)
        weights = None if self.graph_params is None else GraphWeights(self.graph_params)
        nodes = [p.humans_stacked.shape[0] + p.objects_stacked.shape[0] for p in batch]
        blocks = list(budget_runs(nodes, GRAPH_BLOCK_NODES))
        if weights is None or len(blocks) == 1 or ad.recording(self.params.values()):
            a_ctx = self.spatial_forward(batch, views, frames, weights)
        else:
            a_ctx = Tensor(np.empty((frames.rows, self.config.latent)))
            for start, stop in blocks:
                block, lo = batch[start:stop], frames.starts[start]
                block_frames, block_views = frame_map(block), [Tensor(v.data[start:stop]) for v in views]
                a_ctx.data[lo : lo + block_frames.rows] = self.spatial_forward(block, block_views, block_frames, weights).data
        return temporal_forward(a_ctx, frames, self.temporal, rng=rng)

    def loss(self, batch: list[PreparedSample], rng: np.random.Generator | None = None):
        """Total loss tensor plus its components, each summed over the minibatch; dropout iff an rng is given.
        An empty batch is an InputError: it has no loss."""
        if not batch:
            raise InputError("loss of an empty batch: a minibatch needs at least one sample")
        frames = frame_map(batch)
        out = self.forward(batch, frames, rng=rng)
        kl = kl_loss(out["bounds"], [p.target for p in batch])
        starts = frames.starts + [p.target.start_index for p in batch]
        ends = frames.starts + [p.target.end_index for p in batch]
        sp = spatial_loss(out["y"], starts, ends)
        return kl + sp, kl, sp

    def predict(self, samples: list[PreparedSample]) -> list[MomentPrediction]:
        """Deterministic evaluation-mode predictions (no tape, no dropout), one per sample, in order.

        Any number of samples: one untaped forward per run of whole samples
        closed once its frames reach EVAL_FRAMES, so memory stays that of one run."""
        preds = []
        for start, stop in budget_runs([p.frames for p in samples], EVAL_FRAMES):
            run = samples[start:stop]
            frames = frame_map(run)
            out = self.forward(run, frames)
            bounds = np.split(out["bounds"].data, frames.starts[1:])
            videos = [p.sample.features for p in run]
            preds += [
                decode(b[:, 0], b[:, 1], v.stride_seconds, v.duration_seconds, swap_degenerate=self.config.swap_degenerate)
                for v, b in zip(videos, bounds)
            ]
        return preds

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str) -> None:
        """Write the parameters with the model fields and vocabulary that shape them."""
        model = {key: getattr(self.config, key) for key in MODEL_FIELDS}
        save_params(self.params, path, {"model": model, "vocab": self.vocab.tokens()})

    def load(self, path: str) -> None:
        self.restore(*load_params(path))

    def restore(self, meta: dict, loaded: dict[str, np.ndarray]) -> None:
        """Take what load_params read if it fits this model: the header must
        hold its fields and vocabulary, the records its parameters."""
        for key in MODEL_FIELDS:
            stored, own = meta["model"][key], getattr(self.config, key)
            if stored != own:
                raise CheckpointError(f"checkpoint/config mismatch: {key} is {stored!r} in the checkpoint, {own!r} in the config")
        if meta["vocab"] != self.vocab.tokens():
            raise CheckpointError("checkpoint/vocabulary mismatch: the stored tokens are not the model's")
        if set(loaded) != set(self.params):
            missing = set(self.params) - set(loaded)
            extra = set(loaded) - set(self.params)
            raise CheckpointError(f"checkpoint/config mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, arr in loaded.items():
            if arr.shape != self.params[name].data.shape:
                raise CheckpointError(
                    f"checkpoint parameter '{name}' has shape {arr.shape}, config expects {self.params[name].data.shape}"
                )
            self.params[name].data[...] = arr  # in place: the block may be a view of Adam's vector


# The cost budgets of an untaped forward. Each stage is cut where its cost
# per call stops paying:
# - EVAL_FRAMES, frames per predict run. The query encoder's and the BiGRU's
#   step loops and the segment maps cost about the same per call at 5
#   sequences as at 48, so wide runs amortise them; the graph has a budget of
#   its own, so the width bounds only the text and temporal arrays.
# - GRAPH_BLOCK_NODES, human plus object rows per spatial_graph block. The
#   graph is memory-bound per node row and its gate is the forward's peak: at
#   512 rows its latent x node arrays are 128 KB each, so a block's working
#   set stays within a core's L2 and is reused by the next block. Blocks of
#   1024 rows scored alike in a process that had trained, but in a fresh one
#   (as `momentgraph eval`) the allocator handed each block's freed arrays
#   back to the kernel, and every block faulted them in again. A taped
#   forward runs its minibatch as one block: there, blocks were slower.
# CHANGES.md has the sweeps.
EVAL_FRAMES = 2048
GRAPH_BLOCK_NODES = 512


def budget_runs(costs, budget):
    """(start, stop) of runs of consecutive items, in order, each closed once
    its costs reach budget; the last run may fall short."""
    start, total = 0, 0
    for i, cost in enumerate(costs):
        total += cost
        if total >= budget:
            yield start, i + 1
            start, total = i + 1, 0
    if start < len(costs):
        yield start, len(costs)


def frame_map(batch: list[PreparedSample]) -> SortedSegments:
    """The frame -> sample map of a minibatch's stacked frames, in batch order. Every video has a
    frame (ActivityFeatures checks), so its starts hold each sample's first stacked row."""
    return SortedSegments.from_counts([p.frames for p in batch], "frames")
