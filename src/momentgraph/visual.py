"""Visual front end: keyframe sharpness, detection routing and node embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputError
from .init import glorot, zeros

HUMAN = "human"
OBJECT = "object"


@dataclass
class ActivityFeatures:
    """Sequence of per-window activity feature vectors for one video."""

    video_id: str
    features: np.ndarray  # t x d_v
    stride_seconds: float
    duration_seconds: float

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or len(self.features) < 1:
            raise InputError(f"{self.video_id}: need a t x d_v feature matrix of t >= 1 rows, got shape {self.features.shape}")
        t = self.features.shape[0]
        if not (math.isfinite(self.stride_seconds) and self.stride_seconds > 0):
            raise InputError(f"{self.video_id}: stride must be finite and positive, got {self.stride_seconds}")
        if not math.isfinite(self.duration_seconds):
            raise InputError(f"{self.video_id}: duration must be finite, got {self.duration_seconds}")
        if abs(t * self.stride_seconds - self.duration_seconds) > self.stride_seconds:
            raise InputError(
                f"{self.video_id}: duration {self.duration_seconds}s inconsistent with "
                f"{t} rows at stride {self.stride_seconds}s"
            )
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise InputError(f"feature row {bad[0]} is not finite in video '{self.video_id}'")


@dataclass
class Detection:
    """One detection as a detector reports it; Detections.from_frames turns
    per-frame lists of them into columns."""

    label: str
    confidence: float
    feature: np.ndarray

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.float64)


@dataclass
class Detections:
    """One video's detections as columns, one row per detection.

    Row i lies in frame frame[i], scores confidence[i] and is labelled
    labels[label_id[i]], with feature row features[i]. Frames are
    non-decreasing, and within a frame the rows keep the detector's order.
    frames is the video's timestep count: a frame may have no rows.
    Iterating yields each frame's rows as a range, frame by frame.
    Construction checks every row, read or built in code, against the table
    in __post_init__: the first bad row is an InputError naming it.
    """

    frames: int
    frame: np.ndarray  # k, intp
    confidence: np.ndarray  # k, float64
    label_id: np.ndarray  # k, intp
    labels: list[str]
    features: np.ndarray  # k x width, float64

    def __post_init__(self):
        frame, label_id, confidence, features = self.frame, self.label_id, self.confidence, self.features
        if not (frame.ndim == 1 and features.ndim == 2 and frame.shape == label_id.shape == confidence.shape == features.shape[:1]):
            shapes = [c.shape for c in (frame, label_id, confidence, features)]
            raise InputError(f"frame, label_id, confidence and features of shapes {shapes} are not one row per detection")
        checks = (
            (np.diff(frame, prepend=frame[:1]) < 0, lambda i: f"frame index {frame[i]} is below the row before it"),
            ((frame < 0) | (frame >= self.frames), lambda i: f"frame index {frame[i]} is outside [0, {self.frames})"),
            ((label_id < 0) | (label_id >= len(self.labels)), lambda i: f"label id {label_id[i]} is outside the {len(self.labels)}-label table"),
            (~((confidence >= 0.0) & (confidence <= 1.0)), lambda i: f"confidence {confidence[i]} is not in [0, 1]"),
            (~np.isfinite(features).all(axis=1), lambda i: "detection features are not finite"),
        )
        for bad, what in checks:
            at = np.flatnonzero(bad)
            if at.size:
                raise InputError(f"row {at[0]}: {what(at[0])}")

    def __iter__(self):
        bounds = np.searchsorted(self.frame, np.arange(self.frames + 1)).tolist()
        return (range(lo, hi) for lo, hi in zip(bounds, bounds[1:]))

    @classmethod
    def from_frames(cls, per_frame: list[list[Detection]], width: int) -> "Detections":
        """Columns of per-frame Detection lists, each feature 1-D and width wide."""
        rows = [d for dets in per_frame for d in dets]
        bad = next((d for d in rows if d.feature.shape != (width,)), None)
        if bad is not None:
            raise InputError(f"detection '{bad.label}' has a feature of shape {bad.feature.shape}, not ({width},)")
        labels = list(dict.fromkeys(d.label for d in rows))
        index = {label: i for i, label in enumerate(labels)}
        return cls(
            frames=len(per_frame),
            frame=np.repeat(np.arange(len(per_frame), dtype=np.intp), [len(dets) for dets in per_frame]),
            confidence=np.array([d.confidence for d in rows], dtype=np.float64),
            label_id=np.array([index[d.label] for d in rows], dtype=np.intp),
            labels=labels,
            features=np.array([d.feature for d in rows], dtype=np.float64).reshape(len(rows), width),
        )


class CategoryMap:
    """label -> human/object routing; unknown labels default to object."""

    def __init__(self, mapping: dict[str, str] | None = None):
        mapping = mapping or {}
        for label, cat in mapping.items():
            if cat not in (HUMAN, OBJECT):
                raise InputError(f"category map: label '{label}' has unknown category '{cat}'")
        self._map = dict(mapping)

    def category(self, label: str) -> str:
        return self._map.get(label, OBJECT)

    def as_dict(self) -> dict[str, str]:
        return dict(self._map)


def variance_of_laplacian(image: np.ndarray) -> float:
    """Population variance of the 4-neighbour Laplacian response (valid interior)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] < 3 or image.shape[1] < 3:
        raise InputError(f"image must be at least 3x3, got shape {image.shape}")
    lap = (
        image[:-2, 1:-1]
        + image[2:, 1:-1]
        + image[1:-1, :-2]
        + image[1:-1, 2:]
        - 4.0 * image[1:-1, 1:-1]
    )
    return float(lap.var())


def select_keyframe(frames: list[np.ndarray]) -> int:
    """Index of the sharpest frame; ties break to the lowest index."""
    if not frames:
        raise InputError("empty frame list")
    scores = [variance_of_laplacian(f) for f in frames]
    return int(np.argmax(scores))


def route_detections(dets: Detections, cmap: CategoryMap, top_n: int):
    """Keep each frame's top_n most confident detections, then route them by category.

    One stable lexsort orders the rows by frame, then by confidence, highest
    first, so confidence ties keep row order; a row's rank within its frame
    then makes the cut, which applies to a frame's whole pool before the
    human/object split. The category map is asked once per label in the
    table. Returns (humans, human_frame_ids, objects, object_frame_ids): the
    kept feature rows of every frame, stacked frame by frame in confidence
    order, with the index of the frame each row came from.
    """
    if top_n < 1:
        raise InputError(f"top_n must be >= 1, got {top_n}")
    order = np.lexsort((-dets.confidence, dets.frame))
    frame = dets.frame[order]
    rank = np.arange(frame.size) - np.searchsorted(frame, frame)
    keep = order[rank < top_n]
    human_label = np.array([cmap.category(label) == HUMAN for label in dets.labels], dtype=bool)
    is_human = human_label[dets.label_id[keep]]
    rows, frame_ids = dets.features[keep], dets.frame[keep]
    return rows[is_human], frame_ids[is_human], rows[~is_human], frame_ids[~is_human]


@dataclass
class NodeEmbedParams:
    """Affine + tanh maps into node latent space, one per node kind."""

    w_a: Tensor
    b_a: Tensor
    w_h: Tensor
    b_h: Tensor
    w_o: Tensor
    b_o: Tensor

    @classmethod
    def create(cls, rng, d_v: int, d_o: int, latent: int, registry: dict) -> "NodeEmbedParams":
        p = cls(
            w_a=glorot(rng, d_v, latent),
            b_a=zeros((1, latent)),
            w_h=glorot(rng, d_o, latent),
            b_h=zeros((1, latent)),
            w_o=glorot(rng, d_o, latent),
            b_o=zeros((1, latent)),
        )
        for name in ("w_a", "b_a", "w_h", "b_h", "w_o", "b_o"):
            registry[f"embed.{name}"] = getattr(p, name)
        return p


def embed_nodes(features: np.ndarray, humans: np.ndarray, objects: np.ndarray, params: NodeEmbedParams):
    """Initial latents: tanh(x·w + b) per row, separate maps per node kind.

    features is a video's t x d_v activity matrix; humans / objects stack
    every frame's K / J detection features. Returns (a0: t x latent,
    h0: K x latent, o0: J x latent), each one tape node with inputs (w, b):
    the features are constants. An empty set is a 0-row matrix on the same
    path and yields a 0-row latent matrix. A feature array whose width is
    not its map's input width is a DimensionError.
    """

    def embed(x: np.ndarray, w: Tensor, b: Tensor, kind: str) -> Tensor:
        if x.ndim != 2 or x.shape[1] != w.data.shape[0]:
            raise DimensionError(f"embed_nodes: {kind} features have shape {x.shape}, the map takes {w.data.shape[0]} columns")
        y = np.tanh(x @ w.data + b.data)

        def backward(g):
            d = g * (1.0 - y * y)
            return x.T @ d, d.sum(axis=0, keepdims=True)

        return ad.record(y, (w, b), backward)

    return (
        embed(features, params.w_a, params.b_a, "activity"),
        embed(humans, params.w_h, params.b_h, "human"),
        embed(objects, params.w_o, params.b_o, "object"),
    )
