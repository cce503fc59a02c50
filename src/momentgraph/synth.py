"""Synthetic dataset generator with planted, query-correlated moments.

Each video hosts two or three moments. A moment is tied to an (action,
object) token pair: activity features inside the span carry the pair's
direction on top of Gaussian noise, and a detection of the paired object
appears only inside the span. Queries are templated, so which moment a
query refers to is only resolvable through the query-conditioned graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import AnnotatedSample
from .errors import InputError
from .visual import ActivityFeatures, CategoryMap, Detection, HUMAN

DEFAULT_ACTIONS = ["open", "close", "throw", "wash", "read", "push"]
DEFAULT_OBJECTS = ["door", "bag", "cup", "book", "box", "table"]
DISTRACTOR_LABELS = ["wall", "floor", "window", "shelf"]
HUMAN_LABEL = "person"


@dataclass
class SyntheticSpec:
    n_samples: int = 250
    t_range: tuple[int, int] = (12, 32)
    d_v: int = 16
    d_o: int = 16
    actions: list[str] = field(default_factory=lambda: list(DEFAULT_ACTIONS))
    objects: list[str] = field(default_factory=lambda: list(DEFAULT_OBJECTS))
    signal_strength: float = 3.0
    noise_std: float = 0.3
    stride_seconds: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_samples", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.t_range[0] < 4:
            raise InputError(f"t_range minimum must be >= 4, got {self.t_range[0]}")
        if self.t_range[0] > self.t_range[1]:
            raise InputError(f"t_range minimum {self.t_range[0]} exceeds its maximum {self.t_range[1]}")
        for name in ("signal_strength", "noise_std"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be non-negative and finite, got {getattr(self, name)}")


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def generate(spec: SyntheticSpec) -> tuple[list[AnnotatedSample], CategoryMap]:
    """Seed-deterministic sample generation; one sample per planted moment."""
    rng = np.random.default_rng(spec.seed)
    action_dirs = {a: _unit(rng, spec.d_v) for a in spec.actions}
    object_dirs = {o: _unit(rng, spec.d_v) for o in spec.objects}
    object_feats = {o: _unit(rng, spec.d_o) for o in spec.objects}

    samples: list[AnnotatedSample] = []
    video_index = 0
    while len(samples) < spec.n_samples:
        vid = f"vid{video_index:04d}"
        video_index += 1
        t = int(rng.integers(spec.t_range[0], spec.t_range[1] + 1))
        stride = spec.stride_seconds
        duration = t * stride
        n_moments = int(rng.integers(2, 4)) if t >= 8 else 1
        n_moments = min(n_moments, t // 4)

        features = rng.normal(0.0, spec.noise_std, size=(t, spec.d_v))
        detections: list[list[Detection]] = []
        for _ in range(t):
            dets = [Detection(HUMAN_LABEL, float(rng.uniform(0.6, 1.0)), rng.normal(0.0, spec.noise_std, spec.d_o))]
            for lab in rng.choice(DISTRACTOR_LABELS, size=2, replace=False):
                dets.append(Detection(str(lab), float(rng.uniform(0.2, 0.8)), rng.normal(0.0, spec.noise_std, spec.d_o)))
            detections.append(dets)

        # disjoint spans, one per equal-width segment of the timeline
        moments = []  # (query, start s, end s)
        seg = t // n_moments
        moment_objects = rng.choice(spec.objects, size=n_moments, replace=False)
        for m in range(n_moments):
            lo, hi = m * seg, (m + 1) * seg if m < n_moments - 1 else t
            max_len = hi - lo - 1
            length = int(rng.integers(3, max(4, min(max_len, seg - 1)) + 1))
            length = min(length, hi - lo)
            si = int(rng.integers(lo, hi - length + 1))
            ei = si + length - 1
            action = str(rng.choice(spec.actions))
            obj = str(moment_objects[m])
            if spec.signal_strength > 0.0:
                pair_dir = action_dirs[action] + object_dirs[obj]
                pair_dir = pair_dir / np.linalg.norm(pair_dir)
                features[si : ei + 1] += spec.signal_strength * pair_dir
                for i in range(si, ei + 1):
                    detections[i].append(
                        Detection(
                            obj,
                            float(rng.uniform(0.8, 1.0)),
                            object_feats[obj] + rng.normal(0.0, 0.2, spec.d_o),
                        )
                    )
            t_start = (si + float(rng.uniform(0.0, 0.5))) * stride
            t_end = (ei + float(rng.uniform(0.5, 1.0))) * stride
            moments.append((f"{HUMAN_LABEL} {action} the {obj}", t_start, min(t_end, duration)))
        # the video's samples share its features and one per-frame detection list
        af = ActivityFeatures(video_id=vid, features=features, stride_seconds=stride, duration_seconds=duration)
        samples += [AnnotatedSample(vid, query, t0, t1, af, detections) for query, t0, t1 in moments]
    return samples[: spec.n_samples], CategoryMap({HUMAN_LABEL: HUMAN})
