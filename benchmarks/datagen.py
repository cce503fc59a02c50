"""Benchmark inputs, made from the workload seed and written in the
program's own on-disk formats with `write_dataset`.
"""

from __future__ import annotations

import numpy as np

from momentgraph.dataio import write_dataset
from momentgraph.synth import DISTRACTOR_LABELS, SyntheticSpec, generate
from momentgraph.visual import Detection

# Quick-start data: `momentgraph synth --samples 250`.
SYNTH_SAMPLES = 250

# Long, crowded videos. Every frame gets CLUTTER low-confidence detections
# on top of its human, two distractors and any planted object, so each frame
# holds more than top_n = 15 detections and the top-n cut always binds.
DENSE_SAMPLES = 60
DENSE_T_RANGE = (96, 128)
CLUTTER = 20


def synth_dataset(seed: int, out_dir: str) -> None:
    samples, cmap = generate(SyntheticSpec(n_samples=SYNTH_SAMPLES, seed=seed))
    write_dataset(samples, cmap, out_dir)


def dense_dataset(seed: int, out_dir: str) -> None:
    spec = SyntheticSpec(n_samples=DENSE_SAMPLES, t_range=DENSE_T_RANGE, seed=seed)
    samples, cmap = generate(spec)
    rng = np.random.default_rng([seed, 1])
    cluttered = set()
    for s in samples:
        # moments of one video share its detection lists; clutter them once
        if id(s.detections) in cluttered:
            continue
        cluttered.add(id(s.detections))
        for dets in s.detections:
            for label in rng.choice(DISTRACTOR_LABELS, size=CLUTTER):
                dets.append(Detection(str(label), float(rng.uniform(0.05, 0.5)), rng.normal(0.0, spec.noise_std, spec.d_o)))
    write_dataset(samples, cmap, out_dir)


DATASETS = {"synth": synth_dataset, "dense": dense_dataset}
