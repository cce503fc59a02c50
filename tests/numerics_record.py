"""The model's numbers, measured on fixed inputs, for tests/test_numerics_record.py.

measure() computes, for tiny_instance(seed=1) in every variant on the
batches BATCHES: the three losses, each parameter block's gradient norm,
largest entry and sampled entries, and each sample's predicted start and
end distributions. It also runs synthetic_config for three epochs on a
small synthetic split and keeps the per-epoch losses and val mIoU.

Run this file to rewrite the record after a change that means to move the
numbers (and say why in CHANGES.md):

    PYTHONPATH=src python tests/numerics_record.py
"""

import json
import os
import pathlib

# one BLAS thread, as tests/conftest.py pins it, so the record is written as the test reads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from momentgraph import autodiff as ad  # noqa: E402
from momentgraph.autodiff import GradientTape  # noqa: E402
from momentgraph.config import synthetic_config  # noqa: E402
from momentgraph.gradcheck import tiny_instance  # noqa: E402
from momentgraph.graph import VARIANTS  # noqa: E402
from momentgraph.synth import SyntheticSpec, generate  # noqa: E402
from momentgraph.train import train  # noqa: E402

RECORD_PATH = pathlib.Path(__file__).resolve().parent / "numerics_record.json"
BATCHES = ((4, 3), (4, 3, 6))
ENTRIES_PER_BLOCK = 4
RUN_SAMPLES, RUN_VAL, RUN_EPOCHS = 60, 15, 3


def measure_instance(variant: str, lengths) -> dict:
    """Losses, per-block gradients and predicted distributions of one tiny batch."""
    model, batch = tiny_instance(variant=variant, seed=1, lengths=lengths)
    with GradientTape():
        losses = model.loss(batch)
        ad.backward(losses[0])
    blocks = {}
    for name, p in model.params.items():
        g = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        picks = np.linspace(0, g.size - 1, min(g.size, ENTRIES_PER_BLOCK)).astype(int)
        blocks[name] = {
            "norm": float(np.linalg.norm(g)),
            "max_abs": float(np.abs(g).max()),
            "entries": g[picks].tolist(),
        }
    predictions = model.predict(batch)
    return {
        "losses": [float(t.data) for t in losses],
        "grads": blocks,
        "start_dists": [pred.start_dist.tolist() for pred in predictions],
        "end_dists": [pred.end_dist.tolist() for pred in predictions],
    }


def measure_run() -> dict:
    """Per-epoch losses and val mIoU of a short synthetic_config run."""
    samples, cmap = generate(SyntheticSpec(n_samples=RUN_SAMPLES, seed=0))
    config = synthetic_config(seed=0, epochs=RUN_EPOCHS, eval_every=1)
    _, log = train(config, samples[RUN_VAL:], samples[:RUN_VAL], cmap)
    keys = ("total_loss", "kl_loss", "spatial_loss", "val_miou")
    return {key: [entry[key] for entry in log.epochs] for key in keys}


def measure() -> dict:
    instances = {
        f"{variant}/{','.join(map(str, lengths))}": measure_instance(variant, lengths)
        for variant in VARIANTS
        for lengths in BATCHES
    }
    return {"instances": instances, "run": measure_run()}


if __name__ == "__main__":
    # one line per batch and per run quantity, so a rewrite's diff names what moved
    record = measure()
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in record["instances"].items()]
    runs = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in record["run"].items()]
    RECORD_PATH.write_text('{"instances": {\n' + ",\n".join(lines) + '\n}, "run": {\n' + ",\n".join(runs) + "\n}}\n")
    print(f"wrote {RECORD_PATH}")
