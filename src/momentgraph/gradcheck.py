"""Finite-difference verification of the analytic gradients with a
four-point central stencil."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape
from .config import RunConfig
from .dataio import AnnotatedSample
from .errors import ConfigError
from .model import MomentModel, PreparedSample
from .train import build_vocab
from .visual import ActivityFeatures, CategoryMap, Detections, HUMAN


@dataclass
class BlockResult:
    name: str
    max_rel_err: float
    n_checked: int
    passed: bool


# run_gradcheck's batch: two samples with different t and query lengths,
# so the masked BPTT and the segment softmaxes are checked across samples
GRADCHECK_LENGTHS = (4, 3)
QUERIES = ("person throw the bag", "person throw")
# tiny_instance's detections per frame: this many "person" rows, then "cup" rows
N_HUMANS, N_OBJECTS = 2, 3

# the stencil (8(f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h has O(h^4)
# truncation error, so h can be large enough that the loss's roundoff
# (~1e-16 * |loss| / h) stays far below the tolerance
STEP = 1e-3
TOLERANCE = 1e-4


def tiny_instance(variant: str = "full", seed: int = 0, lengths=(4,)) -> tuple[MomentModel, list[PreparedSample]]:
    """A model of tiny dimensions and one prepared sample per entry of lengths (its t).

    Sample i asks QUERIES[i % 2], so a batch of two differs in t and in
    query length. The first sample does not depend on how many follow.
    """
    rng = np.random.default_rng(seed)
    config = RunConfig(
        d_w=5,
        d_v=6,
        d_o=6,
        latent=8,
        hidden=4,
        variant=variant,
        iterations=2,
        dropout=0.0,
        smoothing="onehot",
        seed=seed,
        epochs=1,
    )
    samples = []
    for i, t in enumerate(lengths):
        rows = [(rng.uniform(0.5, 1.0), rng.normal(size=config.d_o)) for _ in range(t * (N_HUMANS + N_OBJECTS))]
        frame = np.repeat(np.arange(t, dtype=np.intp), N_HUMANS + N_OBJECTS)
        label_id = np.tile(np.repeat(np.arange(2, dtype=np.intp), (N_HUMANS, N_OBJECTS)), t)
        feats = np.array([feature for _, feature in rows]).reshape(-1, config.d_o)
        dets = Detections(t, frame, np.array([conf for conf, _ in rows]), label_id, ["person", "cup"], feats)
        af = ActivityFeatures(f"tiny{i}", rng.normal(size=(t, config.d_v)), 1.0, float(t))
        samples.append(AnnotatedSample(f"tiny{i}", QUERIES[i % 2], 1.0, 2.5, af, dets))
    cmap = CategoryMap({"person": HUMAN})
    model = MomentModel(config, build_vocab(samples))
    return model, model.prepare_all(samples, cmap)


def run_gradcheck(variant: str = "full", entries_per_block: int = 24, seed: int = 0) -> list[BlockResult]:
    """Compare analytic gradients against the four-point central stencil,
    per block, on the loss of tiny_instance's GRADCHECK_LENGTHS batch.

    Entries are subsampled deterministically when a block is larger than
    entries_per_block. An entries_per_block below 1 is a ConfigError.
    """
    if entries_per_block < 1:
        raise ConfigError(f"gradcheck needs at least 1 entry per block, got {entries_per_block}")
    model, batch = tiny_instance(variant=variant, seed=seed, lengths=GRADCHECK_LENGTHS)
    with GradientTape():
        loss, _, _ = model.loss(batch)
        ad.backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.params.items()
    }

    rng = np.random.default_rng(seed + 99)
    results = []
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        size = flat.shape[0]
        if size <= entries_per_block:
            indices = np.arange(size)
        else:
            indices = rng.choice(size, size=entries_per_block, replace=False)
        max_err = 0.0
        for idx in indices:
            orig = flat[idx]
            f = {}
            for k in (1, -1, 2, -2):
                flat[idx] = orig + k * STEP
                f[k] = float(model.loss(batch)[0].data)
            flat[idx] = orig
            fd = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * STEP)
            a = analytic[name].reshape(-1)[idx]
            # the 1e-5 floor keeps near-zero gradient entries from dividing roundoff by ~0
            err = abs(a - fd) / (abs(a) + abs(fd) + 1e-5)
            max_err = max(max_err, err)
        results.append(BlockResult(name=name, max_rel_err=max_err, n_checked=len(indices), passed=max_err < TOLERANCE))
    return results


def format_results(results: list[BlockResult]) -> str:
    lines = [f"{'block':40s} {'max rel err':>12s} {'checked':>8s}  status"]
    for r in results:
        lines.append(f"{r.name:40s} {r.max_rel_err:12.3e} {r.n_checked:8d}  {'PASS' if r.passed else 'FAIL'}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results)} blocks, {n_fail} failing")
    return "\n".join(lines)
