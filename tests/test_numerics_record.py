"""The model's numbers against the committed record that tests/numerics_record.py writes.

A change that means to keep the arithmetic must pass this unchanged. Each
gradient quantity is compared at 1e-12 of its block's largest entry, each
distribution at 1e-12 of its largest entry, each loss at 1e-12 relative,
and val mIoU exactly.
"""

import json

import numpy as np
import pytest

from numerics_record import BATCHES, RECORD_PATH, measure_instance, measure_run
from momentgraph.graph import VARIANTS

RTOL = 1e-12


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD_PATH.read_text())


def close(got, want, scale, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    worst = float(np.abs(got - want).max(initial=0.0))
    assert worst <= RTOL * scale, f"{what}: differs by {worst:.3g}, bound {RTOL * scale:.3g}"


@pytest.mark.parametrize("lengths", BATCHES, ids=lambda b: ",".join(map(str, b)))
@pytest.mark.parametrize("variant", VARIANTS)
def test_instance_matches_record(record, variant, lengths):
    want = record["instances"][f"{variant}/{','.join(map(str, lengths))}"]
    got = measure_instance(variant, lengths)
    for name, g, w in zip(("total", "kl", "spatial"), got["losses"], want["losses"]):
        close(g, w, abs(w), f"{name} loss")
    assert sorted(got["grads"]) == sorted(want["grads"])
    for name, w in want["grads"].items():
        g = got["grads"][name]
        for key in ("norm", "max_abs", "entries"):
            close(g[key], w[key], w["max_abs"], f"{name} gradient {key}")
    for key in ("start_dists", "end_dists"):
        assert len(got[key]) == len(want[key])
        for i, (g, w) in enumerate(zip(got[key], want[key])):
            close(g, w, max(w), f"sample {i} {key}")


def test_short_run_matches_record(record):
    want = record["run"]
    got = measure_run()
    for key in ("total_loss", "kl_loss", "spatial_loss"):
        close(got[key], want[key], max(abs(x) for x in want[key]), key)
    assert got["val_miou"] == want["val_miou"]
