"""Mutation fuzzing of the file readers: whatever bytes a file holds, each
reader raises only its typed error, never another exception, and returns
within the deadline."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgraph.checkpoint import load_params, save_params
from momentgraph.config import MODEL_FIELDS, RunConfig, load_config
from momentgraph.dataio import (
    read_annotations,
    read_category_map,
    read_detections,
    read_features,
    read_manifest,
    write_dataset,
)
from momentgraph.errors import CheckpointError, ConfigError, DataError
from momentgraph.synth import SyntheticSpec, generate

READERS = {
    "feat": (read_features, DataError),
    "dori": (load_params, CheckpointError),
    "detections": (partial(read_detections, frames=4, video_id="vid0000"), DataError),
    "annotations": (read_annotations, DataError),
    "category_map": (read_category_map, DataError),
    "manifest": (read_manifest, DataError),
    "ini": (load_config, ConfigError),
}

INI = b"""[model]
d_w = 16
latent = 32
[graph]
variant = no_graph
iterations = 2
[loss]
smoothing = gaussian
sigma_pos = 1.5
[optimizer]
lr = 0.001
[training]
target_miou = none
swap_degenerate = yes
[paths]
report = run.json
"""


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """One valid file per reader, as bytes."""
    root = tmp_path_factory.mktemp("seeds")
    samples, cmap = generate(SyntheticSpec(n_samples=3, t_range=(4, 4), d_v=2, d_o=2))
    write_dataset(samples, cmap, str(root))
    vid = samples[0].video_id
    model = {key: getattr(RunConfig(), key) for key in MODEL_FIELDS}
    save_params({"w": np.arange(4.0).reshape(2, 2)}, str(root / "m.ckpt"), {"model": model, "vocab": ["<unk>", "a"]})
    files = {
        "feat": f"features/{vid}.feat",
        "dori": "m.ckpt",
        "detections": f"detections/{vid}.dets",
        "annotations": "annotations.jsonl",
        "category_map": "category_map.json",
        "manifest": "manifest.json",
    }
    return {"ini": INI, **{kind: (root / name).read_bytes() for kind, name in files.items()}}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """seed after one to four edits: set a byte, insert bytes, repeat a byte
    up to 512 times (long digit runs), delete a run or truncate."""
    blob = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(("set", "insert", "repeat", "delete", "truncate")))
        if edit == "set" and pos < len(blob):
            blob[pos] = draw(st.integers(0, 255))
        elif edit == "insert":
            blob[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "repeat" and pos < len(blob):
            blob[pos:pos] = blob[pos : pos + 1] * draw(st.integers(1, 512))
        elif edit == "delete":
            del blob[pos : pos + draw(st.integers(1, 16))]
        elif edit == "truncate":
            del blob[pos:]
    return bytes(blob)


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=150, deadline=2000, database=None)
@given(data=st.data())
def test_any_bytes_raise_only_the_typed_error(seeds, scratch, kind, data):
    read, error = READERS[kind]
    scratch.write_bytes(data.draw(st.one_of(st.binary(max_size=64), mutated(seeds[kind])), label="file"))
    try:
        read(str(scratch))
    except error:
        pass


@pytest.mark.parametrize("kind", list(READERS))
def test_seed_files_read(seeds, scratch, kind):
    scratch.write_bytes(seeds[kind])
    READERS[kind][0](str(scratch))
