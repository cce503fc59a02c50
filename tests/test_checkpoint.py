import json
import re
import struct

import numpy as np
import pytest

from momentgraph.checkpoint import MAGIC, VERSION, load_params, save_params
from momentgraph.config import MODEL_FIELDS, RunConfig
from momentgraph.errors import CheckpointError
from momentgraph.gradcheck import tiny_instance

from reference_impls import dori_record

META = {"model": {k: getattr(RunConfig(), k) for k in MODEL_FIELDS}, "vocab": ["<unk>", "<pad>", "open", "door"]}


def v2_bytes(meta, records):
    """A version-2 file from a header object and raw record bytes."""
    header = json.dumps(meta).encode("utf-8")
    return MAGIC + struct.pack("<IQ", VERSION, len(header)) + header + b"".join(records)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "a.w": rng.normal(size=(3, 4)),
        "a.b": rng.normal(size=(1, 4)),
        "z": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "model.ckpt"
    save_params(params, str(path), META)
    meta, loaded = load_params(str(path))
    assert meta == META
    assert set(loaded) == set(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_version_one_is_unsupported(tmp_path):
    # version 1 was the same records without the header
    path = tmp_path / "old.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + dori_record("w", (2,), np.ones(2).tobytes()))
    with pytest.raises(CheckpointError, match="unsupported format version 1"):
        load_params(str(path))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + struct.pack("<I", VERSION))
    with pytest.raises(CheckpointError, match="magic"):
        load_params(str(path))


def test_bad_version(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(CheckpointError, match="version"):
        load_params(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params({"w": np.ones((4, 4))}, str(path), META)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="truncated|corrupt"):
        load_params(str(path))


def test_deterministic_bytes(tmp_path):
    # sorted record order makes the file a pure function of its contents
    params = {"b": np.ones((2,)), "a": np.zeros((1, 3))}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_params(params, str(p1), META)
    save_params(dict(reversed(list(params.items()))), str(p2), dict(reversed(list(META.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_strict_prefix_is_typed_error_or_whole_records(tmp_path):
    # records run to end of file, so a cut between two records reads as the
    # records before it; MomentModel.load then names the missing ones
    params = {"a": np.arange(6.0).reshape(2, 3), "b": np.zeros(4), "c": np.float64(1.0)}
    path = tmp_path / "model.ckpt"
    save_params(params, str(path), META)
    blob = path.read_bytes()
    n_whole = 0
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        try:
            meta, loaded = load_params(str(path))
        except CheckpointError:
            continue
        n_whole += 1
        assert meta == META
        assert sorted(loaded) == sorted(params)[: len(loaded)]
        assert all(loaded[k].tobytes() == np.asarray(params[k]).tobytes() for k in loaded)
    assert n_whole == len(params)  # after the header, and after each record but the last


HUGE = 2**62


@pytest.mark.parametrize(
    "blob",
    [
        b"DORI\x01",  # short version field
        b"DORI\x02\x00\x00\x00\x05",  # short header length
        pytest.param(v2_bytes(META, [dori_record("w", (HUGE, HUGE))]), id="count-overflows-int64"),
        pytest.param(v2_bytes(META, [dori_record("w", (0, 2**64 - 1))]), id="zero-elements-no-such-array"),
        pytest.param(v2_bytes(META, [struct.pack("<Q", HUGE) + b"w"]), id="name-longer-than-file"),
        pytest.param(
            v2_bytes(META, [dori_record("w", (1,), b"\x00" * 8), struct.pack("<QsQ", 1, b"v", 2**60)]),
            id="rank-past-the-end",
        ),
        pytest.param(
            v2_bytes(META, [dori_record("w", (1,), b"\x00" * 8), dori_record("w", (1,), b"\x00" * 8)]),
            id="duplicate-name",
        ),
        pytest.param(
            v2_bytes(META, [struct.pack("<Q", 1) + b"\xff" + struct.pack("<Q", 0) + b"\x00" * 8]), id="name-not-utf8"
        ),
        MAGIC + struct.pack("<IQ", VERSION, 5) + b"{nope",  # header is not JSON
        MAGIC + struct.pack("<IQ", VERSION, 3000) + b"[" * 3000,  # nested past the limit
        MAGIC + struct.pack("<IQ", VERSION, 2**62) + b"{}",  # header longer than the file
        v2_bytes(META, [dori_record("w", (2,), b"\x00" * 8)]),  # payload shorter than its dims
        v2_bytes([1, 2], []),
        v2_bytes({"model": META["model"]}, []),
        v2_bytes({**META, "extra": 1}, []),
        v2_bytes({**META, "vocab": ["a", 3]}, []),
        v2_bytes({**META, "vocab": "abc"}, []),
        v2_bytes({**META, "model": {**META["model"], "top_n": "15"}}, []),
        v2_bytes({**META, "model": {**META["model"], "d_w": 300.0}}, []),
        v2_bytes({**META, "model": {**META["model"], "d_w": True}}, []),
        v2_bytes({**META, "model": {**META["model"], "hidden": 0}}, []),
        v2_bytes({**META, "model": {**META["model"], "variant": "bogus"}}, []),
        v2_bytes({**META, "model": {**META["model"], "lr": 1.0}}, []),
        v2_bytes({**META, "model": {k: v for k, v in META["model"].items() if k != "top_n"}}, []),
    ],
)
def test_malformed_file_is_typed_error(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_params(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_is_typed_error_naming_the_first(tmp_path, bad):
    params = {"a.w": np.zeros((3, 4)), "b": np.ones(2)}
    params["a.w"][1, 2] = bad
    params["a.w"][2, 0] = np.nan  # a later bad entry of the same record
    path = tmp_path / "model.ckpt"
    save_params(params, str(path), META)
    match = rf"{re.escape(str(path))}: record 'a\.w' holds {bad} at index \(1, 2\)"
    with pytest.raises(CheckpointError, match=match):
        load_params(str(path))


def test_model_with_a_nan_parameter_does_not_load(tmp_path):
    # it would predict all-NaN distributions, which decode to index 0
    model, _ = tiny_instance(seed=3)
    model.params["temporal.w_start"].data[1, 0] = np.nan
    path = tmp_path / "model.ckpt"
    model.save(str(path))
    fresh, _ = tiny_instance(seed=4)
    before = {name: p.data.copy() for name, p in fresh.params.items()}
    with pytest.raises(CheckpointError, match=r"record 'temporal\.w_start' holds nan at index \(1, 0\)"):
        fresh.load(str(path))
    for name, p in fresh.params.items():  # nothing of the bad file reaches the model
        assert p.data.tobytes() == before[name].tobytes()
