"""Binary parameter checkpoints.

Layout (version 2): magic bytes "DORI", format version u32, header length
(u64), UTF-8 JSON header {"model": {config.MODEL_FIELDS}, "vocab": [tokens]},
then one record per parameter: name length (u64), UTF-8 name, rank (u64),
dims (u64 each), row-major f64 little-endian payload. Records run to end of
file. No other version loads, and no record with a non-finite entry.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .config import MODEL_FIELDS, RunConfig
from .errors import CheckpointError, ConfigError

MAGIC = b"DORI"
VERSION = 2


def save_params(params: dict, path: str, meta: dict) -> None:
    """Write a header and named float64 arrays (Tensors or ndarrays) to a checkpoint file."""
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IQ", VERSION, len(header)) + header)
        for name in sorted(params):
            arr = np.ascontiguousarray(getattr(params[name], "data", params[name]), dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<Q", len(encoded)) + encoded + struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
            f.write(arr.tobytes())


def load_params(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back into (header, name -> ndarray). Every malformed
    file, and one with a non-finite parameter, is a CheckpointError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    try:
        return _parse(blob, path)
    except (ValueError, OverflowError, RecursionError) as exc:  # bad UTF-8 or JSON, unusable dims
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}")


def _parse(blob: bytes, path: str) -> tuple[dict, dict[str, np.ndarray]]:
    pos = 4

    def take(n: int) -> int:
        """Step over the next n bytes, which must exist, and return where they start."""
        nonlocal pos
        if n > len(blob) - pos:
            raise CheckpointError(f"{path}: truncated: {n} bytes wanted at offset {pos}, {len(blob) - pos} left")
        pos += n
        return pos - n

    def u64s(k: int = 1) -> tuple:
        return struct.unpack_from(f"<{k}Q", blob, take(8 * k))

    def text() -> str:
        (n,) = u64s()
        return blob[take(n) : pos].decode("utf-8")

    def record() -> None:
        name = text()
        if name in params:
            raise CheckpointError(f"{path}: duplicate record '{name}'")
        (rank,) = u64s()
        dims = u64s(rank)
        count = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=take(8 * count)).copy().reshape(dims)
        if not np.isfinite(arr).all():  # it would predict NaN, which decodes to index 0 without a word
            first = int(np.flatnonzero(~np.isfinite(arr))[0])
            index = tuple(int(i) for i in np.unravel_index(first, dims))
            raise CheckpointError(f"{path}: record '{name}' holds {arr.flat[first]} at index {index}: parameters must be finite")
        params[name] = arr

    (version,) = struct.unpack_from("<I", blob, take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    meta, params = json.loads(text()), {}
    _check_header(meta, path)
    while pos < len(blob):
        record()
    return meta, params


def _check_header(meta, path: str) -> None:
    """A header holds exactly MODEL_FIELDS, each of its default's type and
    valid for RunConfig, and a list of token strings."""
    try:
        model, vocab = meta["model"], meta["vocab"]
        RunConfig(**model)
        typed = sorted(model) == sorted(MODEL_FIELDS) and all(type(model[k]) is type(getattr(RunConfig, k)) for k in model)
        if len(meta) == 2 and typed and isinstance(vocab, list) and all(isinstance(tok, str) for tok in vocab):
            return
    except (TypeError, KeyError, ConfigError):
        pass
    raise CheckpointError(f'{path}: header is not {{"model": {{{", ".join(MODEL_FIELDS)}}}, "vocab": [tokens]}} with valid values')
