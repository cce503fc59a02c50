"""On-disk dataset formats: binary feature and detection files, annotation
JSON Lines, the category map and the train/val manifest.

A detection file (version 1) is magic bytes "DETS", format version u32,
header length u64, a UTF-8 JSON header {"video_id", "labels", "rows",
"width"}, then little-endian arrays to end of file: frame index <i8, label
id <i8 (an index into labels), confidence <f8 and the rows x width <f8
feature matrix.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError
from .visual import ActivityFeatures, CategoryMap, Detection, Detections

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1
DETS_MAGIC = b"DETS"
DETS_VERSION = 1
DETS_HEADER = {"video_id": str, "labels": list, "rows": int, "width": int}
VAL_FRACTION = 0.2


@dataclass
class AnnotatedSample:
    """One (video, query, span) tuple joined with its features and detections."""

    video_id: str
    query: str
    t_start_s: float
    t_end_s: float
    features: ActivityFeatures  # the video's duration is features.duration_seconds
    # one list per feature row / keyframe as generated, or columns as loaded
    detections: list[list[Detection]] | Detections


def write_features(af: ActivityFeatures, path: str) -> None:
    t, d_v = af.features.shape
    with open(path, "wb") as f:
        f.write(FEAT_MAGIC)
        f.write(struct.pack("<I", FEAT_VERSION))
        vid = af.video_id.encode("utf-8")
        f.write(struct.pack("<Q", len(vid)))
        f.write(vid)
        f.write(struct.pack("<QQ", t, d_v))
        f.write(struct.pack("<dd", af.stride_seconds, af.duration_seconds))
        f.write(np.ascontiguousarray(af.features, dtype="<f8").tobytes())


def read_features(path: str) -> ActivityFeatures:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != FEAT_MAGIC:
        raise DataError(f"{path}: bad magic bytes")
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != FEAT_VERSION:
            raise DataError(f"{path}: unsupported feature-file version {version}")
        (vid_len,) = struct.unpack_from("<Q", blob, 8)
        offset = 16 + vid_len
        video_id = blob[16:offset].decode("utf-8")
        t, d_v, stride, duration = struct.unpack_from("<QQdd", blob, offset)
        offset += 32
        if 8 * t * d_v != len(blob) - offset:
            raise DataError(f"{path}: {t} x {d_v} features need {8 * t * d_v} bytes, {len(blob) - offset} follow the header")
        feats = np.frombuffer(blob, dtype="<f8", count=t * d_v, offset=offset).copy().reshape(t, d_v)
    except (struct.error, ValueError, OverflowError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: truncated or corrupt feature file: {exc}")
    try:
        return ActivityFeatures(video_id=video_id, features=feats, stride_seconds=stride, duration_seconds=duration)
    except InputError as exc:  # well-formed bytes whose values the record refuses
        raise DataError(f"{path}: {exc}")


def write_detections(video_id: str, dets: Detections, path: str) -> None:
    rows, width = dets.features.shape
    header = json.dumps({"video_id": video_id, "labels": dets.labels, "rows": rows, "width": width}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(DETS_MAGIC + struct.pack("<IQ", DETS_VERSION, len(header)) + header)
        for column, dtype in ((dets.frame, "<i8"), (dets.label_id, "<i8"), (dets.confidence, "<f8"), (dets.features, "<f8")):
            f.write(np.ascontiguousarray(column, dtype=dtype).tobytes())


def read_detections(path: str, frames: int, video_id: str) -> Detections:
    """One video's detection file as columns; frames is the video's timestep
    count. Every malformed file, or one of a video other than video_id, is a
    DataError naming it, and the row if one row is at fault."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != DETS_MAGIC:
        raise DataError(f"{path}: bad magic bytes")
    try:
        version, n = struct.unpack_from("<IQ", blob, 4)
        if version != DETS_VERSION:
            raise DataError(f"{path}: unsupported detection-file version {version}")
        header = json.loads(blob[16 : 16 + n].decode("utf-8"))
    except (struct.error, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise DataError(f"{path}: truncated or corrupt detection header: {exc}")
    # exact types: a JSON true/false parses as a bool, which subclasses int
    if not (
        type(header) is dict
        and set(header) == set(DETS_HEADER)
        and all(type(header[key]) is kind for key, kind in DETS_HEADER.items())
        and all(type(label) is str for label in header["labels"])
    ):
        raise DataError(f'{path}: header is not {{"video_id": string, "labels": [strings], "rows": integer, "width": integer}}')
    if header["video_id"] != video_id:
        raise DataError(f"{path}: holds the detections of video '{header['video_id']}', not of '{video_id}'")
    labels, rows, width = header["labels"], header["rows"], header["width"]
    offset = 16 + n
    if rows < 0 or width < 0:
        raise DataError(f"{path}: rows {rows} and width {width} must not be negative")
    size = 8 * rows * (3 + width)  # checked before any array is made, so a huge rows allocates nothing
    if size != len(blob) - offset:
        raise DataError(f"{path}: {rows} rows of width {width} need {size} bytes, {len(blob) - offset} follow the header")
    try:
        frame, label_id = (np.frombuffer(blob, "<i8", rows, offset + 8 * rows * i).astype(np.intp) for i in (0, 1))
        confidence = np.frombuffer(blob, "<f8", rows, offset + 16 * rows).copy()
        features = np.frombuffer(blob, "<f8", rows * width, offset + 24 * rows).copy().reshape(rows, width)
    except (ValueError, OverflowError) as exc:  # a width numpy cannot shape, on zero rows
        raise DataError(f"{path}: corrupt detection file: {exc}")
    try:
        return Detections(frames, frame, confidence, label_id, labels, features)
    except InputError as exc:  # a row the record refuses
        raise DataError(f"{path}: {exc}")


def _jsonl_lines(path: str) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line; bytes not in UTF-8 are a DataError naming their line."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not UTF-8 text: {exc}")
    return [(lineno, line) for lineno, line in enumerate(text.split("\n"), 1) if line.strip()]


def write_category_map(cmap: CategoryMap, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cmap.as_dict(), f, indent=2, sort_keys=True)


def read_category_map(path: str) -> CategoryMap:
    """A JSON object of label -> "human" or "object"."""
    with open(path, encoding="utf-8") as f:
        try:
            mapping = json.load(f)
        except ValueError as exc:
            raise DataError(f"{path}: malformed category map: {exc}")
    if not isinstance(mapping, dict):
        raise DataError(f"{path}: category map must be a JSON object, got {type(mapping).__name__}")
    try:
        return CategoryMap(mapping)
    except InputError as exc:
        raise DataError(f"{path}: {exc}")


def write_annotations(samples: list[AnnotatedSample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(
                json.dumps(
                    {
                        "video_id": s.video_id,
                        "query": s.query,
                        "t_start_s": s.t_start_s,
                        "t_end_s": s.t_end_s,
                        "duration_s": s.features.duration_seconds,
                    }
                )
                + "\n"
            )


ANNOTATION_TIMES = ("t_start_s", "t_end_s", "duration_s")


def read_annotations(path: str) -> list[dict]:
    """One row per line: string video_id and query, and the times as JSON numbers."""
    rows = []
    for lineno, line in _jsonl_lines(path):
        try:
            rec = json.loads(line, parse_int=float)  # an integer too large for a float loads as inf
            row = {key: rec[key] for key in ("video_id", "query") + ANNOTATION_TIMES}
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}:{lineno}: malformed annotation: {exc}")
        for key in ("video_id", "query"):
            if type(row[key]) is not str:
                raise DataError(f"{path}:{lineno}: {key} {row[key]!r} is not a JSON string")
        for key in ANNOTATION_TIMES:
            if type(row[key]) is not float:  # exact type: a JSON true/false parses as a bool
                raise DataError(f"{path}:{lineno}: {key} {row[key]!r} is not a JSON number")
        if not all(math.isfinite(row[k]) for k in ANNOTATION_TIMES):
            raise DataError(f"{path}:{lineno}: times must be finite")
        if row["t_start_s"] > row["t_end_s"]:
            raise DataError(f"{path}:{lineno}: t_start_s > t_end_s")
        rows.append(row)
    return rows


def write_manifest(train_ids: list[str], val_ids: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"train": train_ids, "val": val_ids}, f, indent=2)


def read_manifest(path: str) -> tuple[list[str], list[str]]:
    """The train and val video ids: two lists of strings with no id in both."""
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:
            raise DataError(f"{path}: malformed manifest: {exc}")
    splits = []
    for split in ("train", "val"):
        ids = data.get(split) if isinstance(data, dict) else None
        if not isinstance(ids, list) or not all(isinstance(vid, str) for vid in ids):
            raise DataError(f"{path}: manifest '{split}' must be a list of video-id strings")
        splits.append(ids)
    train_ids, val_ids = splits
    shared = sorted(set(train_ids) & set(val_ids))
    if shared:
        raise DataError(f"{path}: video {shared[0]!r} is in both the train and val splits")
    return train_ids, val_ids


def write_dataset(samples: list[AnnotatedSample], cmap: CategoryMap, out_dir: str) -> None:
    """Lay out a dataset directory: features/, detections/, annotations, category
    map and a by-video manifest with VAL_FRACTION of the videos, at least one, in
    val. Fewer than two videos is a DataError before any file is written. Detections
    may be per-frame Detection lists, as generated, or columns, as loaded."""
    by_video: dict[str, AnnotatedSample] = {}
    for s in samples:
        by_video.setdefault(s.video_id, s)
    if len(by_video) < 2:
        raise DataError(f"a dataset needs at least two videos, one for each split; the samples have {len(by_video)}")
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "detections"), exist_ok=True)
    for vid, s in by_video.items():
        write_features(s.features, os.path.join(out_dir, "features", f"{vid}.feat"))
        dets = s.detections
        if not isinstance(dets, Detections):  # a video without detections is written 0 wide
            dets = Detections.from_frames(dets, next((d.feature.size for frame in dets for d in frame), 0))
        write_detections(vid, dets, os.path.join(out_dir, "detections", f"{vid}.dets"))
    write_annotations(samples, os.path.join(out_dir, "annotations.jsonl"))
    write_category_map(cmap, os.path.join(out_dir, "category_map.json"))
    video_ids = sorted(by_video)
    n_val = max(1, int(round(len(video_ids) * VAL_FRACTION)))
    write_manifest(video_ids[:-n_val], video_ids[-n_val:], os.path.join(out_dir, "manifest.json"))


def load_annotations(path: str, features_dir: str, detections_dir: str) -> list[AnnotatedSample]:
    """Parse annotations and join against per-video feature/detection files."""
    rows = read_annotations(path)
    feature_cache: dict[str, ActivityFeatures] = {}
    detection_cache: dict[str, Detections] = {}
    samples = []
    for row in rows:
        vid = row["video_id"]
        if vid not in feature_cache:
            fpath = os.path.join(features_dir, f"{vid}.feat")
            if not os.path.exists(fpath):
                raise DataError(f"missing feature file for video '{vid}' ({fpath})")
            feature_cache[vid] = read_features(fpath)
            if feature_cache[vid].video_id != vid:
                raise DataError(f"{fpath}: holds the features of video '{feature_cache[vid].video_id}', not of '{vid}'")
            t = feature_cache[vid].features.shape[0]
            dpath = os.path.join(detections_dir, f"{vid}.dets")
            stale = os.path.join(detections_dir, f"{vid}.jsonl")
            if os.path.exists(dpath):
                detection_cache[vid] = read_detections(dpath, t, vid)
            elif os.path.exists(stale):
                raise DataError(
                    f"{stale}: detections in the old JSON Lines format; this version reads binary "
                    f"detections/<video_id>.dets files only, so write the dataset again"
                )
            else:  # a video without a detection file has no detections
                detection_cache[vid] = Detections.from_frames([[]] * t, 0)
        feats = feature_cache[vid]
        if row["duration_s"] != feats.duration_seconds:
            raise DataError(
                f"video '{vid}': annotation duration_s {row['duration_s']} differs from "
                f"its feature file's duration {feats.duration_seconds}"
            )
        if row["t_start_s"] < 0.0 or row["t_end_s"] > feats.duration_seconds:
            raise DataError(
                f"video '{vid}': annotation span [{row['t_start_s']}, {row['t_end_s']}] s lies outside "
                f"[0, {feats.duration_seconds}], its feature file's duration"
            )
        samples.append(
            AnnotatedSample(
                video_id=vid,
                query=row["query"],
                t_start_s=row["t_start_s"],
                t_end_s=row["t_end_s"],
                features=feats,
                detections=detection_cache[vid],
            )
        )
    return samples


def load_dataset(data_dir: str) -> tuple[list[AnnotatedSample], list[AnnotatedSample], CategoryMap]:
    """Load a dataset directory into (train, val, category_map) using the manifest.
    A manifest id without an annotation line is a DataError; an annotated
    video in neither split is left out."""
    samples = load_annotations(
        os.path.join(data_dir, "annotations.jsonl"),
        os.path.join(data_dir, "features"),
        os.path.join(data_dir, "detections"),
    )
    cmap = read_category_map(os.path.join(data_dir, "category_map.json"))
    manifest = os.path.join(data_dir, "manifest.json")
    annotated = {s.video_id for s in samples}
    splits = []
    for split, ids in zip(("train", "val"), read_manifest(manifest)):
        missing = [vid for vid in ids if vid not in annotated]
        if missing:
            raise DataError(f"{manifest}: {split} video {missing[0]!r} has no annotation")
        wanted = set(ids)
        splits.append([s for s in samples if s.video_id in wanted])
    return splits[0], splits[1], cmap
