import json
import os
import struct

import numpy as np
import pytest

from momentgraph.dataio import (
    load_annotations,
    load_dataset,
    read_annotations,
    read_category_map,
    read_detections,
    read_features,
    read_manifest,
    write_dataset,
    write_detections,
    write_features,
)
from momentgraph.config import synthetic_config
from momentgraph.errors import DataError
from momentgraph.model import MomentModel
from momentgraph.synth import SyntheticSpec, generate
from momentgraph.train import build_vocab
from momentgraph.visual import ActivityFeatures, Detection, Detections

from reference_impls import dets_blob, feat_blob


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        af = ActivityFeatures("vid0", np.random.default_rng(0).normal(size=(7, 4)), 1.5, 10.5)
        path = tmp_path / "vid0.feat"
        write_features(af, str(path))
        back = read_features(str(path))
        assert back.video_id == "vid0"
        assert back.stride_seconds == 1.5
        assert back.features.tobytes() == af.features.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(DataError, match="magic"):
            read_features(str(path))

    def test_truncated(self, tmp_path):
        af = ActivityFeatures("v", np.ones((3, 2)), 1.0, 3.0)
        path = tmp_path / "v.feat"
        write_features(af, str(path))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError):
            read_features(str(path))


    def test_every_strict_prefix_is_data_error(self, tmp_path):
        path = tmp_path / "v.feat"
        write_features(ActivityFeatures("vid", np.ones((3, 2)), 1.0, 3.0), str(path))
        blob = path.read_bytes()
        read_features(str(path))
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataError):
                read_features(str(path))

    @pytest.mark.parametrize(
        "blob",
        [
            b"FEAT\x01",  # short version field
            b"FEAT" + struct.pack("<IQ", 1, 2**62) + b"v",  # video id longer than the file
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 2**62, 2**62, 1.0, 1.0),  # t x d_v overflows
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 1, 1, 1.0, 1.0) + b"\x00" * 16,  # extra bytes
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 1, 1, float("nan"), 1.0) + b"\x00" * 8,
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 1, 1, 1.0, float("inf")) + b"\x00" * 8,
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"\xff" + struct.pack("<QQdd", 1, 1, 1.0, 1.0) + b"\x00" * 8,
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 0, 1, 1.0, 1.0),
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 1, 1, 0.0, 0.0) + b"\x00" * 8,
            b"FEAT" + struct.pack("<IQ", 1, 1) + b"v" + struct.pack("<QQdd", 1, 1, 1.0, 9.0) + b"\x00" * 8,
        ],
        ids=[
            "short-version", "long-id", "overflow", "trailing", "nan-stride", "inf-duration", "bad-utf8",
            "no-rows", "zero-stride", "duration-off-stride",
        ],
    )
    def test_malformed_file_is_data_error(self, tmp_path, blob):
        path = tmp_path / "v.feat"
        path.write_bytes(blob)
        with pytest.raises(DataError):
            read_features(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_file_and_first_row(self, tmp_path, value):
        feats = np.ones((4, 3))
        feats[2, 1] = feats[3, 0] = value
        path = tmp_path / "v.feat"
        path.write_bytes(feat_blob(feats))
        with pytest.raises(DataError, match=rf"v\.feat: feature row 2 is not finite"):
            read_features(str(path))

    @pytest.mark.parametrize(
        "blob, message",
        [
            (feat_blob(np.ones((0, 2))), r"v: need a t x d_v feature matrix of t >= 1 rows, got shape \(0, 2\)"),
            (feat_blob(np.ones((3, 2)), duration=9.0), r"v: duration 9.0s inconsistent with 3 rows at stride 1.0s"),
            (feat_blob(np.ones((3, 2)), stride=np.nan), "v: stride must be finite and positive, got nan"),
            (feat_blob(np.ones((3, 2)))[:20], "truncated or corrupt feature file: "),
        ],
        ids=["no-rows", "duration-off-stride", "nan-stride", "short-header"],
    )
    def test_wrong_values_are_named_apart_from_corrupt_bytes(self, tmp_path, blob, message):
        """A well-formed file whose values the record refuses gives the record's
        message; only a byte-layout fault reads as truncated or corrupt."""
        path = tmp_path / "v.feat"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=rf"v\.feat: {message}"):
            read_features(str(path))


# a two-row detection file of a four-frame video: row 0 in frame 0, row 1 in frame 1
TWO_ROWS = {"frame": [0, 1], "label_id": [0, 0], "confidence": [0.9, 0.5], "features": [[1.0, 2.0], [1.0, 1.0]]}


class TestDetectionFiles:
    def test_round_trip(self, tmp_path):
        frames = [
            [Detection("cup", 0.9, np.array([1.0, 2.0]))],
            [],
            [Detection("person", 0.7, np.array([3.0, 4.0])), Detection("box", 0.5, np.array([5.0, 6.0]))],
            [],
        ]
        path = tmp_path / "v.dets"
        dets = Detections.from_frames(frames, 2)
        write_detections("v", dets, str(path))
        back = read_detections(str(path), 4, "v")
        assert back.frames == 4 and back.labels == ["cup", "person", "box"]
        assert [len(rows) for rows in back] == [1, 0, 2, 0]
        for key in ("frame", "label_id", "confidence", "features"):
            got, want = getattr(back, key), getattr(dets, key)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_malformed_line_number(self, tmp_path):
        """A bad row is named by its number: here row 1's label id is outside the table."""
        path = tmp_path / "v.dets"
        path.write_bytes(dets_blob(**dict(TWO_ROWS, label_id=[0, 3])))
        with pytest.raises(DataError, match=r"v\.dets: row 1: label id 3 is outside the 1-label table"):
            read_detections(str(path), 4, "v")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"features": [[1.0, 2.0], [np.nan, 1.0]]}, "row 1: detection features are not finite"),
            ({"features": [[1.0, 2.0], [np.inf, 1.0]]}, "row 1: detection features are not finite"),
            ({"confidence": [0.9, np.inf]}, r"row 1: confidence inf is not in \[0, 1\]"),
            ({"width": [2, 1]}, "header is not"),
            ({"width": None}, "header is not"),
            ({"confidence": [0.9, 1.5]}, r"row 1: confidence 1.5 is not in \[0, 1\]"),
            ({"frame": [1, 0]}, "row 1: frame index 0 is below the row before it"),
            ({"frame": np.array([0.0, 2.7])}, r"row 1: frame index \d+ is outside \[0, 4\)"),
            ({"rows": True}, "header is not"),
            ({"rows": "2"}, "header is not"),
            ({"labels": [["cup"]]}, "header is not"),
            ({"labels": [7]}, "header is not"),
            ({"confidence": [0.9, np.nan]}, r"row 1: confidence nan is not in \[0, 1\]"),
            ({"confidence": [0.9, -0.5]}, r"row 1: confidence -0.5 is not in \[0, 1\]"),
            ({"rows": 10**400}, r"10{400} rows of width 2 need"),
        ],
        ids=[
            "nan", "inf", "overflow-to-inf", "2-d", "0-d", "confidence", "repeated-frame",
            "float-frame", "bool-frame", "string-frame", "list-label", "number-label", "bool-confidence",
            "string-confidence", "integer-beyond-float",
        ],
    )
    def test_malformed_record_is_data_error_with_line_number(self, tmp_path, changes, message):
        """Each case names the file, and the row when one row is at fault."""
        path = tmp_path / "v.dets"
        path.write_bytes(dets_blob(**{**TWO_ROWS, **changes}))
        with pytest.raises(DataError, match=rf"v\.dets: {message}"):
            read_detections(str(path), 4, "v")

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"JUNK" + dets_blob(**TWO_ROWS)[4:], "bad magic bytes"),
            (b"DETS" + struct.pack("<I", 2) + dets_blob(**TWO_ROWS)[8:], "unsupported detection-file version 2"),
            (dets_blob(**TWO_ROWS)[:-8], "2 rows of width 2 need 80 bytes, 72 follow the header"),
            (dets_blob(**TWO_ROWS) + b"\x00", "2 rows of width 2 need 80 bytes, 81 follow the header"),
            (dets_blob(**TWO_ROWS, rows=2**60), r"1152921504606846976 rows of width 2 need \d+ bytes, 80 follow"),
            (dets_blob(**TWO_ROWS, rows=-2, width=-8), "rows -2 and width -8 must not be negative"),
            (dets_blob(**TWO_ROWS, width=2.0), "header is not"),
            (dets_blob(**TWO_ROWS, video_id=7), "header is not"),
            (dets_blob(**TWO_ROWS, frames=4), "header is not"),
            (dets_blob(**dict(TWO_ROWS, frame=[0, 4])), r"row 1: frame index 4 is outside \[0, 4\)"),
            (dets_blob(**dict(TWO_ROWS, frame=[-1, 0])), r"row 0: frame index -1 is outside \[0, 4\)"),
            (dets_blob(**dict(TWO_ROWS, label_id=[-1, 0])), "row 0: label id -1 is outside the 1-label table"),
            (dets_blob([], [], [], [], width=10**400), "corrupt detection file"),
        ],
        ids=[
            "magic", "version", "short", "trailing", "huge-rows", "negative-size", "float-width", "number-video-id",
            "extra-key", "frame-past-the-video", "negative-frame", "negative-label-id", "unshapeable-width",
        ],
    )
    def test_malformed_file_is_data_error(self, tmp_path, blob, message):
        path = tmp_path / "v.dets"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=rf"v\.dets: {message}"):
            read_detections(str(path), 4, "v")

    def test_every_strict_prefix_is_data_error(self, tmp_path):
        path = tmp_path / "v.dets"
        blob = dets_blob(**TWO_ROWS)
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataError):
                read_detections(str(path), 4, "v")

    def test_undecodable_bytes_are_data_error_with_line_number(self, tmp_path):
        """A header byte that is not UTF-8 is a DataError naming the file."""
        path = tmp_path / "v.dets"
        path.write_bytes(dets_blob(**TWO_ROWS).replace(b'"v"', b'"\xff"'))
        with pytest.raises(DataError, match=r"v\.dets: truncated or corrupt detection header: 'utf-8' codec"):
            read_detections(str(path), 4, "v")

    def test_integer_confidence_loads(self, tmp_path):
        path = tmp_path / "v.dets"
        frames = [[Detection("cup", 1, np.ones(1)), Detection("cup", 0, np.ones(1))]]
        write_detections("v", Detections.from_frames(frames, 1), str(path))
        assert read_detections(str(path), 1, "v").confidence.tolist() == [1.0, 0.0]


class TestAnnotations:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text("")
        assert read_annotations(str(path)) == []

    def test_one_valid_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rec = {"video_id": "v", "query": "person opens the door", "t_start_s": 1.0, "t_end_s": 3.0, "duration_s": 8.0}
        path.write_text(json.dumps(rec) + "\n")
        rows = read_annotations(str(path))
        assert rows == [rec]

    def test_inverted_span_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        good = {"video_id": "v", "query": "q", "t_start_s": 0.0, "t_end_s": 1.0, "duration_s": 4.0}
        bad = dict(good, t_start_s=3.0, t_end_s=1.0)
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataError, match=r"ann\.jsonl:2"):
            read_annotations(str(path))

    @pytest.mark.parametrize("key", ["t_start_s", "t_end_s", "duration_s"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_time_rejected_with_line_number(self, tmp_path, key, value):
        path = tmp_path / "ann.jsonl"
        good = {"video_id": "v", "query": "q", "t_start_s": 0.0, "t_end_s": 1.0, "duration_s": 4.0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(good).replace(f'"{key}": {good[key]}', f'"{key}": {value}') + "\n")
        with pytest.raises(DataError, match=r"ann\.jsonl:2: times must be finite"):
            read_annotations(str(path))

    @pytest.mark.parametrize(
        "key, value, kind",
        [("video_id", 7, "string"), ("query", None, "string"), ("query", ["open"], "string"),
         ("t_start_s", "0.5", "number"), ("t_end_s", True, "number"), ("duration_s", None, "number")],
    )
    def test_field_of_the_wrong_json_type_rejected_with_line_number(self, tmp_path, key, value, kind):
        path = tmp_path / "ann.jsonl"
        good = {"video_id": "v", "query": "q", "t_start_s": 0.0, "t_end_s": 1.0, "duration_s": 4.0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{key: value})) + "\n")
        with pytest.raises(DataError, match=rf"ann\.jsonl:2: {key} .* is not a JSON {kind}"):
            read_annotations(str(path))

    def test_integer_time_beyond_float_range_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"video_id": "v", "query": "q", "t_start_s": 0, "t_end_s": 1%s, "duration_s": 4}\n' % ("0" * 400))
        with pytest.raises(DataError, match=r"ann\.jsonl:1: times must be finite"):
            read_annotations(str(path))

    def test_undecodable_bytes_are_data_error_with_line_number(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        good = {"video_id": "v", "query": "q", "t_start_s": 0.0, "t_end_s": 1.0, "duration_s": 4.0}
        path.write_bytes(json.dumps(good).encode() + b"\n" + json.dumps(dict(good, query="caf\u00e9"), ensure_ascii=False).encode("latin-1") + b"\n")
        with pytest.raises(DataError, match=r"ann\.jsonl:2: not UTF-8 text"):
            read_annotations(str(path))

    def test_integer_times_load_as_floats(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"video_id": "v", "query": "q", "t_start_s": 0, "t_end_s": 1, "duration_s": 4}) + "\n")
        [row] = read_annotations(str(path))
        assert [type(row[k]) for k in ("t_start_s", "t_end_s", "duration_s")] == [float] * 3

    def test_missing_feature_file_names_video(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rec = {"video_id": "ghost", "query": "q", "t_start_s": 0.0, "t_end_s": 1.0, "duration_s": 4.0}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError, match="ghost"):
            load_annotations(str(path), str(tmp_path), str(tmp_path))

    def _video(self, tmp_path, frame_index=0, duration_s=12.0, span=(0.0, 1.0)):
        """A 12-frame, 12 s video 'v' with one detection, and one annotation of it."""
        write_features(ActivityFeatures("v", np.ones((12, 2)), 1.0, 12.0), str(tmp_path / "v.feat"))
        (tmp_path / "v.dets").write_bytes(dets_blob([frame_index], [0], [0.9], [[1.0, 1.0]]))
        rec = {"video_id": "v", "query": "q", "t_start_s": span[0], "t_end_s": span[1], "duration_s": duration_s}
        (tmp_path / "ann.jsonl").write_text(json.dumps(rec) + "\n")
        return str(tmp_path / "ann.jsonl"), str(tmp_path), str(tmp_path)

    def test_frame_index_inside_the_video_loads(self, tmp_path):
        [sample] = load_annotations(*self._video(tmp_path, frame_index=11))
        frames = list(sample.detections)
        assert len(frames) == 12 and len(frames[11]) == 1 and not any(frames[:11])

    def test_video_without_a_detection_file_has_no_detections(self, tmp_path):
        args = self._video(tmp_path)
        os.remove(tmp_path / "v.dets")
        [sample] = load_annotations(*args)
        assert [len(rows) for rows in sample.detections] == [0] * 12

    def test_stale_jsonl_detection_file_is_data_error(self, tmp_path):
        """A detection file in the JSON Lines format that came before .dets
        is an error, not a video without detections."""
        args = self._video(tmp_path)
        os.replace(tmp_path / "v.dets", tmp_path / "v.jsonl")
        with pytest.raises(DataError, match=r"v\.jsonl: detections in the old JSON Lines format; .* detections/<video_id>\.dets files only"):
            load_annotations(*args)

    @pytest.mark.parametrize("frame_index", [999, 12, -1])
    def test_frame_index_outside_the_video_is_data_error(self, tmp_path, frame_index):
        with pytest.raises(DataError, match=rf"v\.dets: row 0: frame index {frame_index} is outside \[0, 12\)"):
            load_annotations(*self._video(tmp_path, frame_index=frame_index))

    @pytest.mark.parametrize("duration_s", [-5.0, 11.0, 12.5])
    def test_duration_that_disagrees_with_the_feature_file_is_data_error(self, tmp_path, duration_s):
        with pytest.raises(DataError, match=rf"video 'v': annotation duration_s {duration_s} differs from .* 12\.0"):
            load_annotations(*self._video(tmp_path, duration_s=duration_s))

    def test_span_of_the_whole_video_loads(self, tmp_path):
        [sample] = load_annotations(*self._video(tmp_path, span=(0.0, 12.0)))
        assert (sample.t_start_s, sample.t_end_s) == (0.0, 12.0)

    @pytest.mark.parametrize("span", [(-50.0, 999.0), (-0.5, 1.0), (11.0, 12.5)])
    def test_span_outside_the_video_is_data_error(self, tmp_path, span):
        match = rf"video 'v': annotation span \[{span[0]}, {span[1]}\] s lies outside \[0, 12\.0\]"
        with pytest.raises(DataError, match=match):
            load_annotations(*self._video(tmp_path, span=span))


class TestDatasetLayout:
    def test_write_then_load_bit_identical(self, tmp_path):
        samples, cmap = generate(SyntheticSpec(n_samples=20, seed=0))
        out = tmp_path / "data"
        write_dataset(samples, cmap, str(out))
        train, val, cmap_back = load_dataset(str(out))
        assert cmap_back.as_dict() == cmap.as_dict()
        loaded = {(s.video_id, s.query, s.t_start_s): s for s in train + val}
        assert len(loaded) == len(samples)
        for s in samples:
            back = loaded[(s.video_id, s.query, s.t_start_s)]
            assert back.features.features.tobytes() == s.features.features.tobytes()
            want = Detections.from_frames(s.detections, 16)
            assert (back.detections.frames, back.detections.labels) == (want.frames, want.labels)
            for key in ("frame", "label_id", "confidence", "features"):
                got, expected = getattr(back.detections, key), getattr(want, key)
                assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())

    def test_loaded_dataset_writes_back_byte_identical(self, tmp_path):
        samples, cmap = generate(SyntheticSpec(n_samples=8, seed=4))
        write_dataset(samples, cmap, str(tmp_path / "a"))
        train, val, cmap_back = load_dataset(str(tmp_path / "a"))
        write_dataset(train + val, cmap_back, str(tmp_path / "b"))
        for name in sorted(os.listdir(tmp_path / "a" / "detections")):
            assert (tmp_path / "a" / "detections" / name).read_bytes() == (tmp_path / "b" / "detections" / name).read_bytes()

    @pytest.mark.parametrize("variant", ["full", "no_node_types"])
    def test_prepare_after_a_round_trip_is_byte_identical(self, tmp_path, variant):
        """generate -> write_dataset -> load_dataset -> prepare routes what
        prepare routes from the generated lists; top_n 2 makes the cut bind."""
        samples, cmap = generate(SyntheticSpec(n_samples=12, seed=3))
        write_dataset(samples, cmap, str(tmp_path))
        train, val, cmap_back = load_dataset(str(tmp_path))
        model = MomentModel(synthetic_config(variant=variant, top_n=2), build_vocab(samples))
        generated = {(s.video_id, s.query, s.t_start_s): s for s in samples}
        for s in train + val:
            got = model.prepare(s, cmap_back)
            want = model.prepare(generated[(s.video_id, s.query, s.t_start_s)], cmap)
            for key in ("humans_stacked", "objects_stacked", "human_frame_ids", "object_frame_ids"):
                g, w = getattr(got, key), getattr(want, key)
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    @pytest.mark.parametrize("kind, suffix", [("features", "feat"), ("detections", "dets")])
    def test_file_copied_over_another_video_of_the_same_length_is_data_error(self, tmp_path, kind, suffix):
        samples, cmap = generate(SyntheticSpec(n_samples=40, seed=1))
        lengths = {s.video_id: s.features.features.shape[0] for s in samples}
        assert lengths["vid0002"] == lengths["vid0014"]  # only the stored id tells the files apart
        write_dataset(samples, cmap, str(tmp_path))
        target = tmp_path / kind / f"vid0002.{suffix}"
        target.write_bytes((tmp_path / kind / f"vid0014.{suffix}").read_bytes())
        with pytest.raises(DataError, match=rf"vid0002\.{suffix}: holds the {kind} of video 'vid0014', not of 'vid0002'"):
            load_dataset(str(tmp_path))

    def test_manifest_split_by_video(self, tmp_path):
        samples, cmap = generate(SyntheticSpec(n_samples=30, seed=1))
        out = tmp_path / "data"
        write_dataset(samples, cmap, str(out))
        train_ids, val_ids = read_manifest(str(out / "manifest.json"))
        video_ids = sorted({s.video_id for s in samples})
        assert sorted(train_ids + val_ids) == video_ids
        assert not set(train_ids) & set(val_ids)
        assert len(val_ids) == max(1, round(len(video_ids) * 0.2))
        assert os.path.isdir(out / "features")
        assert os.path.isdir(out / "detections")

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_manifest_id_without_annotations_is_data_error(self, tmp_path, split):
        samples, cmap = generate(SyntheticSpec(n_samples=20, seed=0))
        write_dataset(samples, cmap, str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[split].append("vid9999")
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=rf"^{path}: {split} video 'vid9999' has no annotation$"):
            load_dataset(str(tmp_path))

    def test_annotated_video_in_neither_split_is_left_out(self, tmp_path):
        samples, cmap = generate(SyntheticSpec(n_samples=20, seed=0))
        write_dataset(samples, cmap, str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        dropped = manifest["train"].pop(0)
        path.write_text(json.dumps(manifest))
        train, val, _ = load_dataset(str(tmp_path))
        assert len(train) + len(val) == len(samples) - sum(s.video_id == dropped for s in samples)
        assert dropped not in {s.video_id for s in train + val}

    def test_category_map_round_trip(self, tmp_path):
        _, cmap = generate(SyntheticSpec(n_samples=5, seed=2))
        path = tmp_path / "cmap.json"
        from momentgraph.dataio import write_category_map

        write_category_map(cmap, str(path))
        assert read_category_map(str(path)).as_dict() == cmap.as_dict()
