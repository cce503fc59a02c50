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
from momentgraph.errors import DataError
from momentgraph.synth import SyntheticSpec, generate
from momentgraph.visual import ActivityFeatures, Detection


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
        write_features(ActivityFeatures("v", feats, 1.0, 4.0), str(path))
        with pytest.raises(DataError, match=rf"v\.feat: feature row 2 is not finite"):
            read_features(str(path))


class TestDetectionFiles:
    def test_round_trip(self, tmp_path):
        frames = [
            [Detection("cup", 0.9, np.array([1.0, 2.0]))],
            [],
            [Detection("person", 0.7, np.array([3.0, 4.0])), Detection("box", 0.5, np.array([5.0, 6.0]))],
        ]
        path = tmp_path / "v.jsonl"
        write_detections("v", frames, str(path))
        back = read_detections(str(path))
        assert sorted(back) == [0, 1, 2]
        assert back[2][1].label == "box"
        np.testing.assert_array_equal(back[0][0].feature, [1.0, 2.0])

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"video_id": "v", "frame_index": 0, "detections": []}\n{"nope": 1}\n')
        with pytest.raises(DataError, match=r"v\.jsonl:2"):
            read_detections(str(path))


    @pytest.mark.parametrize(
        "second_line",
        [
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": [NaN, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": [Infinity, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": [1e999, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": [[1.0], [1.0]]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": 1.0}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 1.5, "feature": [1.0, 1.0]}]}',
            '{"video_id": "v", "frame_index": 0, "detections": []}',
            '{"video_id": "v", "frame_index": 2.7, "detections": []}',
            '{"video_id": "v", "frame_index": true, "detections": []}',
            '{"video_id": "v", "frame_index": "3", "detections": []}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": ["cup"], "confidence": 0.5, "feature": [1.0, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": 7, "confidence": 0.5, "feature": [1.0, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": true, "feature": [1.0, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": "0.5", "feature": [1.0, 1.0]}]}',
            '{"video_id": "v", "frame_index": 1, "detections": [{"label": "cup", "confidence": 0.5, "feature": [1%s, 1.0]}]}' % ("0" * 400),
        ],
        ids=[
            "nan", "inf", "overflow-to-inf", "2-d", "0-d", "confidence", "repeated-frame",
            "float-frame", "bool-frame", "string-frame", "list-label", "number-label", "bool-confidence",
            "string-confidence", "integer-beyond-float",
        ],
    )
    def test_malformed_record_is_data_error_with_line_number(self, tmp_path, second_line):
        path = tmp_path / "v.jsonl"
        first = {"video_id": "v", "frame_index": 0, "detections": [{"label": "cup", "confidence": 0.9, "feature": [1.0, 2.0]}]}
        path.write_text(json.dumps(first) + "\n" + second_line + "\n")
        with pytest.raises(DataError, match=r"v\.jsonl:2: "):
            read_detections(str(path))

    def test_undecodable_bytes_are_data_error_with_line_number(self, tmp_path):
        path = tmp_path / "v.jsonl"
        record = {"video_id": "v", "frame_index": 0, "detections": []}
        path.write_bytes(json.dumps(record).encode() + b"\n\xff\n")
        with pytest.raises(DataError, match=r"v\.jsonl:2: not UTF-8 text"):
            read_detections(str(path))

    def test_integer_confidence_loads(self, tmp_path):
        path = tmp_path / "v.jsonl"
        record = {"video_id": "v", "frame_index": 0, "detections": [{"label": "cup", "confidence": 1, "feature": [1.0]}]}
        path.write_text(json.dumps(record) + "\n")
        assert read_detections(str(path))[0][0].confidence == 1


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
        """A 12-frame, 12 s video 'v' with one detection line, and one annotation of it."""
        write_features(ActivityFeatures("v", np.ones((12, 2)), 1.0, 12.0), str(tmp_path / "v.feat"))
        dets = {"video_id": "v", "frame_index": frame_index, "detections": [{"label": "cup", "confidence": 0.9, "feature": [1.0, 1.0]}]}
        (tmp_path / "v.jsonl").write_text(json.dumps(dets) + "\n")
        rec = {"video_id": "v", "query": "q", "t_start_s": span[0], "t_end_s": span[1], "duration_s": duration_s}
        (tmp_path / "ann.jsonl").write_text(json.dumps(rec) + "\n")
        return str(tmp_path / "ann.jsonl"), str(tmp_path), str(tmp_path)

    def test_frame_index_inside_the_video_loads(self, tmp_path):
        [sample] = load_annotations(*self._video(tmp_path, frame_index=11))
        assert len(sample.detections) == 12 and len(sample.detections[11]) == 1

    @pytest.mark.parametrize("frame_index", [999, 12, -1])
    def test_frame_index_outside_the_video_is_data_error(self, tmp_path, frame_index):
        with pytest.raises(DataError, match=rf"v\.jsonl: frame_index {frame_index} is outside \[0, 12\) for video 'v'"):
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
            for da, db in zip(s.detections, back.detections):
                assert [d.label for d in da] == [d.label for d in db]
                for x, y in zip(da, db):
                    assert x.feature.tobytes() == y.feature.tobytes()

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

    def test_category_map_round_trip(self, tmp_path):
        _, cmap = generate(SyntheticSpec(n_samples=5, seed=2))
        path = tmp_path / "cmap.json"
        from momentgraph.dataio import write_category_map

        write_category_map(cmap, str(path))
        assert read_category_map(str(path)).as_dict() == cmap.as_dict()
