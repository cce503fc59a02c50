import numpy as np
import pytest

from momentgraph.errors import InputError
from momentgraph.synth import (
    DEFAULT_ACTIONS,
    DEFAULT_OBJECTS,
    HUMAN_LABEL,
    SyntheticSpec,
    generate,
)
from momentgraph.visual import HUMAN


def span_indices(sample):
    stride = sample.features.stride_seconds
    return int(sample.t_start_s // stride), int(sample.t_end_s // stride)


class TestSpec:
    def test_short_videos_rejected(self):
        with pytest.raises(InputError):
            SyntheticSpec(t_range=(2, 10))

    def test_negative_signal_rejected(self):
        with pytest.raises(InputError):
            SyntheticSpec(signal_strength=-1.0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"t_range": (20, 10)}, "t_range minimum 20 exceeds its maximum 10"),
            ({"noise_std": -1.0}, "noise_std must be non-negative and finite"),
            ({"noise_std": float("nan")}, "noise_std must be non-negative and finite"),
            ({"signal_strength": float("nan")}, "signal_strength must be non-negative and finite"),
            ({"signal_strength": float("inf")}, "signal_strength must be non-negative and finite"),
            ({"n_samples": 0}, "n_samples must be >= 1"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
        ids=["t_range_inverted", "noise_negative", "noise_nan", "signal_nan", "signal_inf", "no_samples", "seed_negative"],
    )
    def test_spec_no_dataset_can_follow_rejected(self, changes, message):
        with pytest.raises(InputError, match=message):
            SyntheticSpec(**changes)

    def test_single_length_and_noiseless_spec_accepted(self):
        samples, _ = generate(SyntheticSpec(n_samples=1, t_range=(8, 8), noise_std=0.0, signal_strength=0.0))
        assert len(samples) == 1 and samples[0].features.features.shape[0] == 8


class TestGenerate:
    def test_sample_count_and_invariants(self):
        samples, cmap = generate(SyntheticSpec(n_samples=40, seed=0))
        assert len(samples) == 40
        assert cmap.category(HUMAN_LABEL) == HUMAN
        for s in samples:
            assert 0.0 <= s.t_start_s < s.t_end_s <= s.features.duration_seconds
            assert len(s.detections) == s.features.features.shape[0]
            tokens = s.query.split()
            assert tokens[0] == HUMAN_LABEL
            assert tokens[1] in DEFAULT_ACTIONS
            assert tokens[3] in DEFAULT_OBJECTS

    def test_seed_determinism_byte_identical(self):
        spec = SyntheticSpec(n_samples=25, seed=11)
        one, _ = generate(spec)
        two, _ = generate(SyntheticSpec(n_samples=25, seed=11))
        for a, b in zip(one, two):
            assert a.video_id == b.video_id and a.query == b.query
            assert a.t_start_s == b.t_start_s and a.t_end_s == b.t_end_s
            assert a.features.features.tobytes() == b.features.features.tobytes()
            for da, db in zip(a.detections, b.detections):
                assert [d.label for d in da] == [d.label for d in db]
                assert all(x.feature.tobytes() == y.feature.tobytes() for x, y in zip(da, db))

    def test_different_seeds_differ(self):
        one, _ = generate(SyntheticSpec(n_samples=5, seed=0))
        two, _ = generate(SyntheticSpec(n_samples=5, seed=1))
        assert one[0].features.features.tobytes() != two[0].features.features.tobytes()

    def test_paired_object_detected_only_inside_span(self):
        samples, _ = generate(SyntheticSpec(n_samples=30, seed=2))
        for s in samples:
            obj = s.query.split()[3]
            si, ei = span_indices(s)
            for i, dets in enumerate(s.detections):
                labels = [d.label for d in dets]
                if si <= i <= ei:
                    assert obj in labels
            # the object may appear in another moment's span of the same
            # video, but never in frames outside every span
            all_spans = [
                span_indices(other) for other in samples if other.video_id == s.video_id
            ]
            for i, dets in enumerate(s.detections):
                if all(not (a <= i <= b) for a, b in all_spans):
                    assert all(d.label not in DEFAULT_OBJECTS for d in dets)

    def test_every_frame_has_a_person(self):
        samples, _ = generate(SyntheticSpec(n_samples=10, seed=3))
        for s in samples:
            for dets in s.detections:
                assert any(d.label == HUMAN_LABEL for d in dets)

    def test_multi_moment_videos(self):
        samples, _ = generate(SyntheticSpec(n_samples=50, seed=4))
        per_video = {}
        for s in samples:
            per_video.setdefault(s.video_id, []).append(s)
        counts = {vid: len(group) for vid, group in per_video.items()}
        assert any(c >= 2 for c in counts.values())
        for group in per_video.values():
            spans = sorted(span_indices(s) for s in group)
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b < c  # spans are disjoint

    def test_centroid_classifier_recovers_action(self):
        # within-span mean features carry the action direction strongly
        # enough for a nearest-centroid readout at the pinned noise level
        spec = SyntheticSpec(n_samples=250, signal_strength=2.0, noise_std=0.5, seed=5)
        samples, _ = generate(spec)

        def span_mean(s):
            si, ei = span_indices(s)
            return s.features.features[si : ei + 1].mean(axis=0)

        fit, held_out = samples[:150], samples[150:]
        centroids = {}
        for action in DEFAULT_ACTIONS:
            rows = [span_mean(s) for s in fit if s.query.split()[1] == action]
            centroids[action] = np.mean(rows, axis=0)
        correct = 0
        for s in held_out:
            x = span_mean(s)
            best = min(centroids, key=lambda a: np.linalg.norm(x - centroids[a]))
            correct += best == s.query.split()[1]
        assert correct / len(held_out) > 0.95

    def test_null_model_has_no_planted_evidence(self):
        samples, _ = generate(SyntheticSpec(n_samples=30, signal_strength=0.0, seed=6))
        for s in samples:
            for dets in s.detections:
                assert all(d.label not in DEFAULT_OBJECTS for d in dets)
