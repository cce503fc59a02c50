import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape
from momentgraph.errors import DimensionError, InputError
from momentgraph.visual import (
    HUMAN,
    ActivityFeatures,
    CategoryMap,
    Detection,
    Detections,
    NodeEmbedParams,
    embed_nodes,
    route_detections,
    select_keyframe,
    variance_of_laplacian,
)

from reference_impls import ref_route_detections
from tape_sum import weighted_sum


def box_blur(img):
    out = img.copy()
    padded = np.pad(img, 1, mode="edge")
    for i in range(img.shape[0]):
        for j in range(img.shape[1]):
            out[i, j] = padded[i : i + 3, j : j + 3].mean()
    return out


class TestSharpness:
    def test_constant_image_is_zero(self):
        assert variance_of_laplacian(np.full((8, 8), 3.7)) == 0.0

    def test_checkerboard_beats_blur(self):
        idx = np.indices((10, 10)).sum(axis=0)
        checker = (idx % 2).astype(float)
        assert variance_of_laplacian(checker) > variance_of_laplacian(box_blur(checker))

    def test_single_bright_pixel_hand_value(self):
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        # interior response: the 3x3 pattern [0,1,0; 1,-4,1; 0,1,0]
        responses = np.array([0, 1, 0, 1, -4, 1, 0, 1, 0], dtype=float)
        assert variance_of_laplacian(img) == pytest.approx(responses.var(), abs=1e-15)

    def test_too_small_image(self):
        with pytest.raises(InputError):
            variance_of_laplacian(np.zeros((2, 5)))


class TestKeyframe:
    def test_single_frame(self):
        assert select_keyframe([np.random.default_rng(0).normal(size=(6, 6))]) == 0

    def test_sharp_among_blurred(self):
        sharp = np.random.default_rng(1).normal(size=(10, 10))
        assert select_keyframe([box_blur(sharp), sharp, box_blur(sharp)]) == 1

    def test_all_identical_picks_first(self):
        frame = np.random.default_rng(2).normal(size=(6, 6))
        assert select_keyframe([frame.copy() for _ in range(4)]) == 0

    def test_empty_list(self):
        with pytest.raises(InputError):
            select_keyframe([])


class TestRouting:
    def test_basic_split(self):
        cmap = CategoryMap({"hand": HUMAN})
        dets = [Detection("hand", 0.9, np.ones(4)), Detection("table", 0.8, np.zeros(4))]
        humans, human_ids, objects, object_ids = route_detections(Detections.from_frames([dets], 4), cmap, top_n=15)
        assert len(humans) == 1 and len(objects) == 1
        assert np.array_equal(humans, np.ones((1, 4)))
        assert np.array_equal(objects, np.zeros((1, 4)))
        assert human_ids.tolist() == [0] and object_ids.tolist() == [0]

    def test_all_human_gives_zero_row_objects(self):
        cmap = CategoryMap({"person": HUMAN})
        dets = [Detection("person", 0.5, np.ones(4)) for _ in range(3)]
        humans, _, objects, object_ids = route_detections(Detections.from_frames([dets], 4), cmap, top_n=15)
        assert objects.shape == (0, 4)
        assert object_ids.shape == (0,)
        assert len(humans) == 3

    def test_top_n_cut_before_split(self):
        cmap = CategoryMap({"person": HUMAN})
        dets = [Detection(f"obj{i}", 0.9 - 0.05 * i, np.full(2, i)) for i in range(5)]
        dets.append(Detection("person", 0.1, np.zeros(2)))
        humans, _, objects, _ = route_detections(Detections.from_frames([dets], 2), cmap, top_n=5)
        # the human is the least confident detection and falls to the cut
        assert len(humans) == 0
        assert len(objects) == 5

    def test_count_invariant(self):
        rng = np.random.default_rng(3)
        cmap = CategoryMap({"person": HUMAN})
        labels = ["person", "cup", "door", "bag"]
        for _ in range(20):
            dets = [
                Detection(str(rng.choice(labels)), float(rng.uniform(0, 1)), rng.normal(size=3))
                for _ in range(int(rng.integers(0, 10)))
            ]
            top_n = int(rng.integers(1, 8))
            humans, _, objects, _ = route_detections(Detections.from_frames([dets], 3), cmap, top_n)
            assert len(humans) + len(objects) == min(len(dets), top_n)

    def test_stable_order_on_ties(self):
        dets = [Detection("a", 0.5, np.array([1.0])), Detection("b", 0.5, np.array([2.0]))]
        _, _, objects, _ = route_detections(Detections.from_frames([dets], 1), CategoryMap(), top_n=15)
        assert np.array_equal(objects, [[1.0], [2.0]])

    def test_category_map_is_asked_once_per_label(self):
        asked = []

        class CountingMap(CategoryMap):
            def category(self, label):
                asked.append(label)
                return super().category(label)

        frames = [[Detection(label, 0.5, np.zeros(1)) for label in ("person", "cup", "person", "box")] for _ in range(5)]
        humans, _, objects, _ = route_detections(Detections.from_frames(frames, 1), CountingMap({"person": HUMAN}), top_n=3)
        assert sorted(asked) == ["box", "cup", "person"]
        assert (len(humans), len(objects)) == (10, 5)

    def test_top_n_must_be_positive(self):
        with pytest.raises(InputError):
            route_detections(Detections.from_frames([[]], 1), CategoryMap(), top_n=0)


class TestDetections:
    def test_from_frames_makes_columns_in_frame_order(self):
        frames = [[Detection("cup", 0.4, np.ones(2)), Detection("person", 0.9, np.zeros(2))], [], [Detection("cup", 0.7, np.full(2, 3.0))]]
        dets = Detections.from_frames(frames, 2)
        assert dets.frames == 3 and dets.labels == ["cup", "person"]
        assert dets.frame.tolist() == [0, 0, 2] and dets.label_id.tolist() == [0, 1, 0]
        assert dets.confidence.tolist() == [0.4, 0.9, 0.7]
        np.testing.assert_array_equal(dets.features, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])
        assert list(dets) == [range(0, 2), range(2, 2), range(2, 3)]

    def test_empty_video_has_the_given_width(self):
        dets = Detections.from_frames([[], []], 5)
        assert dets.features.shape == (0, 5) and [len(rows) for rows in dets] == [0, 0]

    @pytest.mark.parametrize("feature", [np.ones(3), np.ones((1, 2)), np.float64(1.0)], ids=["wide", "2-d", "0-d"])
    def test_feature_of_another_shape_is_input_error(self, feature):
        frames = [[Detection("cup", 0.5, np.ones(2))], [Detection("box", 0.5, feature)]]
        with pytest.raises(InputError, match=r"detection 'box' has a feature of shape .*, not \(2,\)"):
            Detections.from_frames(frames, 2)


def random_video(seed, labels):
    """Ragged frames with confidences on a coarse grid (so ties are common) and some empty frames."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(int(rng.integers(1, 12))):
        n = int(rng.integers(0, 10)) if rng.uniform() > 0.2 else 0
        frames.append([Detection(str(rng.choice(labels)), int(rng.integers(0, 5)) / 4, rng.normal(size=3)) for _ in range(n)])
    return frames


class TestRoutingMatchesOracle:
    LABELS = ["person", "hand", "cup", "door", "bag"]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("top_n", [1, 3, 20])
    @pytest.mark.parametrize("mapping", [{"person": HUMAN, "hand": HUMAN}, {}], ids=["cmap", "empty-cmap"])
    def test_byte_identical_to_reference(self, seed, top_n, mapping):
        frames = random_video(seed, self.LABELS)
        if seed == 0:
            frames = [[] for _ in frames]  # a video without a single detection
        got = route_detections(Detections.from_frames(frames, 3), CategoryMap(mapping), top_n)
        want = ref_route_detections(frames, mapping, top_n, d_o=3)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    def test_random_videos_exercise_ties_cuts_and_empty_frames(self):
        frames = [dets for seed in range(12) for dets in random_video(seed, self.LABELS)]
        assert any(not dets for dets in frames)
        assert any(len(dets) > 3 for dets in frames) and any(0 < len(dets) < 3 for dets in frames)
        assert any(len({d.confidence for d in dets}) < len(dets) for dets in frames)


class TestNodeEmbedding:
    def _params(self, seed=0, d_v=3, d_o=4, latent=5):
        return NodeEmbedParams.create(np.random.default_rng(seed), d_v, d_o, latent, {})

    def test_zero_input_zero_output(self):
        p = self._params()
        p.b_h.data[:] = 0.0
        a0, h0, o0 = embed_nodes(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((0, 4)), p)
        np.testing.assert_array_equal(a0.data, np.zeros((2, 5)))
        np.testing.assert_array_equal(h0.data, np.zeros((2, 5)))
        assert o0.data.shape == (0, 5)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(1)
        p = self._params(seed=2)
        humans = rng.normal(size=(2, 4)) * 10
        objects = rng.normal(size=(3, 4)) * 10
        a0, h0, o0 = embed_nodes(rng.normal(size=(1, 3)) * 10, humans, objects, p)
        for t in (a0, h0, o0):
            assert (np.abs(t.data) < 1.0).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        p = self._params(seed=5)
        humans = rng.normal(size=(2, 4))
        objects = rng.normal(size=(3, 4))
        a_raw = rng.normal(size=(2, 3))
        a0, h0, o0 = embed_nodes(a_raw, humans, objects, p)
        for i in range(2):
            np.testing.assert_allclose(a0.data[i], np.tanh(a_raw[i] @ p.w_a.data + p.b_a.data[0]), atol=1e-12)
        for k in range(2):
            np.testing.assert_allclose(h0.data[k], np.tanh(humans[k] @ p.w_h.data + p.b_h.data[0]), atol=1e-12)
        for j in range(3):
            np.testing.assert_allclose(o0.data[j], np.tanh(objects[j] @ p.w_o.data + p.b_o.data[0]), atol=1e-12)

    def test_one_node_per_kind_with_closed_form_gradients(self):
        # no human rows: the human node still runs, and its weight and bias get exact zeros
        rng = np.random.default_rng(6)
        p = self._params(seed=7)
        for t in (p.b_a, p.b_o):
            t.data = rng.normal(size=t.data.shape)
        xs = {"a": rng.normal(size=(3, 3)), "h": np.zeros((0, 4)), "o": rng.normal(size=(4, 4))}
        gs = {kind: rng.normal(size=(x.shape[0], 5)) for kind, x in xs.items()}
        with GradientTape() as tape:
            outs = dict(zip("aho", embed_nodes(xs["a"], xs["h"], xs["o"], p)))
            assert len(tape) == 3
            total = weighted_sum(outs["a"], gs["a"])
            for kind in "ho":
                total = ad.add(total, weighted_sum(outs[kind], gs[kind]))
            ad.backward(total)
        for kind, x in xs.items():
            w, b = getattr(p, f"w_{kind}"), getattr(p, f"b_{kind}")
            # closed form: d_r = g_r (1 - y_r^2) per row r, dw = sum_r x_r d_r^T, db = sum_r d_r
            want_w, want_b = np.zeros_like(w.data), np.zeros_like(b.data)
            for r in range(x.shape[0]):
                y = np.tanh(x[r] @ w.data + b.data[0])
                d = gs[kind][r] * (1.0 - y * y)
                want_w += np.outer(x[r], d)
                want_b[0] += d
            if x.shape[0] == 0:
                assert not w.grad.any() and not b.grad.any()
                continue
            np.testing.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12 * np.abs(want_w).max(), err_msg=kind)
            np.testing.assert_allclose(b.grad, want_b, rtol=0, atol=1e-12 * np.abs(want_b).max(), err_msg=kind)

    def test_wrong_width_is_dimension_error(self):
        p = self._params()  # d_v 3, d_o 4
        with pytest.raises(DimensionError, match=r"activity features have shape \(2, 5\), the map takes 3 columns"):
            embed_nodes(np.zeros((2, 5)), np.zeros((1, 4)), np.zeros((1, 4)), p)
        with pytest.raises(DimensionError, match=r"object features have shape \(1, 2\), the map takes 4 columns"):
            embed_nodes(np.zeros((2, 3)), np.zeros((1, 4)), np.zeros((1, 2)), p)


class TestValidation:
    def test_confidence_range(self):
        with pytest.raises(InputError, match=r"row 0: confidence 1.5 is not in \[0, 1\]"):
            Detections.from_frames([[Detection("cup", 1.5, np.zeros(2))]], 2)

    def test_activity_features_invariants(self):
        with pytest.raises(InputError):
            ActivityFeatures("v", np.zeros((0, 4)), 1.0, 0.0)
        with pytest.raises(InputError):
            ActivityFeatures("v", np.zeros((4, 4)), 1.0, 99.0)

    @pytest.mark.parametrize(
        "stride, duration, message",
        [
            (np.nan, 3.0, "stride must be finite and positive, got nan"),
            (np.inf, np.inf, "stride must be finite and positive, got inf"),
            (-1.0, -3.0, "stride must be finite and positive, got -1.0"),
            (1.0, np.nan, "duration must be finite, got nan"),
            (1.0, np.inf, "duration must be finite, got inf"),
        ],
    )
    def test_activity_features_reject_a_non_finite_stride_or_duration(self, stride, duration, message):
        with pytest.raises(InputError, match=f"^v: {message}$"):
            ActivityFeatures("v", np.zeros((3, 2)), stride, duration)

    def test_category_map_rejects_unknown_category(self):
        with pytest.raises(InputError):
            CategoryMap({"cup": "vehicle"})

    def test_unknown_label_routes_to_object(self):
        assert CategoryMap().category("anything") == "object"
