import dataclasses
import gc
import types

import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, SortedSegments
from momentgraph.checkpoint import load_params, save_params
from momentgraph.config import RunConfig, synthetic_config
from momentgraph.dataio import load_dataset, write_dataset
from momentgraph.errors import CheckpointError, DataError, InputError
from momentgraph.gradcheck import GRADCHECK_LENGTHS, tiny_instance
from momentgraph.graph import VARIANTS, GraphWeights
from momentgraph import model as model_module
from momentgraph.model import MomentModel, frame_map
from momentgraph.synth import SyntheticSpec, generate
from momentgraph.text import Vocabulary, encode_query, tokenize
from momentgraph.train import build_vocab

from momentgraph.visual import HUMAN, ActivityFeatures, CategoryMap, Detection, Detections, route_detections

from reference_impls import per_gate_checkpoint_params, ref_route_detections

# the blocks that read only human (object) nodes
HUMAN_BLOCKS = {"embed.w_h", "embed.b_h", *(f"graph.{m}.{k}" for m in ("phi_snh", "phi_svh", "m_h") for k in "wb")}
OBJECT_BLOCKS = {"embed.w_o", "embed.b_o", *(f"graph.{m}.{k}" for m in ("phi_sno", "phi_vno", "m_o") for k in "wb")}


# every variant's parameter registry, in order, at d_w 5, d_v 6, d_o 7, latent 8,
# hidden 3 and a four-token vocabulary: a pair map reads 2·hidden + latent = 14
# columns, a message map 2·latent = 16, an update latent = 8
TEXT = [
    ("text.embedding", (4, 5)), ("text.gru_fwd.w", (5, 9)), ("text.gru_fwd.u", (3, 9)), ("text.gru_fwd.b", (1, 9)),
    ("text.gru_bwd.w", (5, 9)), ("text.gru_bwd.u", (3, 9)), ("text.gru_bwd.b", (1, 9)),
]
HEADS = [("text.head_sv.wk", (5, 6)), ("text.head_sn.wk", (5, 6)), ("text.head_vn.wk", (5, 6))]
EMBED = [
    ("embed.w_a", (6, 8)), ("embed.b_a", (1, 8)), ("embed.w_h", (7, 8)), ("embed.b_h", (1, 8)), ("embed.w_o", (7, 8)),
    ("embed.b_o", (1, 8)),
]
GRAPH = [
    ("graph.phi_sno.w", (14, 8)), ("graph.phi_sno.b", (1, 8)), ("graph.phi_vno.w", (14, 8)),
    ("graph.phi_vno.b", (1, 8)), ("graph.phi_sva.w", (14, 8)), ("graph.phi_sva.b", (1, 8)),
    ("graph.phi_vna.w", (14, 8)), ("graph.phi_vna.b", (1, 8)), ("graph.phi_snh.w", (14, 8)),
    ("graph.phi_snh.b", (1, 8)), ("graph.phi_svh.w", (14, 8)), ("graph.phi_svh.b", (1, 8)),
    ("graph.msg_sv.w", (16, 8)), ("graph.msg_sv.b", (1, 8)), ("graph.msg_vn.w", (16, 8)), ("graph.msg_vn.b", (1, 8)),
    ("graph.msg_sn.w", (16, 8)), ("graph.msg_sn.b", (1, 8)), ("graph.m_o.w", (8, 8)), ("graph.m_o.b", (1, 8)),
    ("graph.m_a.w", (8, 8)), ("graph.m_a.b", (1, 8)), ("graph.m_h.w", (8, 8)), ("graph.m_h.b", (1, 8)),
]
TEMPORAL = [
    ("temporal.l1_fwd.w", (8, 9)), ("temporal.l1_fwd.u", (3, 9)), ("temporal.l1_fwd.b", (1, 9)),
    ("temporal.l1_bwd.w", (8, 9)), ("temporal.l1_bwd.u", (3, 9)), ("temporal.l1_bwd.b", (1, 9)),
    ("temporal.l2_fwd.w", (6, 9)), ("temporal.l2_fwd.u", (3, 9)), ("temporal.l2_fwd.b", (1, 9)),
    ("temporal.l2_bwd.w", (6, 9)), ("temporal.l2_bwd.u", (3, 9)), ("temporal.l2_bwd.b", (1, 9)),
    ("temporal.w_start", (6, 1)), ("temporal.w_end", (6, 1)), ("temporal.w_score", (8, 1)),
]
QGRAPH = [
    ("qgraph.phi_qa.w", (14, 8)), ("qgraph.phi_qa.b", (1, 8)), ("qgraph.phi_qo.w", (14, 8)),
    ("qgraph.phi_qo.b", (1, 8)), ("qgraph.phi_qh.w", (14, 8)), ("qgraph.phi_qh.b", (1, 8)),
    ("qgraph.msg_ah.w", (16, 8)), ("qgraph.msg_ah.b", (1, 8)), ("qgraph.msg_ao.w", (16, 8)),
    ("qgraph.msg_ao.b", (1, 8)), ("qgraph.msg_ho.w", (16, 8)), ("qgraph.msg_ho.b", (1, 8)), ("qgraph.m_o.w", (8, 8)),
    ("qgraph.m_o.b", (1, 8)), ("qgraph.m_a.w", (8, 8)), ("qgraph.m_a.b", (1, 8)), ("qgraph.m_h.w", (8, 8)),
    ("qgraph.m_h.b", (1, 8)),
]
NOGRAPH = [("nograph.w", (13, 8)), ("nograph.b", (1, 8))]
PINNED_REGISTRY = {
    **dict.fromkeys(("full", "no_node_types", "no_human_node", "no_object_node"), TEXT + HEADS + EMBED + GRAPH + TEMPORAL),
    "single_query": TEXT + EMBED + QGRAPH + TEMPORAL,
    "no_graph": NOGRAPH + TEMPORAL,
}


def word_ids(vocab, tokens):
    return np.array([vocab.index(tok) for tok in tokens], dtype=np.intp)


class TestForward:
    def test_output_shapes(self):
        model, batch = tiny_instance(seed=0, lengths=(4, 3))
        out = model.forward(batch, frame_map(batch))
        n = 4 + 3
        assert out["bounds"].data.shape == (n, 2) and out["y"].data.shape == (n, 1)
        for column in (*out["bounds"].data.T, out["y"].data[:, 0]):
            for rows in (slice(0, 4), slice(4, 7)):
                assert column[rows].sum() == pytest.approx(1.0, abs=1e-12)
        views = encode_query([p.word_ids for p in batch], model.text)
        a_ctx = model.spatial_forward(batch, views, frame_map(batch), GraphWeights(model.graph_params))
        assert a_ctx.data.shape == (n, model.config.latent)

    def test_one_block_per_gru_weight_kind(self):
        counts = {v: len(tiny_instance(variant=v)[0].params) for v in ("full", "single_query", "no_graph")}
        assert counts == {"full": 55, "single_query": 46, "no_graph": 17}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_registry_names_shapes_and_order_are_pinned(self, variant):
        # the registry's order is the rng's draw order and the checkpoint's record order
        config = RunConfig(d_w=5, d_v=6, d_o=7, latent=8, hidden=3, variant=variant)
        model = MomentModel(config, Vocabulary(["person", "throw"]))
        assert [(name, t.data.shape) for name, t in model.params.items()] == PINNED_REGISTRY[variant]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_block_is_trained(self, variant):
        # every block the model builds gets a gradient; one that stays all
        # zero belongs to a node kind the variant drops
        model, batch = tiny_instance(variant=variant, lengths=GRADCHECK_LENGTHS)
        with GradientTape():
            loss, _, _ = model.loss(batch)
            ad.backward(loss)
        assert [name for name, p in model.params.items() if p.grad is None] == []
        all_zero = {name for name, p in model.params.items() if not p.grad.any()}
        dropped = {"no_human_node": HUMAN_BLOCKS, "no_node_types": HUMAN_BLOCKS, "no_object_node": OBJECT_BLOCKS}
        assert all_zero == dropped.get(variant, set())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_run(self, variant):
        model, [prep] = tiny_instance(variant=variant, seed=1)
        total, kl, sp = model.loss([prep])
        assert np.isfinite(total.data).all()
        assert total.item() == pytest.approx(kl.item() + sp.item(), abs=1e-12)

    def test_no_graph_ignores_query(self):
        model, [prep] = tiny_instance(variant="no_graph", seed=2)
        base = model.predict([prep])[0]
        prep.word_ids = word_ids(model.vocab, ["person", "throw"])  # different query, same visuals
        again = model.predict([prep])[0]
        np.testing.assert_array_equal(base.start_dist, again.start_dist)

    def test_no_graph_pools_each_frame_mean(self):
        model, [tiny] = tiny_instance(variant="no_graph", seed=10, lengths=(5,))
        rng = np.random.default_rng(10)
        # frame 0 keeps no detections, frame 1 only humans, frame 2 only objects, the rest both; at
        # most two rows of a kind per frame, so a kind's sum is one addition in any order
        kinds = [[], ["person"] * 2, ["cup"] * 2, ["person", "cup"], ["cup", "person", "cup", "person"]]
        frames = [[Detection(label, float(rng.uniform()), rng.normal(size=6)) for label in labels] for labels in kinds]
        prep = model.prepare(dataclasses.replace(tiny.sample, detections=frames), CategoryMap({"person": HUMAN}))
        humans, human_ids, objects, object_ids = ref_route_detections(frames, {"person": "human"}, model.config.top_n, 6)
        pooled = np.zeros((5, 6))
        for i in range(1, 5):
            kept = (human_ids == i).sum() + (object_ids == i).sum()
            pooled[i] = (humans[human_ids == i].sum(axis=0) + objects[object_ids == i].sum(axis=0)) / kept
        # prepare keeps the means as one human row per frame and no object rows
        np.testing.assert_array_equal(prep.humans_stacked, pooled)
        np.testing.assert_array_equal(prep.human_frame_ids, np.arange(5))
        assert prep.objects_stacked.shape == (0, 6) and prep.object_frame_ids.shape == (0,)
        w, b = model.nograph_params.w.data, model.nograph_params.b.data
        expected = np.concatenate([prep.sample.features.features, pooled], axis=1) @ w + b
        np.testing.assert_array_equal(model.spatial_forward([prep], None, frame_map([prep]), None).data, expected)

    def test_full_variant_uses_query(self):
        model, [prep] = tiny_instance(seed=3)
        base = model.predict([prep])[0]
        prep.word_ids = word_ids(model.vocab, ["person", "throw"])
        again = model.predict([prep])[0]
        assert not np.array_equal(base.start_dist, again.start_dist)

    def test_node_dropping_variants(self):
        _, [prep_full] = tiny_instance(seed=4)
        model_nh, [prep_nh] = tiny_instance(variant="no_human_node", seed=4)
        model_no, [prep_no] = tiny_instance(variant="no_object_node", seed=4)
        assert prep_nh.humans_stacked.shape == (0, model_nh.config.d_o)
        assert prep_nh.human_frame_ids.shape == (0,)
        assert prep_no.objects_stacked.shape == (0, model_no.config.d_o)
        assert prep_no.object_frame_ids.shape == (0,)
        assert prep_full.humans_stacked.shape[0] > 0
        # dropping one node kind leaves the other kind's rows untouched
        np.testing.assert_array_equal(prep_nh.objects_stacked, prep_full.objects_stacked)
        np.testing.assert_array_equal(prep_nh.object_frame_ids, prep_full.object_frame_ids)
        np.testing.assert_array_equal(prep_no.humans_stacked, prep_full.humans_stacked)
        np.testing.assert_array_equal(prep_no.human_frame_ids, prep_full.human_frame_ids)

    def test_no_node_types_routes_all_to_objects(self):
        _, [prep] = tiny_instance(variant="no_node_types", seed=5)
        t = prep.sample.features.features.shape[0]
        assert prep.humans_stacked.shape[0] == 0
        assert (np.bincount(prep.object_frame_ids, minlength=t) > 0).all()

    def test_dropout_runs_if_and_only_if_an_rng_is_given(self):
        model, batch = tiny_instance(seed=8, lengths=(4, 3))
        model.temporal.dropout = 0.5
        assert model.loss(batch)[0].item() != model.loss(batch, rng=np.random.default_rng(0))[0].item()
        out = model.forward(batch, frame_map(batch))
        preds = model.predict(batch)
        for column, key in enumerate(("start_dist", "end_dist")):
            want = np.concatenate([getattr(pred, key) for pred in preds])
            assert out["bounds"].data[:, column].tobytes() == want.tobytes()

    def test_predict_deterministic(self):
        model, [prep] = tiny_instance(seed=6)
        one = model.predict([prep])[0]
        two = model.predict([prep])[0]
        np.testing.assert_array_equal(one.start_dist, two.start_dist)
        assert one.start_index == two.start_index


RAGGED = (4, 3, 6, 1, 5, 2)  # six samples, every t different, queries of two lengths


def loss_and_grads(model, batch):
    for p in model.params.values():
        p.grad = None
    with GradientTape():
        total, kl, sp = model.loss(batch)
        ad.backward(total)
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for name, p in model.params.items()}
    return [total.item(), kl.item(), sp.item()], grads


@pytest.mark.parametrize("variant", ["full", "single_query", "no_graph"])
def test_untaped_forward_matches_taped_forward(variant):
    # predict runs untaped, so the BiGRU and the graph keep no backward state;
    # the arithmetic is the taped forward's, bit for bit
    model, batch = tiny_instance(variant=variant, seed=3, lengths=RAGGED)
    with GradientTape() as tape:
        out = model.forward(batch, frame_map(batch))
        assert len(tape) > 0
    bounds = np.cumsum(RAGGED)[:-1]
    preds = model.predict(batch)
    for column, attr in enumerate(("start_dist", "end_dist")):
        taped = np.split(out["bounds"].data[:, column], bounds)
        for pred, want in zip(preds, taped):
            assert getattr(pred, attr).tobytes() == want.tobytes()


def test_untaped_forwards_leave_taped_gradients_unchanged():
    model, batch = tiny_instance(seed=4, lengths=RAGGED)
    before = loss_and_grads(model, batch)
    model.predict(batch)
    model.predict(batch[:2])
    after = loss_and_grads(model, batch)
    assert before[0] == after[0]
    for name, g in before[1].items():
        assert g.tobytes() == after[1][name].tobytes(), name


def reachable(root):
    """Every object reachable from root through gc referents, classes, modules and functions aside."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_prepare_releases_detections(monkeypatch):
    prepared = []
    prepare_all = MomentModel.prepare_all

    def spy(self, samples, cmap):
        preps = prepare_all(self, samples, cmap)
        prepared.extend(zip(samples, preps))
        return preps

    monkeypatch.setattr(MomentModel, "prepare_all", spy)
    model, batch = tiny_instance(lengths=(4, 3))
    assert [prep for _, prep in prepared] == batch
    for sample, prep in prepared:
        assert not any(isinstance(obj, (Detection, Detections)) for obj in reachable(prep))
        # the routed arrays are what routing the sample's columns gives
        want = route_detections(sample.detections, CategoryMap({"person": HUMAN}), model.config.top_n)
        got = (prep.humans_stacked, prep.human_frame_ids, prep.objects_stacked, prep.object_frame_ids)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def two_rows(**changes):
    """A valid three-frame Detections with a row in frames 0 and 2, with the given columns replaced."""
    columns = {"frame": np.array([0, 2]), "confidence": np.array([0.9, 0.5]), "label_id": np.array([0, 1]), "features": np.ones((2, 6))}
    return Detections(3, labels=["person", "cup"], **{**columns, **changes})


def prepare_with_a_nan_in_a_generated_list():
    samples, cmap = generate(SyntheticSpec(n_samples=2, seed=0))
    samples[0].detections[1][0].feature[3] = np.nan
    MomentModel(synthetic_config(), build_vocab(samples)).prepare_all(samples, cmap)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (prepare_with_a_nan_in_a_generated_list, DataError, r"^video 'vid0000': row \d+: detection features are not finite$"),
        (lambda: two_rows(frame=np.array([0, 3])), InputError, r"^row 1: frame index 3 is outside \[0, 3\)$"),
        (lambda: two_rows(label_id=np.array([0, 2])), InputError, "^row 1: label id 2 is outside the 2-label table$"),
        (lambda: two_rows(confidence=np.array([0.9, 1.5])), InputError, r"^row 1: confidence 1.5 is not in \[0, 1\]$"),
        (lambda: two_rows(confidence=np.array([0.9])), InputError, "^frame, label_id, confidence and features of shapes .* are not one row per detection$"),
        (lambda: ActivityFeatures("v", np.array([[1.0], [np.nan]]), 1.0, 2.0), InputError, "^feature row 1 is not finite in video 'v'$"),
        (lambda: ActivityFeatures("v", np.ones(2), 1.0, 2.0), InputError, r"^v: need a t x d_v feature matrix of t >= 1 rows, got shape \(2,\)$"),
    ],
    ids=[
        "nan-in-generated-list", "frame-past-the-video", "label-id-outside-the-table", "confidence-above-1", "short-column",
        "nan-feature-row", "1-d-features",
    ],
)
def test_code_built_data_is_checked_as_a_file_is(build, error, message):
    """Records built in code get the checks and row-naming messages a loaded file gets."""
    with pytest.raises(error, match=message):
        build()


def test_prepare_checks_the_detection_width():
    samples, cmap = generate(SyntheticSpec(n_samples=2, seed=0))
    model = MomentModel(synthetic_config(), build_vocab(samples))
    sample, t = samples[0], samples[0].features.features.shape[0]
    lists = [dets + [Detection("cup", 0.5, np.ones(15))] if i == 2 else dets for i, dets in enumerate(sample.detections)]
    match = rf"video '{sample.video_id}': detection 'cup' has a feature of shape \(15,\), not \(16,\)"
    with pytest.raises(DataError, match=match):
        model.prepare(dataclasses.replace(sample, detections=lists), cmap)
    columns = Detections.from_frames(sample.detections, 16)
    narrow = dataclasses.replace(columns, features=columns.features[:, :15])
    with pytest.raises(DataError, match=rf"video '{sample.video_id}': detection features are 15 wide, config d_o is 16"):
        model.prepare(dataclasses.replace(sample, detections=narrow), cmap)
    # a video without detections has no width of its own; it routes to d_o-wide empty sets
    empty = model.prepare(dataclasses.replace(sample, detections=Detections.from_frames([[]] * t, 0)), cmap)
    assert empty.humans_stacked.shape == empty.objects_stacked.shape == (0, 16)


class TestSegmentMaps:
    """Each stacked axis gets one map, built once per call by the code that stacks it."""

    @staticmethod
    def built_maps(monkeypatch):
        """The `what` of every SortedSegments constructed from here on, in order."""
        built = []
        init = SortedSegments.__init__

        def counting_init(self, ids, n_segments, what):
            built.append(what)
            init(self, ids, n_segments, what)

        monkeypatch.setattr(SortedSegments, "__init__", counting_init)
        return built

    @pytest.mark.parametrize(
        "variant, maps",
        [
            ("full", ["frames", "encode_query", "humans", "objects"]),
            ("single_query", ["frames", "encode_query", "humans", "objects"]),
            ("no_graph", ["frames"]),
        ],
    )
    def test_one_map_per_stacked_axis(self, variant, maps, monkeypatch):
        model, batch = tiny_instance(variant=variant, lengths=(4, 3))
        built = self.built_maps(monkeypatch)
        with GradientTape():
            loss, _, _ = model.loss(batch, rng=np.random.default_rng(0))
            ad.backward(loss)
        assert built == maps
        built.clear()
        model.predict(batch)
        assert built == maps

    @pytest.mark.parametrize("variant", ["full", "single_query", "no_graph"])
    def test_one_map_per_axis_of_each_graph_block(self, variant, monkeypatch):
        model, batch = tiny_instance(variant=variant, lengths=(4, 3, 5))
        monkeypatch.setattr(model_module, "GRAPH_BLOCK_NODES", 1)  # one sample per block
        built = self.built_maps(monkeypatch)
        model.predict(batch)
        # the batch's frames feed the temporal head; no_graph has no graph to block
        blocks = ["frames", "humans", "objects"] * len(batch)
        assert built == (["frames"] if variant == "no_graph" else ["frames", "encode_query", *blocks])

    @pytest.mark.parametrize("variant", ["full", "single_query"])
    def test_graph_and_temporal_head_share_the_frame_map(self, variant, monkeypatch):
        model, batch = tiny_instance(variant=variant, lengths=(4, 3))
        seen = {}
        for name, position in (("spatial_graph", 6), ("temporal_forward", 1)):
            original = getattr(model_module, name)

            def spy(*args, original=original, name=name, position=position, **kwargs):
                seen[name] = args[position]
                return original(*args, **kwargs)

            monkeypatch.setattr(model_module, name, spy)
        model.loss(batch)
        frames = seen["spatial_graph"]
        assert frames is seen["temporal_forward"]
        assert frames.counts.tolist() == [4, 3]


@pytest.mark.parametrize("variant", VARIANTS)
def test_prepare_rejects_a_query_without_words(variant):
    samples, cmap = generate(SyntheticSpec(n_samples=2, seed=0))
    model = MomentModel(synthetic_config(variant=variant), build_vocab(samples))
    with pytest.raises(DataError, match=rf"video '{samples[1].video_id}': query '\?!' has no words"):
        model.prepare(dataclasses.replace(samples[1], query="?!"), cmap)


def test_prepare_stores_the_query_as_word_ids():
    samples, cmap = generate(SyntheticSpec(n_samples=2, seed=0))
    model = MomentModel(synthetic_config(), build_vocab(samples))
    prep = model.prepare(samples[0], cmap)
    assert prep.word_ids.dtype == np.intp
    assert prep.word_ids.tolist() == [model.vocab.index(tok) for tok in tokenize(samples[0].query)]
    unseen = model.prepare(dataclasses.replace(samples[0], query="person zzyzx"), cmap)
    assert unseen.word_ids.tolist() == [model.vocab.index("person"), 0]


def prepared_arrays(prep):
    """Every array a PreparedSample holds, with its dtype and shape, and what it keeps of its sample."""
    arrays = (
        prep.word_ids, prep.humans_stacked, prep.objects_stacked, prep.human_frame_ids, prep.object_frame_ids,
        prep.target.dist,
    )
    s = prep.sample
    kept = (s.video_id, s.query, s.t_start_s, s.t_end_s, id(s.features), s.detections)
    return kept, prep.target.start_index, prep.target.end_index, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestPrepareAll:
    """prepare_all does a video's work once for all its tuples and changes no byte of what prepare gives."""

    @pytest.mark.parametrize("order", ["video", "shuffled"])
    @pytest.mark.parametrize("source", ["generated", "loaded"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_prepare_per_sample(self, variant, source, order, tmp_path):
        samples, cmap = generate(SyntheticSpec(n_samples=30, seed=5))
        if source == "loaded":
            write_dataset(samples, cmap, str(tmp_path))
            train_samples, val_samples, cmap = load_dataset(str(tmp_path))
            samples = train_samples + val_samples
        if order == "shuffled":
            samples = [samples[i] for i in np.random.default_rng(5).permutation(len(samples))]
        assert len({id(s.detections) for s in samples}) < len(samples)  # some video has several tuples
        model = MomentModel(synthetic_config(variant=variant, top_n=2), build_vocab(samples))
        want = [prepared_arrays(model.prepare(s, cmap)) for s in samples]
        assert [prepared_arrays(p) for p in model.prepare_all(samples, cmap)] == want

    def test_routes_each_video_once_per_call(self, monkeypatch):
        samples, cmap = generate(SyntheticSpec(n_samples=250, seed=0))
        model = MomentModel(synthetic_config(), build_vocab(samples))
        calls = []
        route = model_module.route_detections
        monkeypatch.setattr(model_module, "route_detections", lambda *args: calls.append(1) or route(*args))
        model.prepare_all(samples, cmap)
        assert len(calls) == len({s.video_id for s in samples}) == 103
        model.prepare_all(samples, cmap)  # nothing is kept between calls
        assert len(calls) == 2 * 103

    def test_a_videos_samples_share_read_only_node_arrays(self):
        samples, cmap = generate(SyntheticSpec(n_samples=30, seed=5))
        first, second = [s for s in samples if s.video_id == samples[0].video_id][:2]
        a, b = MomentModel(synthetic_config(), build_vocab(samples)).prepare_all([first, second], cmap)
        assert np.shares_memory(a.humans_stacked, b.humans_stacked)
        for key in ("humans_stacked", "objects_stacked", "human_frame_ids", "object_frame_ids"):
            assert getattr(a, key) is getattr(b, key)
            with pytest.raises(ValueError, match="read-only"):
                getattr(a, key)[...] = 0

    def test_a_videos_error_names_it(self):
        samples, cmap = generate(SyntheticSpec(n_samples=30, seed=5))
        model = MomentModel(synthetic_config(), build_vocab(samples))
        vid = samples[-1].video_id
        tuples = [s for s in samples if s.video_id == vid]
        assert len(tuples) > 1
        columns = Detections.from_frames(tuples[0].detections, 16)
        narrow = dataclasses.replace(columns, features=columns.features[:, :15])
        bad = [dataclasses.replace(s, detections=narrow) for s in tuples]
        with pytest.raises(DataError, match=rf"video '{vid}': detection features are 15 wide, config d_o is 16"):
            model.prepare_all(samples[: -len(tuples)] + bad, cmap)
        wordless = [tuples[0], dataclasses.replace(tuples[1], query="?!")]
        with pytest.raises(DataError, match=rf"video '{vid}': query '\?!' has no words"):
            model.prepare_all(samples[: -len(tuples)] + wordless, cmap)

    def test_empty_split_prepares_to_nothing(self):
        model, _ = tiny_instance()
        assert model.prepare_all([], CategoryMap()) == []


@pytest.mark.parametrize("source", ["lists", "columns"])
def test_prepare_rejects_detections_over_other_frames(source):
    model, [prep] = tiny_instance(seed=6, lengths=(4,))
    rng = np.random.default_rng(6)
    frames = [[Detection("person", 0.9, rng.normal(size=model.config.d_o))] for _ in range(7)]
    dets = frames if source == "lists" else Detections.from_frames(frames, model.config.d_o)
    sample = dataclasses.replace(prep.sample, detections=dets)
    with pytest.raises(DataError, match=r"video 'tiny0': detections span 7 frames, its activity features 4"):
        model.prepare(sample, CategoryMap({"person": HUMAN}))


@pytest.mark.parametrize("variant", VARIANTS)
def test_empty_batch_predicts_nothing(variant):
    model, _ = tiny_instance(variant=variant)
    assert model.predict([]) == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_empty_batch_has_no_loss(variant):
    model, _ = tiny_instance(variant=variant)
    with pytest.raises(InputError, match="empty batch"):
        model.loss([])


@pytest.mark.parametrize("variant", VARIANTS)
class TestBatchInvariance:
    """A minibatch is one forward pass, but it computes what its samples compute one by one."""

    def test_loss_and_gradients_are_sums_over_samples(self, variant):
        model, batch = tiny_instance(variant=variant, seed=11, lengths=RAGGED)
        parts, grads = loss_and_grads(model, batch)
        singles = [loss_and_grads(model, [p]) for p in batch]
        np.testing.assert_allclose(parts, np.sum([s[0] for s in singles], axis=0), rtol=1e-12, atol=0)
        # measured against the largest gradient entry, so that near-zero
        # entries may differ by roundoff
        scale = max(np.abs(g).max() for g in grads.values())
        for name, g in grads.items():
            summed = np.sum([s[1][name] for s in singles], axis=0)
            assert np.abs(g - summed).max() <= 1e-12 * scale, name

    def test_predictions_equal_single_sample_predictions(self, variant):
        model, batch = tiny_instance(variant=variant, seed=12, lengths=RAGGED)
        preds = model.predict(batch)
        assert len(preds) == len(batch)
        for prep, pred in zip(batch, preds):
            one = model.predict([prep])[0]
            assert (pred.start_index, pred.end_index) == (one.start_index, one.end_index)
            assert pred.degenerate == one.degenerate
            assert pred.start_dist.shape == (prep.sample.features.features.shape[0],)
            np.testing.assert_allclose(pred.start_dist, one.start_dist, rtol=1e-12, atol=0)
            np.testing.assert_allclose(pred.end_dist, one.end_dist, rtol=1e-12, atol=0)

    def test_training_step_tape_does_not_grow_with_batch(self, variant):
        # a per-sample loop would record its ops once per sample
        model, batch = tiny_instance(variant=variant, seed=13, lengths=RAGGED)
        model.temporal.dropout = 0.2
        sizes = []
        for b in (batch[:1], batch):
            with GradientTape() as tape:
                model.loss(b, rng=np.random.default_rng(0))
                sizes.append(len(tape))
        assert sizes[0] == sizes[1]


# tape nodes of one tiny training step; the spatial graph is one node at any
# depth, each BiGRU layer is one node, the start/end head and the score head
# one each, and the KL and the spatial loss one each
TAPE_BUDGET = {
    "full": 17, "no_node_types": 17, "no_human_node": 17, "no_object_node": 17, "single_query": 14, "no_graph": 8,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_step_tape_budget(variant):
    sizes = []
    for n_iters in (2, 3):
        model, batch = tiny_instance(variant=variant, lengths=GRADCHECK_LENGTHS)
        model.config = dataclasses.replace(model.config, iterations=n_iters)
        with GradientTape() as tape:
            model.loss(batch, rng=np.random.default_rng(0))
            sizes.append(len(tape))
    assert sizes[0] == sizes[1] == TAPE_BUDGET[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_graph_block_budget_leaves_a_training_step_alone(variant, monkeypatch):
    def step():
        model, batch = tiny_instance(variant=variant, lengths=GRADCHECK_LENGTHS)
        with GradientTape() as tape:
            losses = model.loss(batch, rng=np.random.default_rng(0))
            size = len(tape)
            ad.backward(losses[0])
        grads = {name: None if p.grad is None else p.grad.tobytes() for name, p in model.params.items()}
        return [t.data.tobytes() for t in losses], grads, size

    default = step()
    monkeypatch.setattr(model_module, "GRAPH_BLOCK_NODES", 1)
    assert step() == default
    assert default[2] == TAPE_BUDGET[variant]


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model, batch = tiny_instance(seed=7, lengths=(4, 3))
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        fresh, _ = tiny_instance(seed=99)
        fresh.load(str(path))
        for name, p in model.params.items():
            assert fresh.params[name].data.tobytes() == p.data.tobytes()
        for a, b in zip(fresh.predict(batch), model.predict(batch)):
            np.testing.assert_array_equal(a.start_dist, b.start_dist)
            np.testing.assert_array_equal(a.end_dist, b.end_dist)

    def test_variant_mismatch_rejected(self, tmp_path):
        model, _ = tiny_instance(seed=8)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        other, _ = tiny_instance(variant="no_graph", seed=8)
        with pytest.raises(CheckpointError, match="mismatch"):
            other.load(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        model, _ = tiny_instance(seed=9)
        path = tmp_path / "m.ckpt"
        model.params["temporal.w_start"].data = np.zeros((3, 1))
        model.save(str(path))
        fresh, _ = tiny_instance(seed=9)
        with pytest.raises(CheckpointError, match="temporal.w_start"):
            fresh.load(str(path))

    def test_variant_with_the_same_parameters_rejected(self, tmp_path):
        # full, no_human_node and no_object_node have the same parameter names and shapes
        model, _ = tiny_instance(variant="no_human_node", seed=8)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        full, _ = tiny_instance(variant="full", seed=8)
        assert {k: p.data.shape for k, p in full.params.items()} == {k: p.data.shape for k, p in model.params.items()}
        with pytest.raises(CheckpointError, match="mismatch: variant is 'no_human_node' in the checkpoint, 'full'"):
            full.load(str(path))

    @pytest.mark.parametrize("field, value", [("iterations", 3), ("top_n", 4)])
    def test_field_that_shapes_no_parameter_rejected(self, tmp_path, field, value):
        model, _ = tiny_instance(seed=8)
        other = MomentModel(dataclasses.replace(model.config, **{field: value}), model.vocab)
        assert getattr(model.config, field) != value
        path = tmp_path / "m.ckpt"
        other.save(str(path))
        with pytest.raises(CheckpointError, match=f"mismatch: {field} is {value}"):
            model.load(str(path))

    def test_vocabulary_mismatch_rejected(self, tmp_path):
        model, _ = tiny_instance(seed=8)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        reordered = Vocabulary(list(reversed(model.vocab.tokens()[2:])))
        assert len(reordered) == len(model.vocab)
        with pytest.raises(CheckpointError, match="vocabulary mismatch"):
            MomentModel(model.config, reordered).load(str(path))

    def test_per_gate_gru_checkpoint_rejected(self, tmp_path):
        # a checkpoint from before the gates were stacked holds nine GRU records per direction
        model, _ = tiny_instance(seed=7)
        path = tmp_path / "old.ckpt"
        model.save(str(path))
        meta, params = load_params(str(path))
        save_params(per_gate_checkpoint_params(params), str(path), meta)
        with pytest.raises(CheckpointError, match=r"missing \[.*'text\.gru_fwd\.w'.*unexpected \[.*'text\.gru_fwd\.wz'"):
            model.load(str(path))

    def test_checkpoint_with_a_softmax_bias_rejected(self, tmp_path):
        # a checkpoint from before the softmax-fed biases were deleted holds them
        model, _ = tiny_instance(seed=7)
        path = tmp_path / "old.ckpt"
        model.save(str(path))
        meta, params = load_params(str(path))
        save_params({**params, "temporal.b_start": np.zeros((1, 1))}, str(path), meta)
        with pytest.raises(CheckpointError, match=r"missing \[\], unexpected \['temporal\.b_start'\]"):
            model.load(str(path))

    def test_checkpoint_cut_between_records_is_typed_error(self, tmp_path):
        # test_checkpoint shows that load_params rejects every other strict
        # prefix; a cut between records reads as fewer records, which load rejects
        model, _ = tiny_instance(seed=7)
        path = tmp_path / "m.ckpt"
        model.save(str(path))
        blob = path.read_bytes()
        sizes = [8 + len(k) + 8 + 8 * p.data.ndim + 8 * p.data.size for k, p in sorted(model.params.items())]
        ends = len(blob) - np.cumsum([0] + sizes[::-1])[1:]  # where the last 1, 2, ... records start
        for end in ends:
            path.write_bytes(blob[:end])
            with pytest.raises(CheckpointError, match="missing"):
                model.load(str(path))
