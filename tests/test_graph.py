import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, SortedSegments, Tensor
from momentgraph.errors import ConfigError, ContractError, DimensionError
from momentgraph.graph import (
    A_MESSAGES,
    FOLDS,
    FULL_BLOCKS,
    LAST_SLOTS,
    ROWS,
    SINGLE_QUERY_BLOCKS,
    SLOTS,
    TAKES,
    UPDATES,
    VARIANTS,
    GraphWeights,
    MessagePassing,
    PairMap,
    _gate,
    check_variant,
    create_graph,
    project,
    spatial_graph,
)

from reference_impls import fd_grad, ref_graph_iteration, ref_nograph_grad
from segment_maps import graph_maps
from tape_sum import weighted_sum

D_LANG = 6
LATENT = 5


def make_params(seed=0):
    registry = {}
    p = create_graph(np.random.default_rng(seed), FULL_BLOCKS, D_LANG, LATENT, registry)
    return p, registry


def make_instance(seed=1, K=2, J=3):
    rng = np.random.default_rng(seed)
    a0 = Tensor(rng.normal(size=(1, LATENT)))
    h0 = Tensor(rng.normal(size=(K, LATENT)))
    o0 = Tensor(rng.normal(size=(J, LATENT)))
    sv = Tensor(rng.normal(size=(1, D_LANG)))
    sn = Tensor(rng.normal(size=(1, D_LANG)))
    vn = Tensor(rng.normal(size=(1, D_LANG)))
    return a0, h0, o0, sv, sn, vn


def latents(a0, h0, o0, sv, sn, vn, frame_sample, h_seg, o_seg, p, n_iters):
    """(a, h, o) after n_iters: a from spatial_graph, h and o from n_iters of
    its per-iteration step, whose a must be the op's bit for bit."""
    maps = graph_maps(frame_sample, h_seg, o_seg)
    a = spatial_graph(a0, h0, o0, sv, sn, vn, *maps, GraphWeights(p), n_iters).data
    mp = MessagePassing(GraphWeights(p), a0.data, h0.data, o0.data, sv.data, sn.data, vn.data, *maps)
    x = a0.data, h0.data, o0.data
    for _ in range(n_iters):
        x = mp.step(*x)[:3]
    assert x[0].tobytes() == a.tobytes()
    return x


def one_frame(a0, h0, o0, sv, sn, vn, p, n_iters):
    """The graph on a single timestep: every row belongs to frame 0 of sample 0."""
    h_seg = np.zeros(h0.data.shape[0], dtype=np.intp)
    o_seg = np.zeros(o0.data.shape[0], dtype=np.intp)
    return latents(a0, h0, o0, sv, sn, vn, [0], h_seg, o_seg, p, n_iters)


def oracle(a0, h0, o0, sv, sn, vn, registry, n_iters):
    """ref_graph_iteration looped n_iters times on one timestep."""
    arrays = {name.removeprefix("graph."): t.data for name, t in registry.items()}
    a, h, o = a0.data, h0.data, o0.data
    for _ in range(n_iters):
        a, h, o = ref_graph_iteration(a, h, o, a0.data, h0.data, o0.data, sv.data, sn.data, vn.data, arrays)
    return a, h, o


def assert_independent_of(blocks, a0, h0, o0, sv, sn, vn, p, seed):
    """Re-drawing the given pair maps leaves every latent bit-identical."""
    before = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
    rng = np.random.default_rng(seed)
    for name in blocks:
        pm = p[name]
        pm.w.data = rng.normal(size=pm.w.data.shape)
        pm.b.data = rng.normal(size=pm.b.data.shape)
    after = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
    for x, y in zip(before, after):
        assert x.tobytes() == y.tobytes()


class TestVariants:
    def test_known_variants_pass(self):
        for v in VARIANTS:
            assert check_variant(v) == v

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="no_such"):
            check_variant("no_such")


class TestMessagePassing:
    def test_empty_human_set_sums_to_zero(self):
        # an empty segment sums to an exact zero column, so the human pair maps
        # cannot reach the activity or object latents
        np.testing.assert_array_equal(
            SortedSegments([1, 1], 3, "ids").sum(np.ones((LATENT, 2)), 1)[:, [0, 2]], np.zeros((LATENT, 2))
        )
        p, registry = make_params()
        a0, h0, o0, sv, sn, vn = make_instance(K=0)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        ra, rh, ro = oracle(a0, h0, o0, sv, sn, vn, registry, 2)
        np.testing.assert_allclose(a, ra, atol=1e-12)
        np.testing.assert_allclose(o, ro, atol=1e-12)
        assert h.shape == (0, LATENT)
        assert_independent_of(("phi_snh", "phi_svh"), a0, h0, o0, sv, sn, vn, p, seed=30)

    def test_singletons_degenerate_to_lone_pair(self):
        cols = np.random.default_rng(31).normal(size=(LATENT, 2))
        np.testing.assert_array_equal(SortedSegments([0, 1], 2, "ids").sum(cols, 1), cols)
        p, registry = make_params(seed=2)
        a0, h0, o0, sv, sn, vn = make_instance(seed=3, K=1, J=1)
        out = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        for got, want in zip(out, oracle(a0, h0, o0, sv, sn, vn, registry, 2)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_iteration_matches_transcription_oracle(self):
        p, registry = make_params(seed=4)
        a0, h0, o0, sv, sn, vn = make_instance(seed=5)
        for n_iters in (1, 2, 3):
            out = one_frame(a0, h0, o0, sv, sn, vn, p, n_iters)
            for got, want in zip(out, oracle(a0, h0, o0, sv, sn, vn, registry, n_iters)):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_update_zero_messages_give_half(self):
        p, _ = make_params(seed=6)
        for pm in (p["m_a"], p["m_h"], p["m_o"]):
            pm.w.data[:] = 0.0
            pm.b.data[:] = 0.0
        a0, h0, o0, sv, sn, vn = make_instance(seed=7)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 1)
        np.testing.assert_array_equal(a, np.full((1, LATENT), 0.5))
        np.testing.assert_array_equal(h, np.full((2, LATENT), 0.5))
        np.testing.assert_array_equal(o, np.full((3, LATENT), 0.5))

    def test_latents_in_unit_interval_after_update(self):
        p, _ = make_params(seed=8)
        a0, h0, o0, sv, sn, vn = make_instance(seed=9)
        for x in one_frame(a0, h0, o0, sv, sn, vn, p, 3):
            assert ((x > 0.0) & (x < 1.0)).all()

    def test_zero_iterations_identity(self):
        p, _ = make_params(seed=10)
        a0, h0, o0, sv, sn, vn = make_instance(seed=11)
        seg_h, seg_o = np.zeros(2, dtype=np.intp), np.zeros(3, dtype=np.intp)
        assert spatial_graph(a0, h0, o0, sv, sn, vn, *graph_maps([0], seg_h, seg_o), GraphWeights(p), 0) is a0

    def test_message_map_sharing(self):
        # the three message maps are shared across edge directions, so the
        # parameter registry must expose exactly three msg blocks
        _, registry = make_params(seed=14)
        msg_names = sorted(n for n in registry if ".msg_" in n)
        assert msg_names == [
            "graph.msg_sn.b", "graph.msg_sn.w",
            "graph.msg_sv.b", "graph.msg_sv.w",
            "graph.msg_vn.b", "graph.msg_vn.w",
        ]

    def test_detection_order_permutation_only_permutes_rows(self):
        p, _ = make_params(seed=15)
        a0, h0, o0, sv, sn, vn = make_instance(seed=16, K=2, J=3)
        perm = [2, 0, 1]
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        a_p, h_p, o_p = one_frame(a0, h0, Tensor(o0.data[perm]), sv, sn, vn, p, 2)
        np.testing.assert_allclose(a_p, a, atol=1e-12)
        np.testing.assert_allclose(h_p, h, atol=1e-12)
        np.testing.assert_allclose(o_p, o[perm], atol=1e-12)


def assert_matches_per_timestep(p, registry, rng, counts, frame_sample, n_iters=3):
    """Run a minibatch whose frame i holds counts[i] = (humans, objects) rows
    through the op and compare every frame with the per-frame oracle.
    Returns the inputs and the three maps."""
    t = len(counts)
    # one linguistic row per sample, shared by its frames
    sv, sn, vn = (Tensor(rng.normal(size=(frame_sample[-1] + 1, D_LANG))) for _ in range(3))
    a0 = Tensor(rng.normal(size=(t, LATENT)))
    h_rows = [rng.normal(size=(k, LATENT)) for k, _ in counts]
    o_rows = [rng.normal(size=(j, LATENT)) for _, j in counts]
    h0 = Tensor(np.concatenate(h_rows, axis=0))
    o0 = Tensor(np.concatenate(o_rows, axis=0))
    h_seg = np.concatenate([np.full(k, i) for i, (k, _) in enumerate(counts)])
    o_seg = np.concatenate([np.full(j, i) for i, (_, j) in enumerate(counts)])
    a, h, o = latents(a0, h0, o0, sv, sn, vn, frame_sample, h_seg, o_seg, p, n_iters)
    for i in range(t):
        frame, sample = slice(i, i + 1), slice(frame_sample[i], frame_sample[i] + 1)
        ra, rh, ro = oracle(
            Tensor(a0.data[frame]), Tensor(h_rows[i]), Tensor(o_rows[i]),
            Tensor(sv.data[sample]), Tensor(sn.data[sample]), Tensor(vn.data[sample]), registry, n_iters,
        )
        np.testing.assert_allclose(a[i : i + 1], ra, atol=1e-12)
        np.testing.assert_allclose(h[h_seg == i], rh, atol=1e-12)
        np.testing.assert_allclose(o[o_seg == i], ro, atol=1e-12)
    return (a0, h0, o0, sv, sn, vn), (frame_sample, h_seg, o_seg)


class TestBatchedSequence:
    def test_matches_per_timestep(self):
        p, registry = make_params(seed=17)
        counts = [(2, 3), (0, 1), (1, 0), (2, 2), (0, 0)]
        assert_matches_per_timestep(p, registry, np.random.default_rng(18), counts, np.array([0, 0, 1, 1, 1]))

    def test_ragged_frames_match_per_timestep(self):
        # frame 0 holds 15 objects next to an empty frame, a humans-only
        # frame and an objects-only frame
        counts = [(1, 15), (0, 0), (2, 0), (0, 2)]
        p, registry = make_params(seed=35)
        inputs, maps = assert_matches_per_timestep(p, registry, np.random.default_rng(36), counts, np.array([0, 0, 1, 1]))
        # a frame without humans (objects) sums their latents to exact zero
        # columns in every iteration
        empty = {"h": [1, 3], "o": [1, 2]}
        mp = MessagePassing(GraphWeights(p), *(t.data for t in inputs), *graph_maps(*maps))
        x = tuple(t.data for t in inputs[:3])
        for _ in range(3):
            *x, cache = mp.step(*x)
            for kind, frames in empty.items():
                np.testing.assert_array_equal(cache["x"]["sum_" + kind][:, frames], np.zeros((LATENT, len(frames))))
        # and the constant every iteration adds holds exact zeros as those
        # frames' count-weighted n·m_2^T·L terms: its rows that read a node
        # sum are, in those frames, the constant of pair maps whose L is zero
        for kind, frames in empty.items():
            q = {slot: PairMap(Tensor(pm.w.data.copy()), Tensor(pm.b.data.copy())) for slot, pm in p.items()}
            for _, pair, _, _ in FOLDS["sum_" + kind]:
                q[pair].w.data[:D_LANG] = 0.0
                q[pair].b.data[:] = 0.0
            zeroed = MessagePassing(GraphWeights(q), *(t.data for t in inputs), *graph_maps(*maps)).const
            rows = TAKES["sum_" + kind]
            np.testing.assert_array_equal(mp.const[rows][..., frames], zeroed[rows][..., frames])
            assert not np.array_equal(mp.const[rows], zeroed[rows])  # the other frames do count L

    def test_zero_iterations_returns_inputs(self):
        p, _ = make_params(seed=19)
        a0 = Tensor(np.random.default_rng(20).normal(size=(3, LATENT)))
        empty = Tensor(np.zeros((0, LATENT)))
        seg = np.zeros(0, dtype=int)
        sv = sn = vn = Tensor(np.zeros((1, D_LANG)))
        assert spatial_graph(a0, empty, empty, sv, sn, vn, *graph_maps([0, 0, 0], seg, seg), GraphWeights(p), 0) is a0

    @pytest.mark.parametrize("name", ["frame_sample", "h_seg", "o_seg"])
    def test_unsorted_segment_ids_rejected(self, name):
        p, _ = make_params(seed=33)
        rng = np.random.default_rng(34)
        a0, h0, o0 = (Tensor(rng.normal(size=(n, LATENT))) for n in (3, 2, 2))
        sv = sn = vn = Tensor(rng.normal(size=(2, D_LANG)))
        maps = {"frame_sample": [0, 1, 1], "h_seg": [0, 2], "o_seg": [1, 2]}
        maps[name] = maps[name][::-1]
        with pytest.raises(ContractError, match=f"{name}: segment ids must be sorted"):
            spatial_graph(a0, h0, o0, sv, sn, vn, *graph_maps(maps["frame_sample"], maps["h_seg"], maps["o_seg"]), GraphWeights(p), 1)


    @pytest.mark.parametrize(
        "maps",
        [([0, 1, 1], [0, 2], [1]), ([0, 0, 0], [0, 2], [1, 2]), ([0, 1], [0, 1], [1, 1])],
        ids=["objects-rows", "frames-segments", "frames-rows"],
    )
    def test_map_that_does_not_fit_the_inputs_is_dimension_error(self, maps):
        p, _ = make_params(seed=37)
        rng = np.random.default_rng(38)
        a0, h0, o0 = (Tensor(rng.normal(size=(n, LATENT))) for n in (3, 2, 2))
        sv = sn = vn = Tensor(rng.normal(size=(2, D_LANG)))
        with pytest.raises(DimensionError, match="spatial graph: maps of"):
            spatial_graph(a0, h0, o0, sv, sn, vn, *graph_maps(*maps), GraphWeights(p), 1)


# frame_sample, h_seg and o_seg of the finite-difference batches
# three frames of two samples: frames 1 and 2 have no humans, frame 2 no objects
SPARSE = ([0, 0, 1], [0, 0], [0, 1, 1])
# frame 0 holds 15 objects next to an empty frame, a humans-only and an objects-only frame
RAGGED = ([0, 0, 1, 1], [0, 2, 2], [0] * 15 + [3, 3])


def graph_case(seed, single, maps=SPARSE):
    """Every input of the op as a tensor, for the frames that maps lay out.
    Biases are drawn too, so that every block has a gradient to check."""
    rng = np.random.default_rng(seed)
    registry = {}
    p = create_graph(rng, SINGLE_QUERY_BLOCKS if single else FULL_BLOCKS, D_LANG, LATENT, registry)
    for t in registry.values():
        t.data = rng.normal(scale=0.7, size=t.data.shape)
    rows = (len(maps[0]), len(maps[1]), len(maps[2]))
    a0, h0, o0 = (Tensor(np.tanh(rng.normal(size=(n, LATENT))), requires_grad=True) for n in rows)
    n_samples = maps[0][-1] + 1
    views = [Tensor(rng.normal(size=(n_samples, D_LANG)), requires_grad=True) for _ in range(1 if single else 3)]
    sv, sn, vn = views * 3 if single else views
    return p, registry, (a0, h0, o0, sv, sn, vn), maps


def unread_after_central_differences(p, registry, inputs, maps, n_iters):
    """Check the op's gradient of a weighted sum of its output against central
    differences on every entry of every input and block; returns the names of
    those without a gradient, after checking that no entry of them moves the output."""
    weights = np.random.default_rng(50).normal(size=(len(maps[0]), LATENT))
    segments = graph_maps(*maps)

    def f():
        return float((spatial_graph(*inputs, *segments, GraphWeights(p), n_iters).data * weights).sum())

    with GradientTape():
        out = spatial_graph(*inputs, *segments, GraphWeights(p), n_iters)
        ad.backward(weighted_sum(out, weights))
    tensors = {**{f"input{i}": t for i, t in enumerate(inputs)}, **registry}
    unread = set()
    for name, t in tensors.items():
        numeric = fd_grad(f, t.data, eps=1e-6)
        if t.grad is None:
            unread.add(name.split(".")[1] if "." in name else name)
            assert not numeric.any(), name  # nothing reads it, so no entry moves the output
            continue
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name)
    return unread


class TestFusedBackward:
    @pytest.mark.parametrize("single", [False, True], ids=["full", "single_query"])
    @pytest.mark.parametrize("n_iters", [1, 2, 3])
    def test_matches_central_differences_on_every_entry(self, n_iters, single):
        p, registry, inputs, maps = graph_case(40 + n_iters, single)
        unread = unread_after_central_differences(p, registry, inputs, maps, n_iters)
        # one iteration updates only the activity latent: the h and o side
        # keeps no gradient, as the blocks and views it reads feed nothing
        expected = set()
        if n_iters == 1:
            expected = {"msg_ho", "m_o", "m_h"} if single else {"phi_sno", "phi_snh", "msg_sn", "m_o", "m_h", "input4"}
        assert unread == expected

    @pytest.mark.parametrize("single", [False, True], ids=["full", "single_query"])
    def test_ragged_batch_matches_central_differences(self, single):
        p, registry, inputs, maps = graph_case(44, single, RAGGED)
        assert unread_after_central_differences(p, registry, inputs, maps, 3) == set()


class TestSingleQueryVariant:
    def test_tied_parameters_reproduce_full_variant(self):
        registry = {}
        sq = create_graph(np.random.default_rng(21), SINGLE_QUERY_BLOCKS, D_LANG, LATENT, registry)
        a0, h0, o0, _, _, _ = make_instance(seed=22)
        q = Tensor(np.random.default_rng(23).normal(size=(1, D_LANG)))
        # an independently created full-variant parameter set whose pair maps
        # are overwritten so both directions of each edge carry the same values
        full, _ = make_params(seed=24)
        for slot in SLOTS:
            full[slot].w.data = sq[slot].w.data.copy()
            full[slot].b.data = sq[slot].b.data.copy()
        out_sq = one_frame(a0, h0, o0, q, q, q, sq, 2)
        out_full = one_frame(a0, h0, o0, q, q, q, full, 2)
        for x, y in zip(out_sq, out_full):
            np.testing.assert_array_equal(x, y)

    def test_registry_has_three_pair_blocks(self):
        registry = {}
        create_graph(np.random.default_rng(24), SINGLE_QUERY_BLOCKS, D_LANG, LATENT, registry)
        pair_blocks = sorted({n.split(".")[1] for n in registry if n.startswith("qgraph.phi")})
        assert pair_blocks == ["phi_qa", "phi_qh", "phi_qo"]


# the slots that share a block, in SLOTS order: single_query's query-pair maps
# each fill both pair slots of one node kind
TIES = {
    "full": [[slot] for slot in SLOTS],
    "single_query": [["phi_sva", "phi_vna"], ["phi_sno", "phi_vno"], ["phi_snh", "phi_svh"], *([s] for s in SLOTS[6:])],
}


class TestBlockTables:
    @pytest.mark.parametrize(
        "variant, blocks", [("full", FULL_BLOCKS), ("single_query", SINGLE_QUERY_BLOCKS)], ids=["full", "single_query"]
    )
    def test_every_slot_holds_one_registered_block(self, variant, blocks):
        registry = {}
        p = create_graph(np.random.default_rng(0), blocks, D_LANG, LATENT, registry)
        assert sorted(p) == sorted(SLOTS)
        widths = {"phi": D_LANG + LATENT, "msg": 2 * LATENT, "m": LATENT}
        for slot, pm in p.items():
            assert type(pm) is PairMap and pm.w.data.shape == (widths[slot.split("_")[0]], LATENT), slot
        shared = {}
        for slot in SLOTS:
            shared.setdefault(id(p[slot]), []).append(slot)
        assert list(shared.values()) == TIES[variant]
        # the registry holds each block once, its w then its b, under the table's names
        prefix, table = blocks
        assert list(registry) == [f"{prefix}.{name}.{k}" for name in table for k in "wb"]
        tensors = (t for slots in table.values() for t in (p[slots[0]].w, p[slots[0]].b))
        assert all(a is b for a, b in zip(registry.values(), tensors, strict=True))


class TestFoldTables:
    """The tables the folded step and its backward read, checked without central differences."""

    def test_every_folded_block_is_its_named_product(self):
        p, _ = make_params(seed=39)
        fold = GraphWeights(p).fold
        assert list(fold) == list(FOLDS)
        for inp, entries in FOLDS.items():
            assert fold[inp].shape == (len(entries) * LATENT, LATENT)
            for i, (_, pair, msg, half) in enumerate(entries):
                w_x = p[pair].w.data[D_LANG:]
                m_half = p[msg].w.data[half * LATENT : (half + 1) * LATENT]
                np.testing.assert_array_equal(fold[inp][i * LATENT : (i + 1) * LATENT], (w_x @ m_half).T, err_msg=inp)

    def test_rows_slices_and_slots_agree(self):
        rows = range(len(ROWS))
        for inp, entries in FOLDS.items():
            assert list(rows[TAKES[inp]]) == [row for row, *_ in entries], inp
        # a kind's messages are the rows whose first half reads it
        for kind, messages in (("a", A_MESSAGES), ("h", TAKES["h"]), ("o", TAKES["o"])):
            assert [row for row, (_, (_, x), _) in enumerate(ROWS) if x == kind] == list(rows[messages]), kind

        def slots(table):
            return {slot for msg, *halves in table for slot in (msg, *(pair for pair, _ in halves))}

        folded = {slot for entries in FOLDS.values() for _, pair, msg, _ in entries for slot in (pair, msg)}
        assert folded | slots(ROWS) | set(UPDATES.values()) == set(SLOTS)
        # the last iteration reads the activity's rows and update alone
        assert slots(ROWS[A_MESSAGES]) | {UPDATES["a"]} == set(LAST_SLOTS)


class TestNoObjectNode:
    def test_object_sums_are_zero(self):
        np.testing.assert_array_equal(
            SortedSegments(np.zeros(0, dtype=np.intp), 2, "ids").sum(np.ones((LATENT, 0)), 1), np.zeros((LATENT, 2))
        )
        p, registry = make_params(seed=25)
        a0, h0, o0, sv, sn, vn = make_instance(seed=26, J=0)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        ra, rh, ro = oracle(a0, h0, o0, sv, sn, vn, registry, 2)
        np.testing.assert_allclose(a, ra, atol=1e-12)
        np.testing.assert_allclose(h, rh, atol=1e-12)
        assert o.shape == (0, LATENT)
        assert_independent_of(("phi_sno", "phi_vno"), a0, h0, o0, sv, sn, vn, p, seed=32)


class TestNoGraphMap:
    def test_one_node_with_closed_form_gradients(self):
        rng = np.random.default_rng(1)
        p = PairMap.create(rng, 5, 4, {}, "nograph")
        x = rng.normal(size=(6, 5))
        g = rng.normal(size=(6, 4))
        with GradientTape() as tape:
            out = project(x, p)
            assert len(tape) == 1 and out._inputs == (p.w, p.b)  # the features are constants
            ad.backward(weighted_sum(out, g))
        want_w, want_b = ref_nograph_grad(x, g)
        np.testing.assert_allclose(p.w.grad, want_w, rtol=0, atol=1e-12 * np.abs(want_w).max())
        np.testing.assert_allclose(p.b.grad, want_b, rtol=0, atol=1e-12 * np.abs(want_b).max())


def test_gate_caches_only_what_its_backward_cannot_rebuild():
    rng = np.random.default_rng(31)
    m = PairMap.create(rng, 4, 4, {}, "gate")
    left, right, x0 = (rng.normal(size=(4, 3)) for _ in range(3))
    new, cache = _gate(left, right, m, x0, keep=True)
    # left ⊙ right is formed again by the backward, so the tape does not hold it
    assert len(cache) == 4
    assert cache[0] is left and cache[1] is right and cache[3] is new
    assert cache[2].tobytes() == (m.w.data.T @ (left * right) + m.b.data.T).tobytes()
    assert _gate(left, right, m, x0, keep=False)[1] is None
