import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import Tensor
from momentgraph.errors import ConfigError
from momentgraph.graph import (
    VARIANTS,
    PairMap,
    SpatialGraphParams,
    check_variant,
    create_single_query_params,
    run_message_passing_sequence,
)

from reference_impls import ref_graph_iteration

D_LANG = 6
LATENT = 5


def make_params(seed=0, prefix="graph"):
    registry = {}
    p = SpatialGraphParams.create(np.random.default_rng(seed), D_LANG, LATENT, registry, prefix)
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


def one_frame(a0, h0, o0, sv, sn, vn, p, n_iters):
    """The fused path on a single timestep: every row belongs to frame 0."""
    h_seg = np.zeros(h0.data.shape[0], dtype=np.intp)
    o_seg = np.zeros(o0.data.shape[0], dtype=np.intp)
    return run_message_passing_sequence(a0, h0, o0, h_seg, o_seg, sv, sn, vn, p, n_iters)


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
        pm = getattr(p, name)
        pm.w.data = rng.normal(size=pm.w.data.shape)
        pm.b.data = rng.normal(size=pm.b.data.shape)
    after = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
    for x, y in zip(before, after):
        assert x.data.tobytes() == y.data.tobytes()


class TestVariants:
    def test_known_variants_pass(self):
        for v in VARIANTS:
            assert check_variant(v) == v

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="no_such"):
            check_variant("no_such")


class TestPairMap:
    def test_zero_weights_give_bias(self):
        pm = PairMap(w=Tensor(np.zeros((4, 3))), b=Tensor([[1.0, 2.0, 3.0]]))
        out = pm(Tensor(np.random.default_rng(0).normal(size=(2, 4))))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_selector_weights_pass_observation(self):
        w = np.zeros((4, 2))
        w[2:, :] = np.eye(2)  # select the observation half of [lang ; obs]
        pm = PairMap(w=Tensor(w), b=Tensor(np.zeros((1, 2))))
        out = pm(Tensor([[9.0, 9.0, 1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        pm = PairMap.create(rng, 4, 3, {}, "pm")
        x = rng.normal(size=(5, 4))
        out = pm(Tensor(x))
        for i in range(5):
            np.testing.assert_allclose(out.data[i], x[i] @ pm.w.data + pm.b.data[0], atol=1e-12)


class TestMessagePassing:
    def test_empty_human_set_sums_to_zero(self):
        # an empty segment sums to an exact zero row, so the human pair maps
        # cannot reach the activity or object latents
        np.testing.assert_array_equal(
            ad.segment_sum(Tensor(np.ones((2, LATENT))), [1, 1], 3).data[[0, 2]], np.zeros((2, LATENT))
        )
        p, registry = make_params()
        a0, h0, o0, sv, sn, vn = make_instance(K=0)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        ra, rh, ro = oracle(a0, h0, o0, sv, sn, vn, registry, 2)
        np.testing.assert_allclose(a.data, ra, atol=1e-12)
        np.testing.assert_allclose(o.data, ro, atol=1e-12)
        assert h.data.shape == (0, LATENT)
        assert_independent_of(("phi_snh", "phi_svh"), a0, h0, o0, sv, sn, vn, p, seed=30)

    def test_singletons_degenerate_to_lone_pair(self):
        rows = Tensor(np.random.default_rng(31).normal(size=(2, LATENT)))
        sums = ad.segment_sum(rows, [1, 0], 2)
        np.testing.assert_array_equal(sums.data, rows.data[[1, 0]])
        p, registry = make_params(seed=2)
        a0, h0, o0, sv, sn, vn = make_instance(seed=3, K=1, J=1)
        out = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        for got, want in zip(out, oracle(a0, h0, o0, sv, sn, vn, registry, 2)):
            np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_iteration_matches_transcription_oracle(self):
        p, registry = make_params(seed=4)
        a0, h0, o0, sv, sn, vn = make_instance(seed=5)
        for n_iters in (1, 2):
            out = one_frame(a0, h0, o0, sv, sn, vn, p, n_iters)
            for got, want in zip(out, oracle(a0, h0, o0, sv, sn, vn, registry, n_iters)):
                np.testing.assert_allclose(got.data, want, atol=1e-10)

    def test_update_zero_messages_give_half(self):
        p, _ = make_params(seed=6)
        for pm in (p.m_a, p.m_h, p.m_o):
            pm.w.data[:] = 0.0
            pm.b.data[:] = 0.0
        a0, h0, o0, sv, sn, vn = make_instance(seed=7)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 1)
        np.testing.assert_array_equal(a.data, np.full((1, LATENT), 0.5))
        np.testing.assert_array_equal(h.data, np.full((2, LATENT), 0.5))
        np.testing.assert_array_equal(o.data, np.full((3, LATENT), 0.5))

    def test_latents_in_unit_interval_after_update(self):
        p, _ = make_params(seed=8)
        a0, h0, o0, sv, sn, vn = make_instance(seed=9)
        for t in one_frame(a0, h0, o0, sv, sn, vn, p, 3):
            assert ((t.data > 0.0) & (t.data < 1.0)).all()

    def test_zero_iterations_identity(self):
        p, _ = make_params(seed=10)
        a0, h0, o0, sv, sn, vn = make_instance(seed=11)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 0)
        assert a is a0 and h is h0 and o is o0

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
        np.testing.assert_allclose(a_p.data, a.data, atol=1e-12)
        np.testing.assert_allclose(h_p.data, h.data, atol=1e-12)
        np.testing.assert_allclose(o_p.data, o.data[perm], atol=1e-12)


class TestBatchedSequence:
    def test_matches_per_timestep(self):
        p, registry = make_params(seed=17)
        rng = np.random.default_rng(18)
        counts = [(2, 3), (0, 1), (1, 0), (2, 2), (0, 0)]
        t = len(counts)
        # one linguistic row per frame, as when frames of several videos share a batch
        sv, sn, vn = (Tensor(rng.normal(size=(t, D_LANG))) for _ in range(3))
        a0 = Tensor(rng.normal(size=(t, LATENT)))
        h_rows = [rng.normal(size=(k, LATENT)) for k, _ in counts]
        o_rows = [rng.normal(size=(j, LATENT)) for _, j in counts]
        h0 = Tensor(np.concatenate(h_rows, axis=0))
        o0 = Tensor(np.concatenate(o_rows, axis=0))
        h_seg = np.concatenate([np.full(k, i) for i, (k, _) in enumerate(counts)])
        o_seg = np.concatenate([np.full(j, i) for i, (_, j) in enumerate(counts)])
        a, h, o = run_message_passing_sequence(a0, h0, o0, h_seg, o_seg, sv, sn, vn, p, 3)
        for i in range(t):
            frame = slice(i, i + 1)
            ra, rh, ro = oracle(
                Tensor(a0.data[frame]), Tensor(h_rows[i]), Tensor(o_rows[i]),
                Tensor(sv.data[frame]), Tensor(sn.data[frame]), Tensor(vn.data[frame]), registry, 3,
            )
            np.testing.assert_allclose(a.data[i : i + 1], ra, atol=1e-12)
            np.testing.assert_allclose(h.data[h_seg == i], rh, atol=1e-12)
            np.testing.assert_allclose(o.data[o_seg == i], ro, atol=1e-12)

    def test_zero_iterations_returns_inputs(self):
        p, _ = make_params(seed=19)
        a0 = Tensor(np.random.default_rng(20).normal(size=(3, LATENT)))
        empty = Tensor(np.zeros((0, LATENT)))
        seg = np.zeros(0, dtype=int)
        sv = sn = vn = Tensor(np.zeros((3, D_LANG)))
        a, h, o = run_message_passing_sequence(a0, empty, empty, seg, seg, sv, sn, vn, p, 0)
        assert a is a0 and h is empty and o is empty


class TestSingleQueryVariant:
    def test_tied_parameters_reproduce_full_variant(self):
        registry = {}
        sq = create_single_query_params(np.random.default_rng(21), D_LANG, LATENT, registry)
        a0, h0, o0, _, _, _ = make_instance(seed=22)
        q = Tensor(np.random.default_rng(23).normal(size=(1, D_LANG)))
        # an independently created full-variant parameter set whose pair maps
        # are overwritten so both directions of each edge carry the same values
        full, _ = make_params(seed=24)
        ties = {
            "phi_sno": sq.phi_sno, "phi_vno": sq.phi_sno,
            "phi_sva": sq.phi_sva, "phi_vna": sq.phi_sva,
            "phi_snh": sq.phi_snh, "phi_svh": sq.phi_snh,
            "msg_sv": sq.msg_sv, "msg_vn": sq.msg_vn, "msg_sn": sq.msg_sn,
            "m_o": sq.m_o, "m_a": sq.m_a, "m_h": sq.m_h,
        }
        for slot, src in ties.items():
            getattr(full, slot).w.data = src.w.data.copy()
            getattr(full, slot).b.data = src.b.data.copy()
        out_sq = one_frame(a0, h0, o0, q, q, q, sq, 2)
        out_full = one_frame(a0, h0, o0, q, q, q, full, 2)
        for x, y in zip(out_sq, out_full):
            np.testing.assert_array_equal(x.data, y.data)

    def test_registry_has_three_pair_blocks(self):
        registry = {}
        create_single_query_params(np.random.default_rng(24), D_LANG, LATENT, registry)
        pair_blocks = sorted({n.split(".")[1] for n in registry if n.startswith("qgraph.phi")})
        assert pair_blocks == ["phi_qa", "phi_qh", "phi_qo"]


class TestNoObjectNode:
    def test_object_sums_are_zero(self):
        np.testing.assert_array_equal(
            ad.segment_sum(Tensor(np.ones((0, LATENT))), np.zeros(0, dtype=np.intp), 2).data, np.zeros((2, LATENT))
        )
        p, registry = make_params(seed=25)
        a0, h0, o0, sv, sn, vn = make_instance(seed=26, J=0)
        a, h, o = one_frame(a0, h0, o0, sv, sn, vn, p, 2)
        ra, rh, ro = oracle(a0, h0, o0, sv, sn, vn, registry, 2)
        np.testing.assert_allclose(a.data, ra, atol=1e-12)
        np.testing.assert_allclose(h.data, rh, atol=1e-12)
        assert o.data.shape == (0, LATENT)
        assert_independent_of(("phi_sno", "phi_vno"), a0, h0, o0, sv, sn, vn, p, seed=32)
