import tracemalloc

import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, Tensor
from momentgraph.errors import DimensionError, InputError
from momentgraph.init import glorot
from momentgraph.text import (
    HEADS,
    GruParams,
    TextEncoderParams,
    Vocabulary,
    attend_heads,
    bigru_forward,
    encode_query,
    pool_query,
    tokenize,
)

from reference_impls import (
    fd_grad,
    gru_param_arrays,
    ref_attention,
    ref_attention_grad,
    ref_bigru,
    ref_bigru_grad,
    ref_gru_sequence,
)
from segment_maps import seq_map
from tape_sum import weighted_sum


def word_ids(vocab, tokens):
    return np.array([vocab.index(tok) for tok in tokens], dtype=np.intp)


def pooled(params, ids):
    """pool_query over the encoder's BiGRU contexts of the queries ids: the q its heads read."""
    words = seq_map([len(i) for i in ids])
    embeddings = ad.gather_rows(params.embedding, np.concatenate(ids))
    return pool_query(bigru_forward(embeddings, params.gru_fwd, params.gru_bwd, words), words)


class TestTokenizeAndVocab:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Person opens the DOOR!") == ["person", "opens", "the", "door"]

    def test_tokenize_keeps_apostrophes_and_digits(self):
        assert tokenize("it's frame 12") == ["it's", "frame", "12"]

    def test_known_token_index(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        # specials occupy 0 and 1; insertion order after that
        assert vocab.index("d") == 5
        row = ad.gather_rows(Tensor(np.arange(12).reshape(6, 2)), [vocab.index("d")])
        np.testing.assert_array_equal(row.data, [[10, 11]])

    def test_unknown_token_falls_back_to_unk(self):
        vocab = Vocabulary(["a"])
        assert vocab.index("zzz") == 0

    def test_tokens_round_trip(self):
        vocab = Vocabulary(["walk", "run"])
        again = Vocabulary(vocab.tokens()[2:])
        assert again.index("run") == vocab.index("run")


class TestEmbedding:
    def test_two_token_query_rows(self):
        vocab = Vocabulary(["open", "door"])
        table = Tensor(np.arange(20.0).reshape(4, 5))
        out = ad.gather_rows(table, word_ids(vocab, ["open", "door"]))
        assert out.data.shape == (2, 5)
        np.testing.assert_array_equal(out.data[0], table.data[vocab.index("open")])
        np.testing.assert_array_equal(out.data[1], table.data[vocab.index("door")])

    def test_repeated_token_accumulates_both_gradients(self):
        vocab = Vocabulary(["open", "door"])
        rng = np.random.default_rng(7)
        table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weights = rng.normal(size=(3, 3))
        ids = word_ids(vocab, ["open", "door", "open"])

        def loss():
            return float((ad.gather_rows(table, ids).data * weights).sum())

        with GradientTape():
            ad.backward(weighted_sum(ad.gather_rows(table, ids), weights))
        np.testing.assert_allclose(table.grad, fd_grad(loss, table.data), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(table.grad[vocab.index("open")], weights[0] + weights[2], atol=1e-15)
        np.testing.assert_array_equal(table.grad[[0, 1]], 0.0)


class TestGru:
    def _params(self, d_in=3, hidden=4, seed=0):
        return GruParams.create(np.random.default_rng(seed), d_in, hidden, {}, "t")

    def test_create_stacks_the_per_gate_draws(self):
        registry = {}
        p = GruParams.create(np.random.default_rng(9), 3, 4, registry, "t")
        assert list(registry) == ["t.w", "t.u", "t.b"]
        assert all(registry[f"t.{k}"] is getattr(p, k) for k in "wub")
        # the per-gate glorot draws, gate by gate, input before recurrent
        rng = np.random.default_rng(9)
        wz, uz, wr, ur, wh, uh = (
            rng.uniform(-np.sqrt(6.0 / (fan_in + 4)), np.sqrt(6.0 / (fan_in + 4)), size=(fan_in, 4))
            for fan_in in (3, 4, 3, 4, 3, 4)
        )
        assert p.w.data.tobytes() == np.hstack([wz, wr, wh]).tobytes()
        assert p.u.data.tobytes() == np.hstack([uz, ur, uh]).tobytes()
        assert p.b.data.tobytes() == np.zeros((1, 12)).tobytes()

    def test_zero_input_fixed_point(self):
        out = bigru_forward(Tensor(np.zeros((4, 3))), self._params(seed=1), self._params(seed=2))
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_length_one_bigru_is_two_cells(self):
        fwd, bwd = self._params(seed=1), self._params(seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 3)))
        out = bigru_forward(x, fwd, bwd)

        def cell_from_zero(p):
            # from h = 0 the reset gate and the u block drop out: h = z * cand,
            # with z in the first four columns and the candidate in the last four
            z = 1.0 / (1.0 + np.exp(-(x.data @ p.w.data[:, :4] + p.b.data[:, :4])))
            return z * np.tanh(x.data @ p.w.data[:, 8:] + p.b.data[:, 8:])

        np.testing.assert_array_equal(out.data, np.concatenate([cell_from_zero(fwd), cell_from_zero(bwd)], axis=1))

    def test_bigru_matches_reference_loops(self):
        fwd, bwd = self._params(seed=4), self._params(seed=5)
        x = np.random.default_rng(6).normal(size=(3, 3))
        out = bigru_forward(Tensor(x), fwd, bwd)
        ref = ref_bigru(x, gru_param_arrays(fwd), gru_param_arrays(bwd))
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    @staticmethod
    def _half(out, reverse):
        """The forward (columns :4) or backward (columns 4:) direction's states."""
        return out[:, 4:] if reverse else out[:, :4]

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_reference(self, m, reverse):
        fwd, bwd = self._params(seed=m), self._params(seed=m + 20)
        x = np.random.default_rng(10 + m).normal(size=(m, 3))
        out = bigru_forward(Tensor(x), fwd, bwd)
        ref = ref_gru_sequence(x, gru_param_arrays(bwd if reverse else fwd), reverse=reverse)
        assert out.data.shape == (m, 8)
        np.testing.assert_allclose(self._half(out.data, reverse), ref, rtol=0, atol=1e-12)

    def _check_gradients(self, lengths, x_feeds_another_op, seed):
        """Central differences on every entry of x and of both directions' w, u and b."""
        rng = np.random.default_rng(seed)
        fwd, bwd = self._params(seed=seed + 1), self._params(seed=seed + 2)
        n = sum(lengths)
        x = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        weights, x_weights = rng.normal(size=(n, 8)), rng.normal(size=(n, 3))

        def loss():
            other = (x.data * x_weights).sum() if x_feeds_another_op else 0.0
            return float((bigru_forward(x, fwd, bwd, seq_map(lengths)).data * weights).sum() + other)

        with GradientTape():
            total = weighted_sum(bigru_forward(x, fwd, bwd, seq_map(lengths)), weights)
            if x_feeds_another_op:
                # recorded after the layer, so its gradient reaches x first
                total = ad.add(total, weighted_sum(x, x_weights))
            ad.backward(total)
        blocks = {"x": x, **{f"{d}.{k}": t for d, p in (("fwd", fwd), ("bwd", bwd)) for k, t in vars(p).items()}}
        assert len(blocks) == 7  # x and each direction's stacked w, u and b
        for name, t in blocks.items():
            fd = fd_grad(loss, t.data)
            rel = np.linalg.norm(t.grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-6, f"{name}: relative error {rel:.3g}"

    @pytest.mark.parametrize("x_feeds_another_op", [False, True])
    def test_gradients_match_finite_differences(self, x_feeds_another_op):
        self._check_gradients((6,), x_feeds_another_op, seed=11)

    def test_empty_input_is_typed_error(self):
        with pytest.raises(InputError, match="at least one row"):
            bigru_forward(Tensor(np.zeros((0, 3))), self._params(), self._params(seed=1))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ragged_batch_matches_reference_per_sequence(self, reverse):
        fwd, bwd = self._params(seed=13), self._params(seed=17)
        lengths = (1, 5, 3)
        x = np.random.default_rng(14).normal(size=(sum(lengths), 3))
        out = self._half(bigru_forward(Tensor(x), fwd, bwd, seq_map(lengths)).data, reverse)
        start = 0
        for m in lengths:
            ref = ref_gru_sequence(x[start : start + m], gru_param_arrays(bwd if reverse else fwd), reverse=reverse)
            np.testing.assert_allclose(out[start : start + m], ref, rtol=0, atol=1e-12)
            start += m

    @pytest.mark.parametrize("x_feeds_another_op", [False, True])
    def test_ragged_batch_gradients_match_finite_differences(self, x_feeds_another_op):
        self._check_gradients((2, 5, 1, 3), x_feeds_another_op, seed=15)

    def test_gradients_match_closed_form_bptt(self):
        # a ragged batch with a length-1 sequence and two equal lengths; x also feeds another op
        rng = np.random.default_rng(21)
        lengths = (4, 1, 6, 4)
        fwd, bwd = self._params(seed=22), self._params(seed=23)
        n = sum(lengths)
        x = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        weights, x_weights = rng.normal(size=(n, 8)), rng.normal(size=(n, 3))
        with GradientTape():
            out = bigru_forward(x, fwd, bwd, seq_map(lengths))
            # keep the eight gradients the node hands its inputs, x once per direction
            node_backward, handed = out._backward, []
            out._backward = lambda g: handed.extend(node_backward(g)) or handed
            # recorded after the layer, so its gradient reaches x first
            ad.backward(ad.add(weighted_sum(out, weights), weighted_sum(x, x_weights)))
        want = ref_bigru_grad(x.data, lengths, gru_param_arrays(fwd), gru_param_arrays(bwd), weights)
        names = [f"{d}.{k}" for d in ("bwd", "fwd") for k in "xwub"]  # the node's inputs order
        assert len(handed) == len(names) == 8
        for name, got in zip(names, handed):
            np.testing.assert_allclose(got, want[name], rtol=0, atol=1e-12 * np.abs(want[name]).max(), err_msg=name)
        want_x = want["bwd.x"] + want["fwd.x"] + x_weights
        np.testing.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12 * np.abs(want_x).max())

    def test_backward_leaves_input_and_output_untouched(self):
        fwd, bwd = self._params(seed=24), self._params(seed=25)
        lengths = (3, 1, 5)
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(sum(lengths), 3)), requires_grad=True)
        x_before = x.data.copy()
        untaped = bigru_forward(Tensor(x.data), fwd, bwd, seq_map(lengths)).data.copy()
        with GradientTape():
            out = bigru_forward(x, fwd, bwd, seq_map(lengths))
            out_before = out.data.copy()
            ad.backward(weighted_sum(out, rng.normal(size=(sum(lengths), 8))))
        assert x.data.tobytes() == x_before.tobytes()
        assert out.data.tobytes() == out_before.tobytes()
        # the taped and the untaped forward share one loop, so they agree to the bit
        assert out.data.tobytes() == untaped.tobytes()

    def test_taped_layer_keeps_only_its_output_gates_and_candidates(self):
        n, d_in, hidden = 200, 32, 16
        fwd, bwd = self._params(d_in, hidden, seed=27), self._params(d_in, hidden, seed=28)
        x = Tensor(np.random.default_rng(29).normal(size=(n, d_in)), requires_grad=True)
        segments = seq_map((60, 50, 40, 30, 20))
        segments.packed  # built once per map and kept by it, not by the layer
        tracemalloc.start()
        try:
            with GradientTape():
                before = tracemalloc.get_traced_memory()[0]
                out = bigru_forward(x, fwd, bwd, segments)
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.shape == (n, 2 * hidden)
        # the output (n x 2·hidden), the [z | r] gates (2 x n x 2·hidden) and the
        # candidates (2 x n x hidden), in doubles; the gathered input or the
        # previous states would add 2·n·d_in or 2·n·hidden more
        assert kept <= 8 * n * 8 * hidden + 32 * 1024

    def test_zero_length_sequence_is_typed_error(self):
        with pytest.raises(InputError, match="at least one row"):
            bigru_forward(Tensor(np.zeros((4, 3))), self._params(), self._params(seed=1), seq_map((1, 0, 3)))

    def test_row_count_mismatch_is_typed_error(self):
        with pytest.raises(DimensionError, match="the map has 5 rows, x has 4"):
            bigru_forward(Tensor(np.zeros((4, 3))), self._params(), self._params(seed=1), seq_map((2, 3)))

    def test_bigru_adds_one_tape_node(self):
        fwd, bwd = self._params(seed=1), self._params(seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=(9, 3)), requires_grad=True)
        with GradientTape() as tape:
            bigru_forward(x, fwd, bwd, seq_map((4, 5)))
            assert len(tape) == 1

    def test_no_per_row_tensors_without_tape(self, monkeypatch):
        fwd, bwd = self._params(seed=1), self._params(seed=2)
        x = Tensor(np.random.default_rng(3).normal(size=(9, 3)))
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        bigru_forward(x, fwd, bwd)
        assert len(built) == 1  # the layer's output


class TestPooling:
    def test_single_row(self):
        x = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(pool_query(x, seq_map([1])).data, [[1.0, 2.0]])

    def test_opposite_rows_cancel(self):
        x = Tensor([[1.0, -3.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(pool_query(x, seq_map([2])).data, [[0.0, 0.0]])

    def test_hand_mean(self):
        x = Tensor([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_array_equal(pool_query(x, seq_map([2])).data, [[2.0, 4.0]])
        # three queries stacked: each row is the mean of its own words only
        x = Tensor([[1.0, 3.0], [3.0, 5.0], [7.0, -1.0], [0.0, 2.0], [4.0, 4.0], [2.0, 0.0]])
        np.testing.assert_array_equal(pool_query(x, seq_map([2, 1, 3])).data, [[2.0, 4.0], [7.0, -1.0], [2.0, 2.0]])

    def test_map_of_another_row_count_is_dimension_error(self):
        # a 2-row map over 3 rows would pool rows 1 and 2 into the second query
        with pytest.raises(DimensionError, match="pool_query: 2 ids for 3 rows"):
            pool_query(Tensor(np.zeros((3, 2))), seq_map([1, 1]))

    def test_one_node_whose_gradient_is_upstream_over_length(self):
        rng = np.random.default_rng(4)
        lengths = [2, 1, 3]
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        g = rng.normal(size=(3, 3))
        with GradientTape() as tape:
            out = pool_query(x, seq_map(lengths))
            assert len(tape) == 1
            ad.backward(weighted_sum(out, g))
        # closed form: every word of query b gets g_b / len_b
        want = np.zeros((6, 3))
        row = 0
        for b, m in enumerate(lengths):
            for _ in range(m):
                want[row] = g[b] / m
                row += 1
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestAttention:
    def test_single_word_gets_weight_one(self):
        head = glorot(np.random.default_rng(0), 3, 2)
        q = Tensor([[0.5, -0.2]])
        outputs, weights = attend_heads(q, Tensor(np.ones((1, 3))), Tensor([[7.0, 8.0]]), [head], seq_map([1]))
        np.testing.assert_allclose(weights, [[1.0]])
        np.testing.assert_allclose(outputs[0].data, [[7.0, 8.0]])

    def test_identical_keys_give_uniform_weights(self):
        head = glorot(np.random.default_rng(1), 3, 2)
        emb = Tensor(np.tile([[0.3, -0.1, 0.2]], (4, 1)))
        _, weights = attend_heads(Tensor([[1.0, 2.0]]), emb, Tensor(np.eye(4)), [head], seq_map([4]))
        np.testing.assert_allclose(weights, np.full((1, 4), 0.25))

    @pytest.mark.parametrize("head_shape", [(4, 2), (3, 5)], ids=["rows", "columns"])
    def test_wrong_key_width_is_dimension_error(self, head_shape):
        head = Tensor(np.zeros(head_shape))
        with pytest.raises(DimensionError, match=f"a key matrix is {head_shape[0]} x {head_shape[1]}, "
                           "the embeddings are 3 wide and the queries 2"):
            attend_heads(Tensor([[0.5, -0.2]]), Tensor(np.ones((1, 3))), Tensor([[7.0, 8.0]]), [head], seq_map([1]))

    def test_map_of_another_row_count_is_dimension_error(self):
        head = glorot(np.random.default_rng(0), 3, 2)
        with pytest.raises(DimensionError, match="attend_heads: 2 ids for 3 embeddings and 3 contexts"):
            attend_heads(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 3))), Tensor(np.ones((3, 2))), [head], seq_map([1, 1]))

    def test_hand_softmax_logits(self):
        # engineered so the three key logits are exactly [1, 0, 0]
        head = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        q = Tensor([[1.0, 0.0]])
        emb = Tensor(np.eye(3))
        ctx = Tensor(np.eye(3))
        outputs, weights = attend_heads(q, emb, ctx, [head], seq_map([3]))
        expected0 = np.e / (np.e + 2.0)  # 0.57611...
        assert weights[0, 0] == pytest.approx(expected0, abs=1e-12)
        np.testing.assert_allclose(outputs[0].data[0], weights[0], atol=1e-12)

    def test_weights_normalized_output_in_hull(self):
        rng = np.random.default_rng(2)
        heads = [glorot(rng, 4, 6) for _ in range(3)]
        emb = Tensor(rng.normal(size=(5, 4)))
        ctx = Tensor(rng.normal(size=(5, 6)))
        outputs, weights = attend_heads(Tensor(rng.normal(size=(1, 6))), emb, ctx, heads, seq_map([5]))
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)
        assert (weights >= 0).all()
        for out in outputs:
            assert (out.data <= ctx.data.max(axis=0) + 1e-12).all()
            assert (out.data >= ctx.data.min(axis=0) - 1e-12).all()


    def test_batched_queries_match_reference_per_query(self):
        rng = np.random.default_rng(3)
        heads = [glorot(rng, 4, 6) for _ in range(3)]
        lengths = [3, 1, 4]
        q = rng.normal(size=(3, 6))
        emb = rng.normal(size=(8, 4))
        ctx = rng.normal(size=(8, 6))
        outputs, weights = attend_heads(Tensor(q), Tensor(emb), Tensor(ctx), heads, seq_map(lengths))
        assert weights.shape == (3, 8)
        for k, head in enumerate(heads):
            assert outputs[k].data.shape == (3, 6)
            start = 0
            for b, m in enumerate(lengths):
                words = slice(start, start + m)
                ref_out, ref_w = ref_attention(q[b : b + 1], emb[words], ctx[words], head.data)
                np.testing.assert_allclose(outputs[k].data[b : b + 1], ref_out, rtol=0, atol=1e-12)
                np.testing.assert_allclose(weights[k, words], ref_w, rtol=0, atol=1e-12)
                start += m

    def test_gradients_match_closed_form(self):
        # a ragged batch with a one-word query; every head feeds the loss with its own weights
        rng = np.random.default_rng(5)
        lengths = [3, 1, 4]
        q = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        emb = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        ctx = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        heads = [glorot(rng, 4, 6) for _ in range(3)]
        gs = [rng.normal(size=(3, 5)) for _ in heads]
        with GradientTape() as tape:
            outputs, _ = attend_heads(q, emb, ctx, heads, seq_map(lengths))
            assert len(tape) == len(heads)  # one node per head
            total = weighted_sum(outputs[0], gs[0])
            for out, g in zip(outputs[1:], gs[1:]):
                total = ad.add(total, weighted_sum(out, g))
            ad.backward(total)
        want = {"q": np.zeros_like(q.data), "emb": np.zeros_like(emb.data), "ctx": np.zeros_like(ctx.data)}
        for k, (head, g) in enumerate(zip(heads, gs)):
            want_head = np.zeros_like(head.data)
            start = 0
            for b, m in enumerate(lengths):
                words = slice(start, start + m)
                dq, de, dc, dk = ref_attention_grad(q.data[b : b + 1], emb.data[words], ctx.data[words], head.data, g[b : b + 1])
                want["q"][b : b + 1] += dq
                want["emb"][words] += de
                want["ctx"][words] += dc
                want_head += dk
                start += m
            np.testing.assert_allclose(head.grad, want_head, rtol=0, atol=1e-12 * np.abs(want_head).max(), err_msg=f"head {k}")
        for name, t in (("q", q), ("emb", emb), ("ctx", ctx)):
            np.testing.assert_allclose(t.grad, want[name], rtol=0, atol=1e-12 * np.abs(want[name]).max(), err_msg=name)


class TestEncodeQuery:
    def test_shapes_and_weight_rows(self):
        vocab = Vocabulary(["person", "opens", "door"])
        params = TextEncoderParams.create(np.random.default_rng(0), len(vocab), 5, 4, {})
        ids = [word_ids(vocab, ["person", "opens", "door"])]
        views = encode_query(ids, params)
        q = pooled(params, ids)
        assert q.data.shape == (1, 8)
        assert len(views) == len(HEADS)
        for v in views:
            assert v.data.shape == (1, 8)
        # the heads' weights over the encoder's own words sum to 1 per head
        emb = ad.gather_rows(params.embedding, ids[0])
        outputs, weights = attend_heads(q, emb, bigru_forward(emb, params.gru_fwd, params.gru_bwd), params.heads, seq_map([3]))
        assert [v.data.tobytes() for v in views] == [v.data.tobytes() for v in outputs]
        assert weights.shape == (3, 3)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)

    def test_batch_rows_equal_single_query_encodings(self):
        vocab = Vocabulary(["person", "opens", "door", "the"])
        params = TextEncoderParams.create(np.random.default_rng(2), len(vocab), 5, 4, {})
        queries = [["person", "opens", "the", "door"], ["door"], ["the", "person"]]
        ids = [word_ids(vocab, tokens) for tokens in queries]
        batch = [pooled(params, ids), *encode_query(ids, params)]
        assert [t.data.shape for t in batch] == [(3, 8)] * (1 + len(HEADS))
        for b in range(len(queries)):
            one = [pooled(params, ids[b : b + 1]), *encode_query(ids[b : b + 1], params)]
            for got, want in zip(batch, one):
                np.testing.assert_allclose(got.data[b : b + 1], want.data, rtol=1e-12)

    def test_empty_query_in_batch_rejected(self):
        vocab = Vocabulary(["door"])
        params = TextEncoderParams.create(np.random.default_rng(3), len(vocab), 5, 4, {})
        with pytest.raises(InputError, match="empty query"):
            encode_query([word_ids(vocab, ["door"]), word_ids(vocab, [])], params)

    def test_identical_heads_collapse(self):
        vocab = Vocabulary(["open", "door"])
        registry = {}
        params = TextEncoderParams.create(np.random.default_rng(1), len(vocab), 5, 4, registry)
        sv_key, sn_key, vn_key = params.heads
        sn_key.data = sv_key.data.copy()
        vn_key.data = sv_key.data.copy()
        sv, sn, vn = encode_query([word_ids(vocab, ["open", "door"])], params)
        np.testing.assert_array_equal(sv.data, sn.data)
        np.testing.assert_array_equal(sv.data, vn.data)

    def test_encoder_without_heads_pools_only(self):
        vocab = Vocabulary(["open", "door"])
        registry = {}
        params = TextEncoderParams.create(np.random.default_rng(1), len(vocab), 5, 4, registry, heads=())
        assert params.heads == [] and not any(name.startswith("text.head") for name in registry)
        ids = [word_ids(vocab, ["open", "door"]), word_ids(vocab, ["door"])]
        with GradientTape() as tape:
            views = encode_query(ids, params)
        # its pooled query stands in for every head's view
        q = pooled(params, ids)
        assert len(views) == len(HEADS) and all(v is views[0] for v in views)
        assert views[0].data.tobytes() == q.data.tobytes()
        assert q.data.shape == (2, 8)
        # embedding lookup, the BiGRU layer, pool: nothing for heads
        assert len(tape) == 3
