"""Unit tests for the tensor engine and its primitives."""

import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, SortedSegments, Tensor
from momentgraph.errors import ContractError, DimensionError, InputError
from momentgraph.graph import PairMap, project
from momentgraph.temporal import softmax_head
from momentgraph.text import attend_heads, pool_query
from momentgraph.visual import NodeEmbedParams, embed_nodes

from reference_impls import fd_grad, ref_segment_softmax
from tape_sum import matmul, weighted_sum


def check_op(build, *arrays, rtol=1e-6):
    """Compare analytic gradients of sum(build(tensors)) against finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with GradientTape():
        out = weighted_sum(build(*tensors))
        ad.backward(out)
    for t, a in zip(tensors, arrays):
        def f(t=t):
            return float(build(*tensors).data.sum())
        fd = fd_grad(f, t.data)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=1e-7)


def segments(ids, n_segments):
    return SortedSegments(ids, n_segments, "ids")


def nograph_map(w, b, x):
    """The no-graph map x·w + b with w and b as its weight and bias."""
    return project(np.asarray(x, dtype=np.float64), PairMap(w=w, b=b))


class TestMatmul:
    """The x·w products the tape records: the no-graph map x·w + b and softmax_head's logits."""

    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(nograph_map(Tensor(np.eye(2)), Tensor(np.zeros((1, 2))), x).data, x)

    def test_selector_row(self):
        out = nograph_map(Tensor([[2.0], [5.0]]), Tensor([[0.0]]), [[1.0, 0.0]])
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        check_op(lambda w, b: nograph_map(w, b, x), rng.normal(size=(4, 2)), rng.normal(size=(1, 2)))

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionError, match="a map of shape \\(4, 1\\) for rows of shape \\(2, 3\\)"):
            softmax_head(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 1))), segments([0, 0], 1))
        with pytest.raises(DimensionError, match="the map takes 4 columns"):
            nograph_map(Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 2))), np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            softmax_head(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))), segments([0, 0, 0], 1))
        with pytest.raises(DimensionError):
            nograph_map(Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 2))), np.zeros(3))


def embed_activity(w):
    """The activity node's embedding, tanh(x·w + b), with w as its weight."""
    rng = np.random.default_rng(8)
    p = NodeEmbedParams.create(rng, w.data.shape[0], 2, w.data.shape[1], {})
    p.w_a, p.b_a.data = w, rng.normal(size=p.b_a.data.shape)
    return embed_nodes(rng.normal(size=(2, w.data.shape[0])), np.zeros((0, 2)), np.zeros((0, 2)), p)[0]


# attention operands around a 3 x 4 key matrix: two queries of 1 and 2 words
ATT_Q, ATT_E, ATT_C = (np.random.default_rng(9).normal(size=shape) for shape in [(2, 4), (3, 3), (3, 2)])


class TestElementwise:
    def test_softmax_symmetry(self):
        out = segments([0, 0, 0], 1).softmax(np.zeros((3, 1)))
        np.testing.assert_allclose(out, [[1 / 3], [1 / 3], [1 / 3]])

    def test_softmax_normalized_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 1)) * 10
        seg = np.repeat([0, 1], 5)
        s1 = segments(seg, 2).softmax(x)
        # each segment shifted by its own constant
        s2 = segments(seg, 2).softmax(x + np.where(seg == 0, 100.0, -50.0)[:, None])
        np.testing.assert_allclose(np.bincount(seg, weights=s1[:, 0]), 1.0)
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_segment_sum_empty_buckets_are_zero_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        out = SortedSegments([1, 1, 3, 3], 5, "ids").sum(x, 0)
        np.testing.assert_array_equal(out, [[0.0] * 3, x[0] + x[1], [0.0] * 3, x[2] + x[3], [0.0] * 3])

    def test_tanh_at_zero(self):
        # the node embedding's tanh: a zero input with the zero initial bias embeds to exact zeros
        p = NodeEmbedParams.create(np.random.default_rng(0), 3, 2, 4, {})
        a0 = embed_nodes(np.zeros((1, 3)), np.zeros((0, 2)), np.zeros((0, 2)), p)[0]
        assert a0.data[0, 0] == 0.0 and (a0.data == 0.0).all()

    def test_hadamard(self):
        # dropout is x times its inverted-scaling mask, entry by entry
        out = ad.dropout(Tensor([[1.0, 2.0, 3.0]]), 0.5, np.random.default_rng(0))
        mask = (np.random.default_rng(0).random((1, 3)) < 0.5) / 0.5
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]] * mask)

    @pytest.mark.parametrize(
        "op", [ad.add, lambda x, w: softmax_head(x, w, segments([0, 0], 1))], ids=["add", "mul"]
    )
    def test_operands_of_different_rank_are_dimension_error(self, op):
        with pytest.raises(DimensionError):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
        with pytest.raises(DimensionError):
            op(Tensor(np.ones(())), Tensor(np.ones((1, 1))))

    @pytest.mark.parametrize("shapes", [((2, 3), (1, 3)), ((2, 3), (3, 2)), ((1, 1), ())], ids=["row", "transposed", "scalar"])
    def test_add_of_unequal_shapes_is_dimension_error(self, shapes):
        # nothing broadcasts: one operand's shape of 1 is still another shape
        with pytest.raises(DimensionError, match="add: shapes"):
            ad.add(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])))

    def test_operands_of_one_rank_broadcast(self):
        # the no-graph map's 1 x k bias row broadcasts over the rows, so its gradient sums them
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        with GradientTape():
            ad.backward(weighted_sum(nograph_map(w, b, [[1.0, 0.0], [0.0, 1.0]]), [[2.0], [5.0]]))
        np.testing.assert_array_equal(w.grad, [[2.0] * 3, [5.0] * 3])
        np.testing.assert_array_equal(b.grad, [[7.0] * 3])

    def test_plus_takes_tensors_only(self):
        with pytest.raises(TypeError):
            Tensor([[1.0]]) + 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: embed_activity(x),
            lambda x: matmul(ad.add(x, x), Tensor([[-0.5], [1.0], [2.0], [0.25]])),
            lambda x: matmul(Tensor([[1.0, 2.0, -3.0]]), softmax_head(
                x, Tensor([[1.0], [-2.0], [0.5], [3.0]]), segments([0, 1, 1], 2))),
            lambda x: matmul(matmul(x, Tensor([[1.0, 0.5, -1.0], [0.0, 2.0, 1.0], [-0.5, 1.0, 0.0], [1.0, -1.0, 0.5]])), x),
            lambda x: attend_heads(Tensor(ATT_Q), Tensor(ATT_E), Tensor(ATT_C), [x], segments([0, 1, 1], 2))[0][0],
            lambda x: ad.dropout(x, 0.5, np.random.default_rng(3)),
            lambda x: pool_query(x, segments([0, 1, 1], 2)),
            lambda x: matmul(x, Tensor([[1.0, -2.0], [0.5, 0.0], [3.0, 1.0], [-1.0, 2.0]])),
            lambda x: ad.gather_rows(pool_query(x, segments([0, 0, 1], 2)), [1, 0, 1]),
            lambda x: ad.gather_rows(x, [2, 0, 0, 1]),
            lambda x: matmul(Tensor([[1.0, -2.0, 0.5]]), softmax_head(
                x, Tensor([[0.5], [1.0], [-1.0], [2.0]]), segments([0, 2, 2], 4))),
        ],
    )
    def test_op_gradients(self, build):
        rng = np.random.default_rng(2)
        check_op(build, rng.normal(size=(3, 4)))


class TestSegmentSoftmax:
    """SortedSegments.softmax and the tape op that runs it, softmax_head."""

    SEG = [0, 0, 0, 1, 2, 2, 2]  # segment 1 has one row, segment 3 none

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(5).normal(size=(7, 1)) * 5
        out = segments(self.SEG, 4).softmax(x)
        np.testing.assert_allclose(out[:, 0], ref_segment_softmax(x[:, 0], self.SEG, 4), rtol=0, atol=1e-12)

    def test_one_row_segment_is_exactly_one(self):
        out = segments([0, 1, 1], 2).softmax(np.array([[-3.0], [40.0], [7.5]]))
        assert out[0, 0] == 1.0
        head = softmax_head(Tensor([[123.4, -7.0]]), Tensor([[0.5], [2.0]]), segments([0], 1))
        assert head.data[0, 0] == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1)), requires_grad=True)
        weights = rng.normal(size=(7, 1))
        seg = segments(self.SEG, 4)

        def loss():
            return float((softmax_head(x, w, seg).data * weights).sum())

        with GradientTape():
            ad.backward(weighted_sum(softmax_head(x, w, seg), weights))
        np.testing.assert_allclose(x.grad, fd_grad(loss, x.data), rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(w.grad, fd_grad(loss, w.data), rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("ids", [[0, 1, 0], [0, 0, 2], [-1, 0, 0]], ids=["unsorted", "too_large", "negative"])
    @pytest.mark.parametrize(
        "name, op",
        [("ids", lambda ids: SortedSegments(ids, 2, "ids")),
         ("softmax_head", lambda ids: softmax_head(
             Tensor(np.zeros((3, 1))), Tensor([[1.0]]), SortedSegments(ids, 2, "softmax_head")))],
        ids=["sum", "softmax"],
    )
    def test_unsorted_or_out_of_range_ids_are_contract_error(self, name, op, ids):
        with pytest.raises(ContractError, match=f"{name}: segment ids must be sorted and in \\[0, 2\\)"):
            op(ids)

    def test_rejects_non_column_and_id_count(self):
        # the head's map must be x-wide by 1, and the segment map must cover x's rows
        with pytest.raises(DimensionError, match="a map of shape \\(3, 2\\)"):
            softmax_head(Tensor(np.zeros((1, 3))), Tensor(np.zeros((3, 2))), segments([0], 1))
        with pytest.raises(DimensionError, match="softmax_head: 2 ids for 3 rows"):
            softmax_head(Tensor(np.zeros((3, 1))), Tensor([[1.0]]), segments([0, 0], 1))


class TestPackedOrder:
    """SortedSegments.packed: the step order bigru_forward runs the segments in."""

    def test_from_counts_is_the_map_of_consecutive_ids(self):
        m = SortedSegments.from_counts([2, 3, 1], "rows")
        want = SortedSegments([0, 0, 1, 1, 1, 2], 3, "rows")
        assert m.rows == want.rows == 6
        for key in ("counts", "present", "starts"):
            np.testing.assert_array_equal(getattr(m, key), getattr(want, key))

    def test_longest_first_by_hand(self):
        # sequences of 2, 3 and 1 rows starting at rows 0, 2 and 5 run as 1, 0, 2
        perm, bounds = SortedSegments.from_counts([2, 3, 1], "rows").packed
        np.testing.assert_array_equal(perm, [[2, 0, 5, 3, 1, 4], [4, 1, 5, 3, 0, 2]])
        np.testing.assert_array_equal(bounds, [0, 3, 5, 6])

    def test_built_once_per_map(self):
        m = SortedSegments.from_counts([4, 2], "rows")
        assert m.packed is m.packed

    @pytest.mark.parametrize("counts", [[1, 0, 3], [0], []], ids=["empty-segment", "no-rows", "no-segment"])
    def test_empty_sequence_is_input_error(self, counts):
        with pytest.raises(InputError, match="at least one row per sequence"):
            SortedSegments.from_counts(counts, "rows").packed


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([[1.0, 2.0, 5.0]], requires_grad=True)
        with GradientTape():
            ad.backward(weighted_sum(x))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0]])

    def test_quadratic_gradient(self):
        # sum(x x) = 1'x x 1, so entry (i, j) of the gradient is (x 1)_j + (x'1)_i
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with GradientTape():
            ad.backward(weighted_sum(matmul(x, x)))
        np.testing.assert_array_equal(x.grad, [[7.0, 11.0], [9.0, 13.0]])

    def test_reused_tensor_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        with GradientTape():
            ad.backward(x + x + x)
        np.testing.assert_array_equal(x.grad, [[3.0]])

    def test_input_fed_twice_to_add_gets_twice_the_gradient(self):
        # add's backward hands the same upstream array to both operands
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        g = np.array([[3.0, 5.0]])
        with GradientTape():
            y = ad.add(x, x)
            ad.backward(weighted_sum(y, g))
        np.testing.assert_array_equal(x.grad, 2.0 * g)
        np.testing.assert_array_equal(y.grad, g)
        assert not np.shares_memory(x.grad, y.grad)

    def test_gradient_of_another_shape_is_contract_error(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        for g in (np.ones((1, 3)), np.ones((3, 2)), np.ones(6)):
            with GradientTape():
                loss = ad.record(np.zeros(()), (x,), lambda _, g=g: (g,))
                with pytest.raises(ContractError, match="gradient of shape"):
                    ad.backward(loss)
        assert x.grad is None

    @pytest.mark.parametrize("grads", [(), (np.ones((1, 2)),) * 3], ids=["too_few", "too_many"])
    def test_wrong_gradient_count_is_contract_error(self, grads):
        x, y = Tensor([[1.0, 2.0]], requires_grad=True), Tensor([[3.0, 4.0]], requires_grad=True)
        with GradientTape():
            loss = ad.record(np.zeros(()), (x, y), lambda g: grads)
            with pytest.raises(ContractError, match=f"returned {len(grads)} gradients for 2 inputs"):
                ad.backward(loss)
        assert x.grad is None and y.grad is None

    def test_none_gradient_skips_its_input(self):
        x, y = Tensor([[1.0]], requires_grad=True), Tensor([[2.0]], requires_grad=True)
        with GradientTape():
            ad.backward(ad.record(np.zeros(()), (x, y), lambda g: (None, np.full((1, 1), 5.0))))
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [[5.0]])

    def test_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with GradientTape():
            y = x + Tensor(np.ones((2, 2)))
            with pytest.raises(ContractError):
                ad.backward(y)

    def test_requires_active_tape(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([[1.0]]))

    def test_tape_consumed(self):
        x = Tensor([[1.0]], requires_grad=True)
        with GradientTape() as tape:
            ad.backward(weighted_sum(x, [[2.0]]))
            assert len(tape) == 0


class TestTape:
    def test_no_recording_without_tape(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = matmul(x, Tensor([[2.0]])) + Tensor([[1.0]])
        assert not y.requires_grad
        assert y._backward is None

    def test_nested_tapes_rejected(self):
        with GradientTape():
            with pytest.raises(ContractError):
                with GradientTape():
                    pass

    def test_constants_not_recorded(self):
        with GradientTape() as tape:
            Tensor([[1.0]]) + Tensor([[2.0]])
        assert len(tape) == 0

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        grads = []
        for _ in range(2):
            x.grad = None
            with GradientTape():
                ad.backward(weighted_sum(embed_activity(matmul(x, x))))
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])


class TestDropout:
    def test_eval_rate_zero_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_inverted_scaling(self):
        x = Tensor(np.ones((200, 200)))
        out = ad.dropout(x, 0.5, np.random.default_rng(0))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.05
