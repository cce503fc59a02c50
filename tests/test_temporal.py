import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, SortedSegments, Tensor
from momentgraph.errors import InputError
from momentgraph.temporal import TemporalParams, decode, softmax_head, temporal_forward

from reference_impls import ref_segment_softmax, ref_softmax_head_grad, ref_temporal
from segment_maps import seq_map
from tape_sum import weighted_sum

LATENT = 6
HIDDEN = 4


def make_params(seed=0, dropout=0.0):
    return TemporalParams.create(np.random.default_rng(seed), LATENT, HIDDEN, dropout, {})


class TestForward:
    def test_single_timestep_distributions(self):
        p = make_params()
        out = temporal_forward(Tensor(np.random.default_rng(1).normal(size=(1, LATENT))), seq_map([1]), p)
        np.testing.assert_array_equal(out["bounds"].data, [[1.0, 1.0]])
        np.testing.assert_array_equal(out["y"].data, [[1.0]])

    def test_distributions_normalized(self):
        p = make_params(seed=2)
        x = Tensor(np.tile(np.random.default_rng(3).normal(size=(1, LATENT)), (5, 1)))
        out = temporal_forward(x, seq_map([5]), p)
        assert out["bounds"].data.shape == (5, 2) and out["y"].data.shape == (5, 1)
        for column in (*out["bounds"].data.T, out["y"].data[:, 0]):
            assert column.sum() == pytest.approx(1.0, abs=1e-12)
            assert (column > 0).all()

    def test_matches_reference_loops(self):
        p = make_params(seed=4)
        a_ctx = np.random.default_rng(5).normal(size=(5, LATENT))
        out = temporal_forward(Tensor(a_ctx), seq_map([5]), p)
        start, end, y = ref_temporal(a_ctx, p)
        np.testing.assert_allclose(out["bounds"].data[:, 0], start, atol=1e-12)
        np.testing.assert_allclose(out["bounds"].data[:, 1], end, atol=1e-12)
        np.testing.assert_allclose(out["y"].data[:, 0], y, atol=1e-12)

    def test_ragged_batch_matches_reference_per_sample(self):
        p = make_params(seed=10)
        lengths = [3, 1, 6]
        a_ctx = np.random.default_rng(11).normal(size=(sum(lengths), LATENT))
        out = temporal_forward(Tensor(a_ctx), seq_map(lengths), p)
        start = 0
        for t in lengths:
            rows = slice(start, start + t)
            got = (out["bounds"].data[rows, 0], out["bounds"].data[rows, 1], out["y"].data[rows, 0])
            for column, ref in zip(got, ref_temporal(a_ctx[rows], p)):
                np.testing.assert_allclose(column, ref, rtol=0, atol=1e-12)
            start += t

    def test_one_dropout_draw_over_the_stack(self):
        # the stacked draw gives each sample the mask its own draw would, in sample order
        p = make_params(seed=12, dropout=0.5)
        lengths = [4, 2]
        a_ctx = np.random.default_rng(13).normal(size=(6, LATENT))
        out = temporal_forward(Tensor(a_ctx), seq_map(lengths), p, rng=np.random.default_rng(14))
        rng = np.random.default_rng(14)
        start = 0
        for t in lengths:
            rows = slice(start, start + t)
            one = temporal_forward(Tensor(a_ctx[rows]), seq_map([t]), p, rng=rng)
            np.testing.assert_allclose(out["bounds"].data[rows], one["bounds"].data, rtol=1e-12)
            start += t

    def test_eval_mode_deterministic_despite_dropout_config(self):
        p = make_params(seed=6, dropout=0.5)
        x = Tensor(np.random.default_rng(7).normal(size=(4, LATENT)))
        one = temporal_forward(x, seq_map([4]), p)["bounds"].data
        two = temporal_forward(x, seq_map([4]), p)["bounds"].data
        np.testing.assert_array_equal(one, two)

    def test_empty_sequence_rejected(self):
        p = make_params(seed=9)
        with pytest.raises(InputError):
            temporal_forward(Tensor(np.zeros((0, LATENT))), seq_map([0]), p)
        with pytest.raises(InputError):
            temporal_forward(Tensor(np.zeros((3, LATENT))), seq_map([3, 0]), p)


class TestSoftmaxHead:
    IDS = [0, 0, 0, 1, 2, 2, 2, 2]  # a one-row sample among longer ones

    def test_one_node_with_closed_form_gradients(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        g = rng.normal(size=(8, 1))
        with GradientTape() as tape:
            out = softmax_head(x, (w,), SortedSegments(self.IDS, 3, "samples"))
            assert len(tape) == 1 and out._inputs == (x, w)
            ad.backward(weighted_sum(out, g))
        want_x, want_w = ref_softmax_head_grad(x.data, w.data, self.IDS, 3, g)
        np.testing.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12 * np.abs(want_x).max())
        np.testing.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12 * np.abs(want_w).max())

    def test_two_columns_one_node_with_closed_form_gradients(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        ws = tuple(Tensor(rng.normal(size=(3, 1)), requires_grad=True) for _ in range(2))
        g = rng.normal(size=(8, 2))
        with GradientTape() as tape:
            out = softmax_head(x, ws, SortedSegments(self.IDS, 3, "samples"))
            assert len(tape) == 1 and out._inputs == (x, *ws)
            ad.backward(weighted_sum(out, g))
        w = np.hstack([w.data for w in ws])
        logits = x.data @ w
        for c in range(2):
            want = ref_segment_softmax(logits[:, c], self.IDS, 3)
            np.testing.assert_allclose(out.data[:, c], want, rtol=0, atol=1e-12)
        want_x, want_w = ref_softmax_head_grad(x.data, w, self.IDS, 3, g)
        np.testing.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12 * np.abs(want_x).max())
        for c, w in enumerate(ws):
            assert w.grad.shape == (3, 1)
            np.testing.assert_allclose(w.grad[:, 0], want_w[:, c], rtol=0, atol=1e-12 * np.abs(want_w[:, c]).max())

    def test_two_columns_are_two_one_column_heads(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(8, 3))
        ws = [rng.normal(size=(3, 1)) for _ in range(2)]
        g = rng.normal(size=(8, 2))
        samples = SortedSegments(self.IDS, 3, "samples")

        def head(columns):
            xt, wt = Tensor(x, requires_grad=True), [Tensor(ws[c], requires_grad=True) for c in columns]
            with GradientTape():
                out = softmax_head(xt, tuple(wt), samples)
                ad.backward(weighted_sum(out, g[:, columns]))
            return out.data, xt.grad, [w.grad for w in wt]

        both, both_x, both_w = head([0, 1])
        start, start_x, (start_w,) = head([0])
        end, end_x, (end_w,) = head([1])
        np.testing.assert_allclose(both, np.hstack([start, end]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(both_x, start_x + end_x, rtol=0, atol=1e-12 * np.abs(both_x).max())
        np.testing.assert_allclose(both_w[0], start_w, rtol=0, atol=1e-12 * np.abs(start_w).max())
        np.testing.assert_allclose(both_w[1], end_w, rtol=0, atol=1e-12 * np.abs(end_w).max())


class TestDecode:
    def test_hand_argmax(self):
        pred = decode([0.1, 0.7, 0.2], [0.1, 0.2, 0.7], stride_seconds=2.0, duration_seconds=10.0)
        assert pred.start_index == 1
        assert pred.start_seconds == 2.0
        assert pred.end_index == 2
        assert pred.end_seconds == 6.0
        assert not pred.degenerate

    def test_uniform_tie_picks_lowest(self):
        pred = decode([0.25] * 4, [0.25] * 4, 1.0, 4.0)
        assert pred.start_index == 0 and pred.end_index == 0

    def test_end_clamped_to_duration(self):
        pred = decode([0, 0, 1.0], [0, 0, 1.0], stride_seconds=2.0, duration_seconds=5.0)
        assert pred.end_seconds == 5.0

    def test_degenerate_flag_and_swap(self):
        plain = decode([0, 0, 1.0], [1.0, 0, 0], 1.0, 3.0)
        assert plain.degenerate and plain.start_index == 2 and plain.end_index == 0
        swapped = decode([0, 0, 1.0], [1.0, 0, 0], 1.0, 3.0, swap_degenerate=True)
        assert swapped.degenerate and swapped.start_index == 0 and swapped.end_index == 2

    def test_monotone_transform_invariance(self):
        # argmax only cares about order, so squashing the distribution
        # through any increasing map leaves the decoded indices unchanged
        rng = np.random.default_rng(10)
        for _ in range(50):
            s = rng.random(6)
            e = rng.random(6)
            base = decode(s, e, 1.0, 6.0)
            squashed = decode(np.exp(3 * s), np.exp(3 * e), 1.0, 6.0)
            assert (base.start_index, base.end_index) == (squashed.start_index, squashed.end_index)
