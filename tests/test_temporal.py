import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, SortedSegments, Tensor
from momentgraph.errors import InputError
from momentgraph.temporal import TemporalParams, decode, softmax_head, temporal_forward

from reference_impls import ref_softmax_head_grad, ref_temporal
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
        np.testing.assert_array_equal(out["start_dist"].data, [[1.0]])
        np.testing.assert_array_equal(out["end_dist"].data, [[1.0]])
        np.testing.assert_array_equal(out["y"].data, [[1.0]])

    def test_distributions_normalized(self):
        p = make_params(seed=2)
        x = Tensor(np.tile(np.random.default_rng(3).normal(size=(1, LATENT)), (5, 1)))
        out = temporal_forward(x, seq_map([5]), p)
        for key in ("start_dist", "end_dist", "y"):
            assert out[key].data.shape == (5, 1)
            assert out[key].data.sum() == pytest.approx(1.0, abs=1e-12)
            assert (out[key].data > 0).all()

    def test_matches_reference_loops(self):
        p = make_params(seed=4)
        a_ctx = np.random.default_rng(5).normal(size=(5, LATENT))
        out = temporal_forward(Tensor(a_ctx), seq_map([5]), p)
        start, end, y = ref_temporal(a_ctx, p)
        np.testing.assert_allclose(out["start_dist"].data[:, 0], start, atol=1e-12)
        np.testing.assert_allclose(out["end_dist"].data[:, 0], end, atol=1e-12)
        np.testing.assert_allclose(out["y"].data[:, 0], y, atol=1e-12)

    def test_ragged_batch_matches_reference_per_sample(self):
        p = make_params(seed=10)
        lengths = [3, 1, 6]
        a_ctx = np.random.default_rng(11).normal(size=(sum(lengths), LATENT))
        out = temporal_forward(Tensor(a_ctx), seq_map(lengths), p)
        start = 0
        for t in lengths:
            rows = slice(start, start + t)
            for key, ref in zip(("start_dist", "end_dist", "y"), ref_temporal(a_ctx[rows], p)):
                np.testing.assert_allclose(out[key].data[rows, 0], ref, rtol=0, atol=1e-12)
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
            np.testing.assert_allclose(out["start_dist"].data[rows], one["start_dist"].data, rtol=1e-12)
            start += t

    def test_eval_mode_deterministic_despite_dropout_config(self):
        p = make_params(seed=6, dropout=0.5)
        x = Tensor(np.random.default_rng(7).normal(size=(4, LATENT)))
        one = temporal_forward(x, seq_map([4]), p)["start_dist"].data
        two = temporal_forward(x, seq_map([4]), p)["start_dist"].data
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
            out = softmax_head(x, w, SortedSegments(self.IDS, 3, "samples"))
            assert len(tape) == 1 and out._inputs == (x, w)
            ad.backward(weighted_sum(out, g))
        want_x, want_w = ref_softmax_head_grad(x.data, w.data, self.IDS, 3, g)
        np.testing.assert_allclose(x.grad, want_x, rtol=0, atol=1e-12 * np.abs(want_x).max())
        np.testing.assert_allclose(w.grad, want_w, rtol=0, atol=1e-12 * np.abs(want_w).max())


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
