import math

import numpy as np
import pytest

from momentgraph import autodiff as ad
from momentgraph.autodiff import GradientTape, Tensor
from momentgraph.errors import ContractError, InputError
from momentgraph.losses import (
    build_targets,
    kl_divergence,
    kl_loss,
    spatial_loss,
    total_loss,
)

from reference_impls import fd_grad, ref_kl_grad, ref_spatial_grad
from tape_sum import weighted_sum


class TestTargets:
    def test_zero_start(self):
        target = build_targets(0.0, 4.0, 2.0, 5)
        assert target.start_index == 0

    def test_onehot(self):
        target = build_targets(2.0, 2.5, 1.0, 5)
        np.testing.assert_array_equal(target.start_dist, [0, 0, 1, 0, 0])

    def test_gaussian_symmetric_unimodal(self):
        target = build_targets(2.0, 2.5, 1.0, 5, smoothing="gaussian", sigma_pos=1.0)
        d = target.start_dist
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(d) == 2
        assert d[1] == pytest.approx(d[3], abs=1e-15)
        assert d[0] == pytest.approx(d[4], abs=1e-15)
        # matches direct discretization of exp(-delta^2 / 2)
        raw = np.exp(-((np.arange(5) - 2.0) ** 2) / 2.0)
        np.testing.assert_allclose(d, raw / raw.sum(), atol=1e-15)

    def test_indices_floor_and_clamp(self):
        target = build_targets(3.9, 11.7, 2.0, 5)
        assert target.start_index == 1  # floor(3.9 / 2)
        assert target.end_index == 4  # floor(11.7 / 2) = 5, clamped to t - 1

    def test_inverted_times_rejected(self):
        with pytest.raises(InputError):
            build_targets(5.0, 2.0, 1.0, 10)

    def test_unknown_smoothing(self):
        with pytest.raises(InputError):
            build_targets(0.0, 1.0, 1.0, 4, smoothing="laplace")


class TestKl:
    def test_identity_is_zero(self):
        p = np.array([[0.1, 0.6, 0.3]])
        assert abs(kl_divergence(Tensor(p), p[0]).item()) < 1e-12

    def test_hand_value(self):
        val = kl_divergence(Tensor([[0.5, 0.5]]), np.array([0.25, 0.75])).item()
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)  # 0.14384...
        assert val == pytest.approx(expected, abs=1e-9)
        assert val == pytest.approx(0.14384, abs=1e-4)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            p = rng.random(n) + 1e-6
            q = rng.random(n) + 1e-6
            p /= p.sum()
            q /= q.sum()
            assert kl_divergence(Tensor(p[None, :]), q).item() >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            kl_divergence(Tensor([[0.5, 0.5]]), np.array([1.0, 0.0, 0.0]))

    def test_kl_loss_sums_both_sides(self):
        target = build_targets(0.0, 1.0, 1.0, 2)
        pred = Tensor([[0.5, 0.5]])
        both = kl_loss(pred, pred, [target]).item()
        single_start = kl_divergence(pred, target.start_dist).item()
        single_end = kl_divergence(pred, target.end_dist).item()
        assert both == pytest.approx(single_start + single_end, abs=1e-12)


    def test_stacked_batch_is_sum_of_samples(self):
        rng = np.random.default_rng(2)
        targets = [build_targets(0.5, 2.2, 1.0, 4, "gaussian"), build_targets(1.0, 1.5, 1.0, 3)]
        preds = [rng.random(4), rng.random(3)]
        preds = [p / p.sum() for p in preds]
        column = Tensor(np.concatenate(preds)[:, None])
        both = kl_loss(column, column, targets).item()
        apart = sum(kl_loss(Tensor(p[None, :]), Tensor(p[None, :]), [t]).item() for p, t in zip(preds, targets))
        assert both == pytest.approx(apart, rel=1e-12)


class TestSpatial:
    def test_full_span_is_zero(self):
        y = Tensor([[0.2, 0.5, 0.3]])
        assert spatial_loss(y, 0, 2).item() == 0.0

    def test_hand_value(self):
        y = Tensor([[0.2, 0.6, 0.2]])
        val = spatial_loss(y, 1, 1).item()
        assert val == pytest.approx(-2.0 * math.log(0.8), abs=1e-9)
        assert val == pytest.approx(0.44629, abs=1e-4)

    def test_mass_inside_span_drives_loss_to_zero(self):
        inside = spatial_loss(Tensor([[1e-9, 1.0 - 2e-9, 1e-9]]), 1, 1).item()
        assert inside < 1e-8

    def test_moving_mass_outside_increases_loss(self):
        losses = []
        for outside_mass in (0.1, 0.3, 0.5, 0.7):
            y = Tensor([[outside_mass / 2, 1.0 - outside_mass, outside_mass / 2]])
            losses.append(spatial_loss(y, 1, 1).item())
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_stacked_windows_sum_per_sample(self):
        # samples of 3 and 4 rows stacked: windows [1, 1] and [0, 2] offset by 3
        y = np.array([0.2, 0.6, 0.2, 0.1, 0.2, 0.3, 0.4])
        both = spatial_loss(Tensor(y[:, None]), [1, 3], [1, 5]).item()
        apart = spatial_loss(Tensor(y[None, :3]), 1, 1).item() + spatial_loss(Tensor(y[None, 3:]), 0, 2).item()
        assert both == pytest.approx(apart, rel=1e-12)
        assert both == pytest.approx(-2.0 * math.log(0.8) - math.log(0.6), rel=1e-12)

    def test_span_out_of_range(self):
        with pytest.raises(ContractError):
            spatial_loss(Tensor([[0.5, 0.5]]), 0, 2)


def node_gradient(build, x, upstream=1.0):
    """The loss node's gradient in x, through backward(), with the loss scaled
    by a constant so that its backward receives upstream."""
    x = Tensor(x, requires_grad=True)
    with GradientTape() as tape:
        out = build(x)
        assert len(tape) == 1 and out.data.shape == ()
        ad.backward(weighted_sum(out, upstream))
    return x.grad


class TestGradients:
    """Each loss is one tape node; its hand-written backward against a closed-form oracle."""

    # entries 0 and 1e-13 sit on the 1e-12 floor, so the log passes no gradient there
    P = np.array([[0.0], [1e-13], [0.2], [0.5], [0.3 - 1e-13]])
    Q = np.array([0.0, 0.4, 0.1, 1e-13, 0.5])
    # y = 1.0 outside the window floors 1 - y; 0.3 and 0.1 sit inside it
    Y = np.array([[1.0, 0.3, 0.1, 0.25, 0.0, 0.6]])
    STARTS, ENDS = [1, 5], [2, 5]

    @pytest.mark.parametrize("upstream", [1.0, -0.75])
    def test_kl_matches_oracle(self, upstream):
        grad = node_gradient(lambda p: kl_divergence(p, self.Q), self.P.copy(), upstream)
        oracle = upstream * ref_kl_grad(self.P, self.Q)
        np.testing.assert_allclose(grad, oracle, rtol=1e-12, atol=1e-12)
        # floored entries: exactly the log ratio, nothing through the log
        np.testing.assert_array_equal(grad[:2, 0], upstream * (np.log(1e-12) - np.log([1e-12, 0.4])))

    @pytest.mark.parametrize("upstream", [1.0, -0.75])
    def test_spatial_matches_oracle(self, upstream):
        grad = node_gradient(lambda y: spatial_loss(y, self.STARTS, self.ENDS), self.Y.copy(), upstream)
        oracle = upstream * ref_spatial_grad(self.Y, self.STARTS, self.ENDS)
        np.testing.assert_allclose(grad, oracle, rtol=1e-12, atol=1e-12)
        assert grad[0, 0] == 0.0  # y = 1.0 outside the window: floored
        np.testing.assert_array_equal(grad[0, [1, 2, 5]], 0.0)  # inside a window

    def test_finite_differences_away_from_floor(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.9, size=(6, 1))
        q = rng.dirichlet(np.ones(6))
        y = rng.uniform(0.05, 0.9, size=(6, 1))
        kl = node_gradient(lambda t: kl_divergence(t, q), p.copy())
        np.testing.assert_allclose(kl, fd_grad(lambda: kl_divergence(Tensor(p), q).item(), p), rtol=1e-7)
        sp = node_gradient(lambda t: spatial_loss(t, [1, 4], [2, 4]), y.copy())
        np.testing.assert_allclose(sp, fd_grad(lambda: spatial_loss(Tensor(y), [1, 4], [2, 4]).item(), y), rtol=1e-7)

    def test_each_loss_is_one_node_and_feeds_backward(self):
        p = Tensor(self.P.copy(), requires_grad=True)
        y = Tensor(self.Y.T.copy(), requires_grad=True)
        with GradientTape() as tape:
            loss = total_loss(kl_divergence(p, self.Q), spatial_loss(y, self.STARTS, self.ENDS))
            assert len(tape) == 3
            ad.backward(loss)
        np.testing.assert_allclose(p.grad, ref_kl_grad(self.P, self.Q), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y.grad, ref_spatial_grad(self.Y.T, self.STARTS, self.ENDS), rtol=1e-12, atol=1e-12)


class TestTotal:
    def test_zeros(self):
        assert total_loss(Tensor([[0.0]]), Tensor([[0.0]])).item() == 0.0

    def test_addition(self):
        assert total_loss(Tensor([[0.5]]), Tensor([[0.25]])).item() == 0.75

    def test_recomposition_on_random_instance(self):
        rng = np.random.default_rng(1)
        t = 6
        pred_s = rng.random(t)
        pred_s /= pred_s.sum()
        pred_e = rng.random(t)
        pred_e /= pred_e.sum()
        y = rng.random(t)
        y /= y.sum()
        target = build_targets(1.2, 3.8, 1.0, t)
        kl = kl_loss(Tensor(pred_s[None, :]), Tensor(pred_e[None, :]), [target])
        sp = spatial_loss(Tensor(y[None, :]), target.start_index, target.end_index)
        assert total_loss(kl, sp).item() == pytest.approx(kl.item() + sp.item(), abs=1e-12)
