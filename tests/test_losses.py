import math

import numpy as np
import pytest

from momentgraph.autodiff import Tensor
from momentgraph.errors import ContractError, InputError
from momentgraph.losses import (
    build_targets,
    kl_divergence,
    kl_loss,
    spatial_loss,
    total_loss,
)


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
