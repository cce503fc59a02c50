import numpy as np
import pytest

from momentgraph.autodiff import Tensor
from momentgraph.checkpoint import load_params
from momentgraph.errors import TrainingError
from momentgraph.gradcheck import tiny_instance
from momentgraph.optim import Adam


def test_zero_grad_zero_decay_is_noop():
    p = Tensor([[1.0, -2.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=1e-4, weight_decay=0.0)
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_first_step_size():
    # with g=1 the bias-corrected m_hat / sqrt(v_hat) is exactly 1
    p = Tensor([[0.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=1e-4, weight_decay=0.0)
    p.grad[...] = 1.0
    opt.step()
    assert p.data[0, 0] == pytest.approx(-1e-4, rel=1e-6)


def test_decay_only_step():
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=1e-4, weight_decay=1e-3)
    p.grad[...] = 0.0
    opt.step()
    assert p.data[0, 0] == pytest.approx(1.0 - 1e-7, abs=1e-15)


def test_decay_is_decoupled_from_moments():
    # decay must not leak into the m/v buffers: with g=0 they stay zero
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=1e-4, weight_decay=1e-3)
    p.grad[...] = 0.0
    opt.step()
    assert opt._m[0] == 0.0
    assert opt._v[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nan_gradient_names_parameter(bad):
    p = Tensor([[1.0, 2.0]], requires_grad=True)
    opt = Adam({"bad.block": p})
    p.grad[...] = [[bad, 1.0]]
    with pytest.raises(TrainingError, match="non-finite gradient in parameter 'bad.block'"):
        opt.step()
    np.testing.assert_array_equal(p.data, [[1.0, 2.0]])  # the step wrote nothing


def test_non_finite_gradient_leaves_every_block_unstepped():
    a = Tensor([[1.0]], requires_grad=True)
    b = Tensor([[2.0]], requires_grad=True)
    c = Tensor([[3.0]], requires_grad=True)
    opt = Adam({"a": a, "b": b, "c": c}, lr=0.1)
    a.grad[...], b.grad[...], c.grad[...] = 1.0, np.inf, np.nan
    with pytest.raises(TrainingError, match="non-finite gradient in parameter 'b'"):
        opt.step()  # b is the first bad block in registry order
    np.testing.assert_array_equal(a.data, [[1.0]])
    assert opt.step_count == 0
    assert opt._m[0] == 0.0 and opt._v[0] == 0.0


@pytest.mark.parametrize("name, entry", [("a", (1, 2)), ("b", (0, 0))], ids=["last-of-a", "first-of-b"])
def test_non_finite_entry_at_a_block_boundary_names_its_block(name, entry):
    params = {"a": Tensor(np.zeros((2, 3)), requires_grad=True), "b": Tensor(np.zeros((2, 2)), requires_grad=True)}
    opt = Adam(params)
    params[name].grad[entry] = np.nan
    with pytest.raises(TrainingError, match=f"non-finite gradient in parameter '{name}'"):
        opt.step()
    assert opt.step_count == 0 and not opt.data.any()


def test_step_moves_restored_values(tmp_path):
    # restore writes into the blocks, so the optimizer steps the loaded values
    model, _ = tiny_instance(seed=0)
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    meta, loaded = load_params(path)
    opt = Adam(model.params, lr=1e-3, weight_decay=0.0)
    opt.data.fill(0.0)
    model.restore(meta, loaded)
    opt.grad.fill(1.0)
    opt.step()
    for name, p in model.params.items():
        np.testing.assert_allclose(p.data, loaded[name] - 1e-3, rtol=0, atol=1e-9)


def test_descends_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(3, 3))
    p = Tensor(np.zeros((3, 3)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05, weight_decay=0.0)
    for _ in range(500):
        p.grad[...] = 2.0 * (p.data - target)
        opt.step()
    assert np.abs(p.data - target).max() < 1e-2
