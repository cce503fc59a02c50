"""End-to-end acceptance checks.

Each test covers one gate and finishes with a single PASS line so the
suite output doubles as an acceptance report. The two training-based
gates share one full-model training run through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from momentgraph.autodiff import SortedSegments, Tensor
from momentgraph.config import synthetic_config
from momentgraph.gradcheck import run_gradcheck
from momentgraph.graph import FULL_BLOCKS, GraphWeights, MessagePassing, create_graph, spatial_graph
from momentgraph.init import glorot
from momentgraph.losses import kl_divergence, spatial_loss
from momentgraph.metrics import Interval, miou, recall_at, tiou
from momentgraph.model import MomentModel
from momentgraph.synth import SyntheticSpec, generate
from momentgraph.text import GruParams, attend_heads, bigru_forward
from momentgraph.train import build_vocab, evaluate, train
from momentgraph.visual import select_keyframe, variance_of_laplacian

from reference_impls import (
    gru_param_arrays,
    ref_attention,
    ref_bigru,
    ref_graph_iteration,
)
from segment_maps import graph_maps


@pytest.fixture(scope="module")
def synth_split():
    samples, cmap = generate(SyntheticSpec())
    return samples[:200], samples[200:], cmap


@pytest.fixture(scope="module")
def full_run(synth_split):
    """One full-variant training run, shared by the learnability and
    ablation-direction gates."""
    tr, va, cmap = synth_split
    config = synthetic_config(seed=0, target_miou=70.0)
    t0 = time.time()
    model, log = train(config, tr, va, cmap)
    return model, log, time.time() - t0


def test_gradient_integrity():
    t0 = time.time()
    for variant in ("full", "single_query"):
        results = run_gradcheck(variant=variant, entries_per_block=24, seed=0)
        failing = [r.name for r in results if not r.passed]
        assert failing == [], f"{variant}: blocks over tolerance: {failing}"
        assert max(r.max_rel_err for r in results) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nacceptance 1 gradient integrity: PASS ({elapsed:.1f}s)")


def test_zero_iteration_identity():
    rng = np.random.default_rng(0)
    params = create_graph(rng, FULL_BLOCKS, 6, 5, {})
    a0 = Tensor(np.tanh(rng.normal(size=(1, 5))))
    h0 = Tensor(np.tanh(rng.normal(size=(2, 5))))
    o0 = Tensor(np.tanh(rng.normal(size=(3, 5))))
    sv, sn, vn = (Tensor(rng.normal(size=(1, 6))) for _ in range(3))
    h_seg, o_seg = np.zeros(2, dtype=np.intp), np.zeros(3, dtype=np.intp)
    before = [t.data.tobytes() for t in (a0, h0, o0)]
    a = spatial_graph(a0, h0, o0, sv, sn, vn, *graph_maps([0], h_seg, o_seg), GraphWeights(params), 0)
    assert a is a0
    assert [t.data.tobytes() for t in (a, h0, o0)] == before
    print("\nacceptance 2 zero-iteration identity: PASS")


def test_loss_identities():
    p = np.array([[0.2, 0.5, 0.3]])
    assert abs(kl_divergence(Tensor(p), p[0]).item()) < 1e-12

    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        a = rng.random(n) + 1e-9
        b = rng.random(n) + 1e-9
        a /= a.sum()
        b /= b.sum()
        assert kl_divergence(Tensor(a[None, :]), b).item() >= -1e-9

    assert spatial_loss(Tensor([[0.1, 0.6, 0.3]]), 0, 2).item() == 0.0

    kl_val = kl_divergence(Tensor([[0.5, 0.5]]), np.array([0.25, 0.75])).item()
    assert kl_val == pytest.approx(0.14384, abs=1e-4)
    sp_val = spatial_loss(Tensor([[0.2, 0.6, 0.2]]), 1, 1).item()
    assert sp_val == pytest.approx(0.44629, abs=1e-4)
    print("\nacceptance 3 loss identities: PASS")


def test_metric_oracle():
    fixture = [
        (Interval(0, 10), Interval(0, 10)),
        (Interval(0, 8), Interval(0, 10)),
        (Interval(0, 6), Interval(0, 8)),
        (Interval(0, 6), Interval(0, 10)),
        (Interval(0, 5), Interval(0, 10)),
        (Interval(2, 6), Interval(2, 10)),
        (Interval(0, 4), Interval(0, 10)),
        (Interval(0, 2), Interval(0, 8)),
        (Interval(0, 2), Interval(0, 10)),
        (Interval(0, 3), Interval(5, 9)),
    ]
    r = recall_at(fixture, alphas=(0.3, 0.5, 0.7, 0.9))
    assert r == {0.3: 70.0, 0.5: 40.0, 0.7: 30.0, 0.9: 10.0}
    assert miou(fixture) == pytest.approx(50.0, abs=1e-12)

    rng = np.random.default_rng(2)
    for _ in range(10_000):
        a = Interval(*sorted(rng.uniform(0, 100, 2)))
        b = Interval(*sorted(rng.uniform(0, 100, 2)))
        v = tiou(a, b)
        assert v == tiou(b, a)
        assert tiou(a, a) == 1.0
        shift = a.end_s + 1.0 - b.start_s
        assert tiou(a, Interval(b.start_s + shift, b.end_s + shift)) == 0.0
        s = 2.5
        scaled = tiou(Interval(a.start_s * s, a.end_s * s), Interval(b.start_s * s, b.end_s * s))
        assert scaled == pytest.approx(v, abs=1e-12)
    print("\nacceptance 4 metric oracle: PASS")


def test_learnability(full_run):
    _, log, elapsed = full_run
    assert log.best_val_miou >= 70.0, f"val mIoU {log.best_val_miou:.2f} < 70"
    assert log.epochs[-1]["epoch"] <= 200
    assert elapsed < 15 * 60
    print(
        f"\nacceptance 5 learnability: PASS "
        f"(val mIoU {log.best_val_miou:.2f} at epoch {log.best_epoch}, {elapsed:.0f}s)"
    )


def test_ablation_direction(synth_split, full_run):
    tr, va, cmap = synth_split
    _, full_log, _ = full_run
    n0_cfg = synthetic_config(seed=0, iterations=0, epochs=20)
    _, n0_log = train(n0_cfg, tr, va, cmap)
    ng_cfg = synthetic_config(seed=0, variant="no_graph", epochs=20)
    _, ng_log = train(ng_cfg, tr, va, cmap)
    n_gap = full_log.best_val_miou - n0_log.best_val_miou
    g_gap = full_log.best_val_miou - ng_log.best_val_miou
    assert n_gap >= 10.0, f"N=0 gap only {n_gap:.2f}"
    assert g_gap >= 5.0, f"no_graph gap only {g_gap:.2f}"
    print(
        f"\nacceptance 6 ablation direction: PASS "
        f"(N=3 {full_log.best_val_miou:.2f} vs N=0 {n0_log.best_val_miou:.2f} vs "
        f"no_graph {ng_log.best_val_miou:.2f})"
    )


def test_keyframe_sharpness():
    assert variance_of_laplacian(np.full((12, 12), 5.0)) == 0.0

    idx = np.indices((12, 12)).sum(axis=0)
    checker = (idx % 2).astype(float)
    blurred = checker.copy()
    padded = np.pad(checker, 1, mode="edge")
    for i in range(12):
        for j in range(12):
            blurred[i, j] = padded[i : i + 3, j : j + 3].mean()
    assert variance_of_laplacian(checker) > variance_of_laplacian(blurred)

    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        sharp_at = int(rng.integers(0, n))
        sharp = rng.normal(size=(10, 10))
        soft = sharp.copy()
        padded = np.pad(sharp, 1, mode="edge")
        for i in range(10):
            for j in range(10):
                soft[i, j] = padded[i : i + 3, j : j + 3].mean()
        frames = [soft.copy() for _ in range(n)]
        frames[sharp_at] = sharp
        hits += select_keyframe(frames) == sharp_at
    assert hits == 100
    print("\nacceptance 7 keyframe sharpness: PASS (100/100)")


def test_determinism_and_persistence(tmp_path):
    samples, cmap = generate(SyntheticSpec(n_samples=20, t_range=(8, 12), seed=4))
    tr, va = samples[:15], samples[15:]
    config = synthetic_config(seed=0, epochs=3, eval_every=1, batch_size=4)
    model1, log1 = train(config, tr, va, cmap)
    model2, log2 = train(config, tr, va, cmap)

    def numbers(log):
        # everything in the log except wall-clock timings must match
        return [
            {k: v for k, v in entry.items() if k != "wall_time_s"} for entry in log.epochs
        ], log.best_epoch, log.best_val_miou

    assert numbers(log1) == numbers(log2)
    for name, p in model1.params.items():
        assert model2.params[name].data.tobytes() == p.data.tobytes()

    path = tmp_path / "model.ckpt"
    model1.save(str(path))
    reloaded = MomentModel(config, build_vocab(tr))
    reloaded.load(str(path))
    prepared = [model1.prepare(s, cmap) for s in va]
    for prep in prepared:
        a = model1.predict([prep])[0]
        b = reloaded.predict([prep])[0]
        assert a.start_dist.tobytes() == b.start_dist.tobytes()
        assert a.end_dist.tobytes() == b.end_dist.tobytes()
        assert (a.start_index, a.end_index) == (b.start_index, b.end_index)
    report1, _ = evaluate(model1, prepared)
    report2, _ = evaluate(reloaded, prepared)
    assert report1.miou == report2.miou
    print("\nacceptance 8 determinism and persistence: PASS")


def test_reference_loop_equivalence():
    rng = np.random.default_rng(5)

    # bidirectional GRU
    fwd = GruParams.create(rng, 4, 3, {}, "f")
    bwd = GruParams.create(rng, 4, 3, {}, "b")
    x = rng.normal(size=(5, 4))
    out = bigru_forward(Tensor(x), fwd, bwd)
    ref = ref_bigru(x, gru_param_arrays(fwd), gru_param_arrays(bwd))
    assert np.abs(out.data - ref).max() < 1e-10

    # attention: a head is its key matrix
    head = glorot(rng, 4, 6)
    q = rng.normal(size=(1, 6))
    emb = rng.normal(size=(5, 4))
    ctx = rng.normal(size=(5, 6))
    outputs, weights = attend_heads(Tensor(q), Tensor(emb), Tensor(ctx), [head], SortedSegments([0] * 5, 1, "words"))
    ref_out, ref_w = ref_attention(q, emb, ctx, head.data)
    assert np.abs(outputs[0].data - ref_out).max() < 1e-10
    assert np.abs(weights[0] - ref_w).max() < 1e-10

    # one full spatial-graph iteration
    registry = {}
    params = create_graph(rng, FULL_BLOCKS, 6, 5, registry)
    arrays = {name.removeprefix("graph."): t.data for name, t in registry.items()}
    a0 = Tensor(rng.normal(size=(1, 5)))
    h0 = Tensor(rng.normal(size=(2, 5)))
    o0 = Tensor(rng.normal(size=(3, 5)))
    sv, sn, vn = (Tensor(rng.normal(size=(1, 6))) for _ in range(3))
    h_seg, o_seg = np.zeros(2, dtype=np.intp), np.zeros(3, dtype=np.intp)
    a = spatial_graph(a0, h0, o0, sv, sn, vn, *graph_maps([0], h_seg, o_seg), GraphWeights(params), 1)
    # h and o from the op's per-iteration step, which the op runs for every iteration but the last
    mp = MessagePassing(GraphWeights(params), a0.data, h0.data, o0.data, sv.data, sn.data, vn.data, *graph_maps([0], h_seg, o_seg))
    a_step, h, o, _ = mp.step(a0.data, h0.data, o0.data)
    ra, rh, ro = ref_graph_iteration(
        a0.data, h0.data, o0.data, a0.data, h0.data, o0.data,
        sv.data, sn.data, vn.data, arrays,
    )
    assert np.abs(a.data - ra).max() < 1e-10
    assert np.abs(a_step - ra).max() < 1e-10
    assert np.abs(h - rh).max() < 1e-10
    assert np.abs(o - ro).max() < 1e-10
    print("\nacceptance 9 reference-loop equivalence: PASS")
