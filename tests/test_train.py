import importlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from momentgraph import model as model_module
from momentgraph import synthetic_config, train
from momentgraph.synth import SyntheticSpec, generate
from momentgraph.temporal import decode
from momentgraph.train import build_vocab, evaluate

train_module = importlib.import_module("momentgraph.train")  # the package's `train` is the function


@pytest.fixture(scope="module")
def tiny_data():
    samples, cmap = generate(SyntheticSpec(n_samples=16, t_range=(8, 12), seed=0))
    return samples[:12], samples[12:], cmap


def small_config(**overrides):
    base = dict(epochs=2, eval_every=1, batch_size=4, seed=0)
    base.update(overrides)
    return synthetic_config(**base)


class TestTrain:
    def test_zero_epochs_gives_initial_params_and_empty_log(self, tiny_data):
        tr, va, cmap = tiny_data
        model, log = train(small_config(epochs=0), tr, va, cmap)
        assert log.epochs == []
        from momentgraph.model import MomentModel

        fresh = MomentModel(model.config, build_vocab(tr))
        for name, p in fresh.params.items():
            assert model.params[name].data.tobytes() == p.data.tobytes()
        # no validation pass ran, so there is no best epoch, and the log is strict JSON
        assert log.best_epoch is None and log.best_val_miou is None
        data = json.loads(log.to_json())
        assert data["best_epoch"] is None and data["best_val_miou"] is None

    def test_same_seed_identical_logs(self, tiny_data):
        tr, va, cmap = tiny_data
        _, log1 = train(small_config(), tr, va, cmap)
        _, log2 = train(small_config(), tr, va, cmap)

        def strip_timing(log):
            return [{k: v for k, v in e.items() if k != "wall_time_s"} for e in log.epochs]

        assert strip_timing(log1) == strip_timing(log2)
        assert log1.best_val_miou == log2.best_val_miou
        assert log1.best_epoch == log2.best_epoch

    def test_different_seed_differs(self, tiny_data):
        tr, va, cmap = tiny_data
        _, log1 = train(small_config(), tr, va, cmap)
        _, log2 = train(small_config(seed=1), tr, va, cmap)
        assert log1.epochs[-1]["total_loss"] != log2.epochs[-1]["total_loss"]

    def test_loss_decreases(self, tiny_data):
        tr, va, cmap = tiny_data
        _, log = train(small_config(epochs=6), tr, va, cmap)
        assert log.epochs[-1]["total_loss"] < log.epochs[0]["total_loss"]

    def test_log_schema_and_save(self, tiny_data, tmp_path):
        tr, va, cmap = tiny_data
        _, log = train(small_config(), tr, va, cmap)
        path = tmp_path / "log.json"
        log.save(str(path))
        data = json.loads(path.read_text())
        assert [e["epoch"] for e in data["epochs"]] == [1, 2]
        for entry in data["epochs"]:
            for key in ("total_loss", "kl_loss", "spatial_loss", "train_miou", "val_miou", "val_degenerate", "wall_time_s"):
                assert key in entry
            assert np.isfinite(entry["total_loss"])
        assert data["best_epoch"] in (1, 2)

    def test_val_degenerate_is_the_validation_count(self, tiny_data):
        tr, va, cmap = tiny_data
        _, log = train(small_config(epochs=3, eval_every=2), tr, va, cmap)
        assert [e["val_degenerate"] is None for e in log.epochs] == [True, False, False]
        model, log = train(small_config(epochs=1), tr, va, cmap)
        report, _ = evaluate(model, [model.prepare(s, cmap) for s in va])
        assert log.epochs[0]["val_degenerate"] == report.n_degenerate

    def test_best_checkpoint_restored(self, tiny_data):
        tr, va, cmap = tiny_data
        model, log = train(small_config(epochs=4), tr, va, cmap)
        prepared_val = [model.prepare(s, cmap) for s in va]
        report, _ = evaluate(model, prepared_val)
        assert report.miou == pytest.approx(log.best_val_miou, abs=1e-9)
        # the run stopped at the best epoch trains the same steps, so its
        # parameters are the ones the 4-epoch run must restore
        assert log.best_epoch < 4
        best, _ = train(small_config(epochs=log.best_epoch), tr, va, cmap)
        for name, p in model.params.items():
            assert p.data.tobytes() == best.params[name].data.tobytes(), name

    def test_target_miou_stops_early(self, tiny_data):
        tr, va, cmap = tiny_data
        _, log = train(small_config(epochs=50, target_miou=0.0), tr, va, cmap)
        assert len(log.epochs) == 1

    def test_evaluate_rows_match_report(self, tiny_data):
        tr, va, cmap = tiny_data
        model, _ = train(small_config(), tr, va, cmap)
        prepared = [model.prepare(s, cmap) for s in va]
        report, rows = evaluate(model, prepared)
        assert len(rows) == report.n_samples
        assert report.miou == pytest.approx(100.0 * np.mean([r["tiou"] for r in rows]))
        for row in rows:
            assert set(row) == {
                "video_id", "query", "pred_start_s", "pred_end_s",
                "gt_start_s", "gt_end_s", "tiou",
            }


    def test_evaluate_chunking_does_not_change_predictions(self, tiny_data, monkeypatch):
        tr, va, cmap = tiny_data
        model, _ = train(small_config(), tr, va, cmap)
        # more frames than twice the default budget, so the default makes several runs
        split, _ = generate(SyntheticSpec(n_samples=140, t_range=(30, 40), seed=1))
        prepared = [model.prepare(s, cmap) for s in split]
        assert sum(p.frames for p in prepared) > 2 * model_module.EVAL_FRAMES
        chunks = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda batch, *args: chunks.append(batch) or forward(batch, *args))

        def run(budget):
            chunks.clear()
            monkeypatch.setattr(model_module, "EVAL_FRAMES", budget)
            return (*evaluate(model, prepared), list(chunks))

        default = model_module.EVAL_FRAMES
        report, rows, runs = run(default)
        # runs of whole samples that cover the split once, in order
        assert [p for chunk in runs for p in chunk] == prepared
        assert len(runs) > 2
        for chunk in runs[:-1]:
            frames = [p.frames for p in chunk]
            assert sum(frames) >= default > sum(frames[:-1])  # closed once its frames reach the budget
        assert sum(p.frames for p in runs[-1][:-1]) < default
        report1, rows1, runs1 = run(1)
        assert [len(chunk) for chunk in runs1] == [1] * len(prepared)  # one sample per forward
        report_all, rows_all, runs_all = run(10**9)
        assert runs_all == [prepared]  # one forward
        assert rows1 == rows == rows_all
        assert report1.miou == report.miou == report_all.miou


    def test_graph_blocks_do_not_change_predictions(self, tiny_data, monkeypatch):
        tr, va, cmap = tiny_data
        model, _ = train(small_config(), tr, va, cmap)
        split, _ = generate(SyntheticSpec(n_samples=40, seed=2))
        prepared = model.prepare_all(split, cmap)
        nodes = [p.humans_stacked.shape[0] + p.objects_stacked.shape[0] for p in prepared]
        assert min(nodes) > 0 and sum(nodes) > 2 * model_module.GRAPH_BLOCK_NODES
        assert sum(p.frames for p in prepared) < model_module.EVAL_FRAMES  # one evaluation run
        blocks = []
        spatial_forward = model.spatial_forward
        monkeypatch.setattr(model, "spatial_forward", lambda batch, *args: blocks.append(batch) or spatial_forward(batch, *args))

        def run(budget):
            monkeypatch.setattr(model_module, "GRAPH_BLOCK_NODES", budget)
            blocks.clear()
            _, rows = evaluate(model, prepared)
            return rows, model.predict(prepared), list(blocks)

        default = model_module.GRAPH_BLOCK_NODES
        rows, preds, runs = run(default)
        # blocks of whole samples that cover each predict's batch once, in order
        assert [p for block in runs for p in block] == 2 * prepared
        assert len(runs) > 4
        for block in runs[: len(runs) // 2 - 1]:
            counts = [p.humans_stacked.shape[0] + p.objects_stacked.shape[0] for p in block]
            assert sum(counts) >= default > sum(counts[:-1])  # closed once its node rows reach the budget
        rows1, preds1, runs1 = run(1)
        assert [len(block) for block in runs1] == [1] * 2 * len(prepared)  # one sample per block
        rows_all, preds_all, runs_all = run(10**9)
        assert runs_all == [prepared, prepared]  # one block per predict
        assert rows1 == rows == rows_all
        for others in (preds1, preds_all):
            for pred, other in zip(preds, others):
                np.testing.assert_allclose(other.start_dist, pred.start_dist, rtol=1e-12, atol=0)
                np.testing.assert_allclose(other.end_dist, pred.end_dist, rtol=1e-12, atol=0)

    def test_evaluate_memory_does_not_grow_with_the_split(self, tiny_data):
        tr, va, cmap = tiny_data
        model, _ = train(small_config(), tr, va, cmap)
        split, _ = generate(SyntheticSpec(n_samples=300, seed=2))
        prepared = model.prepare_all(split, cmap)
        frames = np.cumsum([p.frames for p in prepared])
        one_run = int(np.searchsorted(frames, model_module.EVAL_FRAMES)) + 1  # the samples of the first run
        assert frames[-1] > 3 * model_module.EVAL_FRAMES

        def peak(score, samples):
            score(samples)  # first-call costs are not counted
            tracemalloc.start()
            try:
                score(samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # predict bounds its own memory, not only evaluate's use of it
        for score in (lambda samples: evaluate(model, samples), model.predict):
            assert peak(score, prepared) <= 1.1 * peak(score, prepared[:one_run])

    def test_wall_time_ignores_a_clock_step(self, tiny_data, monkeypatch):
        # a wall clock stepped back (NTP, a manual set) must not make the run's elapsed time negative
        tr, va, cmap = tiny_data
        now = [2e9]

        def stepped_back():
            now[0] -= 3600.0
            return now[0]

        monkeypatch.setattr(train_module.time, "time", stepped_back)
        _, log = train(small_config(epochs=3), tr, va, cmap)
        walls = [e["wall_time_s"] for e in log.epochs]
        assert walls[0] >= 0.0 and walls == sorted(walls)


    def test_wall_time_includes_the_validation_pass(self, tiny_data, monkeypatch):
        # a clock that moves only inside evaluate: each entry's wall time counts
        # the passes of its own epoch, so a run target_miou stops is timed whole
        tr, va, cmap = tiny_data
        now = [0.0]
        original = train_module.evaluate

        def timed_evaluate(*args):
            now[0] += 100.0
            return original(*args)

        monkeypatch.setattr(train_module, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(train_module, "evaluate", timed_evaluate)
        _, log = train(small_config(epochs=50, target_miou=0.0), tr, va, cmap)
        assert [e["wall_time_s"] for e in log.epochs] == [200.0]
        _, log = train(small_config(epochs=3, eval_every=2), tr, va, cmap)
        assert [e["wall_time_s"] for e in log.epochs] == [0.0, 200.0, 400.0]


class ReversedByOneModel:
    """predict() decodes an end index one before the start index (2 -> 1)."""

    def __init__(self, swap_degenerate: bool):
        self.swap_degenerate = swap_degenerate
        self.config = SimpleNamespace(batch_size=1)

    def predict(self, batch):
        return [decode([0, 0, 1.0, 0], [0, 1.0, 0, 0], 1.0, 4.0, swap_degenerate=self.swap_degenerate) for _ in batch]


class TestDegeneratePolicy:
    GT = SimpleNamespace(frames=4, sample=SimpleNamespace(video_id="v", query="q", t_start_s=1.0, t_end_s=3.0))

    def test_reversed_by_one_is_counted(self):
        # the decoded interval is [2, 2]: zero length, not reversed in seconds
        report, rows = evaluate(ReversedByOneModel(swap_degenerate=False), [self.GT])
        assert report.n_degenerate == 1
        assert (rows[0]["pred_start_s"], rows[0]["pred_end_s"]) == (2.0, 2.0)
        assert report.miou == 0.0

    def test_swapped_prediction_is_counted_and_scored_swapped(self):
        report, rows = evaluate(ReversedByOneModel(swap_degenerate=True), [self.GT, self.GT])
        assert report.n_degenerate == 2
        assert (rows[0]["pred_start_s"], rows[0]["pred_end_s"]) == (1.0, 3.0)
        assert report.miou == 100.0

    @pytest.mark.parametrize("swap", [False, True])
    def test_validation_decodes_with_config_policy(self, tiny_data, monkeypatch, swap):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["swap_degenerate"])
            return decode(*args, **kwargs)

        monkeypatch.setattr(model_module, "decode", spy)
        tr, va, cmap = tiny_data
        train(small_config(epochs=1, swap_degenerate=swap), tr, va, cmap)
        assert len(seen) == len(tr) + len(va)
        assert set(seen) == {swap}
