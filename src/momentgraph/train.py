"""Training loop, evaluation pass and the train log."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape
from .config import RunConfig
from .dataio import AnnotatedSample
from .errors import DataError, TrainingError
from .metrics import EvalReport, Interval, evaluate_pairs, tiou
from .model import MomentModel, PreparedSample
from .optim import Adam
from .text import Vocabulary, tokenize
from .visual import CategoryMap


@dataclass
class TrainLog:
    config: dict
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int | None = None  # None until a validation pass runs
    best_val_miou: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, allow_nan=False)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())


def build_vocab(samples: list[AnnotatedSample]) -> Vocabulary:
    tokens = []
    for s in samples:
        tokens.extend(tokenize(s.query))
    return Vocabulary(tokens)


def evaluate(model: MomentModel, prepared: list[PreparedSample]) -> tuple[EvalReport, list[dict]]:
    """Forward + decode on a split, in input order. Returns the report and
    per-pair dump rows."""
    preds = model.predict(prepared)
    pairs = []
    rows = []
    n_degenerate = 0
    for s, pred in zip((p.sample for p in prepared), preds):
        n_degenerate += pred.degenerate
        pred_iv = Interval(pred.start_seconds, pred.end_seconds)
        gt_iv = Interval(s.t_start_s, s.t_end_s)
        pairs.append((pred_iv, gt_iv))
        rows.append(
            {
                "video_id": s.video_id,
                "query": s.query,
                "pred_start_s": pred.start_seconds,
                "pred_end_s": pred.end_seconds,
                "gt_start_s": s.t_start_s,
                "gt_end_s": s.t_end_s,
                "tiou": tiou(pred_iv, gt_iv),
            }
        )
    report = evaluate_pairs(pairs)
    report.n_degenerate = n_degenerate
    return report, rows


def train(
    config: RunConfig,
    train_samples: list[AnnotatedSample],
    val_samples: list[AnnotatedSample],
    cmap: CategoryMap,
    verbose: bool = False,
) -> tuple[MomentModel, TrainLog]:
    """Mini-batch training with periodic validation and best-mIoU checkpointing.

    Fully deterministic for a fixed config + seed: shuffling and dropout both
    draw from one seeded generator. An empty split is a DataError.
    """
    for split, samples in (("train", train_samples), ("val", val_samples)):
        if not samples:
            raise DataError(f"the {split} split has no samples")
    vocab = build_vocab(train_samples)
    model = MomentModel(config, vocab)
    prepared_train = model.prepare_all(train_samples, cmap)
    prepared_val = model.prepare_all(val_samples, cmap)
    opt = Adam(model.params, lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed + 1)
    log = TrainLog(config=asdict(config))
    best = opt.data.copy()
    n = len(prepared_train)
    t0 = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_total = epoch_kl = epoch_sp = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            opt.zero_grad()
            with GradientTape():
                batch_loss, kl, sp = model.loss([prepared_train[i] for i in batch], rng=rng)
                if not np.isfinite(batch_loss.data):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, step {start // config.batch_size}")
                ad.backward(batch_loss)
            opt.step()
            epoch_total += float(batch_loss.data)
            epoch_kl += float(kl.data)
            epoch_sp += float(sp.data)

        entry = {
            "epoch": epoch,
            "total_loss": epoch_total / n,
            "kl_loss": epoch_kl / n,
            "spatial_loss": epoch_sp / n,
            "train_miou": None,
            "val_miou": None,
            "val_degenerate": None,
        }
        target_reached = False
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            train_report, _ = evaluate(model, prepared_train)
            val_report, _ = evaluate(model, prepared_val)
            entry["train_miou"] = train_report.miou
            entry["val_miou"] = val_report.miou
            entry["val_degenerate"] = val_report.n_degenerate
            if log.best_val_miou is None or val_report.miou > log.best_val_miou:
                log.best_val_miou = val_report.miou
                log.best_epoch = epoch
                best = opt.data.copy()
            if verbose:
                print(
                    f"epoch {epoch:4d}  loss {entry['total_loss']:.4f}  "
                    f"train mIoU {train_report.miou:.2f}  val mIoU {val_report.miou:.2f}"
                )
            target_reached = config.target_miou is not None and val_report.miou >= config.target_miou
        entry["wall_time_s"] = time.perf_counter() - t0  # the epoch's validation pass included
        log.epochs.append(entry)
        if target_reached:
            break

    opt.data[:] = best
    return model, log
