"""Evaluation metrics: temporal IoU, recall at thresholds and mean IoU."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_ALPHAS = (0.3, 0.5, 0.7, 0.9)


@dataclass
class Interval:
    start_s: float
    end_s: float


def tiou(a: Interval, b: Interval) -> float:
    """Temporal intersection-over-union in [0, 1].

    Two identical zero-length intervals have tIoU 1; a reversed interval
    (end < start) is treated as zero overlap.
    """
    if a.end_s < a.start_s or b.end_s < b.start_s:
        return 0.0
    inter = min(a.end_s, b.end_s) - max(a.start_s, b.start_s)
    if inter < 0.0:
        return 0.0
    union = max(a.end_s, b.end_s) - min(a.start_s, b.start_s)
    if union == 0.0:
        return 1.0  # both degenerate at the same point
    return inter / union


@dataclass
class EvalReport:
    recall_at: dict[float, float]
    miou: float
    n_samples: int
    n_degenerate: int = 0  # end index decoded before start index, see temporal.decode

    def to_dict(self) -> dict:
        return {
            "recall_at": {f"{a:g}": v for a, v in self.recall_at.items()},
            "miou": self.miou,
            "n_samples": self.n_samples,
            "n_degenerate": self.n_degenerate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        header = " | ".join([f"R@{a:g}" for a in self.recall_at] + ["mIoU", "n"])
        row = " | ".join(
            [f"{v:6.2f}" for v in self.recall_at.values()] + [f"{self.miou:6.2f}", str(self.n_samples)]
        )
        return f"{header}\n{row}"


def recall_at(pairs: list[tuple[Interval, Interval]], alphas=DEFAULT_ALPHAS) -> dict[float, float]:
    """Percentage of (pred, gt) pairs with tIoU strictly larger than alpha."""
    return evaluate_pairs(pairs, alphas=alphas).recall_at


def miou(pairs: list[tuple[Interval, Interval]]) -> float:
    """Mean per-pair tIoU, as a percentage."""
    return evaluate_pairs(pairs).miou


def evaluate_pairs(pairs: list[tuple[Interval, Interval]], alphas=DEFAULT_ALPHAS) -> EvalReport:
    """Score (pred, gt) pairs; a reversed prediction scores zero overlap."""
    if not pairs:
        raise InputError("evaluate_pairs needs at least one pair")
    vals = [tiou(p, g) for p, g in pairs]
    return EvalReport(
        recall_at={a: 100.0 * sum(v > a for v in vals) / len(vals) for a in alphas},
        miou=100.0 * float(np.mean(vals)),
        n_samples=len(vals),
    )
