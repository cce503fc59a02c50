"""Spans recorded from outside the program, around calls into its modules.

A Tracer keeps spans in memory (name, start, end, parent span, unit id)
and counters. `install` wraps the public functions listed in BOUNDARIES
by replacing them in the namespace their callers look them up in, and
`uninstall` puts the originals back. Nothing here imports numpy, so the
span arithmetic can be tested without the program.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute path, span name). Each boundary is looked up where its
# callers find it: model.py binds encode_query, temporal_forward and the two
# losses by name, and train.py calls evaluate and ad.backward through module
# globals.
BOUNDARIES = [
    ("momentgraph.dataio", "load_dataset", "dataio.load"),
    ("momentgraph.model", "MomentModel.load", "checkpoint.load"),
    ("momentgraph.model", "MomentModel.prepare", "model.prepare"),
    ("momentgraph.model", "encode_query", "text.forward"),
    ("momentgraph.model", "MomentModel.spatial_forward", "graph.forward"),
    ("momentgraph.model", "temporal_forward", "temporal.forward"),
    ("momentgraph.model", "kl_loss", "losses.forward"),
    ("momentgraph.model", "spatial_loss", "losses.forward"),
    ("momentgraph.model", "MomentModel.predict", "model.predict"),
    ("momentgraph.autodiff", "backward", "autodiff.backward"),
    ("momentgraph.optim", "Adam.step", "optim.step"),
    ("momentgraph.train", "evaluate", "train.validation"),
]

# Files parsed by load_dataset; their sizes make dataio.bytes_read.
READERS = ["read_annotations", "read_features", "read_detections", "read_category_map", "read_manifest"]

# Spans that group the work of one training step or one predicted sample.
UNIT_SPANS = ("train.step", "model.predict")

# The end-to-end metrics are read from these spans, so an untraced run
# records them too: one span per training step, one per validation pass.
MEASURED = ("train.step", "train.validation")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None
    items: int = 0  # samples handled, where the boundary knows it


class Tracer:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str, items: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent.id if parent else None, None, items)
        span.unit = span.id if name in UNIT_SPANS else (parent.unit if parent else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        # a span left open by an exception below this one is closed with it
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = span.end

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    # -- installing boundaries ----------------------------------------------

    def _patch(self, module: str, path: str, make) -> bool:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            return False
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, make(fn))
        return True

    def install(self) -> None:
        for module, path, name in BOUNDARIES:
            if name not in MEASURED and not self.traced:
                continue
            if name == "train.validation":
                ok = self._patch(module, path, self._wrap_evaluate)
            elif name == "autodiff.backward":
                ok = self._patch(module, path, self._wrap_backward)
            else:
                ok = self._patch(module, path, lambda fn, name=name: self._wrap(fn, name))
            if not ok:
                self.absent.append(f"{name} ({module}.{path} not found)")
        # a training step runs from Adam.zero_grad() to the end of Adam.step()
        if not self._patch("momentgraph.optim", "Adam.zero_grad", self._wrap_zero_grad):
            self.absent.append("train.step (momentgraph.optim.Adam.zero_grad not found)")
        if not self._patch("momentgraph.optim", "Adam.step", self._wrap_adam_step):
            self.absent.append("train.step (momentgraph.optim.Adam.step not found)")
        if self.traced:
            for reader in READERS:
                if not self._patch("momentgraph.dataio", reader, self._wrap_reader):
                    self.absent.append(f"dataio.bytes_read (momentgraph.dataio.{reader} not found)")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap_zero_grad(self, fn):
        def zero_grad(*args, **kwargs):
            self.begin("train.step")
            return fn(*args, **kwargs)

        return zero_grad

    def _wrap_adam_step(self, fn):
        def step(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                open_steps = [s for s in self._stack if s.name == "train.step"]
                if open_steps:
                    self.end(open_steps[-1])

        return step

    def _wrap_evaluate(self, fn):
        def evaluate(model, prepared, *args, **kwargs):
            span = self.begin("train.validation", items=len(prepared))
            try:
                return fn(model, prepared, *args, **kwargs)
            finally:
                self.end(span)

        return evaluate

    def _wrap_backward(self, fn):
        autodiff = importlib.import_module("momentgraph.autodiff")
        active_tape = getattr(autodiff, "active_tape", None)

        def backward(*args, **kwargs):
            tape = active_tape() if active_tape else None
            if tape is not None:
                self.counts["autodiff.tape_nodes"] += len(tape)
            span = self.begin("autodiff.backward")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return backward

    def _wrap_reader(self, fn):
        def reader(path, *args, **kwargs):
            self.counts["dataio.bytes_read"] += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return reader

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


@contextmanager
def count_constructions(cls):
    """Count the cls instances built inside the block; yields a one-item list."""
    original = cls.__init__
    n = [0]

    def counted(obj, *args, **kwargs):
        n[0] += 1
        original(obj, *args, **kwargs)

    cls.__init__ = counted
    try:
        yield n
    finally:
        cls.__init__ = original


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, cursor, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    own = self_times(spans)
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = totals[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.id]
    return dict(totals)


def within(spans: list[Span], root_name: str) -> dict[str, float]:
    """Self seconds per span name, counting only spans inside a root_name span."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        node = span
        while node is not None and node.name != root_name:
            node = by_id.get(node.parent) if node.parent is not None else None
        if node is not None:
            out[span.name] += own[span.id]
    return dict(out)
