"""Self-tests of the benchmark: span arithmetic and input determinism.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import hashlib
import os

import pytest

import datagen
from reference import REFERENCE_S, SpeedProbe
from run import summary
from tracer import Span, Tracer, layer_totals, self_times, within


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [
        span(0, "train.step", 0.0, 10.0),
        span(1, "temporal.forward", 1.0, 4.0, parent=0),
        span(2, "autodiff.backward", 5.0, 9.0, parent=0),
        span(3, "losses.forward", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 5.0, parent=0),
        span(2, "b", 4.0, 6.0, parent=0),
        span(3, "c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_and_within():
    spans = [
        span(0, "train.step", 0.0, 10.0),
        span(1, "text.forward", 1.0, 2.0, parent=0),
        span(2, "text.forward", 3.0, 5.0, parent=0),
        span(3, "train.validation", 11.0, 14.0),
        span(4, "text.forward", 12.0, 13.0, parent=3),
    ]
    totals = layer_totals(spans)
    assert totals["text.forward"]["calls"] == 3
    assert totals["text.forward"]["self_s"] == pytest.approx(4.0)
    assert totals["train.step"]["self_s"] == pytest.approx(7.0)
    assert within(spans, "train.step") == pytest.approx({"train.step": 7.0, "text.forward": 3.0})


def test_tracer_links_parents_and_units():
    tracer = Tracer(traced=True)
    step = tracer.begin("train.step")
    inner = tracer.begin("text.forward")
    tracer.end(inner)
    tracer.end(step)
    outside = tracer.begin("dataio.load")
    tracer.end(outside)
    assert inner.parent == step.id and inner.unit == step.id == step.unit
    assert outside.parent is None and outside.unit is None
    assert all(s.end >= s.start for s in tracer.spans)


def test_spans_left_open_by_a_failure_end_with_their_parent():
    tracer = Tracer(traced=True)
    unit = tracer.begin("bench.unit")
    tracer.begin("train.step")  # a step that raised before Adam.step
    tracer.begin("text.forward")
    tracer.end(unit)
    assert all(s.end == unit.end >= s.start for s in tracer.spans)
    assert not tracer._stack


def test_normalise_removes_probe_time_and_scales_to_reference_speed():
    probe = SpeedProbe()
    # the kernel ran twice as fast as the reference inside [0, 1], at reference speed after it
    probe.samples = [(0.2, 0.3, REFERENCE_S / 2), (0.6, 0.7, REFERENCE_S / 2), (1.5, 1.6, REFERENCE_S)]
    assert probe.normalise(0.0, 1.0) == pytest.approx((0.8, 1.6))
    # no sample inside: the nearest ones stand in
    assert probe.normalise(1.1, 1.3) == pytest.approx((0.2, 0.3))


def test_summary_reports_percentile_with_ten_samples_beyond():
    assert "p90" in summary([float(i) for i in range(100)])
    assert "p50" in summary([float(i) for i in range(34)])
    assert summary([1.0, 2.0, 3.0]) == {"n": 3, "median": 2.0}


def digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(datagen.DATASETS))
def test_inputs_depend_only_on_seed(kind, tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "SYNTH_SAMPLES", 12)
    monkeypatch.setattr(datagen, "DENSE_SAMPLES", 4)
    make = datagen.DATASETS[kind]
    make(3, str(tmp_path / "a"))
    make(3, str(tmp_path / "b"))
    make(4, str(tmp_path / "c"))
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert digest(tmp_path / "a") != digest(tmp_path / "c")


def test_dense_frames_bind_the_top_n_cut(tmp_path, monkeypatch):
    from momentgraph.dataio import load_dataset

    monkeypatch.setattr(datagen, "DENSE_SAMPLES", 4)
    datagen.dense_dataset(0, str(tmp_path))
    train, val, _ = load_dataset(str(tmp_path))
    frames = [dets for s in train + val for dets in s.detections]
    assert frames and min(len(dets) for dets in frames) > 15
