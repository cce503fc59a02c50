"""The benchmark's traced boundaries are the program's names.

benchmarks/tracer.py wraps each entry of its BOUNDARIES by looking the name
up where the program's callers find it. A name the program no longer has, or
no longer calls through that lookup, drops its per-layer metric from a
traced run that still exits 0. This runs the benchmark's pipeline once under
the tracer and asks for every span.
"""

import importlib
import importlib.util
import pathlib
import sys

from momentgraph.config import synthetic_config
from momentgraph.dataio import write_dataset
from momentgraph.model import MomentModel
from momentgraph.synth import SyntheticSpec, generate

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
dataio = importlib.import_module("momentgraph.dataio")
train_module = importlib.import_module("momentgraph.train")  # the package's `train` is the function


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves a class's module by name
    spec.loader.exec_module(module)
    return module


def test_every_boundary_records_its_span(tmp_path):
    tracing = load_tracer()
    data_dir, ckpt = str(tmp_path / "data"), str(tmp_path / "model.ckpt")
    samples, cmap = generate(SyntheticSpec(n_samples=12, t_range=(8, 12), seed=0))
    write_dataset(samples, cmap, data_dir)
    cfg = synthetic_config(seed=0, epochs=1, eval_every=1)
    tracer = tracing.Tracer(True)
    tracer.install()
    try:
        # load_dataset -> train -> save -> load -> prepare -> evaluate, each
        # called through the name the tracer patched
        train_samples, val_samples, cmap = dataio.load_dataset(data_dir)
        model, _ = train_module.train(cfg, train_samples, val_samples, cmap)
        model.save(ckpt)
        loaded = MomentModel(cfg, model.vocab)
        loaded.load(ckpt)
        train_module.evaluate(loaded, [loaded.prepare(s, cmap) for s in val_samples])
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    recorded = {span.name for span in tracer.spans}
    expected = {name for _, _, name in tracing.BOUNDARIES} | {"train.step"}
    assert sorted(expected - recorded) == []
