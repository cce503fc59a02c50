"""One phase of one benchmark workload, in a process of its own.

    python3 benchmarks/workload.py prepare WORKLOAD SEED SECONDS TRACE WORKDIR
    python3 benchmarks/workload.py measure WORKLOAD SEED SECONDS TRACE WORKDIR

`prepare` writes the workload's dataset (and, for eval_synth, trains and
saves the checkpoint to evaluate; for train_dense, trains the quick-start
epoch its val mIoU comes from). `measure` runs the workload as a single
closed-loop client. Each writes WORKDIR/<phase>.json for run.py, which
starts every phase in a fresh process because `ru_maxrss` never goes down.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported. Every matrix here is small, so one
# thread is the fastest setting and the steadiest.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from datagen import DATASETS  # noqa: E402
from reference import SpeedProbe  # noqa: E402
from tracer import Tracer, count_constructions, layer_totals, within  # noqa: E402

from momentgraph.autodiff import Tensor  # noqa: E402
from momentgraph.config import synthetic_config  # noqa: E402
from momentgraph.model import MomentModel  # noqa: E402
from momentgraph.text import Vocabulary  # noqa: E402
from momentgraph.train import evaluate, train  # noqa: E402

dataio = importlib.import_module("momentgraph.dataio")

SETUP_REPS = 7


@dataclass(frozen=True)
class Workload:
    data: str  # key of datagen.DATASETS
    kind: str  # "train" or "eval"
    epochs: int  # epochs per train() call; for eval, of the checkpoint run
    trace_units: int  # units run untraced and then traced by --trace 1


WORKLOADS = {
    "learn_synth": Workload("synth", "train", 1, 1),
    "eval_synth": Workload("synth", "eval", 1, 3),
    "train_dense": Workload("dense", "train", 1, 1),
}


def config(seed: int, w: Workload, **overrides):
    # validate once, after the last epoch (train() always validates then)
    return synthetic_config(**{"seed": seed, "epochs": w.epochs, "eval_every": w.epochs, **overrides})


class Run:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def write_checkpoint(model: MomentModel, path: str) -> None:
    """What `momentgraph train` leaves: parameters plus the vocabulary sidecar."""
    model.save(path)
    with open(path + ".vocab.json", "w", encoding="utf-8") as f:
        json.dump(model.vocab.tokens(), f)


def load_for_eval(cfg, data_dir: str, ckpt: str):
    """What `momentgraph eval` does before its first prediction, for both splits."""
    train_samples, val_samples, cmap = dataio.load_dataset(data_dir)
    with open(ckpt + ".vocab.json", encoding="utf-8") as f:
        vocab = Vocabulary.from_tokens(json.load(f))
    model = MomentModel(cfg, vocab)
    model.load(ckpt)
    prepared = [[model.prepare(s, cmap) for s in split] for split in (val_samples, train_samples)]
    return model, prepared


def scores(log) -> dict:
    """What a training run must reproduce: its logged scores and final loss."""
    last = log.epochs[-1]
    losses = [e[k] for e in log.epochs for k in ("total_loss", "kl_loss", "spatial_loss")]
    if not all(math.isfinite(x) for x in losses):
        raise ValueError(f"non-finite training loss in {losses}")
    return {"val_miou": log.best_val_miou, "train_miou": last["train_miou"],
            "train_loss": last["total_loss"], "epochs": len(log.epochs)}


# ---------------------------------------------------------------------------
# units of work: each is deterministic, so every unit of a run does the same work


def train_unit(tracer: Tracer, run: Run, cfg, data, data_dir: str, ckpt: str, expect: dict) -> None:
    """train() as `momentgraph train` runs it, then the checkpoint round trip."""
    run.attempted += 1
    unit = tracer.begin("bench.unit")
    try:
        model, log = train(cfg, *data)
        tracer.counts["train.epochs_run"] += len(log.epochs)
        got = scores(log)
        write_checkpoint(model, ckpt)
        loaded, prepared = load_for_eval(cfg, data_dir, ckpt)
    except Exception as exc:  # a failed operation is counted and reported, not fatal
        run.fail(f"training run: {type(exc).__name__}: {exc}")
        tracer.end(unit)
        return
    if expect.setdefault("unit", got) != got:
        run.fail(f"repeated training run differs: {got} != {expect['unit']}")
    expect.update(got)
    # the checkpoint round trip must reproduce the scores train() logged
    eval_unit(tracer, run, loaded, prepared, expect)
    tracer.end(unit)


def eval_unit(tracer: Tracer, run: Run, model, prepared, expect: dict) -> None:
    """One evaluate() pass over each split, checked bit for bit against the
    scores of the training run that wrote the checkpoint."""
    for split, key in zip(prepared, ("val_miou", "train_miou")):
        run.attempted += 1
        span = tracer.begin("eval.pass", items=len(split))
        try:
            report, _ = evaluate(model, split)
        except Exception as exc:
            run.fail(f"evaluation pass: {type(exc).__name__}: {exc}")
            continue
        finally:
            tracer.end(span)
        if report.miou != expect[key] or report.n_samples != len(split):
            run.fail(f"{key} {report.miou!r} over {report.n_samples} samples != {expect[key]!r} from the checkpoint run")


# ---------------------------------------------------------------------------
# phases


def prepare(name: str, seed: int, traced: bool, workdir: str) -> dict:
    w = WORKLOADS[name]
    data_dir = os.path.join(workdir, "data")
    DATASETS[w.data](seed, data_dir)
    if w.kind == "eval":
        return checkpoint_run(seed, w, traced, workdir, data_dir)
    if w.data != "synth":
        return {"attempted": 1, "quick_start": quick_start(seed, workdir)}
    return {}


def checkpoint_run(seed: int, w: Workload, traced: bool, workdir: str, data_dir: str) -> dict:
    """eval_synth's checkpoint, from a short `momentgraph train` run."""
    data = dataio.load_dataset(data_dir)
    warm_up(seed, w, data)
    tracer = Tracer(traced)
    tracer.install()
    try:
        with SpeedProbe() as probe:
            model, log = train(config(seed, w), *data)
        write_checkpoint(model, os.path.join(workdir, "model.ckpt"))
    finally:
        tracer.uninstall()
    tracer.counts["train.epochs_run"] += len(log.epochs)
    if traced:
        tracer.write(os.path.join(workdir, "prepare.spans.jsonl"))
    return {**scores(log), "attempted": 1, "n_train": len(data[0]), "epochs_run": len(log.epochs),
            "timings": timings(tracer, probe), "layers": layers(tracer)}


def warm_up(seed: int, w: Workload, data) -> None:
    """One training step and a two-sample validation, untimed, so that
    first-call costs are not timed."""
    cfg = config(seed, w, epochs=1)
    train(cfg, data[0][:cfg.batch_size], data[1][:2], data[2])


def quick_start(seed: int, workdir: str) -> dict:
    """Scores of one quick-start epoch (learn_synth's unit) on the seed's synth
    data. They give train_dense its val mIoU: one epoch of its own 48 samples
    leaves val mIoU anywhere from 0 to about 32, depending on the seed."""
    quick_dir = os.path.join(workdir, "quick")
    DATASETS["synth"](seed, quick_dir)
    _, log = train(config(seed, WORKLOADS["learn_synth"]), *dataio.load_dataset(quick_dir))
    return scores(log)


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    w = WORKLOADS[name]
    data_dir = os.path.join(workdir, "data")
    ckpt = os.path.join(workdir, "model.ckpt")
    cfg = config(seed, w)
    run = Run()
    expect: dict = {}
    if w.kind == "eval":
        with open(os.path.join(workdir, "prepare.json"), encoding="utf-8") as f:
            expect = json.load(f)

    with SpeedProbe() as probe:
        # set-up as a user pays it on every run, repeated: the median is reported
        setup = Tracer(traced)
        setup.install()
        try:
            for _ in range(SETUP_REPS):
                span = setup.begin("bench.setup")
                if w.kind == "eval":
                    model, prepared = load_for_eval(cfg, data_dir, ckpt)
                else:
                    data = dataio.load_dataset(data_dir)
                    train(config(seed, w, epochs=0), *data)  # vocabulary, model build, prepare
                setup.end(span)
        finally:
            setup.uninstall()

        if w.kind == "eval":
            evaluate(model, prepared[0][:4])  # warm-up: first-call costs are not timed
        else:
            warm_up(seed, w, data)

        def units(tracer: Tracer, budget_s: float | None, count: int | None) -> Tracer:
            tracer.install()
            try:
                t0 = time.perf_counter()
                n = 0
                while not run.failed:
                    if w.kind == "eval":
                        eval_unit(tracer, run, model, prepared, expect)
                    else:
                        train_unit(tracer, run, cfg, data, data_dir, ckpt, expect)
                    n += 1
                    if n == count or (budget_s is not None and time.perf_counter() - t0 >= budget_s):
                        break
            finally:
                tracer.uninstall()
            return tracer

        if traced:
            untraced = units(Tracer(False), None, w.trace_units)
            measured = units(Tracer(True), None, w.trace_units)
        else:
            measured = units(Tracer(False), seconds, None)

    if traced and not run.failed:
        # Tensor constructions per predicted sample, in a pass of its own
        # so that counting does not slow the traced units
        count_model, count_prepared = (model, prepared) if w.kind == "eval" else load_for_eval(cfg, data_dir, ckpt)
        with count_constructions(Tensor) as n_tensors:
            evaluate(count_model, count_prepared[0])
        measured.counts["autodiff.tensors"] = n_tensors[0]
        measured.counts["autodiff.tensors_samples"] = len(count_prepared[0])

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "timings": {**timings(setup, probe), **timings(measured, probe)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scores": {k: expect.get(k) for k in ("val_miou", "train_miou", "train_loss")},
        "n_train": len(data[0]) if w.kind != "eval" else None,
        "epochs_run": measured.counts.get("train.epochs_run", 0),
        "env": environment(),
    }
    if traced:
        result["unit_s"] = {"untraced": timings(untraced, probe), "traced": timings(measured, probe)}
        result["within"] = {root: within(measured.spans, root) for root in ("train.step", "bench.unit", "eval.pass")}
        measured.spans = setup.spans + shift_ids(measured.spans, len(setup.spans))
        for key, value in setup.counts.items():
            measured.counts[key] += value
        measured.write(os.path.join(workdir, "measure.spans.jsonl"))
        result["layers"] = layers(measured)
        result["absent"] = setup.absent + measured.absent
    return result


def shift_ids(spans, offset: int):
    for s in spans:
        s.id += offset
        s.parent = None if s.parent is None else s.parent + offset
        s.unit = None if s.unit is None else s.unit + offset
    return spans


def timings(tracer: Tracer, probe: SpeedProbe) -> dict:
    """Durations (less the probe's time, and at reference speed) and item
    counts of the spans the end-to-end metrics are read from."""
    out: dict = {}
    for span in tracer.spans:
        if span.name in ("bench.setup", "train.step", "train.validation", "eval.pass"):
            row = out.setdefault(span.name, {"s": [], "norm": [], "items": []})
            seconds, norm = probe.normalise(span.start, span.end)
            row["s"].append(seconds)
            row["norm"].append(norm)
            row["items"].append(span.items)
    return out


def layers(tracer: Tracer) -> dict:
    return {"totals": layer_totals(tracer.spans), "counts": dict(tracer.counts)}


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS)}


def main(argv: list[str]) -> int:
    phase, name, seed, seconds, trace, workdir = argv
    try:
        if phase == "prepare":
            out = prepare(name, int(seed), trace == "1", workdir)
        else:
            out = measure(name, int(seed), float(seconds), trace == "1", workdir)
    except Exception as exc:  # set-up, warm-up or data generation: one failed operation
        traceback.print_exc()
        out = {"attempted": 1, "failed": 1, "errors": [f"{phase}: {type(exc).__name__}: {exc}"]}
    with open(os.path.join(workdir, f"{phase}.json"), "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
