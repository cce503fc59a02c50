"""momentgraph benchmark: one workload per invocation, from the repository root.

    python3 benchmarks/run.py --workload learn_synth --seed 0 --seconds 20 --trace 0

Runs the workload in fresh processes (see workload.py), checks its outputs
and prints each metric with its unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from a
traced run, plus the tracing overhead. README.md describes both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("learn_synth", "eval_synth", "train_dense")
PROGRAM = os.path.join("src", "momentgraph")
WORK_ROOT = ".bench_work"
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# boundaries reported as <name>_s (self time) and <name>.calls
LAYER_SPANS = [
    "dataio.load",
    "checkpoint.load",
    "model.prepare",
    "text.forward",
    "graph.forward",
    "temporal.forward",
    "losses.forward",
    "model.predict",
    "autodiff.backward",
    "optim.step",
    "train.step",
    "train.validation",
]


def summary(values: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
            break
    return out


def fmt(stats: dict, scale: float = 1.0, unit: str = "s") -> str:
    parts = [f"n={stats['n']}", f"median={stats['median'] * scale:.4g}{unit}"]
    parts += [f"{k}={v * scale:.4g}{unit}" for k, v in stats.items() if k.startswith("p")]
    return " ".join(parts)


def code_hash() -> str:
    digest = hashlib.sha256()
    for root in (PROGRAM, os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child(phase: str, args, workdir: str, deadline: float) -> dict:
    """Runs one phase in a fresh process; a phase that dies is one failed operation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), phase, args.workload,
           str(args.seed), str(args.seconds), str(args.trace), workdir]
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=max(1.0, deadline - time.monotonic()))
        with open(os.path.join(workdir, f"{phase}.json"), encoding="utf-8") as f:
            return json.load(f)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return {"attempted": 1, "failed": 1, "errors": [f"{phase} did not complete: {exc}"]}


def total(rows: list[dict], key: str) -> float:
    return sum(x for row in rows for x in row[key])


def end_to_end(prep: dict, meas: dict) -> tuple[dict, list[str], list[str]]:
    """Timings are normalised for machine speed (reference.py); raw ones are printed beside them.

    A metric with no samples (its operations failed first) is left out and
    reported as a failed check.
    """
    lines, missing = [], []
    metrics = {}

    def put(name, value, unit, detail=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.6g} {unit}  {detail}".rstrip())

    timings = meas["timings"]
    setup = summary(timings["bench.setup"]["norm"])
    raw = summary(timings["bench.setup"]["s"])
    put("setup_s", setup["median"], "s", f"{fmt(setup)}; raw {fmt(raw)}")

    # eval_synth trains only in the set-up run that writes its checkpoint
    side = prep if "train.step" in prep.get("timings", {}) else meas
    steps = side["timings"].get("train.step")
    samples = side["n_train"] * side["epochs_run"]
    if steps and samples:
        put("train_samples_per_s", samples / sum(steps["norm"]), "samples/s",
            f"({samples} samples; raw {samples / sum(steps['s']):.4g}/s; "
            f"per step: {fmt(summary(steps['norm']), 1e3, 'ms')})")
    else:
        missing.append("train_samples_per_s: no completed training epoch")

    passes = [timings[k] for k in ("train.validation", "eval.pass") if k in timings]
    items = total(passes, "items")
    if items:
        put("eval_samples_per_s", items / total(passes, "norm"), "samples/s",
            f"({items} samples; raw {items / total(passes, 's'):.4g}/s; "
            f"per pass: {fmt(summary([x for p in passes for x in p['norm']]), 1e3, 'ms')})")
    else:
        missing.append("eval_samples_per_s: no completed evaluation pass")

    scores = prep if "train_loss" in prep else meas["scores"]
    if scores.get("train_loss") is not None:
        put("train_loss", scores["train_loss"], "nats", "(mean total loss of the last epoch)")
    else:
        missing.append("train_loss: no completed training run")
    quality = prep.get("quick_start", scores)
    if quality.get("val_miou") is not None:
        origin = "a quick-start epoch on this seed's synth data" if "quick_start" in prep else "this workload's model"
        put("val_miou", quality["val_miou"], "points", f"(best val mIoU of {origin})")
    else:
        missing.append("val_miou: no completed training run")
    put("peak_rss_mb", meas["peak_rss_mb"], "MB")
    speed = [n / s for row in timings.values() for s, n in zip(row["s"], row["norm"]) if s]
    lines.append(f"machine speed: {statistics.median(speed):.3g} x the reference speed (normalised time = raw time x this)")
    return metrics, lines, [f"no value for {m}" for m in missing]


def per_layer(prep: dict, meas: dict) -> tuple[dict, list[str], dict]:
    totals = dict(prep.get("layers", {}).get("totals", {}))
    counts = dict(prep.get("layers", {}).get("counts", {}))
    # a layer the timed phase exercises is reported from it; eval_synth's
    # training-side layers come from its set-up run
    totals.update(meas["layers"]["totals"])
    counts.update(meas["layers"]["counts"])
    metrics, lines, exact = {}, [], {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    absent = list(meas.get("absent", []))
    for name in LAYER_SPANS:
        row = totals.get(name)
        if row is None:
            absent.append(f"{name} (never called)")
            continue
        put(f"{name}_s", row["self_s"], "s")
        put(f"{name}.calls", row["calls"], "count")
        exact[f"{name}.calls"] = row["calls"]
        lines.append(f"  {name:<18} calls={row['calls']:<7} self={row['self_s']:.4f}s total={row['total_s']:.4f}s")

    loads = totals.get("dataio.load", {}).get("calls")
    if loads and "dataio.bytes_read" in counts:
        put("dataio.bytes_read", counts["dataio.bytes_read"] / loads, "B")
        exact["dataio.bytes_read"] = counts["dataio.bytes_read"]
    backwards = totals.get("autodiff.backward", {}).get("calls")
    if backwards and "autodiff.tape_nodes" in counts:
        put("autodiff.tape_nodes_per_step", counts["autodiff.tape_nodes"] / backwards, "nodes/step")
        exact["autodiff.tape_nodes"] = counts["autodiff.tape_nodes"]
    if counts.get("autodiff.tensors_samples"):
        put("autodiff.tensors_per_sample", counts["autodiff.tensors"] / counts["autodiff.tensors_samples"], "tensors/sample")
        exact["autodiff.tensors"] = counts["autodiff.tensors"]
    if counts.get("train.epochs_run"):
        put("train.epochs_run", counts["train.epochs_run"], "count")
        exact["train.epochs_run"] = counts["train.epochs_run"]

    # tracing overhead: the same units of work run untraced, then traced
    timed = {}
    for side in ("untraced", "traced"):
        rows = [meas["unit_s"][side][k] for k in ("train.step", "train.validation", "eval.pass") if k in meas["unit_s"][side]]
        timed[side] = (total(rows, "s"), total(rows, "norm"))
    if timed["untraced"][1] and timed["traced"][1]:
        put("trace.overhead_pct", 100.0 * (timed["traced"][1] / timed["untraced"][1] - 1.0), "%")
    lines.append("  tracing overhead on steps and passes: untraced {:.4f}s raw ({:.4f}s normalised), "
                 "traced {:.4f}s raw ({:.4f}s normalised)".format(*timed["untraced"], *timed["traced"]))

    # where the traced steps and units went: self times add up to the span totals
    for root, rows in meas["within"].items():
        if rows:
            top = sorted(rows.items(), key=lambda kv: -kv[1])
            lines.append(f"  inside {root}: {sum(rows.values()):.4f}s = " + ", ".join(f"{k} {v:.4f}" for k, v in top))
    for item in absent:
        lines.append(f"  absent: {item}")
    return metrics, lines, exact


def check_counts(args, exact: dict) -> list[str]:
    """Counts must repeat exactly across runs of the same code and seed."""
    path = os.path.join(WORK_ROOT, "counts", f"{args.workload}-seed{args.seed}-{code_hash()}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(exact, f, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as f:
        before = json.load(f)
    return [f"{k}: {before.get(k)} then {exact.get(k)}" for k in sorted(set(before) | set(exact))
            if before.get(k) != exact.get(k)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PROGRAM, "__init__.py")):
        print(f"benchmark: no program source at {PROGRAM}; run from the repository root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.abspath(os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        prep = child("prepare", args, workdir, deadline)
        meas = {} if prep.get("failed") else child("measure", args, workdir, deadline)
        if args.trace:
            traces = os.path.join(WORK_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            for phase in ("prepare", "measure"):
                spans = os.path.join(workdir, f"{phase}.spans.jsonl")
                if os.path.exists(spans):
                    shutil.copy(spans, os.path.join(traces, f"{args.workload}-seed{args.seed}-{phase}.spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = prep.get("attempted", 0) + meas.get("attempted", 0)
    failed = prep.get("failed", 0) + meas.get("failed", 0)
    errors = prep.get("errors", []) + meas.get("errors", [])
    env = dict(meas.get("env", {}), nproc=os.cpu_count(), git_commit=git_commit(), code=code_hash(),
               workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics, lines = {}, []
    if "timings" not in meas:
        errors.append("no metrics: the measure phase did not run to its end")
    elif args.trace:
        metrics, lines, exact = per_layer(prep, meas)
        mismatches = check_counts(args, exact)
        errors += [f"count did not repeat: {m}" for m in mismatches]
        print("per-layer busy time (self = minus child spans), traced run:")
    else:
        metrics, lines, missing = end_to_end(prep, meas)
        errors += missing
    for line in lines:
        print(line)
    for err in errors:
        print(f"check failed: {err}")
    print(f"operations: {attempted} attempted, {failed} failed")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
