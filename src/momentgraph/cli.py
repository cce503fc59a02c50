"""Command-line entry points: synth, train, eval, gradcheck, ablate.

Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checkpoint import load_params
from .config import RunConfig, load_config, synthetic_config
from .dataio import load_dataset, write_dataset
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InputError,
    MomentGraphError,
    TrainingError,
)
from .gradcheck import format_results, run_gradcheck
from .graph import VARIANTS
from .metrics import DEFAULT_ALPHAS
from .model import MomentModel
from .synth import SyntheticSpec, generate
from .text import Vocabulary
from .train import evaluate, train

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _at_least(low: int, kind=int):
    """The type of a flag whose value must be a finite int (or float) of at least low."""

    def parse(text: str):
        try:
            if low <= kind(text) < float("inf"):
                return kind(text)
        except ValueError:
            pass
        noun = "an integer" if kind is int else "a finite number"
        raise argparse.ArgumentTypeError(f"expected {noun} of at least {low}, got {text!r}")

    return parse


def _resolve_config(args, stored: dict | None = None) -> RunConfig:
    """Flags over the --config file or the synthetic preset; stored as in load_config.
    A flag that was given overrides the config field its dest names."""
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    if args.config:
        return load_config(args.config, overrides, stored)
    # without a config file, fall back to the desk-scale synthetic preset
    return synthetic_config(**{k: v for k, v in {**overrides, **(stored or {})}.items() if v is not None})


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_samples=args.samples,
        t_range=(args.t_min, args.t_max),
        signal_strength=args.signal,
        noise_std=args.noise,
        seed=args.seed,
    )
    samples, cmap = generate(spec)
    write_dataset(samples, cmap, args.out)
    n_videos = len({s.video_id for s in samples})
    print(f"wrote {len(samples)} samples over {n_videos} videos to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    train_samples, val_samples, cmap = load_dataset(config.data_dir)
    model, log = train(config, train_samples, val_samples, cmap, verbose=not args.quiet)
    model.save(config.checkpoint)
    if config.report:
        log.save(config.report)
    if log.best_epoch is None:
        print(f"no validation ran; checkpoint: {config.checkpoint}")
    else:
        print(f"best val mIoU {log.best_val_miou:.2f} at epoch {log.best_epoch}; checkpoint: {config.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    meta, params = load_params(_resolve_config(args).checkpoint)
    config = _resolve_config(args, meta["model"])
    model = MomentModel(config, Vocabulary(meta["vocab"]))
    model.restore(meta, params)
    train_samples, val_samples, cmap = load_dataset(config.data_dir)
    samples = train_samples if args.split == "train" else val_samples
    if not samples:
        raise DataError(f"the {args.split} split has no samples")
    prepared = model.prepare_all(samples, cmap)
    report, rows = evaluate(model, prepared)
    print(report.table())
    if config.report:
        with open(config.report, "w", encoding="utf-8") as f:
            f.write(report.to_json())
    if args.dump_predictions:
        with open(args.dump_predictions, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(variant=args.variant, entries_per_block=args.entries, seed=args.seed)
    print(format_results(results))
    if any(not r.passed for r in results):
        return NUMERIC_EXIT
    return 0


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    train_samples, val_samples, cmap = load_dataset(config.data_dir)
    rows = []

    def run_one(label: str, **cfg_overrides):
        cfg = dataclasses.replace(config, **cfg_overrides)
        model, _ = train(cfg, train_samples, val_samples, cmap)
        prepared_val = model.prepare_all(val_samples, cmap)
        report, _ = evaluate(model, prepared_val)
        row = {"name": label, "mIoU": report.miou}
        row.update({f"R@{a:g}": v for a, v in report.recall_at.items()})
        return row

    for n in (0, 1, 2, 3, 4):
        rows.append(run_one(f"N={n}", variant="full", iterations=n))
    for variant in VARIANTS:
        if variant == "full":
            continue
        rows.append(run_one(variant, variant=variant, iterations=config.iterations))

    header = ["name"] + [f"R@{a:g}" for a in DEFAULT_ALPHAS] + ["mIoU"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([row["name"]] + [f"{row[h]:.2f}" for h in header[1:]]))
    table = "\n".join(lines)
    print(table)
    if config.report:
        with open(config.report, "w", encoding="utf-8") as f:
            f.write(table + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="momentgraph", description="Desk-scale language-conditioned moment localization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_at_least(1), default=250)
    p.add_argument("--t-min", type=_at_least(4), default=12)
    p.add_argument("--t-max", type=int, default=32)  # checked against --t-min in main
    p.add_argument("--signal", type=_at_least(0, float), default=3.0)
    p.add_argument("--noise", type=_at_least(0, float), default=0.3)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_synth)

    for name, fn in (("train", cmd_train), ("eval", cmd_eval), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--data", default=None, dest="data_dir")
        p.add_argument("--report", default=None)
        p.add_argument("--swap-degenerate", action="store_true", default=None)
        if name != "eval":  # eval's model comes from its checkpoint, and it trains nothing
            p.add_argument("--iterations", type=int, default=None)
            p.add_argument("--seed", type=_at_least(0), default=None)
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--target-miou", type=float, default=None, dest="target_miou")
        if name != "ablate":  # ablate saves no checkpoint
            p.add_argument("--checkpoint", default=None)
        if name == "train":  # ablate sets the variant of every run
            p.add_argument("--variant", choices=VARIANTS, default=None)
            p.add_argument("--quiet", action="store_true")
        if name == "eval":
            p.add_argument("--split", choices=("train", "val"), default="val")
            p.add_argument("--dump-predictions", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--entries", type=_at_least(1), default=24)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and args.t_min > args.t_max:
            parser.error(f"argument --t-max: {args.t_max} is below --t-min {args.t_min}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except (DataError, InputError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (TrainingError, MomentGraphError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
