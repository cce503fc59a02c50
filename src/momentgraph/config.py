"""Run configuration: defaults, INI-style config files and flag overrides."""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .errors import ConfigError
from .graph import check_variant
from .losses import SMOOTHINGS


@dataclass
class RunConfig:
    # model dims
    d_w: int = 300
    d_v: int = 1024
    d_o: int = 1024
    latent: int = 256
    hidden: int = 256
    # graph
    variant: str = "full"
    iterations: int = 3
    top_n: int = 15
    # loss
    smoothing: str = "onehot"
    # optimizer
    lr: float = 1e-4
    weight_decay: float = 1e-3
    dropout: float = 0.5
    # training
    batch_size: int = 6
    epochs: int = 100
    seed: int = 0
    eval_every: int = 5
    target_miou: float | None = None  # stop early once val mIoU reaches this
    swap_degenerate: bool = False
    # paths
    data_dir: str = "data"
    checkpoint: str = "model.ckpt"
    report: str = ""

    def __post_init__(self):
        for name in ("d_w", "d_v", "d_o", "latent", "hidden", "top_n", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("iterations", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError("lr must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not 0.0 <= self.weight_decay < float("inf"):
            raise ConfigError("weight_decay must be >= 0 and finite")
        if self.target_miou is not None and not 0.0 <= self.target_miou <= 100.0:
            raise ConfigError("target_miou must be in [0, 100] or none")
        if self.smoothing not in SMOOTHINGS:
            raise ConfigError(f"smoothing '{self.smoothing}' is not one of {', '.join(SMOOTHINGS)}")
        check_variant(self.variant)


_SECTIONS = {
    "model": ("d_w", "d_v", "d_o", "latent", "hidden"),
    "graph": ("variant", "iterations", "top_n"),
    "loss": ("smoothing",),
    "optimizer": ("lr", "weight_decay", "dropout"),
    "training": ("batch_size", "epochs", "seed", "eval_every", "target_miou", "swap_degenerate"),
    "paths": ("data_dir", "checkpoint", "report"),
}

# The fields that shape a model's parameters and behaviour; a checkpoint stores them.
MODEL_FIELDS = _SECTIONS["model"] + _SECTIONS["graph"]


def _coerce(section: str, name: str, raw: str):
    try:
        if name == "target_miou":
            return None if raw.lower() in ("", "none") else float(raw)
        if name == "swap_degenerate":
            if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError("not a boolean (1/0, yes/no, true/false or on/off)")
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return type(getattr(RunConfig, name))(raw)  # int, float or str, as the default
    except ValueError as exc:
        raise ConfigError(f"[{section}] {name} = {raw!r}: {exc}") from None


def load_config(path: str | None = None, overrides: dict | None = None, stored: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional INI file plus flag overrides. The file
    may restate the stored values (a checkpoint's model fields) but not contradict them."""
    values: dict = {}
    if path:
        parser = configparser.ConfigParser(interpolation=None)  # values are literal: a % in a path is a %
        try:
            found = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file '{path}': {exc}") from None
        if not found:
            raise ConfigError(f"cannot read config file '{path}'")
        unknown = [section for section in parser.sections() if section not in _SECTIONS]
        if unknown:
            raise ConfigError(f"malformed config file '{path}': unknown section [{unknown[0]}] (known: {', '.join(_SECTIONS)})")
        for section, keys in _SECTIONS.items():
            if parser.has_section(section):
                for key in parser[section]:
                    if key not in keys:
                        raise ConfigError(f"unknown config key [{section}] {key}")
                    values[key] = _coerce(section, key, parser[section][key])
    for key, val in (stored or {}).items():
        if values.setdefault(key, val) != val:
            raise ConfigError(f"{path}: {key} = {values[key]!r} conflicts with the checkpoint's {val!r}")
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)


def synthetic_config(**overrides) -> RunConfig:
    """Desk-scale preset used by the synthetic-learnability experiments."""
    base = dict(
        d_w=16,
        d_v=16,
        d_o=16,
        latent=32,
        hidden=16,
        lr=1e-3,
        dropout=0.2,
        smoothing="gaussian",
        epochs=200,
        eval_every=5,
    )
    base.update(overrides)
    return RunConfig(**base)
