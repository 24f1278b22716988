"""Experiment configuration: plain key=value files, CLI overrides, digests.

Paper-scale training defaults (learning rate 1e-4, batch 6, one local epoch,
lambda 0.1, window 11) come pre-filled; the desk-scale profile (30 rounds,
64x64 images, 4 synthetic sites) is the default so a full experiment finishes
in minutes on a CPU.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from fnmatch import fnmatchcase


@dataclass(frozen=True)
class Mode:
    """What a run does: PCS on or off (without it the model has no
    ``pcsgen.*`` parameters), HC on or off, and `local`, the `fnmatch`
    patterns naming the parameters each site keeps; FedAvg averages the rest."""

    pcs: bool
    hc: bool
    local: tuple

    def is_local(self, name: str) -> bool:
        return any(fnmatchcase(name, pattern) for pattern in self.local)


_HEADS = ("head_*",)

MODES = {
    "local": Mode(pcs=False, hc=False, local=("*",)),
    "fedavg": Mode(pcs=False, hc=False, local=()),
    "fedrep-head": Mode(pcs=False, hc=False, local=_HEADS),
    "lcfed": Mode(pcs=True, hc=True, local=_HEADS),
    "lcfed-pcs-only": Mode(pcs=True, hc=False, local=_HEADS),
    "lcfed-hc-only": Mode(pcs=False, hc=True, local=_HEADS),
}

# execution settings: no trained value depends on them
_NOT_IN_DIGEST = ("out_dir", "parallel_clients", "eval_every", "checkpoint_every")


@dataclass
class ExperimentConfig:
    mode: str = "lcfed"
    sites: int = 4
    rounds: int = 30
    local_epochs: int = 1
    lr: float = 1e-4
    batch_size: int = 6
    lambda_con: float = 0.1
    allow_negative_lambda: bool = False
    nms_delta: int = 11
    gauss_size: int = 11
    gauss_sigma: float = 3.0
    image_size: int = 64
    classes: int = 1
    channels: tuple = (8, 16, 32, 64, 128)
    benchmark_seed: int = 2024
    master_seed: int = 1
    train_per_site: int = 120
    test_per_site: int = 30
    dtype: str = "float64"
    eval_every: int = 1               # 0: evaluate only after the final round
    checkpoint_every: int = 0         # 0: no intermediate checkpoints
    parallel_clients: bool = False
    manifest: str = ""
    out_dir: str = ""

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {tuple(MODES)}")
        if self.sites < 1:
            raise ValueError("need at least one site")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local epochs and batch size must be >= 1")
        if self.lambda_con < 0 and not self.allow_negative_lambda:
            raise ValueError("negative lambda requires allow_negative_lambda")
        for name, v in (("nms_delta", self.nms_delta), ("gauss_size", self.gauss_size)):
            if v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {v}")
        if self.gauss_sigma <= 0:
            raise ValueError("gauss_sigma must be positive")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.classes not in (1, 2):
            raise ValueError("classes must be 1 or 2")
        depth = len(self.channels) - 1
        if len(self.channels) < 2 or self.image_size % (2 ** depth):
            raise ValueError(
                f"image size {self.image_size} incompatible with {len(self.channels)} stages")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ValueError("eval_every and checkpoint_every must be >= 0")
        return self

    def digest(self) -> str:
        """Identity of the experiment; execution settings are excluded, so a
        run can resume with another output location, level of parallelism,
        evaluation or checkpoint cadence."""
        lines = []
        for f in dataclasses.fields(self):
            if f.name in _NOT_IN_DIGEST:
                continue
            lines.append(f"{f.name}={_format_value(getattr(self, f.name))}")
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]

    def to_text(self) -> str:
        lines = ["# effective configuration"]
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    t = field.type
    if field.name == "channels":
        return tuple(int(x) for x in raw.split(","))
    if t == "bool":
        return _parse_bool(raw)
    if t == "int":
        return int(raw)
    if t == "float":
        return float(raw)
    return raw


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = dataclasses.replace(base) if base else ExperimentConfig()
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        setattr(cfg, key, _parse_value(fields[key], raw))
    return cfg


def load_config(path: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)


def apply_overrides(cfg: ExperimentConfig, overrides: list) -> ExperimentConfig:
    """Apply 'key=value' strings on top of a config (CLI flags win)."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(fields[key], raw))
    return cfg
