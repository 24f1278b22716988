"""Experiment configuration: plain key=value files, CLI overrides, digests.

Paper-scale training defaults (learning rate 1e-4, batch 6, one local epoch,
lambda 0.1, window 11) come pre-filled; the desk-scale profile (30 rounds,
64x64 images, 4 synthetic sites) is the default so a full experiment finishes
in minutes on a CPU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
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
        for name in ("master_seed", "benchmark_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local epochs and batch size must be >= 1")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not math.isfinite(self.lambda_con) or self.lambda_con < 0:
            raise ValueError(f"lambda_con must be finite and >= 0, got {self.lambda_con}")
        for name, v in (("nms_delta", self.nms_delta), ("gauss_size", self.gauss_size)):
            if v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 1, got {v}")
        if not math.isfinite(self.gauss_sigma) or self.gauss_sigma <= 0:
            raise ValueError(f"gauss_sigma must be finite and positive, got {self.gauss_sigma}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.classes not in (1, 2):
            raise ValueError("classes must be 1 or 2")
        if any(c < 1 for c in self.channels):
            raise ValueError(f"channels must all be >= 1, got {self.channels}")
        depth = len(self.channels) - 1
        if len(self.channels) < 2 or self.image_size % (2 ** depth):
            raise ValueError(
                f"image size {self.image_size} incompatible with {len(self.channels)} stages")
        if self.image_size // 2 ** depth < 2:
            # instance norm needs at least two pixels per channel plane
            raise ValueError(f"image_size {self.image_size} leaves a deepest feature below "
                             f"2x2 after {depth} poolings; need >= {2 ** (depth + 1)}")
        if self.train_per_site < 1 or self.test_per_site < 1:
            raise ValueError("train_per_site and test_per_site must be >= 1")
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


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}

# field type -> (what an error calls it, parser); other fields keep the string
_PARSERS = {"tuple": ("list of integers", lambda raw: tuple(int(x) for x in raw.split(","))),
            "bool": ("boolean", lambda raw: _BOOLS[raw.lower()]),
            "int": ("integer", int), "float": ("float", float)}
_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _set_item(cfg: ExperimentConfig, item: str, where: str):
    """Set one 'key = value' item on `cfg`; errors name the key and `where`,
    the config line or the override the item came from."""
    key, eq, raw = (part.strip() for part in item.partition("="))
    if not eq:
        raise ValueError(f"{where}: expected 'key = value', got {item!r}")
    if key not in _TYPES:
        raise ValueError(f"{where}: unknown config key {key!r}")
    kind, parse = _PARSERS.get(_TYPES[key], ("string", str))
    try:
        setattr(cfg, key, parse(raw))
    except (KeyError, ValueError):
        raise ValueError(f"{where}: {key}: cannot parse {kind} from {raw!r}") from None


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = dataclasses.replace(base) if base else ExperimentConfig()
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            _set_item(cfg, line, f"line {ln}")
    return cfg


def load_config(path: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a config file; an error names `path` as well as the line."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_config_text(text, base)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def apply_overrides(cfg: ExperimentConfig, overrides: list) -> ExperimentConfig:
    """Apply 'key=value' strings on top of a config (CLI flags win)."""
    for item in overrides:
        _set_item(cfg, item, f"override {item!r}")
    return cfg
