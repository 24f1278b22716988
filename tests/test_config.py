import dataclasses
import os
import re

import numpy as np
import pytest

from lcfed import cli, federation
from lcfed.checkpoint import load_checkpoint
from lcfed.config import (MODE_GRAMMAR, MODES, SPLITS, ExperimentConfig, apply_overrides,
                          load_config, parse_config_text)
from lcfed.hc import head_calibration
from lcfed.runner import read_metrics, run_experiment

from test_layers import TINY_NAMES

TINY = dict(dtype="float64", sites=2, rounds=1, image_size=16, channels=(4, 8), batch_size=3,
            train_per_site=3, test_per_site=2, benchmark_seed=1, master_seed=1)


class TestText:
    def test_to_text_parse_round_trip(self):
        cfg = ExperimentConfig(mode="fedrep-head", sites=3, lr=3e-4, channels=(4, 8, 16),
                               image_size=32, lambda_con=0.25,
                               parallel_clients=True, manifest="data#1/manifest.txt",
                               out_dir="runs/#a")
        assert parse_config_text(cfg.to_text()) == cfg

    def test_a_comment_is_a_whole_line_and_a_value_may_hold_a_hash(self):
        cfg = parse_config_text("# a comment\n   # another\nmanifest = d#1/manifest.txt\n")
        assert cfg.manifest == "d#1/manifest.txt"

    def test_removed_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown config key 'pcs_shared'"):
            parse_config_text("mode = lcfed\npcs_shared = true\n")

    def test_removed_negative_lambda_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown config key 'allow_negative_lambda'"):
            parse_config_text("allow_negative_lambda = true\n")


class TestValidate:
    def test_image_size_must_divide_by_stages(self):
        with pytest.raises(ValueError, match="incompatible with 3 stages"):
            ExperimentConfig(image_size=10, channels=(2, 3, 4)).validate()

    def test_a_deepest_width_of_one_needs_a_mode_without_pcs(self):
        # PCS normalizes over the deepest width; a U-Net's deepest instance
        # norm runs over at least 2x2 pixels whatever the width
        for mode in ("lcfed", "fedbn+pcs"):
            message = f"channels[-1] must be >= 2 in PCS mode {mode!r}, got (8, 1)"
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentConfig(mode=mode, channels=(8, 1)).validate()
        ExperimentConfig(mode="fedavg", channels=(8, 1)).validate()
        ExperimentConfig(mode="fedbn+hc", channels=(8, 1)).validate()

    def test_unknown_mode_names_the_modes(self):
        # the grammar and the six splits, not every mode; a removed ablation
        # row, and LC-Fed's second spelling
        for mode in ("lcfed-pcs-only", "fedrep-head+pcs+hc"):
            message = (f"unknown mode {mode!r}; expected <split>, <split>+pcs, <split>+hc or "
                       "<split>+pcs+hc, where <split> is one of local, fedavg, fedrep-head, "
                       "fedbn, fedper-dec, lg-fedavg; fedrep-head+pcs+hc is spelled lcfed")
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                ExperimentConfig(mode=mode).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, value):
        with pytest.raises(ValueError, match="lambda_con must be finite"):
            ExperimentConfig(lambda_con=value).validate()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda_con must be finite and >= 0, got -0.5"):
            ExperimentConfig(lambda_con=-0.5).validate()
        ExperimentConfig(lambda_con=0.0).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gauss_sigma_rejected(self, value):
        with pytest.raises(ValueError, match="gauss_sigma must be finite and positive"):
            ExperimentConfig(gauss_sigma=value).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lr_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            ExperimentConfig(lr=value).validate()


def _validate(**changes):
    return lambda: ExperimentConfig(**changes).validate()


def _load_file(text):
    """Write `text` to config.txt in the working directory and load it."""
    def call():
        with open("config.txt", "w") as fh:
            fh.write(text)
        return load_config("config.txt")
    return call


# (call, error message); each raises ValueError
BAD_CONFIGS = {
    "sites": (_validate(sites=0), "need at least one site"),
    "rounds": (_validate(rounds=0), "rounds must be >= 1"),
    "local_epochs": (_validate(local_epochs=0), "local epochs and batch size must be >= 1"),
    "batch_size": (_validate(batch_size=0), "local epochs and batch size must be >= 1"),
    "nms_delta": (_validate(nms_delta=4), "nms_delta must be odd and >= 1, got 4"),
    "gauss_size": (_validate(gauss_size=0), "gauss_size must be odd and >= 1, got 0"),
    "dtype": (_validate(dtype="float16"), "dtype must be float32 or float64"),
    "classes": (_validate(classes=3), "classes must be 1 or 2"),
    "eval_every": (_validate(eval_every=-1), "eval_every and checkpoint_every must be >= 0"),
    "checkpoint_every": (_validate(checkpoint_every=-1),
                         "eval_every and checkpoint_every must be >= 0"),
    "bad_bool": (lambda: parse_config_text("parallel_clients = maybe\n"),
                 "line 1: parallel_clients: cannot parse boolean from 'maybe'"),
    "bad_int": (lambda: parse_config_text("rounds = 3.5\n"),
                "line 1: rounds: cannot parse integer from '3.5'"),
    "bad_float": (lambda: parse_config_text("mode = lcfed\nlr = fast\n"),
                  "line 2: lr: cannot parse float from 'fast'"),
    "bad_file_line": (_load_file("mode = lcfed\nrounds = x\n"),
                      "config.txt: line 2: rounds: cannot parse integer from 'x'"),
    "bad_channels_override": (lambda: apply_overrides(ExperimentConfig(), ["channels=8,x"]),
                              "override 'channels=8,x': channels: cannot parse list of "
                              "integers from '8,x'"),
    "bad_bool_override": (lambda: apply_overrides(ExperimentConfig(),
                                                  ["parallel_clients=maybe"]),
                          "override 'parallel_clients=maybe': parallel_clients: cannot parse "
                          "boolean from 'maybe'"),
    "line_without_equals": (lambda: parse_config_text("mode = lcfed\nrounds 3\n"),
                            "line 2: expected 'key = value'"),
    "override_without_equals": (lambda: apply_overrides(ExperimentConfig(), ["rounds"]),
                                "override 'rounds': expected 'key = value'"),
    "unknown_override_key": (lambda: apply_overrides(ExperimentConfig(), ["round=3"]),
                             "override 'round=3': unknown config key 'round'"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_is_rejected_with_a_message(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, message = BAD_CONFIGS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_resume_names_the_config_file_of_a_bad_line(tmp_path, capsys):
    run_dir = run_experiment(ExperimentConfig(**TINY, out_dir=str(tmp_path)))
    path = os.path.join(run_dir, "config.txt")
    with open(path) as fh:
        lines = len(fh.readlines())
    with open(path, "a") as fh:
        fh.write("rounds = x\n")
    assert cli.main(["resume", run_dir]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line {lines + 1}: rounds: cannot parse integer from 'x'\n")


# (override, what the error names): the first ten each passed validation once
# and failed only after the run directory and config.txt were written; the
# rest are the values gen-data once checked on its own
@pytest.mark.parametrize("command", ["run", "gen-data"])
@pytest.mark.parametrize("override,field", [
    ("channels=8,0", "channels"),
    ("channels=8,1", "channels"),
    ("image_size=16", "image_size"),
    ("train_per_site=0", "train_per_site"),
    ("test_per_site=0", "test_per_site"),
    ("lambda_con=nan", "lambda_con"),
    ("lambda_con=-0.5", "lambda_con"),
    ("lr=-1", "lr"),
    ("master_seed=-1", "master_seed"),
    ("benchmark_seed=-1", "benchmark_seed"),
    ("sites=0", "at least one site"),
    ("train_per_site=-1", "train_per_site"),
    ("image_size=0", "image_size 0"),
    ("image_size=-4", "image size -4"),
    ("image_size=7", "image size 7"),
    ("image_size=2", "image size 2"),
    ("classes=0", "classes"),
    ("classes=3", "classes"),
])
def test_cli_rejects_bad_config_before_writing_anything(command, override, field, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--set", "sites=2", "--set", "rounds=1",
                     "--set", "train_per_site=3", "--set", "test_per_site=2",
                     "--set", override]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_run_help_states_the_mode_grammar_not_every_mode(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "400")   # one line per option: no wrap inside a name
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    out = capsys.readouterr().out
    assert MODE_GRAMMAR in out and "fedbn+pcs" not in out


class TestDigest:
    def test_execution_settings_are_not_part_of_the_identity(self):
        cfg = ExperimentConfig()
        same = dataclasses.replace(cfg, out_dir="elsewhere", parallel_clients=True,
                                   eval_every=5, checkpoint_every=2)
        assert same.digest() == cfg.digest()
        assert dataclasses.replace(cfg, lr=2e-4).digest() != cfg.digest()


HEADS = ["head_coarse.w", "head_coarse.b", "head_calib.w", "head_calib.b"]

# each split's local names in TINY_NAMES order, for the model with PCS; without
# PCS the model has no pcsgen.* names.  Every split but `local` averages the
# generator: fedbn keeps the U-Net's norms local, not pcsgen.norm.*
SPLIT_LOCALS = {
    "local": TINY_NAMES,
    "fedavg": [],
    "fedrep-head": HEADS,
    "fedbn": ["enc0.norm.g", "enc0.norm.o", "enc1.norm.g", "enc1.norm.o",
              "enc2.norm.g", "enc2.norm.o", "dec0.norm.g", "dec0.norm.o",
              "dec1.norm.g", "dec1.norm.o"],
    "fedper-dec": ["up0.w", "up0.b", "dec0.conv.w", "dec0.norm.g", "dec0.norm.o",
                   "up1.w", "up1.b", "dec1.conv.w", "dec1.norm.g", "dec1.norm.o", *HEADS],
    "lg-fedavg": ["enc0.conv.w", "enc0.norm.g", "enc0.norm.o",
                  "enc1.conv.w", "enc1.norm.g", "enc1.norm.o",
                  "enc2.conv.w", "enc2.norm.g", "enc2.norm.o"],
}


def test_every_split_has_four_modes():
    assert list(SPLIT_LOCALS) == list(SPLITS) and len(MODES) == 4 * len(SPLITS)


@pytest.mark.parametrize("mode", list(MODES))
def test_mode_row_decides_what_is_averaged_and_what_runs(mode, tmp_path, monkeypatch):
    row = MODES[mode]
    split, *switches = "fedrep-head+pcs+hc".split("+") if mode == "lcfed" else mode.split("+")
    assert (row.pcs, row.hc) == ("pcs" in switches, "hc" in switches)
    calibrations = []

    def counted(*args, **kwargs):
        calibrations.append(1)
        return head_calibration(*args, **kwargs)

    monkeypatch.setattr(federation, "head_calibration", counted)
    # the channels of TINY_NAMES' model
    cfg = ExperimentConfig(mode=mode, **{**TINY, "channels": (2, 3, 4)}, out_dir=str(tmp_path))
    run_dir = run_experiment(cfg)
    assert bool(calibrations) == row.hc
    state, _, _ = load_checkpoint(os.path.join(run_dir, "checkpoints", "round_0001.ckpt"))

    names = list(federation.new_model(cfg, np.random.default_rng(0)).params)
    assert names == [n for n in TINY_NAMES if row.pcs or not n.startswith("pcsgen.")]
    local = [n for n in SPLIT_LOCALS[split] if n in names]
    assert [n for n in names if row.is_local(n)] == local
    assert list(state.theta_g.values) == [n for n in names if n not in local]
    for beta, adam in zip(state.betas, state.adam_states):
        assert list(beta.values) == local
        assert list(adam["m"]) == list(adam["v"]) == names
    held = [*state.theta_g.values, *(n for beta in state.betas for n in beta.values),
            *(n for adam in state.adam_states for n in (*adam["m"], *adam["v"]))]
    assert any(n.startswith("pcsgen.") for n in held) == row.pcs

    _, rows = read_metrics(run_dir)
    assert len(rows) == cfg.sites
    for r in rows:
        assert (r["loss_con"] == 0.0) == (not row.pcs)
