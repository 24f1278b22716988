import dataclasses
import os

import numpy as np
import pytest

from lcfed import federation
from lcfed.checkpoint import load_checkpoint
from lcfed.config import MODES, ExperimentConfig, parse_config_text
from lcfed.hc import head_calibration
from lcfed.runner import read_metrics, run_experiment

TINY = dict(dtype="float64", sites=2, rounds=1, image_size=16, channels=(4, 8), batch_size=3,
            train_per_site=3, test_per_site=2, benchmark_seed=1, master_seed=1)


class TestText:
    def test_to_text_parse_round_trip(self):
        cfg = ExperimentConfig(mode="fedrep-head", sites=3, lr=3e-4, channels=(4, 8, 16),
                               image_size=32, allow_negative_lambda=True, lambda_con=-0.5,
                               parallel_clients=True, manifest="data/manifest.txt",
                               out_dir="runs/a")
        assert parse_config_text(cfg.to_text()) == cfg

    def test_removed_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown config key 'pcs_shared'"):
            parse_config_text("mode = lcfed\npcs_shared = true\n")


class TestValidate:
    def test_image_size_must_divide_by_stages(self):
        with pytest.raises(ValueError, match="incompatible with 3 stages"):
            ExperimentConfig(image_size=10, channels=(2, 3, 4)).validate()

    def test_unknown_mode_names_the_modes(self):
        with pytest.raises(ValueError, match="fedrep-head"):
            ExperimentConfig(mode="fedbn").validate()


class TestDigest:
    def test_execution_settings_are_not_part_of_the_identity(self):
        cfg = ExperimentConfig()
        same = dataclasses.replace(cfg, out_dir="elsewhere", parallel_clients=True,
                                   eval_every=5, checkpoint_every=2)
        assert same.digest() == cfg.digest()
        assert dataclasses.replace(cfg, lr=2e-4).digest() != cfg.digest()


HEADS = ["head_coarse.w", "head_coarse.b", "head_calib.w", "head_calib.b"]


@pytest.mark.parametrize("mode", list(MODES))
def test_mode_row_decides_what_is_averaged_and_what_runs(mode, tmp_path, monkeypatch):
    row = MODES[mode]
    calibrations = []

    def counted(*args, **kwargs):
        calibrations.append(1)
        return head_calibration(*args, **kwargs)

    monkeypatch.setattr(federation, "head_calibration", counted)
    cfg = ExperimentConfig(mode=mode, **TINY, out_dir=str(tmp_path))
    run_dir = run_experiment(cfg)
    assert bool(calibrations) == row.hc
    state, _, _ = load_checkpoint(os.path.join(run_dir, "checkpoints", "round_0001.ckpt"))

    names = [n for n, _, _ in
             federation.new_model(cfg, np.random.default_rng(0)).named_parameters()]
    local = {"local": names, "fedavg": []}.get(mode, HEADS)
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
