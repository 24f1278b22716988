import builtins
import ctypes
import os
import platform

import numpy as np
import pytest

from lcfed import checkpoint, cli, data, federation, runner
from lcfed.config import ExperimentConfig

TINY = dict(mode="lcfed", dtype="float64", sites=2, rounds=2, image_size=16, channels=(4, 8),
            batch_size=3, train_per_site=3, test_per_site=2, checkpoint_every=1,
            benchmark_seed=1, master_seed=1)


def tiny_cfg(out_dir) -> ExperimentConfig:
    return ExperimentConfig(**TINY, out_dir=str(out_dir))


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class _WriteFails:
    """A binary file whose write raises after `n` successful writes."""

    def __init__(self, path, mode, n):
        self.fh = builtins.open(path, mode)
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, blob):
        if self.n == 0:
            raise OSError("no space left on device")
        self.n -= 1
        return self.fh.write(blob)


def fail_writes_to(monkeypatch, suffix: str):
    """Make checkpoint writes to paths ending in `suffix` raise after the header
    and one array."""
    def fake_open(path, mode="r", *args, **kwargs):
        if str(path).endswith(suffix):
            return _WriteFails(path, mode, 2)
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "open", fake_open, raising=False)


class TestSteadyHeap:
    def test_false_without_raising_when_libc_cannot_load(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert runner.steady_heap() is False

    def test_false_without_raising_when_mallopt_is_missing(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
        assert runner.steady_heap() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_true_on_glibc(self):
        assert runner.steady_heap() is True


class TestCheckpointWrites:
    def test_failed_write_keeps_previous_checkpoint_and_resume_skips_tmp(self, tmp_path,
                                                                          monkeypatch):
        whole = runner.run_experiment(tiny_cfg(tmp_path / "whole"))
        ckpts = os.path.join(whole, "checkpoints")
        first = read_bytes(os.path.join(ckpts, "round_0001.ckpt"))
        last = read_bytes(os.path.join(ckpts, "round_0002.ckpt"))

        # overwriting a checkpoint fails mid-file: the old bytes survive
        state, digest, seed = checkpoint.load_checkpoint(os.path.join(ckpts, "round_0002.ckpt"))
        fail_writes_to(monkeypatch, "round_0001.ckpt.tmp")
        with pytest.raises(OSError):
            checkpoint.save_checkpoint(os.path.join(ckpts, "round_0001.ckpt"), state, digest, seed)
        assert read_bytes(os.path.join(ckpts, "round_0001.ckpt")) == first

        # a run whose second checkpoint fails leaves a .tmp and no round_0002.ckpt
        fail_writes_to(monkeypatch, "round_0002.ckpt.tmp")
        cut = str(tmp_path / "cut")
        with pytest.raises(OSError):
            runner.run_experiment(tiny_cfg(cut))
        monkeypatch.undo()
        names = sorted(os.listdir(os.path.join(cut, "checkpoints")))
        assert names == ["round_0001.ckpt", "round_0002.ckpt.tmp"]

        runner.resume_experiment(cut)
        assert read_bytes(os.path.join(cut, "checkpoints", "round_0002.ckpt")) == last
        assert read_bytes(os.path.join(cut, "metrics.csv")) == read_bytes(
            os.path.join(whole, "metrics.csv"))


_build_datasets = runner.build_datasets


def nan_site_1(cfg):
    datasets = _build_datasets(cfg)
    datasets[1].train_images[:] = np.nan
    return datasets


class TestNonFiniteLoss:
    def test_error_names_site_and_round(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "build_datasets", nan_site_1)
        with pytest.raises(FloatingPointError, match=r"site 1, round 1: non-finite"):
            runner.run_experiment(tiny_cfg(tmp_path))

    def test_cli_reports_error_with_exit_code_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "build_datasets", nan_site_1)
        code = cli.main(["run", "--out", str(tmp_path), "--sites", "2", "--rounds", "1",
                         "--set", "image_size=16", "--set", "channels=4,8",
                         "--set", "train_per_site=3", "--set", "test_per_site=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: site 1, round 1: non-finite")
        assert "Traceback" not in err


class TestResume:
    def test_resume_in_parallel_equals_an_uninterrupted_serial_run(self, tmp_path):
        whole = runner.run_experiment(tiny_cfg(tmp_path / "whole"))
        cut = runner.run_experiment(tiny_cfg(tmp_path / "cut"), stop_after_round=1)
        config_path = os.path.join(cut, "config.txt")
        with open(config_path) as fh:
            text = fh.read()
        assert "parallel_clients = false\n" in text
        with open(config_path, "w") as fh:
            fh.write(text.replace("parallel_clients = false", "parallel_clients = true"))
        assert runner.resume_experiment(cut) == cut
        for name in (os.path.join("checkpoints", "round_0002.ckpt"), "metrics.csv"):
            assert read_bytes(os.path.join(cut, name)) == read_bytes(os.path.join(whole, name))


class TestManifest:
    def test_class_count_mismatch_fails_before_training(self, tmp_path, monkeypatch):
        per_site = data.benchmark_samples(1, 2, 3, 2, 16)
        manifest = data.write_dataset(per_site, str(tmp_path / "data"))

        def no_training(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(federation, "forward_training", no_training)
        cfg = tiny_cfg(tmp_path / "run")
        cfg.classes, cfg.manifest = 2, manifest
        with pytest.raises(ValueError, match=r"masks have 1 class\(es\) but config expects 2"):
            runner.run_experiment(cfg)
