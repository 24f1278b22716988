import builtins
import dataclasses
import ctypes
import json
import math
import os
import platform
import re

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


_initial_state = federation.initial_state


def nan_site_1(cfg):
    """The initial state with a NaN in site 1's calibrated head, which no
    other site reads, so site 1 alone fails at joint_loss's finite check."""
    state = _initial_state(cfg)
    state.betas[1].values["head_calib.b"][0] = np.nan
    return state


class TestNonFiniteLoss:
    def test_error_names_site_and_round(self, tmp_path, monkeypatch):
        monkeypatch.setattr(federation, "initial_state", nan_site_1)
        with pytest.raises(FloatingPointError, match=r"site 1, round 1: non-finite"):
            runner.run_experiment(tiny_cfg(tmp_path))

    def test_cli_reports_error_with_exit_code_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(federation, "initial_state", nan_site_1)
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
        parallel = tiny_cfg(tmp_path / "parallel")
        parallel.parallel_clients = True
        parallel = runner.run_experiment(parallel)
        cut = runner.run_experiment(tiny_cfg(tmp_path / "cut"), stop_after_round=1)
        config_path = os.path.join(cut, "config.txt")
        with open(config_path) as fh:
            text = fh.read()
        assert "parallel_clients = false\n" in text
        with open(config_path, "w") as fh:
            fh.write(text.replace("parallel_clients = false", "parallel_clients = true"))
        assert runner.resume_experiment(cut) == cut
        for run in (parallel, cut):
            for name in (os.path.join("checkpoints", "round_0001.ckpt"),
                         os.path.join("checkpoints", "round_0002.ckpt"), "metrics.csv"):
                assert read_bytes(os.path.join(run, name)) == read_bytes(
                    os.path.join(whole, name))


class _PickedCheckpoint(Exception):
    pass


class TestResumeRobustness:
    def test_resume_picks_the_highest_numbered_round(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        (run / "checkpoints").mkdir(parents=True)
        (run / "config.txt").write_text(tiny_cfg(run).to_text())
        for name in ("round_0002.ckpt", "round_9999.ckpt", "round_10000.ckpt",
                     "round_0003.ckpt.tmp", "scratch.ckpt", "z_round_20000.ckpt"):
            (run / "checkpoints" / name).write_bytes(b"")

        def picked(path):
            raise _PickedCheckpoint(os.path.basename(path))

        monkeypatch.setattr(runner, "load_checkpoint", picked)
        with pytest.raises(_PickedCheckpoint, match=r"^round_10000\.ckpt$"):
            runner.resume_experiment(str(run))
        for name in ("round_0002.ckpt", "round_9999.ckpt", "round_10000.ckpt"):
            (run / "checkpoints" / name).unlink()
        with pytest.raises(FileNotFoundError, match="no round_NNNN.ckpt"):
            runner.resume_experiment(str(run))

    def test_resume_skips_blank_lines_in_metrics(self, tmp_path):
        whole = runner.run_experiment(tiny_cfg(tmp_path / "whole"))
        cut = runner.run_experiment(tiny_cfg(tmp_path / "cut"), stop_after_round=1)
        metrics = os.path.join(cut, "metrics.csv")
        with open(metrics, "a") as fh:
            fh.write("\n")
        runner.resume_experiment(cut)
        assert read_bytes(metrics) == read_bytes(os.path.join(whole, "metrics.csv"))

    def test_failed_metrics_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        cut = runner.run_experiment(tiny_cfg(tmp_path / "cut"), stop_after_round=1)
        metrics = os.path.join(cut, "metrics.csv")
        before = read_bytes(metrics)

        class FailsAfterOneLine:
            def __init__(self, path, mode):
                self.fh = builtins.open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, lines):
                self.fh.write(lines[0])
                raise OSError("no space left on device")

        def fake_open(path, mode="r", *args, **kwargs):
            if "metrics.csv" in str(path) and "w" in mode:
                return FailsAfterOneLine(path, mode)
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(runner, "open", fake_open, raising=False)
        with pytest.raises(OSError):
            runner._truncate_metrics(cut, 0, tiny_cfg(cut).digest())
        assert read_bytes(metrics) == before


def no_training(monkeypatch):
    def forward_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(federation, "forward_training", forward_training)


class TestManifest:
    @pytest.mark.parametrize("classes", ["1", "2"])
    def test_a_run_on_gen_data_files_equals_the_in_memory_run(self, tmp_path, classes):
        shape = ["--benchmark-seed", "1", "--sites", "2"]
        assert cli.main(["gen-data", "--out", str(tmp_path / "data"), *shape,
                         "--train-per-site", "3", "--test-per-site", "2",
                         "--image-size", "16", "--classes", classes]) == 0
        run = ["run", *shape, "--rounds", "2", "--set", f"classes={classes}",
               "--set", "image_size=16",
               "--set", "channels=4,8", "--set", "batch_size=3", "--set", "train_per_site=3",
               "--set", "test_per_site=2", "--set", "checkpoint_every=1"]
        memory, disk = str(tmp_path / "memory"), str(tmp_path / "disk")
        assert cli.main([*run, "--out", memory]) == 0
        assert cli.main([*run, "--out", disk, "--set",
                         f"manifest={tmp_path / 'data' / 'manifest.txt'}"]) == 0

        def after_digest(run_dir, name, lines):
            return read_bytes(os.path.join(run_dir, name)).split(b"\n", lines)[lines]

        # the manifest is part of the config digest; everything else must agree
        assert after_digest(disk, "metrics.csv", 1) == after_digest(memory, "metrics.csv", 1)
        for rnd in (1, 2):
            name = os.path.join("checkpoints", f"round_{rnd:04d}.ckpt")
            assert after_digest(disk, name, 1) == after_digest(memory, name, 1)


def _shrink_last_image(lines, data_dir):
    """Site 1's last test record (manifest line 11) points at an 8x8 image and mask."""
    for name in ("small_img.pgm", "small_mask.pgm"):
        data.write_pgm(os.path.join(data_dir, name), np.zeros((8, 8), dtype=np.uint8), 255)
    return lines[:-1] + ["1 test small_img.pgm small_mask.pgm"]


def _drop(prefix):
    return lambda lines, data_dir: [ln for ln in lines if not ln.startswith(prefix)]


def _unchanged(lines, data_dir):
    return lines


# (edit of the manifest lines of a 2-site, 16 px, 1-class dataset of 3 train
# and 2 test images per site, config overrides, error message)
BAD_MANIFESTS = {
    "empty": (lambda lines, data_dir: lines[:1], {}, "manifest.txt: lists no samples"),
    "one_site": (_drop("1 "), {}, "manifest has 1 sites but config expects 2"),
    "small_image": (_shrink_last_image, {},
                    "manifest.txt:11: small_img.pgm is (8, 8), but the first record's "
                    "image is (16, 16)"),
    "site_1_no_test": (_drop("1 test "), {}, "manifest.txt: site 1 has no test samples"),
    "site_1_no_train": (_drop("1 train "), {}, "manifest.txt: site 1 has no train samples"),
    "site_0_no_train": (_drop("0 train "), {}, "manifest.txt: site 0 has no train samples"),
    "image_size": (_unchanged, {"image_size": 32},
                   "images are 16x16px but config expects 32x32px"),
    "classes": (_unchanged, {"classes": 2}, "masks have 1 class(es) but config expects 2"),
}


@pytest.mark.parametrize("case", list(BAD_MANIFESTS))
def test_build_datasets_rejects_a_bad_manifest_before_training(case, tmp_path, monkeypatch):
    edit, overrides, message = BAD_MANIFESTS[case]
    data_dir = str(tmp_path / "data")
    manifest = data.write_dataset(data.generate_benchmark(1, 2, 3, 2, 16), data_dir)
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    with open(manifest, "w") as fh:
        fh.write("\n".join(edit(lines, data_dir)) + "\n")
    cfg = dataclasses.replace(tiny_cfg(tmp_path / "run"), manifest=manifest, **overrides)
    no_training(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)):
        runner.run_experiment(cfg)
    assert not os.path.exists(cfg.out_dir)


def _gen_data(*flags):
    return lambda tmp: ["gen-data", "--out", str(tmp / "data"), *flags]


# (argv in an empty temporary directory, error message); each command exits 2
# with one `error:` line and writes no file
BAD_COMMANDS = {
    "run_config_is_a_directory": (lambda tmp: ["run", "--config", str(tmp),
                                               "--out", str(tmp / "run")],
                                  "Is a directory"),
    "gen_data_negative_seed": (_gen_data("--benchmark-seed", "-1"),
                               "--benchmark-seed must be >= 0, got -1"),
    "gen_data_no_sites": (_gen_data("--sites", "0"), "--sites must be >= 1, got 0"),
    "gen_data_negative_train": (_gen_data("--train-per-site", "-1", "--sites", "2"),
                                "--train-per-site must be >= 1, got -1"),
    "gen_data_no_test": (_gen_data("--test-per-site", "0"),
                         "--test-per-site must be >= 1, got 0"),
    "gen_data_zero_size": (_gen_data("--image-size", "0"),
                           "--image-size must be even and >= 4, got 0"),
    "gen_data_negative_size": (_gen_data("--image-size", "-4"),
                               "--image-size must be even and >= 4, got -4"),
    "gen_data_odd_size": (_gen_data("--image-size", "7"),
                          "--image-size must be even and >= 4, got 7"),
    "gen_data_size_2": (_gen_data("--image-size", "2"),
                        "--image-size must be even and >= 4, got 2"),
    "gen_data_no_classes": (_gen_data("--classes", "0"), "--classes must be 1 or 2, got 0"),
    "gen_data_three_classes": (_gen_data("--classes", "3"), "--classes must be 1 or 2, got 3"),
}


@pytest.mark.parametrize("case", list(BAD_COMMANDS))
def test_a_bad_command_exits_2_with_one_error_line_and_writes_nothing(
        case, tmp_path, capsys):
    argv, message = BAD_COMMANDS[case]
    assert cli.main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert os.listdir(tmp_path) == []


_COLUMNS = runner.CSV_HEADER
_ROW = "1,0,0.5,2.25," + ",".join(["0.125"] * (_COLUMNS.count(",") - 3))

# (metrics.csv text, the line the error names, a piece of its message); each
# `lcfed report` exits 2 with one `error:` line and writes no report
BAD_METRICS = {
    "cut_after_the_digest_line": ("# config 0123abcd\n", 2, "the column line is not"),
    "another_column_line": (f"# config 0123abcd\nround,site,iou\n{_ROW}\n", 2,
                            "the column line is not"),
    "a_row_missing_cells": (f"# config 0123abcd\n{_COLUMNS}\n{_ROW}\n1,1,0.5\n", 4,
                            "numeric cells, got '1,1,0.5'"),
    "a_row_with_an_extra_cell": (f"# config 0123abcd\n{_COLUMNS}\n{_ROW},7\n", 3,
                                 "numeric cells"),
    "a_cell_that_is_no_number": (f"# config 0123abcd\n{_COLUMNS}\n{_ROW.replace('0.5', 'x')}\n",
                                 3, "numeric cells"),
}


@pytest.mark.parametrize("case", list(BAD_METRICS))
def test_report_on_a_damaged_metrics_file_exits_2_naming_its_line(case, tmp_path, capsys):
    text, line, message = BAD_METRICS[case]
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    assert cli.main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1
    assert message in err
    assert os.listdir(tmp_path) == ["metrics.csv"]


def cut_run(tmp_path, mode):
    """A run stopped after round 1 and its round-1 checkpoint path."""
    cfg = tiny_cfg(tmp_path / mode)
    cfg.mode = mode
    cut = runner.run_experiment(cfg, stop_after_round=1)
    return cfg, cut, os.path.join(cut, "checkpoints", "round_0001.ckpt")


def _rewrite(path, old: bytes, new: bytes):
    blob = read_bytes(path)
    assert blob.count(old) == 1
    with open(path, "wb") as fh:
        fh.write(blob.replace(old, new))


def _damage(header=lambda meta: None, data=lambda blob: blob):
    """Rewrite a checkpoint with `header` applied to its parsed JSON header
    and its data section passed through `data`."""
    def damage(cut, ckpt):
        head, blob = read_bytes(ckpt).split(b"\n", 1)
        meta = json.loads(head)
        header(meta)
        with open(ckpt, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n" + data(blob))
    return damage


def _resaved(edit=lambda state: None, seed=None):
    """Rewrite a checkpoint through save_checkpoint, with `edit` applied to
    its state and, if given, another master seed: a well-formed file."""
    def damage(cut, ckpt):
        state, digest, saved_seed = checkpoint.load_checkpoint(ckpt)
        edit(state)
        checkpoint.save_checkpoint(ckpt, state, digest, saved_seed if seed is None else seed)
    return damage


def _add_a_third_site(state):
    state.betas.append(state.betas[0])
    state.adam_states.append(state.adam_states[0])


def _advance_site_1_adam(meta):
    meta["adam_t"][1] += 6


def _flip_a_bit(blob):
    i = len(blob) // 2
    return blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1:]


def _as_format_1(cut, ckpt):
    """Rewrite a checkpoint with the text header of format 1 over the same data."""
    head, blob = read_bytes(ckpt).split(b"\n", 1)
    meta = json.loads(head)
    lines = ["lcfed-ckpt 1", f"digest {meta['digest']}", f"round {meta['round']}",
             f"sites {len(meta['adam_t'])}", f"seed {meta['seed']}",
             "adam_t " + " ".join(map(str, meta["adam_t"])), f"arrays {len(meta['arrays'])}"]
    offset = 0
    for name, dtype, shape in meta["arrays"]:
        lines.append(f"{name} {dtype} {','.join(map(str, shape)) or '-'} {offset}")
        offset += math.prod(shape) * np.dtype(dtype).itemsize
    with open(ckpt, "wb") as fh:
        fh.write(("\n".join(lines + ["end"]) + "\n").encode() + blob)


def _metrics_cut_after_the_digest_line(cut, ckpt):
    path = os.path.join(cut, "metrics.csv")
    digest_line = read_bytes(path).split(b"\n", 1)[0]
    with open(path, "wb") as fh:
        fh.write(digest_line + b"\n")


# (damage to a run cut after round 1, error type, message); {ckpt},
# {metrics} and {config} stand for the paths the message must start with or name
BAD_RESUMES = {
    # parses, but fails validation
    "config_out_of_range": (lambda cut, ckpt: _rewrite(os.path.join(cut, "config.txt"),
                                                       b"\nrounds = 2\n", b"\nrounds = 0\n"),
                            ValueError, "{config}: rounds must be >= 1"),
    # a mode row that the split table replaced
    "config_removed_mode": (lambda cut, ckpt: _rewrite(os.path.join(cut, "config.txt"),
                                                       b"\nmode = lcfed\n",
                                                       b"\nmode = lcfed-pcs-only\n"),
                            ValueError, "{config}: unknown mode 'lcfed-pcs-only'; expected "),
    "config_digest": (lambda cut, ckpt: _rewrite(os.path.join(cut, "config.txt"),
                                                 b"\nlr = 0.0001\n", b"\nlr = 0.0002\n"),
                      ValueError, r"{ckpt}: checkpoint digest \w+ does not match config digest"),
    "master_seed": (_resaved(seed=2), ValueError, "{ckpt}: master seed does not match"),
    "metrics_missing": (lambda cut, ckpt: os.remove(os.path.join(cut, "metrics.csv")),
                        FileNotFoundError, "cannot resume: {metrics} is missing"),
    "metrics_digest": (lambda cut, ckpt: _rewrite(os.path.join(cut, "metrics.csv"),
                                                  b"# config ", b"# config 0"),
                       ValueError, "{metrics}: config digest does not match this run"),
    "metrics_cut_after_the_digest_line": (_metrics_cut_after_the_digest_line, ValueError,
                                          "{metrics}:2: the column line is not"),
    "metrics_round_not_a_number": (lambda cut, ckpt: _rewrite(os.path.join(cut, "metrics.csv"),
                                                              b"\n1,0,", b"\nx,0,"),
                                   ValueError, "{metrics}:3: expected \\d+ numeric cells"),
    # the previous format, whose crc32 covered only the data
    "not_a_checkpoint": (_damage(header=lambda meta: meta.update(format="lcfed-ckpt 2")),
                         ValueError, "{ckpt}: not a checkpoint file"),
    "format_1": (_as_format_1, ValueError, "{ckpt}: not a checkpoint file"),
    "data_cut_short": (_damage(data=lambda blob: blob[:-100]), ValueError,
                       r"{ckpt}: data section is \d+ bytes; the header lists \d+"),
    "header_missing_key": (_damage(header=lambda meta: meta.pop("adam_t")), ValueError,
                           "{ckpt}: header key 'adam_t' is missing"),
    "arrays_entry_without_shape": (_damage(header=lambda meta: meta["arrays"][3].pop()),
                                   ValueError, r"{ckpt}: array entry \['g/enc1\.conv\.w', "
                                               r"'float64'\] is not \[name, dtype, shape\]"),
    "flipped_data_bit": (_damage(data=_flip_a_bit), ValueError,
                         "{ckpt}: header and data fail their crc32 check"),
    "edited_adam_t": (_damage(header=_advance_site_1_adam),
                      ValueError, "{ckpt}: header and data fail their crc32 check"),
    "edited_round": (_damage(header=lambda meta: meta.update(round=meta["round"] + 1)),
                     ValueError, "{ckpt}: header and data fail their crc32 check"),
    "adam_t_of_3_sites": (_resaved(_add_a_third_site), ValueError,
                          "{ckpt}: holds 3 sites; the config has 2"),
}


@pytest.mark.parametrize("case", list(BAD_RESUMES))
def test_resume_rejects_a_mismatched_run_before_training(case, tmp_path, monkeypatch, capsys):
    damage, error, message = BAD_RESUMES[case]
    _, cut, ckpt = cut_run(tmp_path, "lcfed")
    damage(cut, ckpt)
    metrics = os.path.join(cut, "metrics.csv")
    before = read_bytes(metrics) if os.path.exists(metrics) else None
    message = message.format(ckpt=re.escape(ckpt), metrics=re.escape(metrics),
                             config=re.escape(os.path.join(cut, "config.txt")))
    no_training(monkeypatch)
    with pytest.raises(error, match="^" + message):
        runner.resume_experiment(cut, ckpt)
    assert cli.main(["resume", cut, "--checkpoint", ckpt]) == 2
    err = capsys.readouterr().err
    assert re.match("error: " + message, err) and "Traceback" not in err
    assert (read_bytes(metrics) if os.path.exists(metrics) else None) == before


class TestResumeChecksArrays:
    def test_a_non_pcs_checkpoint_that_carries_pcsgen_fails_before_round_1(
            self, tmp_path, monkeypatch, capsys):
        cfg, cut, path = cut_run(tmp_path, "fedrep-head")
        # the layout written before non-PCS models left the generator out
        state, digest, seed = checkpoint.load_checkpoint(path)
        pcs_cfg = dataclasses.replace(cfg, mode="lcfed")
        generator = {n: t.data for n, t in federation.new_model(pcs_cfg, np.random.default_rng(0))
                     .params.items() if n.startswith("pcsgen.")}
        state.theta_g.values.update(generator)
        for adam in state.adam_states:
            for key in ("m", "v"):
                adam[key].update({n: np.zeros_like(a) for n, a in generator.items()})
        checkpoint.save_checkpoint(path, state, digest, seed)
        metrics = read_bytes(os.path.join(cut, "metrics.csv"))

        no_training(monkeypatch)
        with pytest.raises(ValueError, match=r"unexpected array g/pcsgen\.fc1\.w for mode "
                                             r"fedrep-head"):
            runner.resume_experiment(cut)
        assert cli.main(["resume", cut]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unexpected array g/pcsgen.fc1.w")
        assert read_bytes(os.path.join(cut, "metrics.csv")) == metrics

    def test_a_checkpoint_missing_an_array_fails_naming_it(self, tmp_path, capsys):
        _, cut, path = cut_run(tmp_path, "lcfed")
        state, digest, seed = checkpoint.load_checkpoint(path)
        del state.betas[1].values["head_calib.b"]
        checkpoint.save_checkpoint(path, state, digest, seed)
        with pytest.raises(ValueError, match=r"missing array b1/head_calib\.b for mode lcfed"):
            runner.resume_experiment(cut)
        assert cli.main(["resume", cut]) == 2
        assert "missing array b1/head_calib.b" in capsys.readouterr().err

    def test_a_missing_adam_moment_fails_naming_it(self, tmp_path):
        _, cut, path = cut_run(tmp_path, "fedavg")
        state, digest, seed = checkpoint.load_checkpoint(path)
        del state.adam_states[0]["v"]["enc0.conv.w"]
        checkpoint.save_checkpoint(path, state, digest, seed)
        with pytest.raises(ValueError, match=r"missing array v0/enc0\.conv\.w for mode fedavg"):
            runner.resume_experiment(cut)

    @pytest.mark.parametrize("damage,name", [
        # np.copyto used to broadcast a one-entry moment into every entry
        (lambda state: state.adam_states[0]["m"].update(
            {"enc0.conv.w": np.ones(1)}), "m0/enc0.conv.w"),
        # a head of a two-class run in a one-class run
        (lambda state: state.betas[1].values.update(
            {"head_coarse.w": np.ones((TINY["channels"][0], 2))}), "b1/head_coarse.w"),
        (lambda state: state.theta_g.values.update(
            {"up0.b": state.theta_g.values["up0.b"].astype(np.float32)}), "g/up0.b"),
    ], ids=["one-entry-moment", "foreign-head-shape", "float32-array"])
    def test_a_wrong_shape_or_dtype_fails_before_round_1(
            self, damage, name, tmp_path, monkeypatch, capsys):
        _, cut, path = cut_run(tmp_path, "lcfed")
        state, digest, seed = checkpoint.load_checkpoint(path)
        damage(state)
        checkpoint.save_checkpoint(path, state, digest, seed)
        metrics = read_bytes(os.path.join(cut, "metrics.csv"))

        no_training(monkeypatch)
        with pytest.raises(ValueError, match=rf"array {re.escape(name)} is float"):
            runner.resume_experiment(cut)
        assert cli.main(["resume", cut]) == 2
        assert f"{path}: array {name} is " in capsys.readouterr().err
        assert read_bytes(os.path.join(cut, "metrics.csv")) == metrics


class TestRelayedHeads:
    def test_round_2_calibrates_against_each_sites_head_from_the_round_1_checkpoint(
            self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path)
        cfg.sites = 3
        update, calibration = federation.local_update, federation.head_calibration
        current, seen = {}, []

        def spy_update(*args):
            current["round"] = args[-1]
            try:
                return update(*args)
            finally:
                current["round"] = None

        def spy_calibration(f_hat, heads, *args, **kwargs):
            if current["round"] == 1:
                seen.append(tuple(a.copy() for a in heads))
            return calibration(f_hat, heads, *args, **kwargs)

        monkeypatch.setattr(federation, "local_update", spy_update)
        monkeypatch.setattr(federation, "head_calibration", spy_calibration)
        run_dir = runner.run_experiment(cfg)

        state, _, _ = checkpoint.load_checkpoint(
            os.path.join(run_dir, "checkpoints", "round_0001.ckpt"))
        heads_w = [beta.values["head_coarse.w"] for beta in state.betas]
        heads_b = [beta.values["head_coarse.b"] for beta in state.betas]
        assert not np.array_equal(heads_w[0], heads_w[1])   # the sites' heads have diverged
        assert len(seen) == cfg.sites   # one training step per site
        n = heads_b[0].shape[0]
        for weights, biases in seen:
            # site k's head fills columns k*N..(k+1)*N-1 of the stacked relay
            assert weights.shape == (heads_w[0].shape[0], cfg.sites * n)
            assert biases.shape == (cfg.sites * n,)
            for k in range(cfg.sites):
                cols = slice(k * n, (k + 1) * n)
                assert weights[:, cols].tobytes() == heads_w[k].tobytes()
                assert biases[cols].tobytes() == heads_b[k].tobytes()


# float32 keeps about 7 significant digits; after two rounds of Adam the
# joint losses of a tiny run agree to ~6e-8 relative and the thresholded
# masks are identical, so these bounds leave two orders of magnitude
F32_IOU_ATOL = 0.005
F32_LOSS_RTOL = 1e-5


def test_float32_run_tracks_float64(tmp_path):
    finals = {}
    for dtype in ("float64", "float32"):
        cfg = ExperimentConfig(mode="lcfed", dtype=dtype, sites=2, rounds=2, image_size=32,
                               channels=(8, 16, 32), batch_size=3, train_per_site=9,
                               test_per_site=3, lr=1e-2, benchmark_seed=1, master_seed=1,
                               out_dir=str(tmp_path / dtype))
        _, rows = runner.read_metrics(runner.run_experiment(cfg))
        finals[dtype] = [r for r in rows if r["round"] == cfg.rounds]
    assert len(finals["float32"]) == len(finals["float64"]) == 2
    for r32, r64 in zip(finals["float32"], finals["float64"]):
        assert r32["site"] == r64["site"]
        assert r32["iou"] == pytest.approx(r64["iou"], abs=F32_IOU_ATOL)
        assert r32["loss_joint"] == pytest.approx(r64["loss_joint"], rel=F32_LOSS_RTOL)
