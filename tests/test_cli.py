"""CLI behavior: exit codes, determinism, atomicity, schema help."""

import argparse
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import tokengate
from conftest import poke_tensor, save_per_head_weights
from tokengate import cli, config, harness
from tokengate.budget import compute_budget
from tokengate.cli import main
from tokengate.config import RunConfig, SCHEMA
from tokengate.errors import (
    ConfigError,
    InputError,
    MissingResourceError,
    NumericError,
    ParameterError,
    ShapeError,
)
from tokengate.harness import EpochStats, EvalRow, from_csv, to_csv
from tokengate.selector import SelectorModel, save_weights
from tokengate.tensorio import read_tensor, write_tensor

CFG_TEXT = "d = 16\nheads = 2\nbudget_hidden = 16\nn_max = 64\n"


@pytest.fixture()
def workspace(tmp_path):
    """Weights dir, config file, and a toy 16-token instance on disk."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(CFG_TEXT)
    cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)
    model = SelectorModel.build(cfg)
    weights = tmp_path / "weights"
    save_weights(model, weights)

    rng = np.random.default_rng(0)
    write_tensor(tmp_path / "x.qtn", rng.standard_normal((16, 16)))
    write_tensor(tmp_path / "q.qtn", rng.standard_normal((3, 16)))
    write_tensor(tmp_path / "ts.qtn", np.arange(16.0))
    return tmp_path


def _select_args(ws, out_prefix="out"):
    return [
        "select",
        "--config", str(ws / "run.cfg"),
        "--x", str(ws / "x.qtn"),
        "--q", str(ws / "q.qtn"),
        "--timestamps", str(ws / "ts.qtn"),
        "--weights", str(ws / "weights"),
        "--mode", "infer",
        "--out-tokens", str(ws / f"{out_prefix}_z.qtn"),
        "--out-indices", str(ws / f"{out_prefix}_idx.txt"),
        "--out-diag", str(ws / f"{out_prefix}_diag.json"),
    ]


class TestSelectCommand:
    def test_toy_instance_contract(self, workspace, capsys):
        assert main(_select_args(workspace)) == 0
        indices = [int(line) for line in (workspace / "out_idx.txt").read_text().split()]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        diag = json.loads((workspace / "out_diag.json").read_text())
        assert diag["n"] == len(indices)
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == diag

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_out_diag_json_is_pinned(self, workspace, mode):
        """--out-diag holds the diagnostics record, the mode, the asked-for
        budget n_target and the expected kept count rho*M, and no more."""
        args = _select_args(workspace)
        args[args.index("--mode") + 1] = mode
        assert main(args) == 0
        text = (workspace / "out_diag.json").read_text()
        diag = json.loads(text)
        assert set(diag) == {
            "entropy", "log_m", "m", "mode", "n", "n_target", "r_max", "rho", "rho_m", "sq_mean", "t",
        }
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)
        res = tokengate.select(
            tokengate.load_weights(workspace / "weights"),
            read_tensor(workspace / "x.qtn"),
            read_tensor(workspace / "ts.qtn"),
            read_tensor(workspace / "q.qtn"),
            mode=mode,
            rng=np.random.default_rng(cfg.seed),
        )
        want = {**asdict(res.record), "mode": mode, "n_target": res.n_target}
        want["rho_m"] = res.record.rho * res.record.m
        assert diag == want
        assert diag["m"] == 16
        assert diag["n_target"] == compute_budget(diag["rho"], 16, cfg.n_max)
        if mode == "infer":
            assert diag["n"] == diag["n_target"]
        assert text == json.dumps(want, sort_keys=True) + "\n"

    def test_reruns_byte_identical(self, workspace):
        assert main(_select_args(workspace, "a")) == 0
        assert main(_select_args(workspace, "b")) == 0
        for suffix in ("z.qtn", "idx.txt", "diag.json"):
            a = (workspace / f"a_{suffix}").read_bytes()
            b = (workspace / f"b_{suffix}").read_bytes()
            assert a == b, suffix

    def test_missing_weights_dir_exits_4_without_outputs(self, workspace):
        args = _select_args(workspace, "missing")
        args[args.index("--weights") + 1] = str(workspace / "nonexistent")
        assert main(args) == 4
        assert not (workspace / "missing_z.qtn").exists()
        assert not (workspace / "missing_idx.txt").exists()
        assert not (workspace / "missing_diag.json").exists()

    def test_malformed_tensor_exits_2(self, workspace):
        (workspace / "x.qtn").write_bytes(b"garbage")
        assert main(_select_args(workspace)) == 2

    def test_shape_conflict_exits_3(self, workspace):
        write_tensor(workspace / "q.qtn", np.zeros((3, 8)))  # d mismatch
        assert main(_select_args(workspace)) == 3

    def test_corrupt_weights_exit_2(self, workspace):
        target = next(p for p in (workspace / "weights").glob("scoring.*.qtn"))
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0x01
        target.write_bytes(bytes(blob))
        assert main(_select_args(workspace)) == 2

    def test_manifest_path_outside_weights_exits_2(self, workspace):
        manifest = workspace / "weights" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        name, shape, checksum, filename = lines[0].split()
        (workspace / "weights" / filename).rename(workspace / filename)
        lines[0] = " ".join((name, shape, checksum, f"../{filename}"))
        manifest.write_text("\n".join(lines) + "\n")
        assert main(_select_args(workspace)) == 2

    def test_manifest_listing_a_tensor_twice_exits_2(self, workspace, capsys):
        manifest = workspace / "weights" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines, lines[0]]) + "\n")
        assert main(_select_args(workspace)) == 2
        assert lines[0].split()[0] in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    def test_overflowing_tensor_header_exits_2_without_outputs(self, workspace):
        """A dimension product past 2^63 is a malformed file, not a crash."""
        header = b"QTN1" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2**32, 2**32)
        (workspace / "x.qtn").write_bytes(header)
        assert main(_select_args(workspace)) == 2
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_bad_timestamp_exits_2_without_outputs(self, workspace, bad):
        ts = np.arange(16.0)
        ts[-1] = bad
        write_tensor(workspace / "ts.qtn", ts)
        assert main(_select_args(workspace)) == 2
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_non_finite_tokens_exit_2_without_outputs(self, workspace, bad):
        x = np.random.default_rng(0).standard_normal((16, 16))
        x[3, : len(bad)] = bad
        write_tensor(workspace / "x.qtn", x)
        assert main(_select_args(workspace)) == 2
        assert not (workspace / "out_z.qtn").exists()

    def test_timestamp_past_the_time_encoding_range_exits_2(self, workspace, capsys):
        ts = np.arange(16.0)
        ts[0] = 1e308
        write_tensor(workspace / "ts.qtn", ts)
        assert main(_select_args(workspace)) == 2
        assert "input error: timestamps must be finite, nonnegative seconds, at most" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize(
        "name, bad",
        [
            pytest.param("q", np.inf, id="q"),
            pytest.param("x", np.nan, id="x"),
            pytest.param("x", -np.inf, id="x--inf"),
        ],
    )
    def test_non_finite_input_named_exit_2(self, workspace, capsys, name, bad):
        arr = read_tensor(workspace / f"{name}.qtn")
        arr[0, 1] = bad
        write_tensor(workspace / f"{name}.qtn", arr)
        assert main(_select_args(workspace)) == 2
        assert f"input error: {name} contains non-finite entries" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    def test_non_finite_weights_exit_2(self, workspace, capsys):
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        save_weights(model, workspace / "nan")
        poke_tensor(workspace / "nan", "budget.w2", (0, 0), np.nan)
        assert main(["weights-inspect", "--weights", str(workspace / "nan")]) == 2
        assert "budget.w2" in capsys.readouterr().err

    def test_per_head_weights_exit_4(self, workspace, capsys):
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        save_per_head_weights(model, workspace / "old")
        assert main(["weights-inspect", "--weights", str(workspace / "old")]) == 4
        assert "scoring.wq" in capsys.readouterr().err

    def test_weights_saved_with_scoring_depth_exit_6(self, workspace, capsys):
        """Weights saved while scoring had a depth setting hold
        ``scoring_depth = 1`` in their model.cfg, after ``heads``."""
        cfg = workspace / "weights" / "model.cfg"
        cfg.write_text(cfg.read_text().replace("heads = 2\n", "heads = 2\nscoring_depth = 1\n"))
        assert main(_select_args(workspace)) == 6
        assert "unknown configuration key 'scoring_depth'" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize(
        "key", ["clamp_margin", "wl_sample_interval", "newton_iters", "residual_tol"]
    )
    def test_weights_saved_with_a_removed_key_exit_6(self, workspace, capsys, key):
        """Weights saved while the threshold solve had a bracket margin and
        settable solver constants, and workloads a frame-sampling interval,
        name these keys in model.cfg."""
        cfg = workspace / "weights" / "model.cfg"
        cfg.write_text(cfg.read_text() + f"{key} = 1\n")
        assert main(_select_args(workspace)) == 6
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize("key", ["newton_iters", "residual_tol"])
    @pytest.mark.parametrize("source", ["config", "set"])
    def test_solver_constant_is_an_unknown_key(self, workspace, capsys, source, key):
        """The threshold solve's constants are fixed, not configuration keys."""
        args = _select_args(workspace)
        if source == "config":
            (workspace / "run.cfg").write_text(CFG_TEXT + f"{key} = 6\n")
        else:
            args += ["--set", f"{key}=6"]
        assert main(args) == 6
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize("flag", ["--x", "--config", "--out-tokens"])
    def test_directory_for_a_file_exits_4_without_outputs(self, workspace, capsys, flag):
        (workspace / "adir").mkdir()
        args = _select_args(workspace)
        args[args.index(flag) + 1] = str(workspace / "adir")
        assert main(args) == 4
        assert "missing or unusable resource: " in capsys.readouterr().err
        assert list((workspace / "adir").iterdir()) == []
        assert not list(workspace.glob("adir.*"))  # no temporary file is left
        assert not (workspace / "out_idx.txt").exists()

    def test_missing_config_file_exits_4(self, workspace, capsys):
        args = _select_args(workspace)
        args[args.index("--config") + 1] = str(workspace / "nope.cfg")
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "missing or unusable resource: " in err and "nope.cfg" in err
        assert not (workspace / "out_z.qtn").exists()

    @pytest.mark.parametrize(
        "name, code", [("run.cfg", 6), ("weights/model.cfg", 6), ("weights/manifest.txt", 2)]
    )
    def test_non_utf8_file_exits_with_its_code(self, workspace, capsys, name, code):
        path = workspace / name
        path.write_bytes(b"\xff" + path.read_bytes())
        assert main(_select_args(workspace)) == code
        assert f"{name.split('/')[-1]}: not UTF-8 text" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()

    def test_unknown_config_key_exits_6(self, workspace):
        (workspace / "run.cfg").write_text(CFG_TEXT + "imaginary_knob = 3\n")
        assert main(_select_args(workspace)) == 6

    def test_bad_set_override_exits_6(self, workspace):
        assert main(_select_args(workspace) + ["--set", "tau_s=-1"]) == 6

    def test_set_applies_on_top_of_the_weights_config(self, workspace):
        """--set n_max overrides the n_max the weights were saved with."""
        assert main(_select_args(workspace, "base")) == 0
        base = json.loads((workspace / "base_diag.json").read_text())
        assert base["n"] > 2
        assert main(_select_args(workspace) + ["--set", "n_max=2"]) == 0
        diag = json.loads((workspace / "out_diag.json").read_text())
        assert diag["rho"] == base["rho"]
        assert diag["n"] == diag["n_target"] == 2

    def test_changing_a_key_the_weights_fix_exits_6_without_outputs(self, workspace, capsys):
        assert main(_select_args(workspace) + ["--set", "d=8"]) == 6
        assert "d (16 -> 8)" in capsys.readouterr().err
        for suffix in ("z.qtn", "idx.txt", "diag.json"):
            assert not (workspace / f"out_{suffix}").exists()


class TestOtherCommands:
    def test_eval_recall_dominates_stride(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        args = [
            "eval",
            "--config", str(workspace / "run.cfg"),
            "--set", "wl_tokens=200", "--set", "wl_alignment=8.0",
            "--trials", "10", "--out", str(out),
        ]
        assert main(args) == 0
        rows = from_csv(EvalRow, out.read_text())
        assert len(rows) == 10
        assert np.mean([r.recall for r in rows]) >= np.mean([r.stride_recall for r in rows])

    def test_eval_csv_reports_compression(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        args = ["eval", "--config", str(workspace / "run.cfg"), "--set", "wl_tokens=200"]
        assert main(args + ["--trials", "2", "--out", str(out)]) == 0
        rows = from_csv(EvalRow, out.read_text())
        assert [r.compression for r in rows] == [1.0 - r.n / 200 for r in rows]

    def test_eval_tiny_rho_max_keeps_one_token(self, tmp_path):
        out = tmp_path / "eval.csv"
        args = ["eval", "--set", "rho_min=1e-13", "--set", "rho_max=1e-12", "--trials", "1"]
        assert main(args + ["--out", str(out)]) == 0
        assert [r.n for r in from_csv(EvalRow, out.read_text())] == [1]

    def test_eval_runs_at_the_weights_config(self, workspace, tmp_path):
        """d = 16 weights need no --set d=16, and --set n_max applies."""
        out = tmp_path / "eval.csv"
        args = ["eval", "--trials", "2", "--weights", str(workspace / "weights")]
        assert main(args + ["--set", "n_max=8", "--out", str(out)]) == 0
        rows = from_csv(EvalRow, out.read_text())
        assert rows and all(r.n <= 8 for r in rows)
        assert main(args + ["--out", str(out)]) == 0
        assert any(r.n > 8 for r in from_csv(EvalRow, out.read_text()))

    def test_eval_zero_trials_exits_2_without_output(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        args = ["eval", "--config", str(workspace / "run.cfg"), "--trials", "0", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_eval_without_token_count_names_both_keys(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        args = ["eval", "--config", str(workspace / "run.cfg"), "--trials", "1"]
        assert main(args + ["--set", "wl_tokens=0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "wl_tokens" in err and "wl_frames" in err
        assert not out.exists()
        assert main(args + ["--set", "wl_tokens=0", "--frames", "2", "--out", str(out)]) == 0
        assert [r.m for r in from_csv(EvalRow, out.read_text())] == [32]

    def test_eval_missing_weights_exits_4(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--weights", str(tmp_path / "nope"), "--out", str(out)]) == 4
        assert not out.exists()

    def test_eval_frames_row_count(self, workspace, tmp_path, capsys):
        """One run per frame count: its rows carry their M and the latency
        columns, and one summary line is printed per size."""
        out = tmp_path / "eval.csv"
        code = main(
            [
                "eval",
                "--config", str(workspace / "run.cfg"),
                "--set", "wl_frame_height=28", "--set", "wl_frame_width=28",
                "--frames", "4,8,12,16", "--trials", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = from_csv(EvalRow, out.read_text())
        assert [r.m for r in rows] == [16, 16, 32, 32, 48, 48, 64, 64]
        assert all(r.downstream_ms > 0 and r.full_ms > 0 for r in rows)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["M=16", "M=32", "M=48", "M=64"]
        assert all("latency_ratio=" in line for line in lines)

    @pytest.mark.parametrize(
        "frames, message",
        [
            ("4,abc", "--frames: invalid literal for int() with base 10: 'abc'"),
            ("4,2.5", "--frames: invalid literal for int() with base 10: '2.5'"),
            ("4,-1", "frame count must be >= 1, got -1"),
            (",", "empty frame list"),
        ],
    )
    def test_eval_bad_frames_exit_2(self, workspace, tmp_path, capsys, frames, message):
        out = tmp_path / "eval.csv"
        args = ["eval", "--config", str(workspace / "run.cfg"), f"--frames={frames}", "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"input error: {message}" in captured.err
        assert captured.out == ""  # no size ran before the bad one was found
        assert not out.exists()

    def test_train_then_inspect(self, workspace, tmp_path):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        code = main(
            [
                "train",
                "--config", str(workspace / "run.cfg"),
                "--set", "train_epochs=2", "--set", "train_batch=2",
                "--set", "wl_tokens=32",
                "--out-weights", str(out_w),
                "--out-trajectory", str(out_t),
            ]
        )
        assert code == 0
        assert (out_w / "manifest.txt").exists()
        assert main(["weights-inspect", "--weights", str(out_w)]) == 0

    def test_zero_train_batch_exits_6_without_outputs(self, workspace, tmp_path):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        code = main(
            [
                "train",
                "--config", str(workspace / "run.cfg"),
                "--set", "train_batch=0", "--set", "train_epochs=1",
                "--out-weights", str(out_w),
                "--out-trajectory", str(out_t),
            ]
        )
        assert code == 6
        assert not out_w.exists()
        assert not out_t.exists()

    @pytest.mark.parametrize(
        "key, code",
        [
            ("budget_hidden=0", 6),
            ("budget_hidden=-1", 6),
            ("train_epochs=-1", 6),
            # solver constants, no longer keys: rejected as unknown
            ("newton_iters=0", 6),
            ("residual_tol=0", 6),
            ("residual_tol=nan", 6),
            ("tau_s=nan", 6),
            ("tau_s=inf", 6),
            ("tau_s=1e-7", 6),
            ("tau_s=1e-200", 6),
            ("train_lr=nan", 6),
            ("train_momentum=inf", 6),
            ("clip_norm=nan", 6),
            ("lambda_t=-1", 6),
            ("lambda_m=-0.5", 6),
            ("lambda_s=nan", 6),
            ("rho_bar=1.5", 6),
            ("rho_bar=0", 6),
            ("wl_patch=0", 6),
            ("wl_frame_height=0", 6),
            ("wl_frame_width=-3", 6),
            ("wl_frame_rate=0", 6),
            ("wl_frame_rate=inf", 6),
            ("seed=-1", 6),
            ("wl_tokens=-5", 6),
            ("wl_frames=-1", 6),
            ("wl_planted=0", 6),
            ("rho_min=0.6", 6),
            ("rho_max=1.5", 6),
            ("rho_min=nan", 6),
            ("heads=3", 6),
        ],
    )
    def test_out_of_range_key_fails_without_outputs(self, workspace, tmp_path, key, code):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=1", "--set", key,
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == code
        assert not out_w.exists()
        assert not out_t.exists()

    @pytest.mark.parametrize(
        "setting", ["wl_query_len=0", "wl_planted=0", "wl_alignment=nan", "wl_noise=inf"]
    )
    def test_bad_workload_key_exits_6_naming_it(self, workspace, tmp_path, capsys, setting):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=1", "--set", setting,
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == 6
        key = setting.split("=")[0]
        assert f"config error: {key} must be " in capsys.readouterr().err
        assert not out_w.exists()
        assert not out_t.exists()

    def test_diverging_training_exits_5_with_its_dump(self, workspace, tmp_path, capsys):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=3", "--set", "train_batch=2", "--set", "train_lr=1e300",
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == 5
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("numeric failure: training diverged: overflow")
        assert json.loads(err[1]) == {"epoch": 1, "item": 0}
        assert not out_w.exists()
        assert not out_t.exists()

    def test_non_finite_loss_exits_5_with_its_dump(self, tmp_path, capsys):
        """A penalty weight that overflows the loss in Python floats, which
        no numpy error state sees, takes the non-finite-loss branch."""
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--set", "lambda_t=1e308", "--set", "train_epochs=1",
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == 5
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "numeric failure: training diverged: non-finite loss"
        dump = json.loads(err[1])
        assert sorted(dump) == ["epoch", "item", "r_stats", "rho", "t"]
        assert (dump["epoch"], dump["item"]) == (0, 0)
        assert sorted(dump["r_stats"]) == ["max", "mean", "min"]
        assert not out_w.exists()
        assert not out_t.exists()

    def test_out_weights_on_an_existing_file_exits_4(self, workspace, tmp_path, capsys):
        out_w = tmp_path / "taken"
        out_w.write_text("")
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=1", "--set", "train_batch=2",
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == 4
        assert "missing or unusable resource: " in capsys.readouterr().err
        assert out_w.read_text() == ""
        assert not out_t.exists()

    def test_eval_out_on_a_directory_exits_4(self, workspace, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        args = ["eval", "--config", str(workspace / "run.cfg"), "--trials", "1", "--out", str(out)]
        assert main(args) == 4
        assert "missing or unusable resource: " in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert not list(tmp_path.glob("taken.*"))  # no temporary file is left


class TestUnwritableOutputs:
    """A command whose writes would fail exits 4 before it selects, trains
    or evaluates, and leaves no output behind."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("the command ran its work before checking its outputs")

        for module, name in ((cli, "select"), (harness, "train_desk_scale"), (harness, "evaluate")):
            monkeypatch.setattr(module, name, work)

    @staticmethod
    def _train_args(workspace, out_w, out_t):
        return [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=1", "--set", "train_batch=2",
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]

    def test_train_trajectory_on_a_directory(self, workspace, tmp_path, capsys):
        out_w = tmp_path / "tw"
        assert main(self._train_args(workspace, out_w, tmp_path)) == 4
        assert "cannot write" in capsys.readouterr().err
        assert not out_w.exists()

    def test_train_trajectory_on_the_weights_directory(self, workspace, tmp_path):
        out_w = tmp_path / "tw"
        assert main(self._train_args(workspace, out_w, out_w)) == 4
        assert not out_w.exists()

    @pytest.mark.parametrize("weights", ["taken", "taken/w"])
    def test_train_weights_on_or_under_a_file(self, workspace, tmp_path, capsys, weights):
        (tmp_path / "taken").write_text("")
        out_t = tmp_path / "traj.csv"
        assert main(self._train_args(workspace, tmp_path / weights, out_t)) == 4
        assert "taken is not a directory" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == ""
        assert not out_t.exists()

    def test_train_weights_tensor_on_a_directory(self, workspace, tmp_path, capsys):
        out_w = tmp_path / "tw"
        (out_w / "scoring.wq.qtn").mkdir(parents=True)
        out_t = tmp_path / "traj.csv"
        assert main(self._train_args(workspace, out_w, out_t)) == 4
        assert "scoring.wq.qtn over a directory" in capsys.readouterr().err
        assert [p.name for p in out_w.iterdir()] == ["scoring.wq.qtn"]
        assert not out_t.exists()

    def test_select_diag_on_a_directory(self, workspace, capsys):
        args = _select_args(workspace)
        (workspace / "out_diag.json").mkdir()
        assert main(args) == 4
        assert "out_diag.json over a directory" in capsys.readouterr().err
        assert not (workspace / "out_z.qtn").exists()
        assert not (workspace / "out_idx.txt").exists()

    def test_select_two_outputs_name_one_file(self, workspace, monkeypatch, capsys):
        """``o`` and ``./o`` are one file: the later write would replace
        the earlier."""
        monkeypatch.chdir(workspace)
        args = _select_args(workspace)
        args[args.index("--out-tokens") + 1] = "o"
        args[args.index("--out-indices") + 1] = "./o"
        assert main(args) == 4
        assert f"two outputs would write {workspace.resolve() / 'o'}" in capsys.readouterr().err
        assert not (workspace / "o").exists()
        assert not (workspace / "out_diag.json").exists()

    @pytest.mark.parametrize("name", ["model.cfg", "manifest.txt", "scoring.wq.qtn"])
    def test_train_trajectory_on_a_weights_file(self, workspace, tmp_path, capsys, name):
        out_w = tmp_path / "tw"
        assert main(self._train_args(workspace, out_w, out_w / name)) == 4
        assert f"two outputs would write {out_w.resolve() / name}" in capsys.readouterr().err
        assert not out_w.exists()

    def test_eval_out_in_a_missing_directory(self, workspace, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "e.csv"
        args = ["eval", "--config", str(workspace / "run.cfg"), "--set", "wl_tokens=64",
                "--trials", "1", "--out", str(out)]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""  # no summary line: no trial ran
        assert "nonexistent is not a directory" in captured.err
        assert not out.parent.exists()


@pytest.mark.parametrize(
    "out_w, out_t",
    [
        ("new/tw", "new/tw/traj.csv"),
        ("{tmp}/tw", "tw/traj.csv"),  # an absolute --out-weights, a relative trajectory
        ("a/../tw", "tw/traj.csv"),
    ],
    ids=["nested", "absolute", "dotdot"],
)
def test_train_writes_its_trajectory_into_a_new_weights_directory(
    workspace, tmp_path, monkeypatch, out_w, out_t
):
    """The weights directory counts as the trajectory's parent, since
    the weights are written first, however the two paths spell it."""
    monkeypatch.chdir(tmp_path)
    args = TestUnwritableOutputs._train_args(workspace, out_w.format(tmp=tmp_path), out_t)
    assert main(args + ["--set", "wl_tokens=32"]) == 0
    assert (tmp_path / out_t).with_name("manifest.txt").exists()
    assert from_csv(EpochStats, (tmp_path / out_t).read_text())[0].epoch == 0


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConfigError("unknown key"), 6),
        (ShapeError("width mismatch"), 3),
        (MissingResourceError("no weights"), 4),
        (FileNotFoundError("no such file"), 4),
        (NumericError("diverged", dump={"epoch": 3, "rho": 0.5}), 5),
        (InputError("bad tensor"), 2),
        (ParameterError("bad budget"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_per_error_class(monkeypatch, tmp_path, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_eval", fail)
    args = ["eval", "--out", str(tmp_path / "o.csv")]
    assert main(args) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert str(exc) in err[0]
    if isinstance(exc, NumericError):
        assert json.loads(err[1]) == exc.dump


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["select", "train", "eval", "weights-inspect"]
    )
    def test_help_lists_every_schema_key(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in SCHEMA:
            assert key in text, key

    def test_readme_usage_lists_every_command(self):
        """The ``tokengate <command>`` lines in README's usage block name
        exactly the parser's subcommands."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^tokengate ([\w-]+)", readme, re.MULTILINE))
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert documented == set(subparsers.choices)

    def test_readme_key_lists_match_the_code(self):
        """README's range list names exactly the keys of ``config._RULES``,
        and its --weights list is ``cli.WEIGHT_KEYS``, in order."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        ranges = readme.split("The ranges:\n\n", 1)[1].split("\n\n", 1)[0]
        ruled = {key for keys, _, _ in config._RULES for key in keys}
        assert set(re.findall(r"`(\w+)`", ranges)) == ruled
        weights = re.search(r"built and trained with\s*\(([^)]*)\)", readme).group(1)
        assert tuple(re.findall(r"`(\w+)`", weights)) == cli.WEIGHT_KEYS

    def test_readme_csv_schemas_match_the_code(self):
        """README's CSV schema lines are the headers ``to_csv`` writes."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## CSV schemas\n\n", 1)[1].split("\n\n", 1)[0]
        schemas = dict(re.findall(r"^- ([\w ]+): `([^`]*)`$", section, re.MULTILINE))
        assert schemas == {
            "eval": to_csv(EvalRow, []).strip(),
            "training trajectory": to_csv(EpochStats, []).strip(),
        }

    def test_every_schema_key_is_read(self):
        """A key the help advertises must configure something outside
        config.py: read as ``.<key>``, or set through a field map that
        ``from_config`` reads."""
        src = Path(tokengate.__file__).parent
        code = "\n".join(p.read_text() for p in src.glob("*.py") if p.name != "config.py")
        mapped = {*harness._WORKLOAD_KEYS.values(), *harness._OPTIMIZER_KEYS.values()}
        unread = [key for key in SCHEMA if key not in mapped and not re.search(rf"\.{key}\b", code)]
        assert unread == []
