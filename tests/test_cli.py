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
from tokengate import cli, config
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
from tokengate.harness import BenchRecord, EvalRow, from_csv
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

    def test_eval_missing_weights_exits_4(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--weights", str(tmp_path / "nope"), "--out", str(out)]) == 4
        assert not out.exists()

    def test_bench_row_count(self, workspace, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--config", str(workspace / "run.cfg"),
                "--set", "wl_frame_height=28", "--set", "wl_frame_width=28",
                "--frames", "4,8,12,16",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = from_csv(BenchRecord, out.read_text())
        assert len(records) == 8
        assert {r.mode for r in records} == {"baseline", "qts"}

    @pytest.mark.parametrize(
        "frames, message",
        [
            ("4,abc", "--frames: invalid literal for int() with base 10: 'abc'"),
            ("4,2.5", "--frames: invalid literal for int() with base 10: '2.5'"),
            ("4,-1", "frame count must be >= 1, got -1"),
        ],
    )
    def test_bench_bad_frames_exit_2(self, workspace, tmp_path, capsys, frames, message):
        out = tmp_path / "bench.csv"
        args = ["bench", "--config", str(workspace / "run.cfg"), f"--frames={frames}", "--out", str(out)]
        assert main(args) == 2
        assert f"input error: {message}" in capsys.readouterr().err
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
            ("newton_iters=0", 6),
            ("residual_tol=0", 6),
            ("residual_tol=nan", 6),
            ("tau_s=nan", 6),
            ("tau_s=inf", 6),
            ("clamp_margin=-5", 6),
            ("clamp_margin=nan", 6),
            ("clamp_margin=inf", 6),
            ("train_lr=nan", 6),
            ("train_momentum=inf", 6),
            ("clip_norm=nan", 6),
            ("lambda_t=-1", 6),
            ("lambda_m=-0.5", 6),
            ("lambda_s=nan", 6),
            ("rho_bar=1.5", 6),
            ("rho_bar=0", 6),
            ("wl_sample_interval=0", 6),
            ("wl_patch=0", 6),
            ("wl_frame_height=0", 6),
            ("wl_frame_width=-3", 6),
            ("wl_frame_rate=0", 6),
            ("wl_frame_rate=inf", 6),
            ("seed=-1", 6),
            ("wl_tokens=-5", 6),
            ("wl_frames=-1", 6),
            ("wl_planted=0", 2),
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
        "key, message",
        [("wl_alignment=nan", "alignment"), ("wl_noise=nan", "noise"),
         ("wl_query_len=-1", "query length")],
    )
    def test_bad_workload_key_exits_2_naming_it(self, workspace, tmp_path, capsys, key, message):
        out_w = tmp_path / "trained"
        out_t = tmp_path / "traj.csv"
        args = [
            "train",
            "--config", str(workspace / "run.cfg"),
            "--set", "train_epochs=1", "--set", key,
            "--out-weights", str(out_w),
            "--out-trajectory", str(out_t),
        ]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out_w.exists()
        assert not out_t.exists()


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
        "command", ["select", "train", "bench", "eval", "weights-inspect"]
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

    def test_every_schema_key_is_read(self):
        """A key the help advertises must configure something outside config.py."""
        src = Path(tokengate.__file__).parent
        code = "\n".join(p.read_text() for p in src.glob("*.py") if p.name != "config.py")
        unread = [key for key in SCHEMA if not re.search(rf"\.{key}\b", code)]
        assert unread == []
