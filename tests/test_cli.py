"""CLI behavior: exit codes, determinism, atomicity, schema help."""

import json

import numpy as np
import pytest

from conftest import save_per_head_weights
from tokengate.cli import main
from tokengate.config import RunConfig, SCHEMA
from tokengate.harness import BenchRecord, CorrelationRow, from_csv
from tokengate.selector import DiagnosticsRecord, SelectorModel, save_weights
from tokengate.tensorio import write_tensor

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

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_bad_timestamp_exits_2_without_outputs(self, workspace, bad):
        ts = np.arange(16.0)
        ts[-1] = bad
        write_tensor(workspace / "ts.qtn", ts)
        assert main(_select_args(workspace)) == 2
        assert not (workspace / "out_z.qtn").exists()

    def test_non_finite_weights_exit_2(self, workspace, capsys):
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        params = model.parameters()
        params["budget.w2"][0, 0] = np.nan
        save_weights(model.with_parameters(params), workspace / "nan")
        assert main(["weights-inspect", "--weights", str(workspace / "nan")]) == 2
        assert "budget.w2" in capsys.readouterr().err

    def test_per_head_weights_exit_4(self, workspace, capsys):
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        save_per_head_weights(model, workspace / "old")
        assert main(["weights-inspect", "--weights", str(workspace / "old")]) == 4
        assert "scoring.l0.wq" in capsys.readouterr().err

    def test_unknown_config_key_exits_6(self, workspace):
        (workspace / "run.cfg").write_text(CFG_TEXT + "imaginary_knob = 3\n")
        assert main(_select_args(workspace)) == 6

    def test_bad_set_override_exits_6(self, workspace):
        assert main(_select_args(workspace) + ["--set", "tau_s=-1"]) == 6


class TestOtherCommands:
    def test_ablate_qts_dominates_unif(self, workspace, tmp_path):
        common = [
            "--config", str(workspace / "run.cfg"),
            "--set", "wl_tokens=200", "--set", "wl_alignment=8.0",
            "--trials", "10",
        ]
        out_q = tmp_path / "qts.csv"
        out_u = tmp_path / "unif.csv"
        assert main(["ablate", "--variant", "QTS", "--out", str(out_q)] + common) == 0
        assert main(["ablate", "--variant", "UNIF", "--out", str(out_u)] + common) == 0
        from tokengate.harness import AblationRow

        qts = from_csv(AblationRow, out_q.read_text())
        unif = from_csv(AblationRow, out_u.read_text())
        assert np.mean([r.recall for r in qts]) >= np.mean([r.recall for r in unif])

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

    def test_diag_reports_undefined_on_constant_rho(self, workspace, tmp_path, capsys):
        records_file = tmp_path / "records.csv"
        header = "sq_mean,log_m,r_max,entropy,rho,t,n,m\n"
        rows = "".join(
            f"0.1,5.0,0.5,1.0,0.3,{0.9 - 0.1 * i},10,100\n" for i in range(4)
        )
        records_file.write_text(header + rows)
        out = tmp_path / "corr.csv"
        assert main(["diag", "--records", str(records_file), "--out", str(out)]) == 0
        parsed = from_csv(CorrelationRow, out.read_text())
        rho_t = next(r for r in parsed if r.pair == "rho_vs_t")
        assert rho_t.r is None
        assert "undefined" in out.read_text()

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

    def test_ablate_records_out_feeds_diag(self, workspace, tmp_path):
        records_out = tmp_path / "records.csv"
        code = main(
            [
                "ablate",
                "--config", str(workspace / "run.cfg"),
                "--variant", "QTS",
                "--trials", "5",
                "--out", str(tmp_path / "ablate.csv"),
                "--records-out", str(records_out),
            ]
        )
        assert code == 0
        records = from_csv(DiagnosticsRecord, records_out.read_text())
        assert len(records) == 5
        out = tmp_path / "corr.csv"
        assert main(["diag", "--records", str(records_out), "--out", str(out)]) == 0

    def test_missing_records_file_exits_4(self, tmp_path):
        assert main(["diag", "--records", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == 4


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["select", "train", "bench", "ablate", "diag", "weights-inspect"]
    )
    def test_help_lists_every_schema_key(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in SCHEMA:
            assert key in text, key
