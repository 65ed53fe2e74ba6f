"""Pipeline orchestration and weight persistence."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import peak_bytes, poke_tensor, save_per_head_weights
from oracles import scalar
from tokengate import autodiff, gate, selector
from tokengate.budget import compute_budget
from tokengate.config import RunConfig
from tokengate.errors import (
    ConfigError,
    InputError,
    MissingResourceError,
    NumericError,
    ParameterError,
    ShapeError,
)
from tokengate.harness import WorkloadSpec, generate_workload
from tokengate.scoring import RELEVANCE_CHUNK, score
from tokengate.selector import SelectorModel, load_weights, save_weights, select
from tokengate.tensorio import read_tensor, write_tensor

SMALL = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)


@pytest.fixture(scope="module")
def model():
    return SelectorModel.build(SMALL)


def _workload(m=120, seed=0, d=16):
    spec = WorkloadSpec(m=m, d=d, l=4, k=5, seed=seed)
    return generate_workload(spec, np.random.default_rng(seed))


class TestSelect:
    def test_infer_counts_match_budget(self, model):
        wl = _workload()
        res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        expected = compute_budget(res.record.rho, 120, model.cfg.n_max)
        assert res.record.n == expected == res.indices.size == res.z.shape[0]

    def test_small_input_degenerates_to_identity_selection(self):
        """ceil(rho*M) >= M keeps everything in original order."""
        cfg = RunConfig(d=8, heads=2, budget_hidden=8, n_max=64, rho_min=0.9, rho_max=0.99)
        model = SelectorModel.build(cfg)
        wl = _workload(m=6, d=8)
        res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        np.testing.assert_array_equal(res.indices, np.arange(6))

    def test_large_stream_hits_cap(self):
        """180k tokens with the 25600 cap: n = 25600, an >= 85.7% reduction."""
        cfg = RunConfig(
            d=8, heads=2, budget_hidden=8, n_max=25600, reencode_depth=0, wl_tokens=180000
        )
        model = SelectorModel.build(cfg)
        rng = np.random.default_rng(0)
        m = 180000
        x = rng.standard_normal((m, 8))
        q = rng.standard_normal((2, 8))
        res = select(model, x, np.arange(m, dtype=float), q, mode="infer")
        if res.record.rho * m >= 25600:
            assert res.record.n == 25600
        reduction = 1.0 - res.record.n / m
        assert reduction >= 1.0 - 25600 / 180000 - 1e-12
        assert reduction >= 0.857

    def test_train_mode_seeded_determinism(self, model):
        wl = _workload(seed=3)
        a = select(model, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(11))
        b = select(model, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(11))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.z, b.z)

    def test_train_mode_diagnostics_report_realized_count(self, model):
        wl = _workload(seed=4)
        res = select(model, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(0))
        assert res.record.n == res.indices.size

    def test_kept_timestamps_nondecreasing(self, model):
        wl = _workload(seed=5)
        res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        assert np.all(np.diff(wl.timestamps[res.indices]) >= 0)

    def test_compression_bound(self, model):
        for seed in range(20):
            wl = _workload(m=200, seed=seed)
            res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
            bound = min(model.cfg.n_max, math.ceil(model.cfg.rho_max * 200))
            assert res.record.n <= bound

    def test_tiny_rho_max_keeps_one_token(self):
        """The compression bound is ``compute_budget`` at rho_max, so it
        keeps the rule's floor of one token when rho_max * M < 1."""
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64, rho_min=1e-13, rho_max=1e-12)
        wl = _workload(m=300)
        res = select(SelectorModel.build(cfg), wl.x, wl.timestamps, wl.q, mode="infer")
        assert res.record.n == res.n_target == 1

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_rho_stays_inside_the_config_bounds_of_a_built_model(self, model, mode):
        """The retention bounds are model.cfg's alone: narrowing them on a
        built model narrows rho, which the seeded head puts near 0.275."""
        narrowed = replace(model, cfg=replace(model.cfg, rho_max=0.2))
        for seed in range(5):
            wl = _workload(seed=seed)
            res = select(narrowed, wl.x, wl.timestamps, wl.q, mode, np.random.default_rng(seed))
            assert 0.05 < res.record.rho <= 0.2

    def test_concurrent_calls_match_sequential(self, model):
        """select() is reentrant: each call owns its tape and RNG stream."""
        from concurrent.futures import ThreadPoolExecutor

        workloads = [_workload(seed=s) for s in range(8)]
        sequential = [
            select(model, wl.x, wl.timestamps, wl.q, "infer").indices for wl in workloads
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(
                    lambda wl: select(model, wl.x, wl.timestamps, wl.q, "infer").indices,
                    workloads,
                )
            )
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m", [300, RELEVANCE_CHUNK + 1500])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuting_dropped_rows_keeps_selection(self, model, m, seed):
        """Dropped rows, moved with their timestamps among their own
        positions, leave the kept set and z bit-identical."""
        wl = _workload(m=m, seed=seed)
        res = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        dropped = np.setdiff1d(np.arange(m), res.indices)
        moved = np.random.default_rng(seed).permutation(dropped)
        assert np.any(moved != dropped)
        x, ts = wl.x.copy(), wl.timestamps.copy()
        x[dropped], ts[dropped] = wl.x[moved], wl.timestamps[moved]
        again = select(model, x, ts, wl.q, mode="infer")
        assert again.indices.tobytes() == res.indices.tobytes()
        assert again.z.tobytes() == res.z.tobytes()

    def test_empty_stream_rejected(self, model):
        with pytest.raises(InputError):
            select(model, np.zeros((0, 16)), np.zeros(0), np.ones((2, 16)))

    def test_timestamp_mismatch_rejected(self, model):
        wl = _workload()
        with pytest.raises(ShapeError):
            select(model, wl.x, wl.timestamps[:-1], wl.q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("reencode", [True, False])
    def test_bad_timestamp_on_dropped_token_rejected(self, model, bad, reencode):
        """Every timestamp is checked, not only those of kept tokens, and
        also when re-encoding (the only consumer of timestamps) is off."""
        model = model if reencode else model.without_reencoder()
        wl = _workload()
        kept = select(model, wl.x, wl.timestamps, wl.q).indices
        ts = wl.timestamps.copy()
        ts[np.setdiff1d(np.arange(ts.size), kept)[0]] = bad
        with pytest.raises(InputError, match="timestamps"):
            select(model, wl.x, ts, wl.q)

    @pytest.mark.parametrize("reencode", [True, False])
    def test_timestamp_past_the_time_encoding_range_rejected(self, model, reencode):
        """2pi * t overflows past float max / 2pi; that bound is checked on
        every timestamp, also when the re-encoder is off."""
        model = model if reencode else model.without_reencoder()
        wl = _workload()
        ts = wl.timestamps.copy()
        ts[5] = 1e308
        with pytest.raises(InputError, match=r"^timestamps .* float max / 2pi = 2\.86112e\+307$"):
            select(model, wl.x, ts, wl.q)

    def test_largest_legal_timestamp_encodes_finitely(self, model):
        wl = _workload()
        ts = np.full(wl.timestamps.size, np.finfo(np.float64).max / (2.0 * math.pi))
        res = select(model, wl.x, ts, wl.q)
        assert np.all(np.isfinite(res.z))

    @pytest.mark.parametrize(
        "name, bad, mode",
        [
            pytest.param(name, bad, mode, id=f"{bad}-{name}" + ("-train" if mode == "train" else ""))
            for mode in ("infer", "train")
            for name in ("x", "q")
            for bad in (np.nan, np.inf, -np.inf)
        ],
    )
    def test_non_finite_input_named(self, model, name, bad, mode):
        wl = _workload()
        inputs = {"x": wl.x.copy(), "q": wl.q.copy()}
        inputs[name][1, 2] = bad
        with pytest.raises(InputError, match=f"^{name} contains non-finite entries$"):
            select(model, inputs["x"], wl.timestamps, inputs["q"], mode=mode, rng=np.random.default_rng(0))

    def test_unsorted_timestamps_accepted(self, model):
        """Timestamps need not be monotone; kept tokens keep their own."""
        wl = _workload()
        a = select(model, wl.x, wl.timestamps, wl.q)
        b = select(model, wl.x, wl.timestamps[::-1].copy(), wl.q)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert np.all(np.isfinite(b.z))

    def test_train_mode_requires_rng(self, model):
        """A default generator would draw the same Gumbel noise on every call."""
        wl = _workload()
        with pytest.raises(ParameterError, match="rng"):
            select(model, wl.x, wl.timestamps, wl.q, mode="train")


def test_scoring_sets_the_infer_peak():
    """At M = 2^17 with L = 16 no stage after scoring holds more than
    scoring's chunk buffer: select peaks within 0.05 MiB of score alone.
    The threshold solve takes two passes on this input."""
    cfg = RunConfig()
    model = SelectorModel.build(cfg)
    wl = generate_workload(WorkloadSpec(m=2**17, d=cfg.d, l=16, k=8), np.random.default_rng(1))
    score_peak = peak_bytes(lambda: score(wl.x, wl.q, model.scoring))
    select_peak = peak_bytes(lambda: select(model, wl.x, wl.timestamps, wl.q, mode="infer"))
    assert abs(select_peak - score_peak) <= 0.05 * 2**20


class TestWeightChecks:
    """Scoring and budget weights are scanned once, when their container
    is built, not on every call."""

    @pytest.mark.parametrize("name", ["scoring.wq", "scoring.wk", "budget.w1", "budget.b_out"])
    def test_non_finite_array_rejected_when_built(self, model, name):
        params = model.parameters()
        params[name][0, 0] = np.nan
        with pytest.raises(InputError, match=rf"^{name.replace('.', r'[.]')} contains non-finite"):
            model.with_parameters(params)

    def test_select_scans_no_weight(self, model, monkeypatch):
        weights = {id(t) for _, t in model.named_tensors()}
        scanned = []
        as_matrix = autodiff.as_matrix

        def recorded(x, name="matrix"):
            scanned.append(id(x))
            return as_matrix(x, name)

        monkeypatch.setattr(autodiff, "as_matrix", recorded)
        wl = _workload()
        for mode in ("infer", "train"):
            select(model, wl.x, wl.timestamps, wl.q, mode=mode, rng=np.random.default_rng(0))
        assert scanned and not weights & set(scanned)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["infer", "train"])
    @pytest.mark.parametrize(
        "name",
        ["scoring.wq", "scoring.wk", "budget.w1", "budget.b_out", "reencoder.b0.attn.wq"],
    )
    def test_array_made_non_finite_after_build_fails_select(self, model, name, mode):
        """Training updates the arrays in place, after the build-time scan;
        a NaN that gets in that way still stops ``select``, which names it."""
        params = model.parameters()
        built = model.with_parameters(params)  # shares params' arrays
        params[name][0, 0] = np.nan
        wl = _workload()
        with pytest.raises(InputError, match=rf"^{name.replace('.', r'[.]')} contains non-finite"):
            select(built, wl.x, wl.timestamps, wl.q, mode=mode, rng=np.random.default_rng(0))


class TestBoundaryCheck:
    def test_residual_check_adds_no_sigmoid_pass(self, model, monkeypatch):
        """The check reads the residual the solve evaluated at t: every
        sigmoid over the M relevance values is one of the solver's passes."""
        m = 300
        wl = _workload(m=m)
        solver_sizes, other_sizes = [], []

        def counted(sizes, sigmoid):
            def wrapped(x, out=None):
                sizes.append(np.size(x))
                return sigmoid(x, out=out)

            return wrapped

        monkeypatch.setattr(gate, "sigmoid_values", counted(solver_sizes, gate.sigmoid_values))
        monkeypatch.setattr(
            autodiff, "sigmoid_values", counted(other_sizes, autodiff.sigmoid_values)
        )
        select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        assert solver_sizes and set(solver_sizes) == {m}
        assert m not in other_sizes

    def test_off_root_threshold_still_raises(self, model, monkeypatch):
        wl = _workload()
        solve = gate.find_threshold

        def off_root(r, rho, tau_s):
            t = solve(r, rho, tau_s)[0] + tau_s
            keep = float(autodiff.sigmoid_values((r - t) / tau_s).sum())
            return t, abs(keep - rho * r.size)

        monkeypatch.setattr(gate, "find_threshold", off_root)
        with pytest.raises(NumericError, match="threshold residual"):
            select(model, wl.x, wl.timestamps, wl.q, mode="infer")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda idx: idx[:0],
            lambda idx: idx[::-1].copy(),
            lambda idx: np.concatenate([idx[:1], idx[:-1]]),
            lambda idx: np.concatenate([idx[:3], idx[2:-1]]),
        ],
        ids=["empty", "descending", "repeated", "repeat-inside"],
    )
    def test_empty_or_non_ascending_indices_raise(self, model, monkeypatch, corrupt):
        """Neither gate returns such indices, so both are patched to; the
        boundary check alone must catch them, in either mode."""
        wl = _workload()
        top_n, soft_gate = selector.hard_top_n, selector.soft_gate_apply
        monkeypatch.setattr(selector, "hard_top_n", lambda r, n: corrupt(top_n(r, n)))

        def corrupt_soft_gate(*args):
            soft, st, idx = soft_gate(*args)
            return soft, st, corrupt(idx)

        monkeypatch.setattr(selector, "soft_gate_apply", corrupt_soft_gate)
        for mode in ("infer", "train"):
            with pytest.raises(NumericError, match="kept 0 tokens|kept zero|ascending") as info:
                select(model, wl.x, wl.timestamps, wl.q, mode, np.random.default_rng(1))
            assert info.traceback[-1].name == "_check_boundary"

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_rho_above_head_bound_raises(self, model, monkeypatch, mode):
        """A rho outside the run config's [rho_min, rho_max] but inside (0, 1],
        so the budget and the threshold solve still accept it."""
        wl = _workload()
        monkeypatch.setattr(
            selector, "predict_rho", lambda features, head, cfg: scalar(cfg.rho_max + 0.01)
        )
        with pytest.raises(NumericError, match=r"rho 0\.51 outside \[0\.05, 0\.5\]"):
            select(model, wl.x, wl.timestamps, wl.q, mode=mode, rng=np.random.default_rng(0))


class TestSerialization:
    @pytest.mark.parametrize("heads", [1, 2])
    def test_round_trip_bit_exact(self, heads, tmp_path):
        model = SelectorModel.build(replace(SMALL, heads=heads))
        save_weights(model, tmp_path / "w")
        loaded = load_weights(tmp_path / "w")
        original = model.parameters()
        for name, tensor in loaded.parameters().items():
            np.testing.assert_array_equal(tensor, original[name], err_msg=name)
        # behaviour identical too
        wl = _workload(seed=6)
        a = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        b = select(loaded, wl.x, wl.timestamps, wl.q, mode="infer")
        np.testing.assert_array_equal(a.z, b.z)

    def test_round_trip_byte_identical_beyond_defaults(self, tmp_path):
        """``load_weights`` takes its names and shapes from a skeleton that
        draws nothing: weights of a non-default shape, loaded and saved
        again, write the same bytes."""
        cfg = RunConfig(heads=2, reencode_depth=1, budget_hidden=16)
        entries = save_weights(SelectorModel.build(cfg), tmp_path / "a")
        assert save_weights(load_weights(tmp_path / "a"), tmp_path / "b") == entries
        for first in sorted((tmp_path / "a").iterdir()):
            assert (tmp_path / "b" / first.name).read_bytes() == first.read_bytes(), first.name

    @pytest.mark.parametrize(
        "cfg",
        [RunConfig(), RunConfig(tau_s=0.3, n_max=64, budget_hidden=16)],
        ids=["default", "custom"],
    )
    def test_round_trip_keeps_config(self, cfg, tmp_path):
        model = SelectorModel.build(cfg)
        save_weights(model, tmp_path / "w")
        assert load_weights(tmp_path / "w").cfg == model.cfg

    def test_without_reencoder_round_trips(self, model, tmp_path):
        bare = model.without_reencoder()
        save_weights(bare, tmp_path / "w")
        loaded = load_weights(tmp_path / "w")
        assert loaded.cfg == bare.cfg and loaded.cfg.reencode_depth == 0
        assert sorted(loaded.parameters()) == sorted(bare.parameters())

    def test_model_keys_only_config_loads(self, tmp_path):
        """A model.cfg that holds only the model and gate keys (the layout
        written before it held the full run config, less the solver
        constants that are no longer keys) still loads."""
        cfg = replace(SMALL, tau_s=0.3, n_max=40, seed=3)
        model = SelectorModel.build(cfg)
        save_weights(model, tmp_path / "w")
        keys = (
            "d", "heads", "reencode_depth", "budget_hidden", "rho_min", "rho_max", "n_max",
            "tau_s", "seed",
        )
        (tmp_path / "w" / "model.cfg").write_text(
            "".join(f"{key} = {getattr(cfg, key)}\n" for key in keys)
        )
        loaded = load_weights(tmp_path / "w")
        wl = _workload(m=300, seed=8)
        a = select(model, wl.x, wl.timestamps, wl.q, mode="infer")
        b = select(loaded, wl.x, wl.timestamps, wl.q, mode="infer")
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(b.z, a.z, rtol=0, atol=1e-12)

    def test_config_with_scoring_depth_rejected(self, model, tmp_path):
        """Weights saved while scoring had a depth setting hold
        ``scoring_depth = 1``, a key the schema no longer has."""
        save_weights(model, tmp_path / "w")
        cfg = tmp_path / "w" / "model.cfg"
        cfg.write_text(cfg.read_text().replace("heads = 2\n", "heads = 2\nscoring_depth = 1\n"))
        with pytest.raises(ConfigError, match="unknown configuration key 'scoring_depth'"):
            load_weights(tmp_path / "w")

    def test_corrupt_byte_names_tensor(self, model, tmp_path):
        entries = save_weights(model, tmp_path / "w")
        name, _, _, filename = entries[3]
        target = tmp_path / "w" / filename
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(InputError, match=name.replace(".", r"\.")):
            load_weights(tmp_path / "w")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_named(self, model, tmp_path, bad):
        """Checksums match a NaN/inf payload, so only a value scan catches it."""
        save_weights(model, tmp_path / "w")
        poke_tensor(tmp_path / "w", "reencoder.b1.ffn.w1", (2, 3), bad)
        with pytest.raises(InputError, match=r"reencoder\.b1\.ffn\.w1"):
            load_weights(tmp_path / "w")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_tensor(self, model, tmp_path, bad):
        """No file is written that load_weights would reject, even for an
        array made non-finite in place after the model was built."""
        params = model.parameters()
        built = model.with_parameters(params)  # shares params' arrays
        params["budget.w_out"][1, 0] = bad
        with pytest.raises(NumericError, match=r"budget\.w_out"):
            save_weights(built, tmp_path / "w")
        assert not (tmp_path / "w").exists()

    def test_missing_tensor_file(self, model, tmp_path):
        entries = save_weights(model, tmp_path / "w")
        (tmp_path / "w" / entries[0][3]).unlink()
        with pytest.raises(MissingResourceError):
            load_weights(tmp_path / "w")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingResourceError):
            load_weights(tmp_path / "nope")

    def test_shape_conflict(self, model, tmp_path):
        entries = save_weights(model, tmp_path / "w")
        name, shape_txt, _, filename = entries[0]
        rows, cols = (int(v) for v in shape_txt.split("x"))
        write_tensor(tmp_path / "w" / filename, np.zeros((rows + 1, cols)))
        # fix the manifest checksum/shape so the shape check is what trips
        from tokengate.tensorio import file_sha256, write_manifest

        fixed = []
        for entry in entries:
            if entry[0] == name:
                fixed.append(
                    (name, f"{rows + 1}x{cols}", file_sha256(tmp_path / "w" / filename), filename)
                )
            else:
                fixed.append(entry)
        write_manifest(tmp_path / "w" / "manifest.txt", fixed)
        with pytest.raises(ShapeError):
            load_weights(tmp_path / "w")

    def test_manifest_listing_a_tensor_twice(self, model, tmp_path):
        """A second, well-formed entry for one name is refused, not loaded
        over the first."""
        from tokengate.tensorio import file_sha256, write_manifest

        entries = save_weights(model, tmp_path / "w")
        name, shape_txt, _, _ = entries[0]
        rows, cols = (int(v) for v in shape_txt.split("x"))
        write_tensor(tmp_path / "w" / "other.qtn", np.zeros((rows, cols)))
        entries.append((name, shape_txt, file_sha256(tmp_path / "w" / "other.qtn"), "other.qtn"))
        write_manifest(tmp_path / "w" / "manifest.txt", entries)
        with pytest.raises(InputError, match=rf"more than once: {name}$"):
            load_weights(tmp_path / "w")

    @pytest.mark.parametrize("target", ["../{}", "sub/{}", "absolute"])
    def test_manifest_filename_must_be_bare(self, model, tmp_path, target):
        """A manifest may not name a file outside its directory, even one
        whose checksum and shape are right."""
        from tokengate.tensorio import write_manifest

        weights = tmp_path / "w"
        entries = save_weights(model, weights)
        name, shape_txt, checksum, filename = entries[0]
        if target == "absolute":
            target = str(tmp_path / filename)
        else:
            target = target.format(filename)
        moved = weights / target  # an absolute target replaces the directory
        moved.parent.mkdir(exist_ok=True)
        (weights / filename).rename(moved)
        entries[0] = (name, shape_txt, checksum, target)
        write_manifest(weights / "manifest.txt", entries)
        with pytest.raises(InputError, match="bare file name"):
            load_weights(weights)

    @pytest.mark.parametrize("r_depth", [1, 2])
    def test_manifest_counts_match_configuration(self, r_depth, tmp_path):
        """Packed heads; scoring keeps only wq and wk, the tensors that reach
        the relevance."""
        cfg = replace(SMALL, reencode_depth=r_depth)
        entries = save_weights(SelectorModel.build(cfg), tmp_path / "w")
        expected_scoring = 2
        expected_budget = 6
        expected_reencoder = r_depth * (2 + 4 + 4)
        names = [e[0] for e in entries]
        assert sum(n.startswith("scoring.") for n in names) == expected_scoring
        assert sum(n.startswith("budget.") for n in names) == expected_budget
        assert sum(n.startswith("reencoder.") for n in names) == expected_reencoder
        assert len(names) == expected_scoring + expected_budget + expected_reencoder

    @pytest.mark.parametrize(
        "depths, trainable",
        [((2, 2), False), ((1, 1), False), ((0, 0), False), ((2, 0), True)],
    )
    def test_manifest_names_in_order(self, depths, trainable):
        """The exact ordered names: ``reencoder._block`` unpacks a block's
        tensors in this order, and training sums the gradient norm in it.
        ``depths`` is the built re-encoder depth and the number of blocks
        the trainable model still lists."""
        built_depth, r_depth = depths
        model = SelectorModel.build(RunConfig(reencode_depth=built_depth))
        if trainable:
            model = model.without_reencoder()
        scoring = ["scoring.wq", "scoring.wk"]
        budget = [f"budget.{w}" for w in ("w1", "b1", "w2", "b2", "w_out", "b_out")]
        block = ["gain_attn", "gain_ffn", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
                 "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"]
        reencoder = [f"reencoder.b{i}.{w}" for i in range(r_depth) for w in block]
        expected = scoring + budget + reencoder
        assert [name for name, _ in model.named_tensors()] == expected
        assert list(model.parameters()) == expected

    def test_per_head_layout_is_missing_resource(self, model, tmp_path):
        save_per_head_weights(model, tmp_path / "w")
        with pytest.raises(MissingResourceError, match=r"scoring\.wq"):
            load_weights(tmp_path / "w")


class TestTensorFormat:
    def test_round_trip_rank2(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((5, 7))
        write_tensor(tmp_path / "a.qtn", arr)
        np.testing.assert_array_equal(read_tensor(tmp_path / "a.qtn"), arr)

    def test_round_trip_rank1(self, tmp_path):
        arr = np.arange(9.0)
        write_tensor(tmp_path / "v.qtn", arr)
        np.testing.assert_array_equal(read_tensor(tmp_path / "v.qtn"), arr)

    def test_bad_magic_offset_in_message(self, tmp_path):
        (tmp_path / "bad.qtn").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError, match="offset 0"):
            read_tensor(tmp_path / "bad.qtn")

    def test_dimension_product_beyond_int64(self, tmp_path):
        """dims (2^32, 2^32) and no payload: the element count 2^64 is
        taken exactly, so the length check names the mismatch."""
        header = b"QTN1" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2**32, 2**32)
        (tmp_path / "big.qtn").write_bytes(header)
        with pytest.raises(InputError, match="payload length mismatch"):
            read_tensor(tmp_path / "big.qtn")

    def test_truncated_payload(self, tmp_path):
        arr = np.ones((3, 3))
        write_tensor(tmp_path / "t.qtn", arr)
        blob = (tmp_path / "t.qtn").read_bytes()
        (tmp_path / "t.qtn").write_bytes(blob[:-8])
        with pytest.raises(InputError, match="offset"):
            read_tensor(tmp_path / "t.qtn")
