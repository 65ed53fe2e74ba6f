"""Workload generation, held-out evaluation, desk-scale training, CSV codec."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from conftest import count_matrix_scans, peak_bytes
from oracles import identity_scoring
from tokengate import autodiff as ad
from tokengate import reencoder
from tokengate.autodiff import Tape
from tokengate.config import RunConfig
from tokengate.errors import InputError, NumericError, ParameterError
from tokengate import harness
from tokengate.harness import (
    EpochStats,
    EvalRow,
    OptimizerConfig,
    WorkloadSpec,
    evaluate,
    from_csv,
    generate_workload,
    planted_mass_loss,
    to_csv,
    train_desk_scale,
    uniform_stride_indices,
)
from tokengate.objective import PenaltyWeights, total_loss
from tokengate.scoring import score
from tokengate.selector import DiagnosticsRecord, SelectorModel, select

CFG = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)


def _identity_model(cfg=CFG):
    model = SelectorModel.build(cfg)
    return dataclasses.replace(model, scoring=identity_scoring(cfg.d))


class TestGenerateWorkload:
    def test_planted_tokens_take_top_relevance(self):
        """With identity-mode scoring, the K largest relevances sit exactly
        on the planted set (direct softmax oracle via score())."""
        spec = WorkloadSpec(m=300, d=16, l=4, k=6, alignment=8.0, seed=0)
        wl = generate_workload(spec, np.random.default_rng(0))
        r = score(wl.x, wl.q, identity_scoring(16))
        top = np.sort(np.argsort(-r.value.ravel())[:6])
        np.testing.assert_array_equal(top, wl.planted)

    def test_planted_inner_products_dominate(self):
        spec = WorkloadSpec(m=200, d=16, l=4, k=5, seed=1)
        wl = generate_workload(spec, np.random.default_rng(1))
        sims = wl.x @ wl.q.mean(axis=0)
        planted_min = sims[wl.planted].min()
        distractors = np.delete(sims, wl.planted)
        assert planted_min > distractors.max()

    def test_all_planted_degenerate(self):
        spec = WorkloadSpec(m=12, d=8, l=2, k=12, seed=2)
        wl = generate_workload(spec, np.random.default_rng(2))
        np.testing.assert_array_equal(wl.planted, np.arange(12))

    def test_seeded_reproducibility(self):
        spec = WorkloadSpec(m=50, d=8, l=2, k=4, seed=3)
        a = generate_workload(spec, np.random.default_rng(9))
        b = generate_workload(spec, np.random.default_rng(9))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.planted, b.planted)

    def test_planted_count_validation(self):
        with pytest.raises(InputError):
            generate_workload(WorkloadSpec(m=4, k=9), np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_planted_tokens_rejected(self, k):
        """Recall and the planted-mass loss divide by the planted count."""
        with pytest.raises(InputError, match="wl_planted must be >= 1"):
            generate_workload(WorkloadSpec(m=16, k=k), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "field, value, message",
        [("alignment", math.nan, "alignment"), ("alignment", math.inf, "alignment"),
         ("noise", math.nan, "noise"), ("noise", -math.inf, "noise"),
         ("l", 0, "wl_query_len"), ("l", -1, "wl_query_len"),
         ("frame_rate", 0.0, "wl_frame_rate"), ("frame_rate", math.nan, "wl_frame_rate"),
         ("patch", 0, "wl_patch"),
         ("frame_height", -56, "wl_frame_height"), ("d", 0, "d must"), ("d", -2, "d must")],
    )
    def test_illegal_workload_setting_rejected(self, field, value, message):
        spec = WorkloadSpec(m=None, d=8, l=2, k=2, frames=4, frame_height=28, frame_width=28)
        with pytest.raises(InputError, match=message):
            generate_workload(dataclasses.replace(spec, **{field: value}), np.random.default_rng(0))

    def test_video_geometry_derives_token_count_and_timestamps(self):
        spec = WorkloadSpec(
            m=None, d=8, l=2, k=2, frames=5, frame_rate=1.0,
            frame_height=28, frame_width=28, patch=14, seed=4,
        )
        # 5 frames x 4 tokens/frame
        assert spec.token_count() == 20
        wl = generate_workload(spec, np.random.default_rng(0))
        assert wl.x.shape == (20, 8)
        # tokens of one frame share a timestamp; frames advance by 1/fps
        np.testing.assert_allclose(wl.timestamps[:4], 0.0)
        np.testing.assert_allclose(wl.timestamps[4:8], 1.0)

    def test_frame_keeps_whole_patches_only(self):
        """A 20x20 frame holds one whole 14x14 patch, not 400 // 196 = 2."""
        spec = WorkloadSpec(m=None, d=8, l=2, k=2, frames=4, frame_height=20, frame_width=20)
        assert spec.tokens_per_frame() == 1
        assert generate_workload(spec, np.random.default_rng(0)).x.shape == (4, 8)

    def test_frame_smaller_than_a_patch_rejected(self):
        spec = WorkloadSpec(m=None, d=8, l=2, k=2, frames=4, frame_height=10, frame_width=10)
        with pytest.raises(InputError, match="a 10x10 frame holds no whole 14x14 patch"):
            generate_workload(spec, np.random.default_rng(0))


class TestUniformStride:
    def test_ascending_unique_full_span(self):
        idx = uniform_stride_indices(100, 10)
        assert idx.size == 10
        assert np.all(np.diff(idx) > 0)
        assert idx[0] == 0 and idx[-1] < 100

    def test_n_equals_m(self):
        np.testing.assert_array_equal(uniform_stride_indices(5, 5), np.arange(5))


class TestEvaluate:
    def test_qts_beats_unif_on_planted_workloads(self):
        spec = WorkloadSpec(m=400, d=16, l=4, k=8, alignment=8.0, seed=5)
        rows = evaluate(_identity_model(), spec, trials=30)
        assert all(row.recall == 1.0 and row.precision == 1.0 for row in rows)
        assert np.mean([row.stride_recall for row in rows]) < 0.6

    def test_nreenc_keeps_identical_indices(self):
        """Re-encoding happens after selection, so disabling it cannot
        change which tokens survive."""
        spec = WorkloadSpec(m=150, d=16, l=4, k=5, seed=6)
        model = _identity_model()
        for trial in range(5):
            rng_a = np.random.default_rng([spec.seed, trial])
            rng_b = np.random.default_rng([spec.seed, trial])
            wl_a = generate_workload(spec, rng_a)
            wl_b = generate_workload(spec, rng_b)
            full = select(model, wl_a.x, wl_a.timestamps, wl_a.q, mode="infer")
            bare = select(
                model.without_reencoder(), wl_b.x, wl_b.timestamps, wl_b.q, mode="infer"
            )
            np.testing.assert_array_equal(full.indices, bare.indices)

    def test_cap_honored(self):
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=16)
        spec = WorkloadSpec(m=300, d=16, l=4, k=4, seed=7)
        rows = evaluate(_identity_model(cfg), spec, trials=10)
        assert all(row.n <= 16 for row in rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_held_out_workloads_are_not_training_workloads(self, monkeypatch, seed):
        """No evaluate workload is one of the pool train_desk_scale trains
        on, for the run config the CLI builds both from."""
        drawn = []

        def recorded(spec, rng):
            wl = generate_workload(spec, rng)
            drawn.append(wl.x)
            return wl

        monkeypatch.setattr(harness, "generate_workload", recorded)
        cfg = RunConfig(seed=seed)
        spec = WorkloadSpec.from_config(cfg)
        model = SelectorModel.build(cfg)
        opt = OptimizerConfig.from_config(cfg)
        train_desk_scale(spec, model, 0, opt, PenaltyWeights.from_config(cfg), seed=cfg.seed)
        pool, drawn[:] = list(drawn), []
        assert len(pool) == opt.batch
        evaluate(model, spec, trials=2 * opt.batch)
        assert len(drawn) == 2 * opt.batch
        for x in drawn:
            assert not any(np.array_equal(x, seen) for seen in pool)

    def test_negative_seed_rejected(self):
        """A workload seed keys the held-out generator, which takes no
        negative entry."""
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            evaluate(SelectorModel.build(RunConfig()), WorkloadSpec(d=32, k=4, seed=-1), 1)

    def test_default_workload_runs_on_the_default_model(self):
        """WorkloadSpec's defaults are RunConfig's, so the two agree on d."""
        rows = evaluate(SelectorModel.build(RunConfig()), WorkloadSpec(), 1)
        assert [(row.m, row.k) for row in rows] == [(RunConfig.wl_tokens, RunConfig.wl_planted)]

    @pytest.mark.parametrize("planted_lower, precision", [(True, 1.0), (False, 0.75)])
    def test_precision_tie_counts_the_lower_index(self, monkeypatch, planted_lower, precision):
        """A planted token tied at the k-th relevance with a distractor
        counts only when its index is the lower one, as in hard_top_n."""
        spec = WorkloadSpec(m=64, d=16, l=4, k=4, seed=15)
        planted = generate_workload(
            spec, np.random.default_rng([spec.seed, 0, harness.HELD_OUT])
        ).planted
        tied = planted[0] if planted_lower else planted[-1]
        others = np.setdiff1d(np.arange(spec.m), planted)
        distractor = others[others > tied][0] if planted_lower else others[others < tied][-1]
        r = np.zeros((1, spec.m))
        r[0, planted] = 1.0
        r[0, [tied, distractor]] = 0.5

        def select_with_r(*args, **kwargs):
            return dataclasses.replace(select(*args, **kwargs), r_var=ad.Var(r))

        monkeypatch.setattr(harness, "select", select_with_r)
        [row] = evaluate(_identity_model(), spec, 1)
        assert row.precision == precision


class TestTrainDeskScale:
    @pytest.mark.parametrize(
        "opt, dump",
        [
            # weights of ~1e300 overflow the scoring logits in epoch 1's first step
            (OptimizerConfig(lr=1e300, batch=2), {"epoch": 1, "item": 0}),
            # the velocity overflows in epoch 1's update
            (OptimizerConfig(lr=1e10, momentum=1e308, clip_norm=0.0, batch=2), {"epoch": 1}),
        ],
        ids=["step", "update"],
    )
    def test_divergence_raises_numeric_error_with_its_place(self, opt, dump):
        """The first overflow of a diverging run raises, with no
        RuntimeWarning, and names where it happened."""
        spec = WorkloadSpec(m=48, d=16, l=4, k=4, seed=8)
        with pytest.raises(NumericError, match="^training diverged: overflow") as caught:
            train_desk_scale(spec, SelectorModel.build(CFG), 4, opt, PenaltyWeights())
        assert caught.value.dump == dump

    def test_zero_learning_rate_keeps_weights_bit_identical(self):
        spec = WorkloadSpec(m=48, d=16, l=4, k=4, seed=8)
        model = SelectorModel.build(CFG)
        before = model.parameters()
        trained, stats = train_desk_scale(
            spec,
            model,
            epochs=2,
            opt=OptimizerConfig(lr=0.0, momentum=0.9, clip_norm=1.0, batch=2),
            penalties=PenaltyWeights(),
            seed=0,
        )
        after = trained.parameters()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name], err_msg=name)
        assert len(stats) == 2

    def test_training_reduces_loss_on_fixed_distribution(self):
        """Gate noise keeps per-epoch losses stochastic, so compare the
        first- and last-third means of the (fully seeded) trajectory."""
        spec = WorkloadSpec(m=48, d=16, l=4, k=6, alignment=3.0, seed=9)
        model = SelectorModel.build(CFG)
        trained, stats = train_desk_scale(
            spec,
            model,
            epochs=12,
            opt=OptimizerConfig(lr=0.05, momentum=0.9, clip_norm=1.0, batch=4),
            penalties=PenaltyWeights(lambda_t=0.1, lambda_m=0.17, lambda_s=0.05),
            seed=0,
        )
        losses = [s.loss for s in stats]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_loss_gives_the_reencoder_no_gradient(self):
        """The premise of training without the re-encoder: with it bound,
        every re-encoder gradient is exactly 0 and every scoring and budget
        gradient is bit-equal to the re-encoder-free step's.  A loss that
        reads z fails this."""

        def step(model, wl):
            tape = Tape()
            bound, tracked = model.bind(tape)
            rng = np.random.default_rng(4)
            res = select(bound, wl.x, wl.timestamps, wl.q, mode="train", rng=rng)
            loss = total_loss(
                planted_mass_loss(res, wl.planted),
                res.rho_var,
                wl.x.shape[0],
                model.cfg.n_max,
                PenaltyWeights(),
            )
            names = list(tracked)
            return dict(zip(names, tape.gradients(loss, [tracked[n] for n in names])))

        spec = WorkloadSpec(m=96, d=16, l=4, k=6, alignment=3.0, seed=11)
        wl = generate_workload(spec, np.random.default_rng(11))
        model = SelectorModel.build(CFG)
        full = step(model, wl)
        bare = step(model.without_reencoder(), wl)
        reenc = [name for name in full if name.startswith("reencoder.")]
        assert reenc and sorted(set(full) - set(reenc)) == sorted(bare)
        for name in reenc:
            assert not np.any(full[name]), name
        for name, g in bare.items():
            assert g.tobytes() == full[name].tobytes(), name
        assert any(np.any(g) for g in bare.values())

    def test_training_skips_the_reencoder_and_returns_it_unchanged(self, monkeypatch):
        blocks = 0
        block = reencoder._block

        def counted(x, b):
            nonlocal blocks
            blocks += 1
            return block(x, b)

        monkeypatch.setattr(reencoder, "_block", counted)
        spec = WorkloadSpec(m=48, d=16, l=4, k=4, seed=8)
        model = SelectorModel.build(CFG)
        before = model.parameters()
        trained, _ = train_desk_scale(
            spec,
            model,
            epochs=2,
            opt=OptimizerConfig(lr=0.05, momentum=0.9, clip_norm=1.0, batch=2),
            penalties=PenaltyWeights(),
            seed=0,
        )
        assert blocks == 0
        after = trained.parameters()
        assert sorted(after) == sorted(before)
        for name in before:
            if name.startswith("reencoder."):
                assert after[name].tobytes() == before[name].tobytes(), name
        assert not np.array_equal(after["budget.w2"], before["budget.w2"])
        wl = generate_workload(spec, np.random.default_rng(0))
        select(trained, wl.x, wl.timestamps, wl.q, mode="infer")
        assert blocks == CFG.reencode_depth > 0  # the counter sees the re-encoder

    def test_trajectory_fields_finite(self):
        spec = WorkloadSpec(m=32, d=16, l=2, k=3, seed=10)
        model = SelectorModel.build(CFG)
        _, stats = train_desk_scale(
            spec, model, 2, OptimizerConfig(batch=2), PenaltyWeights(), seed=1
        )
        for s in stats:
            assert np.isfinite([s.loss, s.mean_rho, s.mean_n]).all()

    @pytest.mark.parametrize(
        "field, value",
        [("batch", 0), ("batch", -2), ("lr", math.nan), ("momentum", math.nan),
         ("momentum", math.inf), ("clip_norm", math.nan)],
    )
    def test_illegal_optimizer_setting_rejected(self, field, value):
        """batch 0 used to return NaN tensors, and a NaN lr or momentum
        failed an epoch late as a scoring InputError."""
        with pytest.raises(ParameterError, match=field):
            OptimizerConfig(**{field: value})

    def test_negative_epochs_rejected(self):
        spec = WorkloadSpec(m=32, d=16, l=2, k=3, seed=10)
        with pytest.raises(ParameterError, match="epochs"):
            train_desk_scale(spec, SelectorModel.build(CFG), -3, OptimizerConfig(), PenaltyWeights())

    def test_negative_seed_rejected(self):
        spec = WorkloadSpec(m=32, d=16, l=2, k=3)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            train_desk_scale(
                spec, SelectorModel.build(CFG), 1, OptimizerConfig(), PenaltyWeights(), seed=-1
            )

    def test_binds_and_scans_the_parameters_once_per_epoch(self, monkeypatch):
        """Every instance of an epoch runs on the epoch's one bound model,
        whose binding scans each updated tensor for NaN and inf; the only
        other scan is the build of the epoch model, before the first epoch."""
        binds = 0
        bind = SelectorModel.bind

        def counted(self, tape):
            nonlocal binds
            binds += 1
            return bind(self, tape)

        monkeypatch.setattr(SelectorModel, "bind", counted)
        spec = WorkloadSpec(m=32, d=16, l=2, k=3, seed=10)
        model = SelectorModel.build(CFG)
        scans = count_matrix_scans(monkeypatch)
        train_desk_scale(spec, model, 3, OptimizerConfig(batch=4), PenaltyWeights())
        assert binds == 3
        names = list(model.without_reencoder().parameters())
        assert sorted(n for n in scans if n in names) == sorted(names * (1 + 3))

    def test_returned_model_shares_the_untrained_tensors(self):
        spec = WorkloadSpec(m=32, d=16, l=2, k=3, seed=10)
        model = SelectorModel.build(CFG)
        trained, _ = train_desk_scale(spec, model, 1, OptimizerConfig(batch=2), PenaltyWeights())
        before, after = dict(model.named_tensors()), dict(trained.named_tensors())
        assert sorted(after) == sorted(before)
        for name, tensor in after.items():
            assert (tensor is before[name]) == name.startswith("reencoder."), name


class TestTapeLifetime:
    @pytest.mark.parametrize("backward", [False, True])
    def test_train_step_graph_dies_with_its_names(self, backward):
        """No tape record or backward closure holds a Var, so a train-mode
        graph (scoring, threshold, gate, re-encoder blocks, loss) is no
        reference cycle: it dies as soon as the caller drops its names,
        with the cyclic collector off."""
        cfg = RunConfig()
        wl = generate_workload(WorkloadSpec.from_config(cfg), np.random.default_rng(0))
        model = SelectorModel.build(cfg)
        gc.disable()
        try:
            tape = Tape()
            bound, tracked = model.bind(tape)
            res = select(bound, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(0))
            loss = total_loss(
                planted_mass_loss(res, wl.planted), res.rho_var, wl.x.shape[0], cfg.n_max,
                PenaltyWeights(),
            )
            if backward:
                tape.gradients(loss, list(tracked.values()))
            dead = weakref.ref(tape)
            del tape, bound, tracked, res, loss
            assert dead() is None
        finally:
            gc.enable()

    def test_instance_graph_dies_at_clear_and_the_leaves_stay_live(self):
        """A train step's epoch binds once and runs every instance on that
        tape.  ``clear`` frees an instance's graph while the tape and its
        leaves stay alive (collector off); the leaves then give the next
        instance gradients bit-equal to a freshly bound tape's, and a
        variable of the cleared graph raises where it is used again."""
        cfg = RunConfig()
        spec = WorkloadSpec.from_config(cfg)
        wls = [generate_workload(spec, np.random.default_rng(i)) for i in range(2)]
        model = SelectorModel.build(cfg).without_reencoder()

        def instance(tape, bound, tracked, wl):
            res = select(bound, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(0))
            loss = total_loss(
                planted_mass_loss(res, wl.planted), res.rho_var, wl.x.shape[0], cfg.n_max,
                PenaltyWeights(),
            )
            return res, tape.gradients(loss, list(tracked.values()))

        tape, fresh = Tape(), Tape()
        bound, tracked = model.bind(tape)
        gc.disable()
        try:
            res, _ = instance(tape, bound, tracked, wls[0])
            stale = res.rho_var
            r = weakref.ref(res.r_var.value)
            del res
            assert r() is not None  # the records' backward closures hold r
            tape.clear()
            assert r() is None
            _, got = instance(tape, bound, tracked, wls[1])
            _, want = instance(fresh, *model.bind(fresh), wls[1])
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            with pytest.raises(InputError, match="recorded before the tape was cleared"):
                ad.add(stale, stale)
        finally:
            gc.enable()

    def test_epoch_peak_grows_by_the_workloads_alone(self):
        """A train step holds one instance's graph at a time, so doubling
        the batch adds the extra workloads' arrays and nothing else (while
        every instance graph was a reference cycle, batch 8 peaked 936 KiB
        above that)."""
        cfg = RunConfig()
        spec = WorkloadSpec(m=2048, d=cfg.d, l=cfg.wl_query_len, k=cfg.wl_planted)
        model = SelectorModel.build(cfg)
        peaks = {}
        for batch in (4, 8):
            opt = OptimizerConfig(batch=batch)
            peaks[batch] = peak_bytes(
                lambda: train_desk_scale(spec, model, 1, opt, PenaltyWeights(), seed=3)
            )
        extra = 0
        for item in range(4, 8):
            wl = generate_workload(spec, np.random.default_rng([3, item]))
            extra += wl.x.nbytes + wl.timestamps.nbytes + wl.q.nbytes + wl.planted.nbytes
        assert peaks[8] - peaks[4] <= extra + 64 * 1024


class TestBenchScaling:
    """``evaluate`` at several frame counts, the size sweep behind
    ``tokengate eval --frames``."""

    def test_rows_and_monotone_shape(self):
        """M grows linearly in frames (4 tokens per 28x28 frame) and the
        kept count grows with it, within the cap."""
        spec = WorkloadSpec(
            m=None, d=16, l=4, k=4, frames=None, frame_height=28, frame_width=28,
            patch=14, seed=11,
        )
        model = SelectorModel.build(CFG)
        rows = [
            row
            for frames in (4, 8, 16)
            for row in evaluate(model, dataclasses.replace(spec, frames=frames), trials=1)
        ]
        assert [r.m for r in rows] == [16, 32, 64]
        kept = [r.n for r in rows]
        assert all(a <= b for a, b in zip(kept, kept[1:]))
        assert all(r.n <= CFG.n_max for r in rows)
        assert all(r.compression == 1.0 - r.n / r.m for r in rows)

    def test_downstream_time_ordering(self):
        """Each row carries M = frames * tokens per frame and a kept count
        within the cap.  The quadratic full-stream cost grows with M while
        the kept stream's stays at the cap (ordering only, no absolute-ms
        claims)."""
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=24, reencode_depth=0)
        spec = WorkloadSpec(
            m=None, d=16, l=4, k=4, frame_height=56, frame_width=56, patch=14, seed=14
        )
        model = SelectorModel.build(cfg)
        small, big = (
            evaluate(model, dataclasses.replace(spec, frames=frames), trials=2)
            for frames in (16, 256)  # M = 256 vs 4096
        )
        assert [r.m for r in small + big] == [256, 256, 4096, 4096]
        assert all(r.n <= 24 for r in small + big)
        assert len({r.full_ms for r in small}) == len({r.full_ms for r in big}) == 1
        assert big[0].full_ms > small[0].full_ms
        assert all(big[0].full_ms > r.downstream_ms for r in big)


class TestEvaluateFrames:
    """Frame counts ``evaluate`` refuses before seeding a workload."""

    @pytest.mark.parametrize("frames", [0, -1])
    def test_frame_count_below_one_rejected(self, frames):
        spec = WorkloadSpec(m=None, d=16, k=4, frames=frames)
        with pytest.raises(InputError, match=f"frame count must be >= 1, got {frames}"):
            evaluate(SelectorModel.build(CFG), spec, trials=1)


class TestCsvRoundTrips:
    def test_eval(self):
        spec = WorkloadSpec(m=60, d=16, l=2, k=3, seed=13)
        rows = evaluate(_identity_model(), spec, trials=3)
        text = to_csv(EvalRow, rows)
        assert from_csv(EvalRow, text) == rows

    def test_eval_compression_column(self):
        """compression = 1 - n/M survives the round trip, next to n."""
        spec = WorkloadSpec(m=60, d=16, l=2, k=3, seed=13)
        rows = evaluate(_identity_model(), spec, trials=2)
        text = to_csv(EvalRow, rows)
        assert text.startswith(
            "trial,M,k,n,compression,rho,t,recall,stride_recall,precision,ms,"
            "downstream_ms,full_ms\n"
        )
        for row in from_csv(EvalRow, text):
            assert row.compression == 1.0 - row.n / 60

    def test_records(self):
        records = [DiagnosticsRecord(0.1, 5.0, 0.5, 1.0, 0.2, 0.9, 10, 100)]
        assert from_csv(DiagnosticsRecord, to_csv(DiagnosticsRecord, records)) == records

    def test_trajectory(self):
        stats = [EpochStats(0, 1.5, 0.3, 12.0), EpochStats(1, 1.2, 0.28, 11.5)]
        assert from_csv(EpochStats, to_csv(EpochStats, stats)) == stats

    @pytest.mark.parametrize("cls", [DiagnosticsRecord, EpochStats, EvalRow])
    def test_wrong_header_rejected(self, cls):
        other = EpochStats if cls is not EpochStats else EvalRow
        with pytest.raises(InputError, match="columns"):
            from_csv(cls, to_csv(other, []))
