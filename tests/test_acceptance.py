"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines.  Every tolerance is pinned here; nothing is deferred
to calibration.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import rel_err
from oracles import finite_difference_gradient, identity_scoring, scalar, soft_gate_train
from tokengate import autodiff as ad
from tokengate.autodiff import Tape, sigmoid_values
from tokengate.budget import compute_budget, extract_features, predict_rho
from tokengate.config import RunConfig
from tokengate.gate import (
    find_threshold,
    sample_gumbel_pairs,
    soft_gate_apply,
    threshold_var,
)
from tokengate.harness import (
    OptimizerConfig,
    WorkloadSpec,
    evaluate,
    generate_workload,
    train_desk_scale,
)
from tokengate.objective import PenaltyWeights, compute_penalties
from tokengate.reencoder import reencode
from tokengate.scoring import score
from tokengate.selector import SelectorModel, load_weights, save_weights, select


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {title}")
        raise
    print(f"PASS  criterion {num}: {title}")


def _bisection_oracle(r, rho, tau, width=1e-11):
    target = rho * r.size
    lo, hi = float(r.min()) - 10 * tau, float(r.max()) + 10 * tau
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if sigmoid_values((r - mid) / tau).sum() - target > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_threshold_equation_contract():
    """1000 random instances: residual <= 1e-6*M, |t - t_bisection| <= 1e-9,
    in under 5 seconds."""
    with criterion(1, "threshold-equation contract (1000 instances, < 5 s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(8, 4097))
            rho = float(rng.uniform(0.05, 0.5))
            r = rng.uniform(0.0, 1.0, m)
            t, residual = find_threshold(r, rho, 0.5)
            assert residual <= 1e-6 * m
            assert abs(t - _bisection_oracle(r, rho, 0.5)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_closed_form_threshold():
    """Equal scores, rho = 0.25: t - c = 0.5*ln(3) to 1e-9."""
    with criterion(2, "closed-form threshold on equal scores"):
        for c in (0.0, 0.2, 0.5, 0.87):
            for m in (8, 64, 1024):
                t, _ = find_threshold(np.full(m, c), 0.25, 0.5)
                assert abs((t - c) - 0.5 * math.log(3.0)) <= 1e-9


def test_criterion_3_monotone_gate():
    """t(rho) strictly decreasing on a 20-point grid for 100 random r, and
    the (rho, t) Pearson coefficient of a varying-rho diagnostics log is
    negative."""
    with criterion(3, "monotone gate and negative rho-t correlation"):
        rng = np.random.default_rng(103)
        grid = np.linspace(0.05, 0.5, 20)
        for _ in range(100):
            m = int(rng.integers(16, 512))
            r = rng.uniform(0, 1, m)
            ts = [find_threshold(r, rho, 0.5)[0] for rho in grid]
            assert all(a > b for a, b in zip(ts, ts[1:]))

        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)
        model = dataclasses.replace(
            SelectorModel.build(cfg), scoring=identity_scoring(16)
        )
        spec = WorkloadSpec(m=256, d=16, l=4, k=8, alignment=4.0, seed=103)
        records = []
        for trial in range(50):
            wl = generate_workload(spec, np.random.default_rng([spec.seed, trial]))
            records.append(select(model, wl.x, wl.timestamps, wl.q, "infer").record)
        rhos = np.array([rec.rho for rec in records])
        assert rhos.std() > 0, "log must have varying rho"
        pearson = np.corrcoef(rhos, [rec.t for rec in records])[0, 1]
        assert pearson < 0


def _soft_pipeline_loss(model, x_var, q_var, timestamps, noise, kept, probe, gate_cfg):
    """The differentiable surrogate the straight-through estimator trains:
    soft keep probabilities scale the kept rows before re-encoding."""
    r = score(x_var, q_var, model.scoring)
    feats = extract_features(q_var, r, x_var.shape[0])
    rho = predict_rho(feats, model.budget, model.cfg)
    t, _ = threshold_var(r, rho, gate_cfg.tau_s)
    soft, _, _ = soft_gate_apply(r, t, gate_cfg.tau_s, noise)
    soft_col = ad.transpose(ad.take_cols(soft, kept))
    z = ad.mul(ad.take_rows(x_var, kept), soft_col)
    z = reencode(z, timestamps[kept], model.reencoder)
    return ad.sum_all(ad.mul(z, ad.const(probe)))


def test_criterion_4_straight_through_gradient_fidelity():
    """Frozen-noise soft-path gradients: gate-only rel err <= 1e-5 on
    M <= 32; full scoring+budget+gate+re-encoder rel err <= 1e-4."""
    with criterion(4, "straight-through gradient fidelity (soft path vs FD)"):
        gate_cfg = RunConfig()
        rng = np.random.default_rng(104)

        # gate-only: d(sum of probed soft scores)/dr on M <= 32 instances
        for _ in range(5):
            m = int(rng.integers(4, 33))
            r0 = rng.uniform(0.05, 0.95, m)
            rho = float(rng.uniform(0.1, 0.5))
            noise = sample_gumbel_pairs(m, rng)
            probe = rng.standard_normal(m)

            tape = Tape()
            rv = tape.var(r0.reshape(1, -1))
            tv, _ = threshold_var(rv, scalar(rho), gate_cfg.tau_s)
            soft, _, _ = soft_gate_apply(rv, tv, gate_cfg.tau_s, noise)
            loss = ad.sum_all(ad.mul(soft, ad.const(probe.reshape(1, -1))))
            (analytic,) = tape.gradients(loss, [rv])

            def f(flat):
                t, _ = find_threshold(flat, rho, gate_cfg.tau_s)
                z = (flat - t) / gate_cfg.tau_s + (noise[0] - noise[1])
                return float((sigmoid_values(z / gate_cfg.tau_s) * probe).sum())

            numeric = finite_difference_gradient(f, r0, step=1e-6)
            assert rel_err(analytic, numeric) <= 1e-5

        # end to end: every model parameter of a tiny selector
        cfg = RunConfig(d=8, heads=2, reencode_depth=1, budget_hidden=8, n_max=16)
        model = SelectorModel.build(cfg)
        wl = generate_workload(
            WorkloadSpec(m=12, d=8, l=3, k=3, alignment=3.0, seed=104),
            np.random.default_rng(104),
        )
        m = wl.x.shape[0]
        noise = sample_gumbel_pairs(m, np.random.default_rng(7))
        probe_r = np.random.default_rng(8)

        base = select(model, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(7))
        kept = base.indices
        probe = probe_r.standard_normal((kept.size, 8))

        tape = Tape()
        bound, tracked = model.bind(tape)
        loss = _soft_pipeline_loss(
            bound, ad.const(wl.x), ad.const(wl.q), wl.timestamps, noise, kept, probe, model.cfg
        )
        names = sorted(tracked)
        analytic_all = tape.gradients(loss, [tracked[n] for n in names])

        params = model.parameters()
        for name, analytic in zip(names, analytic_all):
            base_tensor = params[name]

            def f(flat):
                trial = dict(params)
                trial[name] = flat.reshape(base_tensor.shape)
                candidate = model.with_parameters(trial)
                value = _soft_pipeline_loss(
                    candidate, ad.const(wl.x), ad.const(wl.q), wl.timestamps,
                    noise, kept, probe, model.cfg,
                )
                return value.item()

            numeric = finite_difference_gradient(f, base_tensor.ravel(), step=1e-6)
            assert rel_err(analytic, numeric) <= 1e-4, name


def test_criterion_5_expected_budget_consistency():
    """Monte Carlo kept-count mean over 1e5 gate samples within 3 standard
    errors of rho*M."""
    with criterion(5, "expected kept count equals rho*M (1e5 samples, 3 SE)"):
        cfg = RunConfig()
        rng = np.random.default_rng(105)
        m, rho, trials = 64, 0.2, 100_000
        r = np.random.default_rng(0).uniform(0, 1, m)
        t, _ = find_threshold(r, rho, cfg.tau_s)
        probs = sigmoid_values((r - t) / cfg.tau_s)
        total = 0
        for _ in range(trials):
            kept, _ = soft_gate_train(r, t, cfg, rng)
            total += kept.size
        mean = total / trials
        se = math.sqrt(float((probs * (1 - probs)).sum()) / trials)
        assert abs(mean - rho * m) <= 3 * se, f"mean {mean} vs target {rho * m} (se {se})"


def test_criterion_6_penalty_gradients():
    """Analytic d/drho of the compute penalty equals central differences to
    1e-10 (the quadratic/linear forms make FD exact to roundoff)."""
    with criterion(6, "compute-penalty gradients analytic == FD (1e-10)"):
        rng = np.random.default_rng(106)
        for _ in range(50):
            w = PenaltyWeights(
                lambda_t=float(rng.uniform(0, 1)),
                lambda_m=float(rng.uniform(0, 1)),
                lambda_s=float(rng.uniform(0, 1)),
                rho_bar=float(rng.uniform(0.1, 0.9)),
            )
            m = int(rng.integers(1, 10_000))
            n_max = int(rng.integers(1, 1000))
            rho = float(rng.uniform(0.01, 0.99))
            _, grad = compute_penalties(rho, m, n_max, w)
            numeric = finite_difference_gradient(
                lambda v: compute_penalties(float(v[0]), m, n_max, w)[0], [rho], step=1e-4
            )
            scale = max(1.0, abs(grad))
            assert abs(grad - numeric[0]) <= 1e-10 * scale


def test_criterion_7_compression_bound():
    """Infer-mode n never exceeds min(n_max, ceil(rho_max*M)); the 180k-token
    stream with the 25600 cap is reduced by at least 85.7%."""
    with criterion(7, "compression bound and 180k-stream reduction >= 85.7%"):
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=48)
        model = SelectorModel.build(cfg)
        rng = np.random.default_rng(107)
        for _ in range(100):
            m = int(rng.integers(1, 400))
            x = rng.standard_normal((m, 16))
            q = rng.standard_normal((int(rng.integers(1, 5)), 16))
            res = select(model, x, np.arange(m, dtype=float), q, "infer")
            assert res.record.n <= min(48, math.ceil(0.5 * m))

        # arithmetic cap across the whole retention range
        for rho in np.linspace(0.05, 0.5, 46):
            n = compute_budget(float(rho), 180_000, 25_600)
            assert 1.0 - n / 180_000 >= 0.857

        # one real 180k-token pass (re-encoding disabled: it is post-selection
        # and a 25600^2 attention matrix has no place in a desk-scale test)
        big_cfg = RunConfig(
            d=8, heads=2, budget_hidden=8, n_max=25_600, reencode_depth=0
        )
        big_model = SelectorModel.build(big_cfg)
        m = 180_000
        x = rng.standard_normal((m, 8))
        q = rng.standard_normal((2, 8))
        res = select(big_model, x, np.arange(m, dtype=float), q, "infer")
        assert res.record.n <= 25_600
        assert 1.0 - res.record.n / m >= 0.857


def test_criterion_8_ablation_ordering():
    """Identity-mode scoring, n >= K, 200 trials: QTS recall exactly 1.0;
    uniform-stride recall within 5 sigma of its n/M expectation; QTS
    strictly dominates."""
    with criterion(8, "QTS recall 1.0 vs uniform-stride n/M (200 trials, 5 sigma)"):
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=256)
        model = dataclasses.replace(
            SelectorModel.build(cfg), scoring=identity_scoring(16)
        )
        spec = WorkloadSpec(m=400, d=16, l=4, k=8, alignment=8.0, seed=108)
        trials = 200
        rows = evaluate(model, spec, trials)

        assert all(row.recall == 1.0 for row in rows)
        assert all(row.n >= spec.k for row in rows)

        m, k = 400, spec.k
        expectations = np.array([row.n / m for row in rows])
        variances = np.array(
            [
                (row.n / m) * (1 - row.n / m) * (m - k) / (k * (m - 1))
                for row in rows
            ]
        )
        se_of_mean = math.sqrt(float(variances.sum())) / trials
        unif_recall = float(np.mean([row.stride_recall for row in rows]))
        gap = abs(unif_recall - float(expectations.mean()))
        assert gap <= 5 * se_of_mean, f"gap {gap} vs 5*SE {5 * se_of_mean}"
        assert float(np.mean([row.recall for row in rows])) > unif_recall


def test_criterion_9_budget_pressure_response():
    """Paired seeded runs: 10x (lambda_t, lambda_m) ends with strictly lower
    final mean rho; the unpenalized run ends above the penalized one."""
    with criterion(9, "budget pressure moves trained mean rho the right way"):
        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)
        spec = WorkloadSpec(m=64, d=16, l=4, k=10, alignment=2.5, seed=109)
        opt = OptimizerConfig(lr=0.05, momentum=0.9, clip_norm=1.0, batch=6)
        epochs = 15

        def run(lambda_t, lambda_m):
            model = SelectorModel.build(cfg)
            penalties = PenaltyWeights(
                lambda_t=lambda_t, lambda_m=lambda_m, lambda_s=0.05, rho_bar=0.275
            )
            start = time.perf_counter()
            _, stats = train_desk_scale(
                spec, model, epochs, opt, penalties, seed=109
            )
            assert time.perf_counter() - start < 600.0
            return stats[-1].mean_rho

        rho_free = run(0.0, 0.0)
        rho_base = run(0.1, 0.17)
        rho_heavy = run(1.0, 1.7)
        assert rho_heavy < rho_base, (rho_heavy, rho_base)
        assert rho_free > rho_base, (rho_free, rho_base)


def test_criterion_10_fallback_and_order_invariants():
    """1e4 fuzzed select() calls: never zero kept tokens, indices strictly
    ascending, no NaN in outputs; spot-checked gradients are finite."""
    with criterion(10, "fuzz: nonzero kept, ascending indices, finite values"):
        cfg = RunConfig(d=8, heads=2, budget_hidden=8, n_max=24, reencode_depth=1)
        model = SelectorModel.build(cfg)
        rng = np.random.default_rng(110)
        for call in range(10_000):
            m = int(rng.integers(1, 49))
            l = int(rng.integers(1, 4))
            scale = float(rng.uniform(0.1, 5.0))
            x = scale * rng.standard_normal((m, 8))
            q = scale * rng.standard_normal((l, 8))
            ts = np.sort(rng.uniform(0, 1000, m))
            mode = "train" if call % 2 else "infer"

            if call % 100 == 0:
                tape = Tape()
                bound, tracked = model.bind(tape)
                res = select(bound, x, ts, q, mode, np.random.default_rng(call))
                probe = ad.const(np.ones_like(res.z))
                loss = ad.sum_all(ad.mul(res.z_var, probe))
                grads = tape.gradients(loss, list(tracked.values()))
                assert all(np.all(np.isfinite(g)) for g in grads)
            else:
                res = select(model, x, ts, q, mode, np.random.default_rng(call))

            assert res.indices.size >= 1
            assert np.all(np.diff(res.indices) > 0)
            assert np.all(np.isfinite(res.z))
            rec = res.record
            assert np.isfinite([rec.rho, rec.t, rec.entropy, rec.r_max]).all()


def test_criterion_11_serialization(tmp_path):
    """Bit-exact weight round trip; corrupted/missing/misshapen weight files
    produce the documented CLI exit codes."""
    with criterion(11, "serialization round trip and corruption exit codes"):
        from tokengate.cli import main
        from tokengate.tensorio import write_tensor

        cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=64)
        model = SelectorModel.build(cfg)
        weights = tmp_path / "weights"
        save_weights(model, weights)
        loaded = load_weights(weights)
        for name, tensor in loaded.parameters().items():
            np.testing.assert_array_equal(tensor, model.parameters()[name], err_msg=name)

        rng = np.random.default_rng(111)
        write_tensor(tmp_path / "x.qtn", rng.standard_normal((16, 16)))
        write_tensor(tmp_path / "q.qtn", rng.standard_normal((3, 16)))
        write_tensor(tmp_path / "ts.qtn", np.arange(16.0))
        (tmp_path / "run.cfg").write_text("d = 16\nheads = 2\nbudget_hidden = 16\nn_max = 64\n")

        def run_select(**overrides):
            args = {
                "x": tmp_path / "x.qtn",
                "q": tmp_path / "q.qtn",
                "timestamps": tmp_path / "ts.qtn",
                "weights": weights,
                **overrides,
            }
            return main(
                [
                    "select",
                    "--config", str(tmp_path / "run.cfg"),
                    "--x", str(args["x"]),
                    "--q", str(args["q"]),
                    "--timestamps", str(args["timestamps"]),
                    "--weights", str(args["weights"]),
                    "--out-tokens", str(tmp_path / "z.qtn"),
                    "--out-indices", str(tmp_path / "idx.txt"),
                    "--out-diag", str(tmp_path / "diag.json"),
                ]
            )

        assert run_select() == 0

        # corrupt one byte of one tensor -> exit 2 (checksum names the tensor)
        victim = sorted(weights.glob("budget.*.qtn"))[0]
        blob = bytearray(victim.read_bytes())
        blob[20] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert run_select() == 2
        # restore, then break shapes -> exit 3
        save_weights(model, weights)
        write_tensor(tmp_path / "q.qtn", rng.standard_normal((3, 12)))
        assert run_select() == 3
        # missing resources -> exit 4
        assert run_select(weights=tmp_path / "absent") == 4
        # malformed input tensor -> exit 2
        (tmp_path / "q.qtn").write_bytes(b"QTNX" + b"\x00" * 32)
        assert run_select() == 2
