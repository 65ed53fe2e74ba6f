"""Threshold solving, Gumbel straight-through gating, and hard Top-n."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes, rel_err
from oracles import finite_difference_gradient, scalar, soft_gate_train
from tokengate import autodiff as ad
from tokengate import gate
from tokengate.autodiff import Tape, sigmoid_values
from tokengate.config import RunConfig
from tokengate.errors import ParameterError
from tokengate.harness import WorkloadSpec, generate_workload
from tokengate.scoring import ScoringWeights, score
from tokengate.gate import (
    find_threshold,
    hard_top_n,
    sample_gumbel_pairs,
    soft_gate_apply,
    threshold_gradients,
    threshold_var,
)

CFG = RunConfig()


def bisection_oracle(r, rho, tau, iters=80):
    """Independent bisection solver for the threshold equation."""
    r = np.asarray(r, dtype=np.float64)
    target = rho * r.size
    lo, hi = r.min() - 10 * tau, r.max() + 10 * tau
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sigmoid_values((r - mid) / tau).sum() - target > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFindThreshold:
    def test_equal_scores_closed_form(self):
        """All r_i = c solves to t = c - tau*ln(rho/(1-rho)) exactly."""
        for c in (0.0, 0.3, 0.9):
            t, residual = find_threshold(np.full(64, c), 0.25, 0.5)
            assert abs(t - (c + 0.5 * math.log(3.0))) <= 1e-9
            assert residual <= CFG.residual_tol * 64

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            r = rng.uniform(0, 1, 64)
            t, _ = find_threshold(r, 0.2, 0.5)
            assert abs(t - bisection_oracle(r, 0.2, 0.5)) <= 1e-9

    def test_residual_contract_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(8, 4097))
            rho = rng.uniform(0.05, 0.5)
            r = rng.uniform(0, 1, m)
            t, residual = find_threshold(r, rho, 0.5)
            assert residual <= 1e-6 * m
            assert np.isfinite(t)

    def test_monotone_in_rho(self):
        """t(rho) strictly decreases: more budget, more permissive gate."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.uniform(0, 1, 128)
            ts = [find_threshold(r, rho, 0.5)[0] for rho in np.linspace(0.05, 0.5, 20)]
            assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_peaked_scores_converge(self):
        # near-binary relevance used to overshoot bare Newton
        r = np.concatenate([np.full(5, 0.999), np.full(995, 1e-4)])
        t, residual = find_threshold(r, 0.05, 0.05)
        assert residual <= CFG.residual_tol * r.size

    def test_invalid_rho(self):
        with pytest.raises(ParameterError):
            find_threshold(np.ones(4), 0.0, 0.5)
        with pytest.raises(ParameterError):
            find_threshold(np.ones(4), 1.2, 0.5)

    def test_empty_relevance(self):
        with pytest.raises(ParameterError):
            find_threshold(np.zeros(0), 0.2, 0.5)


def criterion_1_oracle(r, rho, tau, width=1e-11):
    """The bisection oracle of acceptance criterion 1, unchanged."""
    target = rho * r.size
    lo, hi = float(r.min()) - 10 * tau, float(r.max()) + 10 * tau
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if sigmoid_values((r - mid) / tau).sum() - target > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def relevance_regime(regime, m, rng):
    """Scores of one kind: a softmax over M (r ~ 1/M), its log, U(0, 1),
    or a few tied levels."""
    if regime in ("softmax", "log_softmax"):
        logits = rng.uniform(0.1, 3.0) * rng.standard_normal(m)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        return p if regime == "softmax" else np.log(p)
    if regime == "uniform":
        return rng.uniform(0.0, 1.0, m)
    return rng.choice(rng.uniform(0.0, 1.0, int(rng.integers(1, 5))), m)


SOLVER_NEWTON_ITERS = {
    "default": RunConfig.newton_iters,
    "newton_iters=1": 1,  # falls back after one step
}

# The config's lowest legal tau_s, as a power of ten.
LOG_TAU_FLOOR = -6.0


class TestThresholdBracketInvariant:
    """Residual and bisection agreement over the gate's whole input range,
    on the Newton path and on the forced-fallback path."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 4096),
        rho=st.floats(0.05, 1.0),
        log_tau=st.floats(LOG_TAU_FLOOR, 2.0),
        regime=st.sampled_from(["softmax", "log_softmax", "uniform", "ties"]),
        solver=st.sampled_from(sorted(SOLVER_NEWTON_ITERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_and_bisection_agreement(self, m, rho, log_tau, regime, solver, seed):
        tau = 10.0**log_tau
        r = relevance_regime(regime, m, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RunConfig, "newton_iters", SOLVER_NEWTON_ITERS[solver])
            t, residual = find_threshold(r, rho, tau)
        assert residual <= RunConfig.residual_tol * m
        keep = sigmoid_values((r - t) / tau).sum()
        assert residual == pytest.approx(abs(keep - rho * m), abs=1e-9 * m)
        # The oracle only searches [min r - 10 tau, max r + 10 tau]; for
        # rho within ~5e-5 of 1 the root lies below that bracket.
        if sigmoid_values((r - (r.min() - 10 * tau)) / tau).sum() > rho * m:
            assert abs(t - criterion_1_oracle(r, rho, tau)) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 4096),
        rho=st.floats(1e-4, 1.0, exclude_max=True),
        log_tau=st.floats(LOG_TAU_FLOOR, 2.0),
        regime=st.sampled_from(["softmax", "log_softmax", "uniform", "ties"]),
        solver=st.sampled_from(sorted(SOLVER_NEWTON_ITERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_threshold_inside_exact_bracket(self, m, rho, log_tau, regime, solver, seed):
        """Every keep probability lies between sigmoid((min r - t)/tau) and
        sigmoid((max r - t)/tau), so the root lies in [min r + o*tau,
        max r + o*tau] with o = ln((1 - rho)/rho), and so does the solve."""
        tau = 10.0**log_tau
        r = relevance_regime(regime, m, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RunConfig, "newton_iters", SOLVER_NEWTON_ITERS[solver])
            t, _ = find_threshold(r, rho, tau)
        offset = math.log((1.0 - rho) / rho) * tau
        slack = 1e-12 * max(1.0, abs(r.min() + offset), abs(r.max() + offset))
        assert r.min() + offset - slack <= t <= r.max() + offset + slack


def relevance_stream(m=20_000, seed=0):
    """Seeded-model relevance of a generated stream: a softmax over M."""
    wl = generate_workload(WorkloadSpec(m=m, d=32, l=8, k=8), np.random.default_rng(seed))
    return score(wl.x, wl.q, ScoringWeights.seeded(32, 4, np.random.default_rng(seed))).value.ravel()


class TestThresholdPassCount:
    """Each sigmoid pass costs a full sweep over M; count them."""

    @pytest.mark.parametrize("regime", ["raw", "log"])
    def test_at_most_five_passes_without_fallback(self, monkeypatch, regime):
        r = relevance_stream()
        r = np.log(r) if regime == "log" else r
        passes = 0

        def counted(x, out=None):
            nonlocal passes
            passes += 1
            return sigmoid_values(x, out=out)

        def no_fallback(*args):
            raise AssertionError("bisection fallback ran")

        monkeypatch.setattr(gate, "sigmoid_values", counted)
        monkeypatch.setattr(gate, "_bisect_threshold", no_fallback)
        for rho in np.linspace(0.05, 0.5, 10):
            passes = 0
            _, residual = find_threshold(r, float(rho), CFG.tau_s)
            assert residual <= CFG.residual_tol * r.size
            assert passes <= 5, (rho, passes)

    @pytest.mark.parametrize("rho", [0.99999, 1.0])
    def test_rho_near_one_in_few_passes(self, monkeypatch, rho):
        """At rho = 0.99999 the root lies 11.5 tau_s below min r, and at
        rho = 1 there is none: both once took 50+ passes."""
        r = np.random.default_rng(15).uniform(0.0, 1.0, 1000)
        passes = 0

        def counted(x, out=None):
            nonlocal passes
            passes += 1
            return sigmoid_values(x, out=out)

        monkeypatch.setattr(gate, "sigmoid_values", counted)
        _, residual = find_threshold(r, rho, 0.5)
        assert residual <= CFG.residual_tol * r.size
        assert passes <= 8, passes

    def test_fallback_bisects_only_the_exact_bracket(self, monkeypatch):
        """After one Newton pass the bisection starts from a bracket no wider
        than max r - min r: 44-45 passes on U(0, 1) scores.  A bracket
        widened by 10 tau_s at its unconfirmed end took 48-49."""
        monkeypatch.setattr(RunConfig, "newton_iters", 1)
        passes = 0

        def counted(x, out=None):
            nonlocal passes
            passes += 1
            return sigmoid_values(x, out=out)

        monkeypatch.setattr(gate, "sigmoid_values", counted)
        most = 0
        for seed in range(50):
            r = np.random.default_rng(seed).uniform(0.0, 1.0, 1000)
            for rho in (0.05, 0.25, 0.5, 0.9):
                passes = 0
                _, residual = find_threshold(r, rho, 0.5)
                assert residual <= RunConfig.residual_tol * r.size
                most = max(most, passes)
        assert most <= 46, most


class TestThresholdMemory:
    @pytest.mark.parametrize(
        "rho, newton_iters",
        [(0.25, RunConfig.newton_iters), (1.0, RunConfig.newton_iters), (0.25, 1)],
        ids=["newton", "rho_one", "bisection"],
    )
    def test_passes_share_one_buffer(self, monkeypatch, rho, newton_iters):
        """At M = 2^17 every sigmoid pass writes into one M-sized buffer and
        holds only exp(-|x|) and a bool mask beside it: at most 2.2 M-sized
        float arrays above the start (a fresh buffer per pass took 3.2-4.2)."""
        m = 2**17
        r = np.random.default_rng(16).uniform(0.0, 1.0, m)
        monkeypatch.setattr(RunConfig, "newton_iters", newton_iters)
        assert peak_bytes(lambda: find_threshold(r, rho, CFG.tau_s)) <= 2.2 * m * 8


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_relevance_rejected(self, bad):
        r = np.random.default_rng(14).uniform(0, 1, 8)
        r[3] = bad
        with pytest.raises(ParameterError):
            hard_top_n(r, 5)
        with pytest.raises(ParameterError):
            find_threshold(r, 0.25, 0.5)
        with pytest.raises(ParameterError):
            threshold_gradients(r, 0.25, 0.5, 0.5)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, 1e-7])
    def test_temperature_rejected(self, tau):
        with pytest.raises(ParameterError):
            find_threshold(np.linspace(0, 1, 8), 0.25, tau)


class TestThresholdGradients:
    def test_equal_scores_closed_form(self):
        """Each s_i equals rho, so dt/drho = -tau / (rho(1-rho)) exactly."""
        m, rho, tau = 32, 0.25, 0.5
        r = np.full(m, 0.4)
        t, _ = find_threshold(r, rho, tau)
        dt_drho, dt_dr = threshold_gradients(r, rho, t, tau)
        assert dt_drho == pytest.approx(-tau / (rho * (1 - rho)), rel=1e-9)
        np.testing.assert_allclose(dt_dr, 1.0 / m, rtol=1e-9)

    def test_matches_fd_in_rho(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0, 1, 64)
        rho, tau = 0.3, 0.5
        t, _ = find_threshold(r, rho, tau)
        dt_drho, _ = threshold_gradients(r, rho, t, tau)
        numeric = finite_difference_gradient(
            lambda v: find_threshold(r, float(v[0]), tau)[0], [rho], step=1e-6
        )
        assert rel_err([dt_drho], numeric) <= 1e-5

    def test_matches_fd_in_r(self):
        rng = np.random.default_rng(4)
        r = rng.uniform(0, 1, 16)
        rho, tau = 0.3, 0.5
        t, _ = find_threshold(r, rho, tau)
        _, dt_dr = threshold_gradients(r, rho, t, tau)
        numeric = finite_difference_gradient(
            lambda v: find_threshold(v, rho, tau)[0], r, step=1e-6
        )
        assert rel_err(dt_dr, numeric) <= 1e-5

    def test_components_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = rng.uniform(0, 1, 50)
            t, _ = find_threshold(r, 0.2, 0.5)
            _, dt_dr = threshold_gradients(r, 0.2, t, 0.5)
            assert abs(dt_dr.sum() - 1.0) <= 1e-9

    def test_saturated_gate_clamps(self, caplog):
        r = np.full(8, 0.5)
        with caplog.at_level(logging.WARNING):
            dt_drho, dt_dr = threshold_gradients(r, 0.25, 1e6, 1e-6)
        assert dt_drho == 0.0
        np.testing.assert_array_equal(dt_dr, np.zeros(8))
        assert any("saturated" in rec.message for rec in caplog.records)


class TestSoftGate:
    def test_keep_probability_half_at_threshold(self):
        """r_i = t makes the two-class logits symmetric: keep rate 0.5."""
        rng = np.random.default_rng(6)
        m, trials = 64, 2000  # 128k samples total
        keeps = 0
        r = np.full(m, 0.5)
        for _ in range(trials):
            kept, _ = soft_gate_train(r, 0.5, CFG, rng)
            keeps += kept.size
        rate = keeps / (m * trials)
        assert abs(rate - 0.5) <= 0.01

    def test_four_tau_margin_keep_rate(self):
        """r - t = +4*tau gives keep probability sigmoid(4) ~= 0.9820."""
        rng = np.random.default_rng(7)
        m, trials = 100, 1000  # 1e5 samples
        r = np.full(m, 0.9)
        t = 0.9 - 4 * CFG.tau_s
        keeps = sum(soft_gate_train(r, t, CFG, rng)[0].size for _ in range(trials))
        rate = keeps / (m * trials)
        expected = 1.0 / (1.0 + math.exp(-4.0))
        assert abs(rate - expected) <= 0.005

    def test_all_below_threshold_falls_back_to_argmax(self):
        rng = np.random.default_rng(8)
        r = np.array([0.1, 0.3, 0.2])
        # threshold far above all scores: the forced survivor is argmax r
        forced = 0
        for _ in range(200):
            kept, _ = soft_gate_train(r, 50.0, CFG, rng)
            assert kept.size >= 1
            if kept.size == 1 and kept[0] == 1:
                forced += 1
        assert forced == 200

    def test_expected_kept_count_matches_budget(self):
        """With 1/tau-scaled logits, E[kept] = rho*M (3 standard errors)."""
        rng = np.random.default_rng(9)
        m, rho, trials = 64, 0.2, 20000
        r = np.random.default_rng(0).uniform(0, 1, m)
        t, _ = find_threshold(r, rho, CFG.tau_s)
        probs = sigmoid_values((r - t) / CFG.tau_s)
        counts = [soft_gate_train(r, t, CFG, rng)[0].size for _ in range(trials)]
        se = math.sqrt(float((probs * (1 - probs)).sum()) / trials)
        assert abs(np.mean(counts) - rho * m) <= 3 * se

    def test_frozen_noise_gradient_matches_fd(self):
        """With frozen Gumbel noise the soft path is smooth in r."""
        rng = np.random.default_rng(10)
        m = 16
        r0 = rng.uniform(0, 1, m)
        noise = sample_gumbel_pairs(m, rng)
        probe = rng.standard_normal(m)
        rho, tau = 0.3, 0.5

        tape = Tape()
        rv = tape.var(r0.reshape(1, -1))
        tv, _ = threshold_var(rv, scalar(rho), tau)
        soft, _, _ = soft_gate_apply(rv, tv, tau, noise)
        loss = ad.sum_all(ad.mul(soft, ad.const(probe.reshape(1, -1))))
        (analytic,) = tape.gradients(loss, [rv])

        def f(flat):
            t, _ = find_threshold(flat, rho, tau)
            z = (flat - t) / tau + (noise[0] - noise[1])
            return float((sigmoid_values(z / tau) * probe).sum())

        numeric = finite_difference_gradient(f, r0, step=1e-6)
        assert rel_err(analytic, numeric) <= 1e-5

    def test_mask_indices_ascending_and_deterministic(self):
        r = np.random.default_rng(11).uniform(0, 1, 40)
        t, _ = find_threshold(r, 0.3, 0.5)
        kept_a, _ = soft_gate_train(r, t, CFG, np.random.default_rng(42))
        kept_b, _ = soft_gate_train(r, t, CFG, np.random.default_rng(42))
        np.testing.assert_array_equal(kept_a, kept_b)
        assert kept_a.dtype == np.int64
        assert np.all(np.diff(kept_a) > 0)


class TestHardTopN:
    def test_hand_ranked(self):
        kept = hard_top_n([0.9, 0.1, 0.8], 2)
        np.testing.assert_array_equal(kept, [0, 2])
        assert kept.dtype == np.int64

    def test_ties_prefer_lower_index(self):
        np.testing.assert_array_equal(hard_top_n(np.full(5, 0.7), 3), [0, 1, 2])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(12)
        r = rng.uniform(0, 1, 1000)
        kept = hard_top_n(r, 100)
        oracle = set(np.argsort(-r)[:100].tolist())
        assert set(kept.tolist()) == oracle
        assert np.all(np.diff(kept) > 0)

    def test_overlong_budget_clamps_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            kept = hard_top_n([0.5, 0.2], 10)
        assert kept.size == 2
        assert any("clamping" in rec.message for rec in caplog.records)

    def test_invalid_budget(self):
        with pytest.raises(ParameterError):
            hard_top_n([0.5], 0)

    def test_length_is_min_n_m(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 50))
            n = int(rng.integers(1, 60))
            kept = hard_top_n(rng.uniform(0, 1, m), n)
            assert kept.size == min(n, m)
            assert np.all(np.diff(kept) > 0)

