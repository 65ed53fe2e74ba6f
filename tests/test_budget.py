"""Budget features, retention prediction, and the kept-count arithmetic."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from conftest import rel_err
from oracles import features_oracle, finite_difference_gradient, predict_rho_oracle
from tokengate import autodiff as ad
from tokengate.autodiff import Tape, Var
from tokengate.budget import (
    EPS_REL,
    BudgetHead,
    _relevance_adjoint,
    compute_budget,
    extract_features,
    predict_rho,
)
from tokengate.config import RunConfig
from tokengate.errors import ConfigError, InputError, ParameterError
from tokengate.layers import map_tensors, named_tensors


def _features(q, r):
    return extract_features(ad.const(q), ad.const(np.asarray(r, float).reshape(1, -1)), len(r))


class TestExtractFeatures:
    def test_mean_of_identical_rows(self):
        v = np.array([1.5, -2.0, 0.25])
        feats = _features(np.vstack([v, v]), [0.5, 0.5])
        np.testing.assert_array_equal(feats.s_q, v.reshape(1, -1))

    def test_log_m_is_exact(self):
        feats = _features(np.ones((1, 4)), np.full(136035, 1e-5))
        assert feats.log_m == math.log(136035)
        assert abs(feats.log_m - 11.8207) < 5e-5

    def test_r_max(self):
        feats = _features(np.ones((2, 4)), [0.2, 0.9, 0.9])
        assert feats.r_max == 0.9

    def test_sq_matches_column_mean_oracle(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((7, 5))
        feats = _features(q, rng.uniform(0, 1, 11))
        oracle = np.array([q[:, j].sum() / 7 for j in range(5)])
        assert np.max(np.abs(feats.s_q.ravel() - oracle)) <= 1e-12

    def test_empty_query_rejected(self):
        with pytest.raises(InputError):
            extract_features(ad.const(np.zeros((0, 4))), ad.const(np.ones((1, 3))), 3)

    def test_negative_relevance_rejected(self):
        with pytest.raises(InputError):
            _features(np.ones((2, 3)), [0.5, -1e-300, 0.2])

    def test_holds_no_temporary_per_operation(self):
        """At M = 2^17 the call holds p, p*log p and a mask beyond r: at most
        2.5 M-sized float arrays (one temporary per tape operation took ~4.1)."""
        m = 2**17
        q = ad.const(np.ones((4, 8)))
        r = ad.const(np.random.default_rng(13).uniform(0, 1, (1, m)))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            extract_features(q, r, m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * m * 8


class TestEntropy:
    """The entropy of p = r / (sum r + EPS_REL), 0 log 0 := 0, as
    ``extract_features`` reports it."""

    def test_uniform(self):
        assert abs(_features(np.ones((2, 3)), [1.0, 1.0, 1.0, 1.0]).entropy - math.log(4)) <= 1e-6

    def test_point_mass(self):
        assert abs(_features(np.ones((2, 3)), [1.0, 0.0, 0.0, 0.0]).entropy) <= 1e-6

    def test_all_zero_fallback(self):
        assert _features(np.ones((2, 3)), np.zeros(5)).entropy == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            _features(np.ones((2, 3)), [-0.1, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        """The finiteness check reads r_max: argmax stops at the first NaN."""
        r = Var(np.array([[0.5, bad, 0.2, 0.9]]))  # ``ad.const`` would refuse it
        with pytest.raises(InputError, match="finite and nonnegative"):
            extract_features(ad.const(np.ones((2, 3))), r, 4)


def _relevance(case):
    rng = np.random.default_rng(14)
    r = rng.uniform(0.05, 1.0, 40) ** 2
    if case == "exact_zeros":
        r[[0, 7, 8, 39]] = 0.0
    elif case == "tied_max":
        r[[3, 17, 30]] = 1.5
    elif case == "one_token":
        r = r[:1]
    elif case == "all_zero":
        r = np.zeros(6)
    return r.reshape(1, -1)


def _fused(r, w_max, w_entropy):
    """(r_max, entropy, d(w_max*r_max + w_entropy*entropy)/dr) from
    ``extract_features`` and the budget stage's r adjoint."""
    features = extract_features(ad.const(np.ones((2, 3))), ad.const(r), r.shape[1])
    grad = _relevance_adjoint(r, features.top, w_max, w_entropy)
    return features.r_max, features.entropy, grad


def _composed(r, w_max, w_entropy):
    """The same through the tape composition ``features_oracle``."""
    tape = Tape()
    rv = tape.var(r)
    r_max, entropy = features_oracle(rv)
    loss = ad.add(ad.smul(r_max, w_max), ad.smul(entropy, w_entropy))
    (grad,) = tape.gradients(loss, [rv])
    return r_max.item(), entropy.item(), grad


class TestFusedPeakAndEntropy:
    """r_max, the entropy and their r adjoint in the budget stage against
    the eight-operation composition in ``oracles`` and central differences."""

    @pytest.mark.parametrize("case", ["random", "exact_zeros", "tied_max", "one_token", "all_zero"])
    @pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (0.7, -1.3)])
    def test_matches_oracle(self, case, weights):
        r = _relevance(case)
        r_max, entropy, grad = _fused(r, *weights)
        want_max, want_entropy, want_grad = _composed(r, *weights)
        assert (r_max, entropy) == (want_max, want_entropy)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)

    def test_tied_max_routes_to_first_index(self):
        _, _, grad = _fused(_relevance("tied_max"), 1.0, 0.0)
        expected = np.zeros((1, 40))
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_zero_entries_take_only_the_normalizer_gradient(self):
        """Where p = 0 the subgradient of p*log p is 0, so dH/dr_j is the
        same for every zero entry: sum_i (log p_i + 1) r_i / s^2."""
        r = _relevance("exact_zeros")
        _, _, grad = _fused(r, 0.0, 1.0)
        s = r.sum() + EPS_REL
        p = r[r > 0] / s
        np.testing.assert_allclose(grad[0, [0, 7, 8, 39]], ((np.log(p) + 1.0) * p).sum() / s, rtol=1e-12)

    @pytest.mark.parametrize("case", ["random", "one_token"])
    def test_gradient_matches_fd(self, case):
        r = _relevance(case)
        _, _, grad = _fused(r, 0.7, -1.3)

        def f(flat):
            features = _features(np.ones((2, 3)), flat)
            return 0.7 * features.r_max - 1.3 * features.entropy

        numeric = finite_difference_gradient(f, r.ravel(), step=1e-6)
        assert rel_err(grad, numeric) <= 1e-6

    def test_all_zero_relevance(self):
        r_max, entropy, grad = _fused(_relevance("all_zero"), 0.7, -1.3)
        assert r_max == 0.0 and entropy == 0.0
        np.testing.assert_array_equal(grad, [[0.7, 0, 0, 0, 0, 0]])


class TestPredictRho:
    def test_zero_final_projection_gives_midpoint(self):
        rng = np.random.default_rng(2)
        head = BudgetHead.seeded(4, rng, hidden=16)
        head.w_out = np.zeros_like(head.w_out)
        head.b_out = np.zeros_like(head.b_out)
        feats = _features(np.ones((2, 4)), [0.3, 0.7])
        rho = predict_rho(feats, head).item()
        assert rho == pytest.approx(0.275, abs=1e-12)

    def test_saturation_respects_upper_bound(self):
        rng = np.random.default_rng(3)
        head = BudgetHead.seeded(4, rng, hidden=16)
        head.b_out = np.array([[1e4]])
        feats = _features(np.ones((2, 4)), [0.3, 0.7])
        rho = predict_rho(feats, head).item()
        assert rho <= 0.5
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_output_strictly_inside_bounds(self):
        rng = np.random.default_rng(4)
        head = BudgetHead.seeded(6, rng, hidden=32)
        cfg = RunConfig()
        for trial in range(200):
            trial_rng = np.random.default_rng(trial)
            q = 5.0 * trial_rng.standard_normal((3, 6))
            r = trial_rng.uniform(0, 1, int(trial_rng.integers(1, 50)))
            rho = predict_rho(_features(q, r), head).item()
            assert cfg.rho_min < rho < cfg.rho_max

    def test_gradient_wrt_every_parameter_matches_fd(self):
        """rho gradients against central differences for all head tensors."""
        rng = np.random.default_rng(5)
        head = BudgetHead.seeded(3, rng, hidden=128)
        q = rng.standard_normal((4, 3))
        r = rng.uniform(0.1, 0.9, 9)

        for name, tensor in named_tensors(head):
            tape = Tape()
            tracked = tape.var(tensor)
            bound = map_tensors(head, lambda n, t: tracked if n == name else t)
            rho = predict_rho(_features(q, r), bound)
            (analytic,) = tape.gradients(rho, [tracked])

            def f(flat):
                trial = map_tensors(
                    head, lambda n, t: flat.reshape(tensor.shape) if n == name else t
                )
                return predict_rho(_features(q, r), trial).item()

            numeric = finite_difference_gradient(f, tensor.ravel(), step=1e-6)
            assert rel_err(analytic, numeric) <= 1e-5, name

    def test_gradient_through_features_matches_fd(self):
        """End-to-end d(rho)/d(q entries) through extract_features."""
        rng = np.random.default_rng(6)
        head = BudgetHead.seeded(3, rng, hidden=16)
        r = rng.uniform(0.1, 0.9, 7)
        q0 = rng.standard_normal((4, 3))

        tape = Tape()
        qv = tape.var(q0)
        rho = predict_rho(extract_features(qv, ad.const(r.reshape(1, -1)), 7), head)
        (analytic,) = tape.gradients(rho, [qv])

        def f(flat):
            feats = _features(flat.reshape(4, 3), r)
            return predict_rho(feats, head).item()

        numeric = finite_difference_gradient(f, q0.ravel(), step=1e-6)
        assert rel_err(analytic, numeric) <= 1e-5

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        head = BudgetHead.seeded(5, rng, hidden=8)
        with pytest.raises(ConfigError):
            predict_rho(_features(np.ones((2, 4)), [0.5]), head)


def _head_case(case, seed=0):
    """(q, r, head) for one named budget-head case, at d = 5."""
    rng = np.random.default_rng([15, seed])
    head = BudgetHead.seeded(5, rng, hidden=16)
    q = rng.standard_normal((3, 5))
    r = rng.uniform(0.05, 1.0, 23)
    if case == "saturated_tanh":  # |pre-activations| in the hundreds
        head.w1 = 1e3 * head.w1
        head.w2 = 1e3 * head.w2
    elif case.startswith("saturated_sigmoid"):  # logit about +-40
        head.b_out = np.array([[40.0 if case.endswith("high") else -40.0]])
    elif case == "zero_projection":
        head.w_out = np.zeros_like(head.w_out)
        head.b_out = np.zeros_like(head.b_out)
    return q, r, head


def _rho_with_gradients(forward, q, r, head):
    """rho through ``forward`` and its gradients with respect to q, r and
    every head tensor, all tracked on one tape."""
    tape = Tape()
    qv, rv = tape.var(q), tape.var(r.reshape(1, -1))
    leaves = {}
    bound = map_tensors(head, lambda name, t: leaves.setdefault(name, tape.var(t)))
    rho = forward(qv, rv, bound)
    return rho.value, tape.gradients(rho, [qv, rv, *leaves.values()])


def _budget_stage(q, r, head):
    return predict_rho(extract_features(q, r, r.shape[1]), head)


class TestFusedHead:
    """The budget stage's one tape operation against its composition in
    ``oracles``: ``col_means``, the eight feature and the thirteen head
    operations."""

    @pytest.mark.parametrize(
        "case, seed",
        [("seeded", 0), ("seeded", 1), ("seeded", 2), ("saturated_tanh", 0),
         ("saturated_sigmoid_high", 0), ("saturated_sigmoid_low", 0), ("zero_projection", 0)],
    )
    def test_matches_oracle(self, case, seed):
        q, r, head = _head_case(case, seed)
        rho, grads = _rho_with_gradients(_budget_stage, q, r, head)
        want_rho, want_grads = _rho_with_gradients(predict_rho_oracle, q, r, head)
        assert rho.tobytes() == want_rho.tobytes()
        assert len(grads) == len(want_grads) == 2 + len(list(named_tensors(head)))
        for g, want in zip(grads, want_grads):
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)


    def test_tracked_q_and_r_record_one_operation(self, monkeypatch):
        q, r, head = _head_case("seeded")
        tape = Tape()
        qv, rv = tape.var(q), tape.var(r.reshape(1, -1))
        records = 0
        record = Tape.record

        def counted(self, *args):
            nonlocal records
            records += 1
            return record(self, *args)

        monkeypatch.setattr(Tape, "record", counted)
        _budget_stage(qv, rv, head)
        assert records == 1


class TestComputeBudget:
    def test_large_stream_hits_cap(self):
        assert compute_budget(0.5, 180000, 25600) == 25600

    def test_floor_of_one(self):
        assert compute_budget(0.05, 10, 256) == 1

    def test_ceil_then_cap(self):
        assert compute_budget(0.3, 1000, 256) == 256

    def test_exact_integer_target_not_inflated(self):
        # 0.2 * 5 is 1 + one ulp in floats; the budget must stay 1
        assert compute_budget(0.2, 5, 256) == 1

    def test_never_exceeds_m(self):
        assert compute_budget(0.9, 3, 256) == 3

    def test_monotone_in_m_and_rho(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rho = rng.uniform(0.05, 0.5)
            m = int(rng.integers(1, 5000))
            n_max = int(rng.integers(1, 600))
            n = compute_budget(rho, m, n_max)
            assert 1 <= n <= min(n_max, m)
            assert compute_budget(rho, m + 1, n_max) >= n
            assert compute_budget(min(rho + 0.01, 1.0), m, n_max) >= n

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            compute_budget(0.5, 0, 10)
        with pytest.raises(ParameterError):
            compute_budget(0.0, 10, 10)
        with pytest.raises(ParameterError):
            compute_budget(1.5, 10, 10)

