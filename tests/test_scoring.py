"""Relevance scoring: max-over-heads-and-query reduction of cross attention."""

import math

import numpy as np
import pytest

from conftest import count_lse_paths, peak_bytes, rel_err, tape_vs_fd
from oracles import identity_scoring, score as oracle_score
from tokengate import autodiff as ad
from tokengate.autodiff import Tape
from tokengate.errors import InputError
from tokengate.scoring import RELEVANCE_CHUNK, ScoringWeights, score


def _single_head_relevance(x, q, wq, wk):
    """Direct oracle: softmax over keys, then max over query rows."""
    d_h = wq.shape[1]
    logits = (q @ wq) @ (x @ wk).T / math.sqrt(d_h)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    return attn.max(axis=0)


class TestScore:
    def test_single_token_gets_full_relevance(self):
        rng = np.random.default_rng(0)
        w = ScoringWeights.seeded(8, 2, rng)
        r = score(rng.standard_normal((1, 8)), rng.standard_normal((3, 8)), w)
        np.testing.assert_array_equal(r.value, [[1.0]])

    def test_planted_token_wins_argmax(self):
        """Identity projections and one strongly aligned token: argmax of r
        must sit on the planted index, matching a direct softmax oracle."""
        d, m = 8, 12
        rng = np.random.default_rng(1)
        x = 0.1 * rng.standard_normal((m, d))
        q = np.zeros((1, d))
        q[0, 3] = 4.0
        planted = 7
        x[planted] = 0.0
        x[planted, 3] = 4.0
        w = identity_scoring(d)
        r = score(x, q, w)
        oracle = _single_head_relevance(x, q, np.eye(d), np.eye(d))
        assert int(np.argmax(r.value)) == planted
        np.testing.assert_allclose(r.value.ravel(), oracle, atol=1e-12)

    def test_two_heads_reduce_by_elementwise_max(self):
        """h=2 relevance equals the elementwise max of the per-head runs."""
        d, m, l = 8, 10, 3
        rng = np.random.default_rng(2)
        x = rng.standard_normal((m, d))
        q = rng.standard_normal((l, d))
        w = ScoringWeights.seeded(d, 2, rng)
        r = score(x, q, w)

        per_head = []
        for cols in (slice(0, d // 2), slice(d // 2, d)):
            per_head.append(_single_head_relevance(x, q, w.wq[:, cols], w.wk[:, cols]))
        expected = np.maximum(per_head[0], per_head[1])
        np.testing.assert_allclose(r.value.ravel(), expected, atol=1e-12)

    def test_attention_map_normalized(self):
        rng = np.random.default_rng(3)
        w = ScoringWeights.seeded(8, 4, rng)
        amap, _ = oracle_score(rng.standard_normal((20, 8)), rng.standard_normal((5, 8)), w)
        amap.validate()
        assert amap.weights.shape == (4, 5, 20)

    def test_empty_inputs_rejected(self):
        rng = np.random.default_rng(4)
        w = ScoringWeights.seeded(8, 2, rng)
        with pytest.raises(InputError):
            score(np.zeros((0, 8)), np.zeros((2, 8)), w)
        with pytest.raises(InputError):
            score(np.zeros((2, 8)), np.zeros((0, 8)), w)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        d, m = 8, 15
        x = rng.standard_normal((m, d))
        q = rng.standard_normal((3, d))
        w = ScoringWeights.seeded(d, 2, rng)
        r = score(x, q, w)
        for _ in range(5):
            perm = rng.permutation(m)
            r_perm = score(x[perm], q, w)
            np.testing.assert_allclose(r_perm.value.ravel(), r.value.ravel()[perm], atol=1e-12)

    def test_key_scale_preserves_argmax(self):
        """Scaling key projections by a positive constant moves r values but
        never the argmax (L=1, h=1 monotone logit scaling)."""
        rng = np.random.default_rng(6)
        d, m = 6, 30
        x = rng.standard_normal((m, d))
        q = rng.standard_normal((1, d))
        base = ScoringWeights.seeded(d, 1, rng)
        r = score(x, q, base)
        for c in (0.5, 2.0, 7.3):
            scaled = ScoringWeights(wq=base.wq, wk=base.wk * c, heads=1)
            r_scaled = score(x, q, scaled)
            assert int(np.argmax(r_scaled.value)) == int(np.argmax(r.value))
            assert not np.allclose(r_scaled.value, r.value)

    def test_relevance_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        w = ScoringWeights.seeded(8, 2, rng)
        for _ in range(1000):
            m = int(rng.integers(1, 40))
            l = int(rng.integers(1, 6))
            x = 3.0 * rng.standard_normal((m, 8))
            q = 3.0 * rng.standard_normal((l, 8))
            r = score(x, q, w)
            values = r.value.ravel()
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_rounded_log_sum_exp_is_clamped_to_one(self):
        """The single logit -1.386 has log(exp(l)) < l; unclamped, its r
        would be 1.0000000000000002."""
        assert np.log(np.exp(-1.386)) < -1.386
        r = score(np.array([[-1.386]]), np.array([[1.0]]), identity_scoring(1))
        np.testing.assert_array_equal(r.value, [[1.0]])

    def test_direct_path_log_sum_exp_is_clamped_to_one(self, monkeypatch):
        """A second token at -1000 adds exp(-1000) = 0 to S, so the direct
        path keeps S = exp(-1.386) and its lse rounds below -1.386;
        unclamped, token 0's r would be 1.0000000000000002."""
        calls = count_lse_paths(monkeypatch)
        r = score(np.array([[-1.386], [-1000.0]]), np.array([[1.0]]), identity_scoring(1))
        assert calls == ["direct"]
        np.testing.assert_array_equal(r.value, [[1.0, 0.0]])

    def test_gradient_of_relevance_sum_matches_fd(self):
        rng = np.random.default_rng(8)
        d, m, l = 6, 9, 3
        w = ScoringWeights.seeded(d, 2, rng)
        q = rng.standard_normal((l, d))
        x0 = rng.standard_normal((m, d))

        def build(v):
            r = score(v, ad.const(q), w)
            return ad.sum_all(r)

        analytic, numeric = tape_vs_fd(build, x0)
        assert rel_err(analytic, numeric) <= 1e-5

    def test_tie_gradient_goes_to_first_maximal_slot(self):
        """Two query rows with identical attention: only the first (head-major,
        query-position) slot receives the max-reduction gradient."""
        d, m = 4, 3
        x = np.array([[2.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
        q_row = np.array([[3.0, 0, 0, 0]])
        q = np.vstack([q_row, q_row])  # deliberate tie between query rows
        w = identity_scoring(d)

        tape = Tape()
        qv = tape.var(q)
        r = score(ad.const(x), qv, w)
        (g,) = tape.gradients(ad.sum_all(r), [qv])
        assert np.any(g[0] != 0.0)
        np.testing.assert_array_equal(g[1], np.zeros(d))


@pytest.mark.parametrize("pass_", ["forward", "backward"])
def test_score_holds_one_logits_chunk(pass_):
    """A 3-chunk stream: every chunk of both passes reuses one logits
    buffer, so the peak stays under 1.5 chunks plus r, untracked and in
    the backward of a tracked call (the query is tracked, x is not)."""
    d, heads, l, m = 32, 4, 4, 3 * RELEVANCE_CHUNK - 100
    rng = np.random.default_rng(12)
    x, q = rng.standard_normal((m, d)), rng.standard_normal((l, d))
    w = ScoringWeights.seeded(d, heads, rng)
    if pass_ == "forward":
        peak = peak_bytes(lambda: score(x, q, w))
    else:
        tape = Tape()
        qv = tape.var(q)
        loss = ad.sum_all(score(x, qv, w))
        peak = peak_bytes(lambda: tape.gradients(loss, [qv]))
    chunk = heads * l * RELEVANCE_CHUNK * 8
    assert peak < 1.5 * chunk + m * 8

