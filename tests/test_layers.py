"""RMSNorm, attention, feed-forward, and time-encoding contracts."""

import math

import numpy as np
import pytest

from conftest import rel_err, tape_vs_fd
from oracles import feed_forward, identity_attention, multi_head_attention, rmsnorm
from tokengate import autodiff as ad
from tokengate.errors import ConfigError, InputError
from tokengate.layers import AttentionWeights, FeedForwardWeights, time_encode


class TestRmsNorm:
    def test_closed_form(self):
        out = rmsnorm(ad.const([[3.0, 4.0]]), ad.const(np.ones((1, 2)))).value
        # rms = sqrt(12.5); stabilizer shifts the fifth decimal at most
        np.testing.assert_allclose(out, [[0.84853, 1.13137]], atol=1e-4)

    def test_all_zero_vector(self):
        out = rmsnorm(ad.const(np.zeros((1, 5))), ad.const(np.ones((1, 5)))).value
        np.testing.assert_array_equal(out, np.zeros((1, 5)))

    def test_unit_gain_output_rms(self):
        """Large-scale rows make the stabilizer negligible: rms == 1 +- 1e-9."""
        rng = np.random.default_rng(2)
        x = 100.0 * rng.standard_normal((8, 32))
        out = rmsnorm(ad.const(x), ad.const(np.ones((1, 32)))).value
        rms = np.sqrt((out**2).mean(axis=1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-9)

    def test_gain_scales_components(self):
        gain = np.array([[2.0, 0.5, 1.0]])
        x = np.array([[1.0, 1.0, 1.0]])
        out = rmsnorm(ad.const(x), ad.const(gain)).value
        base = rmsnorm(ad.const(x), ad.const(np.ones((1, 3)))).value
        np.testing.assert_allclose(out, base * gain)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((4, 6))
        gain = rng.uniform(0.5, 1.5, size=(1, 6))
        w = rng.standard_normal((4, 6))

        def build(v):
            return ad.sum_all(ad.mul(rmsnorm(v, ad.const(gain)), ad.const(w)))

        analytic, numeric = tape_vs_fd(build, x0)
        assert rel_err(analytic, numeric) <= 1e-6


class TestMultiHeadAttention:
    def test_single_key_weight_is_one(self):
        rng = np.random.default_rng(4)
        w = AttentionWeights.seeded(8, 2, rng)
        out, attn = multi_head_attention(rng.standard_normal((1, 8)), rng.standard_normal((1, 8)), w)
        for a in attn:
            assert a.value.shape == (1, 1)
            assert a.value[0, 0] == 1.0

    def test_planted_match_wins(self):
        """Identity projections, orthogonal keys except one planted match:
        the attention row must peak exactly where a direct softmax oracle says."""
        d = 8
        w = identity_attention(d)
        kv = np.eye(d)[:5] * 3.0
        q = np.zeros((1, d))
        q[0, 2] = 3.0  # aligns with key 2 only
        out, attn = multi_head_attention(q, kv, w)
        weights = attn[0].value[0]
        logits = (q @ kv.T / math.sqrt(d)).ravel()
        oracle = np.exp(logits - logits.max())
        oracle /= oracle.sum()
        assert int(np.argmax(weights)) == 2
        np.testing.assert_allclose(weights, oracle, atol=1e-12)

    def test_self_attention_preserves_shape(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 8))
        out, _ = multi_head_attention(x, x, AttentionWeights.seeded(8, 4, rng))
        assert out.value.shape == (7, 8)

    def test_single_head_identity_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        d, l, m = 6, 3, 9
        q = rng.standard_normal((l, d))
        kv = rng.standard_normal((m, d))
        out, attn = multi_head_attention(q, kv, identity_attention(d))

        logits = q @ kv.T / math.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(attn[0].value, weights, atol=1e-12)
        np.testing.assert_allclose(out.value, weights @ kv, atol=1e-12)

    def test_head_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        w = AttentionWeights.seeded(8, 2, rng)
        with pytest.raises(ConfigError):
            multi_head_attention(np.zeros((2, 9)), np.zeros((2, 9)), w)
        with pytest.raises(ConfigError):
            AttentionWeights.seeded(10, 3, rng)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        w = AttentionWeights.seeded(4, 2, rng)
        kv = rng.standard_normal((5, 4))
        q0 = rng.standard_normal((3, 4))
        probe = rng.standard_normal((3, 4))

        def build(v):
            out, _ = multi_head_attention(v, ad.const(kv), w)
            return ad.sum_all(ad.mul(out, ad.const(probe)))

        analytic, numeric = tape_vs_fd(build, q0)
        assert rel_err(analytic, numeric) <= 1e-6


class TestFeedForward:
    def test_zero_weights_give_zero_output(self):
        d = 4
        w = FeedForwardWeights(
            w1=np.zeros((d, 4 * d)),
            b1=np.zeros((1, 4 * d)),
            w2=np.zeros((4 * d, d)),
            b2=np.zeros((1, d)),
        )
        out = feed_forward(np.ones((3, d)), w).value
        np.testing.assert_array_equal(out, np.zeros((3, d)))

    def test_shape_preserved(self):
        rng = np.random.default_rng(9)
        w = FeedForwardWeights.seeded(6, rng)
        out = feed_forward(rng.standard_normal((11, 6)), w).value
        assert out.shape == (11, 6)

    def test_matches_per_row_oracle(self):
        """Batch evaluation equals evaluating each row independently."""
        rng = np.random.default_rng(10)
        w = FeedForwardWeights.seeded(5, rng)
        x = rng.standard_normal((4, 5))
        batch = feed_forward(x, w).value
        for i in range(4):
            row = feed_forward(x[i : i + 1], w).value
            np.testing.assert_allclose(batch[i : i + 1], row, atol=1e-12)


class TestTimeEncode:
    def test_zero_timestamp(self):
        enc = time_encode([0.0], 8)
        np.testing.assert_array_equal(enc[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(enc[0, 1::2], np.ones(4))

    def test_equal_timestamps_identical(self):
        enc = time_encode([12.5, 3.0, 12.5], 16)
        np.testing.assert_array_equal(enc[0], enc[2])

    def test_bounded_components(self):
        rng = np.random.default_rng(11)
        enc = time_encode(rng.uniform(0, 1e5, size=200), 32)
        assert np.all(np.abs(enc) <= 1.0)

    def test_injective_on_second_grid(self):
        """1024 timestamps at 1-second spacing map to 1024 distinct rows."""
        enc = time_encode(np.arange(1024.0), 16)
        assert np.unique(enc, axis=0).shape[0] == 1024

    def test_negative_timestamp_rejected(self):
        with pytest.raises(InputError):
            time_encode([-1.0], 8)

    def test_odd_dimension(self):
        enc = time_encode([1.0, 2.0], 7)
        assert enc.shape == (2, 7)
        assert np.all(np.abs(enc) <= 1.0)
