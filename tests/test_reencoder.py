"""Re-encoding stack: residual pre-norm blocks over kept tokens."""

import warnings

import numpy as np
import pytest

from conftest import count_guarded_heads, peak_bytes, rel_err, tape_vs_fd
from tokengate import autodiff as ad
from tokengate.errors import InputError, ShapeError
from tokengate.config import RunConfig
from tokengate.layers import time_encode
from tokengate.reencoder import (
    ATTENTION_ROWS,
    ReencoderBlock,
    ReencoderStack,
    _rmsnorm,
    _rmsnorm_backward,
    reencode,
)
from tokengate.selector import SelectorModel, select


def _zero_residual_stack(d, heads, depth, rng):
    """Blocks whose attention/FFN outputs are exactly zero."""
    blocks = []
    for _ in range(depth):
        block = ReencoderBlock.seeded(d, heads, rng)
        block.attn.wo = np.zeros_like(block.attn.wo)
        block.ffn.w2 = np.zeros_like(block.ffn.w2)
        block.ffn.b2 = np.zeros_like(block.ffn.b2)
        blocks.append(block)
    return ReencoderStack(blocks)


class TestReencode:
    def test_depth_zero_is_identity(self):
        """The no-reencode ablation returns the input unchanged, with no
        time-encoding addition either."""
        rng = np.random.default_rng(0)
        z = rng.standard_normal((5, 8))
        out = reencode(z, np.arange(5.0), ReencoderStack([]))
        np.testing.assert_array_equal(out.value, z)

    def test_zero_residuals_leave_input_plus_time(self):
        rng = np.random.default_rng(1)
        d = 8
        z = rng.standard_normal((6, d))
        ts = np.arange(6.0) * 3.0
        stack = _zero_residual_stack(d, 2, 2, rng)
        out = reencode(z, ts, stack)
        np.testing.assert_allclose(out.value, z + time_encode(ts, d), atol=1e-12)

    def test_single_token_finite(self):
        rng = np.random.default_rng(2)
        stack = ReencoderStack.seeded(8, 2, 2, rng)
        out = reencode(rng.standard_normal((1, 8)), [4.0], stack)
        assert out.value.shape == (1, 8)
        assert np.all(np.isfinite(out.value))

    def test_shape_and_order_preserved(self):
        rng = np.random.default_rng(3)
        stack = ReencoderStack.seeded(8, 4, 2, rng)
        z = rng.standard_normal((10, 8))
        out = reencode(z, np.arange(10.0), stack)
        assert out.value.shape == (10, 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_weight_rejected_by_name(self, bad):
        """Block weights are checked once, when the stack is built, not on
        every ``_block`` call."""
        blocks = ReencoderStack.seeded(8, 2, 2, np.random.default_rng(5)).blocks
        blocks[1].ffn.w2[3, 1] = bad
        with pytest.raises(InputError, match=r"reencoder\.b1\.ffn\.w2"):
            ReencoderStack(blocks)

    def test_timestamp_count_mismatch(self):
        rng = np.random.default_rng(4)
        stack = ReencoderStack.seeded(8, 2, 1, rng)
        with pytest.raises(ShapeError):
            reencode(rng.standard_normal((3, 8)), [0.0, 1.0], stack)

    def test_permutation_equivariance_without_time(self):
        """Self-attention blocks are permutation equivariant once the
        positional term carries no order: every token has one timestamp."""
        rng = np.random.default_rng(5)
        stack = ReencoderStack.seeded(8, 2, 2, rng)
        z = rng.standard_normal((9, 8))
        ts = np.full(9, 7.0)
        base = reencode(z, ts, stack).value
        for _ in range(5):
            perm = rng.permutation(9)
            permuted = reencode(z[perm], ts, stack).value
            assert np.max(np.abs(permuted - base[perm])) <= 1e-10

    def test_permutation_equivariance_with_time_needs_matched_timestamps(self):
        rng = np.random.default_rng(6)
        stack = ReencoderStack.seeded(8, 2, 2, rng)
        z = rng.standard_normal((9, 8))
        ts = np.linspace(0.0, 40.0, 9)
        base = reencode(z, ts, stack).value
        perm = rng.permutation(9)
        together = reencode(z[perm], ts[perm], stack).value
        np.testing.assert_allclose(together, base[perm], atol=1e-10)
        rows_only = reencode(z[perm], ts, stack).value
        assert np.max(np.abs(rows_only - base[perm])) > 1e-6

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        d, n = 8, 6
        stack = ReencoderStack.seeded(d, 2, 2, rng)
        ts = np.linspace(0.0, 12.0, n)
        z0 = rng.standard_normal((n, d))
        probe = rng.standard_normal((n, d))

        def build(v):
            return ad.sum_all(ad.mul(reencode(v, ts, stack), ad.const(probe)))

        analytic, numeric = tape_vs_fd(build, z0)
        assert rel_err(analytic, numeric) <= 1e-5

    def test_gradient_matches_fd_on_the_exact_max_guard(self, monkeypatch):
        """Attention gains of 40 push every head's shift bound past
        SHIFT_LIMIT, so each tile takes the exact row max."""
        calls = count_guarded_heads(monkeypatch)
        rng = np.random.default_rng(8)
        d, n = 8, 6
        stack = ReencoderStack.seeded(d, 2, 2, rng)
        for block in stack.blocks:
            block.gain_attn = np.full((1, d), 40.0)
        ts = np.linspace(0.0, 12.0, n)
        z0 = rng.standard_normal((n, d))
        probe = rng.standard_normal((n, d))

        def build(v):
            return ad.sum_all(ad.mul(reencode(v, ts, stack), ad.const(probe)))

        analytic, numeric = tape_vs_fd(build, z0)
        assert calls and all(folded == 0 for _, folded in calls)
        assert rel_err(analytic, numeric) <= 1e-5

    def test_zero_rows(self):
        rng = np.random.default_rng(9)
        stack = ReencoderStack.seeded(8, 2, 2, rng)
        assert reencode(np.zeros((0, 8)), np.zeros(0), stack).value.shape == (0, 8)


WIDE_SCALES = [1e155, 1e300]  # finite rows whose squares overflow


def _wide_stream(scale, d=16, n=40):
    """n rows, every fifth scaled so its mean square overflows float64."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, d))
    x[::5] *= scale
    return x, rng.standard_normal((4, d)), np.arange(float(n))


class TestWideRows:
    """RMSNorm over finite rows with entries above about 1.3e154."""

    @pytest.mark.parametrize("scale", WIDE_SCALES)
    def test_rmsnorm_matches_the_unscaled_row(self, scale):
        x = np.random.default_rng(12).standard_normal((5, 8))
        want = x / np.sqrt((x * x).mean(axis=1, keepdims=True))
        got, _ = _rmsnorm(scale * x, np.ones((1, 8)))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("scale", WIDE_SCALES)
    def test_rmsnorm_backward_scales_with_the_row(self, scale):
        """x / rms(x) is invariant under x -> c x (EPS_NORM is negligible
        at rms 1e4), so the x adjoint scales by 1/c and the gain's stays."""
        rng = np.random.default_rng(13)
        x, d_out = 1e4 * rng.standard_normal((5, 8)), rng.standard_normal((5, 8))
        gain = rng.uniform(0.5, 2.0, (1, 8))
        d_gain, d_x = _rmsnorm_backward(d_out, x, _rmsnorm(x, gain)[1], gain)
        wide_gain, wide_x = _rmsnorm_backward(d_out, scale * x, _rmsnorm(scale * x, gain)[1], gain)
        np.testing.assert_allclose(wide_gain, d_gain, rtol=1e-10)
        np.testing.assert_allclose(wide_x * scale, d_x, rtol=1e-10, atol=1e-10 * np.abs(d_x).max())

    @pytest.mark.parametrize("mode", ["infer", "train"])
    @pytest.mark.parametrize("scale", WIDE_SCALES)
    def test_select_carries_on(self, scale, mode):
        x, q, ts = _wide_stream(scale)
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = select(model, x, ts, q, mode=mode, rng=np.random.default_rng(0))
        assert np.isfinite(res.z).all()

    @pytest.mark.parametrize("scale", WIDE_SCALES)
    def test_bound_backward_is_finite(self, scale):
        x, q, ts = _wide_stream(scale)
        model = SelectorModel.build(RunConfig(d=16, heads=2, budget_hidden=16, n_max=64))
        tape = ad.Tape()
        bound, tensors = model.bind(tape)
        xv = tape.var(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = select(bound, xv, ts, q, mode="train", rng=np.random.default_rng(0))
            loss = ad.sum_all(ad.smul(res.z_var, 1.0 / scale))
            grads = tape.gradients(loss, [xv, *tensors.values()])
        assert all(np.isfinite(g).all() for g in grads)


# Allowed peak of one ``reencode`` call beyond one attention tile, in
# n x d floats.  The peak comes in the feed-forward, once the tile is
# freed: about a dozen n x d arrays (input, norms, per-head q, k and v,
# attention output, residual) and three n x 4d ones, 24 n x d in all,
# which is the tile (8 n x d at d = 32 and n >= 256) plus 16.  Four
# heads' logits at once would add three more tiles.
REENCODE_PEAK_ND = 20


@pytest.mark.parametrize("n", [256, 300])
def test_reencode_memory_is_one_tile_plus_linear_in_n(n):
    d = 32
    rng = np.random.default_rng(10)
    stack = ReencoderStack.seeded(d, 4, 2, rng)
    z, ts = rng.standard_normal((n, d)), np.sort(rng.uniform(0, 3600, n))
    reencode(z, ts, stack)  # first-call allocations stay out of the peak
    tile = min(n, ATTENTION_ROWS) * n
    assert peak_bytes(lambda: reencode(z, ts, stack)) <= 8 * (tile + REENCODE_PEAK_ND * n * d)
