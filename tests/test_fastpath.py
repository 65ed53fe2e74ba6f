"""The tape-free inference path against the tape path it replaces.

``relevance`` must agree with ``score``, ``reencode_values`` with
``reencode``, and ``select`` on an unbound model (tape-free scoring and
re-encoding) with the same model bound to a tape (the tape paths).
``hard_top_n`` must agree with a full stable sort, and ``sigmoid_values``
bit for bit with the masked two-branch form it replaced.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokengate import scoring
from tokengate.autodiff import Tape, sigmoid_values
from tokengate.config import RunConfig
from tokengate.errors import InputError, ShapeError
from tokengate.gate import hard_top_n
from tokengate.reencoder import ReencoderStack, reencode, reencode_values
from tokengate.scoring import ScoringWeights, relevance, score
from tokengate.selector import SelectorModel, select

TOL = 1e-12


def _fuzz_instance(rng, d=8):
    """One criterion-10-style instance: M 1-48, L 1-3, scale 0.1-5."""
    m = int(rng.integers(1, 49))
    l = int(rng.integers(1, 4))
    scale = float(rng.uniform(0.1, 5.0))
    return scale * rng.standard_normal((m, d)), scale * rng.standard_normal((l, d))


class TestRelevanceMatchesScore:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_fuzz_corpus(self, depth, heads):
        rng = np.random.default_rng(1000 + 10 * depth + heads)
        w = ScoringWeights.seeded(8, heads, depth, rng)
        for _ in range(60):
            x, q = _fuzz_instance(rng)
            _, r_tape = score(x, q, w)
            np.testing.assert_allclose(relevance(x, q, w), r_tape.value.ravel(), rtol=0, atol=TOL)

    def test_chunk_boundaries(self, monkeypatch):
        """Streams spanning many chunks, including a ragged last chunk."""
        monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", 5)
        rng = np.random.default_rng(1100)
        w = ScoringWeights.seeded(8, 2, 2, rng)
        for _ in range(60):
            x, q = _fuzz_instance(rng)
            _, r_tape = score(x, q, w)
            np.testing.assert_allclose(relevance(x, q, w), r_tape.value.ravel(), rtol=0, atol=TOL)

    def test_single_token_gets_full_relevance(self):
        rng = np.random.default_rng(1200)
        w = ScoringWeights.seeded(8, 4, 2, rng)
        r = relevance(rng.standard_normal((1, 8)), rng.standard_normal((3, 8)), w)
        np.testing.assert_array_equal(r, [1.0])

    @pytest.mark.parametrize("chunk", [3, scoring.RELEVANCE_CHUNK])
    def test_all_tied_rows(self, monkeypatch, chunk):
        """Identical tokens get identical relevance 1/M, across chunks too."""
        monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", chunk)
        rng = np.random.default_rng(1300)
        w = ScoringWeights.seeded(8, 2, 1, rng)
        for m in (3, 7, 48):
            x = np.tile(rng.standard_normal((1, 8)), (m, 1))
            q = rng.standard_normal((2, 8))
            r = relevance(x, q, w)
            assert np.all(r == r[0])
            _, r_tape = score(x, q, w)
            np.testing.assert_allclose(r, r_tape.value.ravel(), rtol=0, atol=TOL)
            np.testing.assert_array_equal(hard_top_n(r, 3).indices, [0, 1, 2])

    def test_empty_and_mismatched_inputs_rejected(self):
        w = ScoringWeights.seeded(8, 2, 1, np.random.default_rng(1400))
        with pytest.raises(InputError):
            relevance(np.zeros((0, 8)), np.ones((2, 8)), w)
        with pytest.raises(InputError):
            relevance(np.ones((2, 8)), np.zeros((0, 8)), w)
        with pytest.raises(ShapeError):
            relevance(np.ones((2, 8)), np.ones((2, 6)), w)
        with pytest.raises(ShapeError):
            relevance(np.ones((2, 6)), np.ones((2, 6)), w)


class TestSelectMatchesTapePath:
    @pytest.mark.parametrize("reencode_depth", [0, 1, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_unbound_equals_bound(self, depth, heads, reencode_depth):
        cfg = RunConfig(
            d=8,
            heads=heads,
            scoring_depth=depth,
            budget_hidden=8,
            n_max=24,
            reencode_depth=reencode_depth,
        )
        model = SelectorModel.build(cfg)
        bound, _ = model.bind(Tape())
        rng = np.random.default_rng(1500 + depth)
        for call in range(100):
            x, q = _fuzz_instance(rng)
            ts = np.sort(rng.uniform(0, 1000, x.shape[0]))
            mode = "train" if call % 2 else "infer"
            fast = select(model, x, ts, q, mode, np.random.default_rng(call))
            tape = select(bound, x, ts, q, mode, np.random.default_rng(call))
            assert fast.r_var.tape is None and tape.r_var.tape is not None
            assert fast.z_var.tape is None
            if reencode_depth:  # the bound re-encoder records on the tape
                assert tape.z_var.tape is not None
            np.testing.assert_array_equal(fast.indices, tape.indices)
            np.testing.assert_allclose(fast.z, tape.z, rtol=0, atol=TOL)
            assert abs(fast.record.t - tape.record.t) <= TOL


def _reencode_case(case, rng):
    """(z, timestamps, stack) for one named kernel-vs-tape case."""
    stack = ReencoderStack.seeded(8, 2, 2, rng)
    if case == "one_token":
        return rng.standard_normal((1, 8)), np.array([3.0]), stack
    if case == "tied_rows":
        return np.tile(rng.standard_normal((1, 8)), (9, 1)), np.full(9, 5.0), stack
    if case == "large_logits":
        # RMSNorm removes the row scale, so the attention gains are raised
        # too: logits then pass 1000, beyond exp's overflow at ~709.
        for block in stack.blocks:
            block.gain_attn = np.full((1, 8), 40.0)
        return 1e3 * rng.standard_normal((12, 8)), np.arange(12.0), stack
    assert case == "beyond_n_max"  # more rows than the default n_max = 256
    return rng.standard_normal((300, 8)), np.sort(rng.uniform(0, 3600, 300)), stack


@pytest.mark.parametrize("case", ["one_token", "tied_rows", "large_logits", "beyond_n_max"])
def test_reencode_values_matches_tape(case):
    z, ts, stack = _reencode_case(case, np.random.default_rng(1700))
    z_before = z.copy()
    got = reencode_values(z, ts, stack)
    np.testing.assert_allclose(got, reencode(z, ts, stack).value, rtol=0, atol=TOL)
    np.testing.assert_array_equal(z, z_before)
    if case == "tied_rows":
        assert np.all(got == got[0])


class TestHardTopNMatchesStableSort:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
        extra=st.integers(min_value=-60, max_value=5),
    )
    @example(values=[1, 1, 1], extra=0)  # n == M
    @example(values=[2, 0, 2, 2], extra=3)  # n > M
    def test_integer_relevance_with_ties(self, values, extra):
        """Few distinct values force ties at the cut; n runs from 1 past M."""
        r = np.array(values, dtype=np.float64)
        n = max(1, len(values) + extra)
        expected = np.sort(np.argsort(-r, kind="stable")[:n])
        np.testing.assert_array_equal(hard_top_n(r, n).indices, expected)


def _masked_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_values_bit_identical_to_masked_form():
    rng = np.random.default_rng(1600)
    for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0, 1e300):
        x = scale * rng.standard_normal((3, 1000))
        x[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        assert sigmoid_values(x).tobytes() == _masked_sigmoid(x).tobytes()
