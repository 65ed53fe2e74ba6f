"""The streaming kernels against the tape compositions in ``oracles``.

``score`` must agree with ``oracles.score``, ``reencode`` with
``oracles.reencode``, and ``select`` on an unbound model with the same
model bound to a tape.
``hard_top_n`` must agree with a full stable sort, and ``sigmoid_values``
bit for bit with the masked two-branch form it replaced (NaN sign aside).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_guarded_heads, count_lse_paths, count_matrix_scans
from tokengate import scoring
from tokengate.autodiff import Tape, Var, sigmoid_values
from tokengate.config import RunConfig
from tokengate.harness import WorkloadSpec, generate_workload
from tokengate.errors import InputError, ShapeError
from tokengate.gate import hard_top_n
from tokengate.reencoder import ReencoderStack, reencode
from tokengate.scoring import ScoringWeights, score
from tokengate.selector import SelectorModel, select

TOL = 1e-12


def _fuzz_instance(rng, d=8):
    """One criterion-10-style instance: M 1-48, L 1-3, scale 0.1-5."""
    m = int(rng.integers(1, 49))
    l = int(rng.integers(1, 4))
    scale = float(rng.uniform(0.1, 5.0))
    return scale * rng.standard_normal((m, d)), scale * rng.standard_normal((l, d))


class TestRelevanceMatchesScore:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_fuzz_corpus(self, heads):
        rng = np.random.default_rng(1010 + heads)
        w = ScoringWeights.seeded(8, heads, rng)
        for _ in range(60):
            x, q = _fuzz_instance(rng)
            _, r_tape = oracles.score(x, q, w)
            np.testing.assert_allclose(score(x, q, w).value.ravel(), r_tape.value.ravel(), rtol=0, atol=TOL)

    def test_chunk_boundaries(self, monkeypatch):
        """Streams spanning many chunks, including a ragged last chunk."""
        monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", 5)
        rng = np.random.default_rng(1100)
        w = ScoringWeights.seeded(8, 2, rng)
        for _ in range(60):
            x, q = _fuzz_instance(rng)
            _, r_tape = oracles.score(x, q, w)
            np.testing.assert_allclose(score(x, q, w).value.ravel(), r_tape.value.ravel(), rtol=0, atol=TOL)

    def test_single_token_gets_full_relevance(self):
        rng = np.random.default_rng(1200)
        w = ScoringWeights.seeded(8, 4, rng)
        r = score(rng.standard_normal((1, 8)), rng.standard_normal((3, 8)), w).value.ravel()
        np.testing.assert_array_equal(r, [1.0])

    @pytest.mark.parametrize("chunk", [3, scoring.RELEVANCE_CHUNK])
    def test_all_tied_rows(self, monkeypatch, chunk):
        """Identical tokens get identical relevance 1/M, across chunks too."""
        monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", chunk)
        rng = np.random.default_rng(1300)
        w = ScoringWeights.seeded(8, 2, rng)
        for m in (3, 7, 48):
            x = np.tile(rng.standard_normal((1, 8)), (m, 1))
            q = rng.standard_normal((2, 8))
            r = score(x, q, w).value.ravel()
            assert np.all(r == r[0])
            _, r_tape = oracles.score(x, q, w)
            np.testing.assert_allclose(r, r_tape.value.ravel(), rtol=0, atol=TOL)
            np.testing.assert_array_equal(hard_top_n(r, 3).indices, [0, 1, 2])

    def test_empty_and_mismatched_inputs_rejected(self):
        w = ScoringWeights.seeded(8, 2, np.random.default_rng(1400))
        with pytest.raises(InputError):
            score(np.zeros((0, 8)), np.ones((2, 8)), w).value.ravel()
        with pytest.raises(InputError):
            score(np.ones((2, 8)), np.zeros((0, 8)), w).value.ravel()
        with pytest.raises(ShapeError):
            score(np.ones((2, 8)), np.ones((2, 6)), w).value.ravel()
        with pytest.raises(ShapeError):
            score(np.ones((2, 6)), np.ones((2, 6)), w).value.ravel()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScoringLseGuard:
    """Pass 1 of ``score`` keeps its unshifted exp sums only when they are
    exact; overflowing and all-underflowing rows rerun it with a running
    max, and both paths match the tape composition."""

    def _check(self, x, q, w):
        _, r_tape = oracles.score(x, q, w)
        np.testing.assert_allclose(score(x, q, w).value.ravel(), r_tape.value.ravel(), rtol=0, atol=TOL)

    def test_overflowing_logits_take_the_fallback(self, monkeypatch):
        calls = count_lse_paths(monkeypatch)
        rng = np.random.default_rng(1800)
        x = rng.uniform(0.5, 1.0, (20, 4))
        q = np.array([[1500.0, 0.0, 0.0, 0.0]])  # logits 375 ... 750, past exp's overflow at ~709.8
        self._check(x, q, ScoringWeights.identity(4))
        assert calls == ["exact"]

    def test_all_underflowing_row_takes_the_fallback(self, monkeypatch):
        """Query row 1's logits all lie below -750, so its S_k is 0."""
        calls = count_lse_paths(monkeypatch)
        rng = np.random.default_rng(1801)
        x = rng.uniform(0.5, 1.0, (20, 4))
        q = np.array([[1.0, 2.0, 0.0, -1.0], [-3100.0, 0.0, 0.0, 0.0]])  # row 1: -1550 ... -775
        self._check(x, q, ScoringWeights.identity(4))
        assert calls == ["exact"]

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_perfbench_shaped_inputs_take_the_direct_path(self, monkeypatch, seed):
        """Seeded default weights on 224 x 224 video streams of 4 and 32
        frames (M = 1024, 8192) with 4 to 16 query rows."""
        calls = count_lse_paths(monkeypatch)
        cfg = RunConfig()
        w = SelectorModel.build(cfg).scoring
        for frames, l in ((4, 4), (32, 16)):
            spec = WorkloadSpec(
                m=None, d=cfg.d, l=l, k=8, frames=frames, frame_height=224, frame_width=224, patch=14
            )
            wl = generate_workload(spec, np.random.default_rng([seed, frames]))
            self._check(wl.x, wl.q, w)
        assert calls == ["direct", "direct"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 48),
    heads=st.sampled_from([1, 2, 4]),
    l=st.integers(1, 3),
    log_scale=st.floats(-1.0, 3.0),
    n=st.integers(1, 48),
)
@example(seed=0, m=1, heads=4, l=3, log_scale=3.0, n=1)  # both past the overflow guard
@example(seed=5, m=30, heads=4, l=3, log_scale=3.0, n=10)
def test_relevance_in_unit_interval_and_top_n_matches_oracle(seed, m, heads, l, log_scale, n):
    """Logit scales 0.1 ... 1e3 send some draws past the guard of pass 1.
    At large scales many tokens saturate at r = 1, where the tape rounds
    some to 1 - 1e-15: the top-n sets are compared wherever the oracle's
    n-th and (n+1)-th values lie more than TOL apart."""
    rng = np.random.default_rng(seed)
    w = ScoringWeights.seeded(8, heads, rng)
    x = rng.standard_normal((m, 8))
    q = 10.0**log_scale * rng.standard_normal((l, 8))
    r = score(x, q, w).value.ravel()
    assert np.all((r >= 0.0) & (r <= 1.0))
    if m == 1:
        assert abs(r[0] - 1.0) <= 2.0**-52
    n = min(n, m)
    ref = oracles.score(x, q, w)[1].value.ravel()
    ranked = np.sort(ref)[::-1]
    if n == m or ranked[n - 1] - ranked[n] > TOL:
        np.testing.assert_array_equal(hard_top_n(r, n).indices, hard_top_n(ref, n).indices)


class TestSelectMatchesTapePath:
    @pytest.mark.parametrize("reencode_depth", [0, 1, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_unbound_equals_bound(self, heads, reencode_depth):
        cfg = RunConfig(d=8, heads=heads, budget_hidden=8, n_max=24, reencode_depth=reencode_depth)
        model = SelectorModel.build(cfg)
        bound, _ = model.bind(Tape())
        rng = np.random.default_rng(1501)
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


def _query_with_column_signs(w, signs, j, rng):
    """A (L, d) query whose logit matrix ``scoring._logit_matrix`` has
    column j equal to ``signs`` (heads*L values, head-major, |s| >= 0.5)
    up to rounding.  Logits are linear in q: row (h, l) of column j is
    q_l . u_h, so each q_l solves U^T q_l = target, plus noise from the
    null space of U^T that leaves column j alone and varies the rest."""
    heads, d = w.heads, w.wq.shape[0]
    basis = scoring._logit_matrix(Var(np.eye(d)), w).value  # row (h, i) = u_h[i] over columns
    u = np.stack([basis[h * d : (h + 1) * d, j] for h in range(heads)], axis=1)  # (d, heads)
    targets = signs.reshape(heads, -1).T  # (L, heads)
    q = np.linalg.lstsq(u.T, targets.T, rcond=None)[0].T
    noise = rng.standard_normal(q.shape)
    noise -= (u @ np.linalg.lstsq(u, noise.T, rcond=None)[0]).T
    return q + noise


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 64),
    heads=st.sampled_from([1, 2, 4]),
    l=st.integers(1, 3),
    identity=st.booleans(),
    column=st.sampled_from(["positive", "negative", "mixed"]),
    bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=3),
    chunked=st.booleans(),
)
# A -inf entry against an all-positive column: every logit of the token is
# -inf and lse stays finite, so only the log-domain r check sees it.
@example(seed=0, m=16, heads=1, l=2, identity=True, column="positive", bad=[-np.inf], chunked=False)
@example(seed=1, m=16, heads=2, l=2, identity=False, column="negative", bad=[np.inf], chunked=True)
# NaN and mixed signs leave lse non-finite: only the lse check sees them.
@example(seed=2, m=16, heads=4, l=1, identity=False, column="positive", bad=[np.nan], chunked=True)
@example(seed=3, m=16, heads=1, l=3, identity=True, column="mixed", bad=[np.inf], chunked=False)
def test_non_finite_x_always_raises(seed, m, heads, l, identity, column, bad, chunked):
    """``select`` leaves x unscanned unless scoring's own checks fail;
    they must reject every non-finite x, in both modes, without a
    RuntimeWarning.
    The first bad entry sits at (token i, feature j), and q is built so
    that the logit matrix's column j is all positive, all negative or
    mixed; later ones land anywhere.  ``chunked`` streams in chunks of 5."""
    cfg = RunConfig(d=8, heads=heads, budget_hidden=8, n_max=16, reencode_depth=1, seed=seed)
    model = SelectorModel.build(cfg)
    if identity:
        model = replace(model, scoring=ScoringWeights.identity(cfg.d))
    w = model.scoring
    rng = np.random.default_rng(seed)
    rows = w.heads * l
    assume(column != "mixed" or rows > 1)
    magnitude = rng.uniform(0.5, 2.0, rows)
    signs = {"positive": magnitude, "negative": -magnitude}.get(column)
    if signs is None:
        signs = magnitude * rng.permutation(np.resize([1.0, -1.0], rows))
    j = int(rng.integers(cfg.d))
    q = _query_with_column_signs(w, signs, j, rng)
    x = rng.standard_normal((m, cfg.d))
    x[rng.integers(m), j] = bad[0]
    for value in bad[1:]:
        x[rng.integers(m), rng.integers(cfg.d)] = value
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(scoring, "RELEVANCE_CHUNK", 5)
        for mode in ("infer", "train"):
            with pytest.raises(InputError, match="^x contains non-finite entries$"):
                select(model, x, np.arange(float(m)), q, mode, np.random.default_rng(seed))


class TestFiniteXIsNotScanned:
    """``select`` leaves the finiteness of x to scoring's own outputs."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_infer_select_never_scans_x(self, monkeypatch, seed):
        """Seeded defaults on perfbench-shaped video streams."""
        scans = count_matrix_scans(monkeypatch)
        model = SelectorModel.build(RunConfig())
        for frames, l in ((4, 4), (32, 16)):
            spec = WorkloadSpec(
                m=None, d=model.cfg.d, l=l, k=8, frames=frames, frame_height=224, frame_width=224, patch=14
            )
            wl = generate_workload(spec, np.random.default_rng([seed, frames]))
            select(model, wl.x, wl.timestamps, wl.q)
        assert "q" in scans and "x" not in scans

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_row_with_overflowing_logits_still_selects(self, monkeypatch):
        """Token 5 scaled by 1e150 has logits of about +-1e149: exp
        overflows in its 2 positive rows, which take the running-max
        pass, and it takes r = 1.  Its log-domain r stays finite, so x
        is not scanned, and the kept set is the oracle's Top-n."""
        scans = count_matrix_scans(monkeypatch)
        paths = count_lse_paths(monkeypatch)
        model = SelectorModel.build(RunConfig())
        wl = generate_workload(WorkloadSpec(m=512, d=model.cfg.d, l=4, k=8), np.random.default_rng(0))
        x = wl.x.copy()
        x[5] *= 1e150
        res = select(model, x, wl.timestamps, wl.q)
        assert paths == ["exact"] and "x" not in scans
        assert res.r_var.value[0, 5] == 1.0 and 5 in res.indices
        ref = oracles.score(x, wl.q, model.scoring)[1].value.ravel()
        np.testing.assert_array_equal(res.indices, hard_top_n(ref, res.n_target).indices)
        assert np.all(np.isfinite(res.z))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_finite_row_whose_logits_overflow_names_x_and_q(self, monkeypatch, mode):
        """Token 1's logit under identity weights and q = [1, 1] is
        (1.5e308 + 1.5e308) / sqrt(2), past float max, so lse is not
        finite.  The x scan passes, and the error names x and q before
        pass 2 would subtract inf from inf."""
        scans = count_matrix_scans(monkeypatch)
        cfg = RunConfig(d=2, heads=1, budget_hidden=8, n_max=16, reencode_depth=0)
        model = replace(SelectorModel.build(cfg), scoring=ScoringWeights.identity(2))
        x = np.array([[0.5, -0.25], [1.5e308, 1.5e308], [0.1, 0.2]])
        with pytest.raises(InputError, match="^x and q give attention logits too large for float64$"):
            select(model, x, np.arange(3.0), np.array([[1.0, 1.0]]), mode, np.random.default_rng(0))
        assert "x" in scans


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
    got = reencode(z, ts, stack).value
    np.testing.assert_allclose(got, oracles.reencode(z, ts, stack).value, rtol=0, atol=TOL)
    np.testing.assert_array_equal(z, z_before)
    if case == "tied_rows":
        assert np.all(got == got[0])


def test_default_model_never_takes_the_exact_max_guard(monkeypatch):
    """At the ``RunConfig()`` defaults the shift bound stays far below
    SHIFT_LIMIT, so every head of both blocks folds it into the GEMM."""
    calls = count_guarded_heads(monkeypatch)
    cfg = RunConfig()
    model = SelectorModel.build(cfg)
    rng = np.random.default_rng(1702)
    reencode(rng.standard_normal((256, cfg.d)), np.sort(rng.uniform(0, 3600, 256)), model.reencoder)
    assert calls == [(0, cfg.heads)] * cfg.reencode_depth


def test_large_logits_take_the_exact_max_guard_on_every_head(monkeypatch):
    calls = count_guarded_heads(monkeypatch)
    z, ts, stack = _reencode_case("large_logits", np.random.default_rng(1700))
    reencode(z, ts, stack)
    assert calls == [(2, 0)] * stack.depth


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_reencode_matches_tape_on_both_sides_of_the_shift_limit(monkeypatch, scale):
    """Attention gains from 1 to 40 put the largest shift bound from
    about 1 to about 3000 (SHIFT_LIMIT is about 177): the folded shift and
    the exact-max guard both match the tape composition."""
    calls = count_guarded_heads(monkeypatch)
    for gain in (1.0, 5.0, 10.0, 14.0, 40.0):
        rng = np.random.default_rng(1703)
        stack = ReencoderStack.seeded(8, 2, 2, rng)
        for block in stack.blocks:
            block.gain_attn = np.full((1, 8), gain)
        z, ts = scale * rng.standard_normal((40, 8)), np.arange(40.0)
        got = reencode(z, ts, stack).value
        np.testing.assert_allclose(got, oracles.reencode(z, ts, stack).value, rtol=0, atol=TOL)
    guarded, folded = np.sum(calls, axis=0)
    assert guarded > 0 and folded > 0


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


def _where_sigmoid(x):
    """The one-exp form with a select over the array, before max(e, x >= 0)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_probes(rng):
    """Normal draws at scales from 1e-300 to 1e300, the first row led by
    NaN, +-0, +-inf, +-5e-324, +-709.8, +-745.2 and +-1e308."""
    edges = [0.0, np.inf, np.nan, 5e-324, 709.8, 745.2, 1e308]
    for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0, 1e300):
        x = scale * rng.standard_normal((3, 1000))
        x[0, : 2 * len(edges)] = edges + [-v for v in edges]
        yield x


def test_sigmoid_values_bit_identical_to_masked_form():
    """Bit for bit with the masked form except the sign of a NaN, which
    only the one-exp forms share (their NaN comes out of exp(-|x|))."""
    for x in _sigmoid_probes(np.random.default_rng(1600)):
        got, want = sigmoid_values(x), _masked_sigmoid(x)
        assert got.tobytes() == _where_sigmoid(x).tobytes()
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_sigmoid_values_out_bit_identical_to_allocating_form():
    """out=None returns a new array and leaves x alone; a separate out
    buffer and out=x itself receive the same bits."""
    for x in _sigmoid_probes(np.random.default_rng(1601)):
        want, x0 = _where_sigmoid(x).tobytes(), x.tobytes()
        got = sigmoid_values(x)
        assert got is not x and got.tobytes() == want and x.tobytes() == x0
        buf = np.empty_like(x)
        assert sigmoid_values(x, out=buf) is buf
        assert buf.tobytes() == want and x.tobytes() == x0
        assert sigmoid_values(x, out=x) is x
        assert x.tobytes() == want
