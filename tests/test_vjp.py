"""Hand-written backward passes of ``score`` and ``reencode`` against the
tape compositions in ``oracles``, whose gradients the tape derives from
primitive operations (and which ``test_layers``/``test_scoring`` hold to
finite differences)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tokengate import autodiff as ad
from tokengate import reencoder, scoring, selector
from tokengate.autodiff import Tape
from tokengate.config import RunConfig
from tokengate.harness import (
    PenaltyWeights,
    WorkloadSpec,
    generate_workload,
    planted_mass_loss,
    total_loss,
)
from tokengate.layers import map_tensors, named_tensors
from tokengate.reencoder import ReencoderStack, reencode
from tokengate.scoring import ScoringWeights, score
from tokengate.selector import SelectorModel, select

TOL = 1e-10


def _oracle_forwards(monkeypatch):
    """Make ``select`` score and re-encode through the tape oracles."""
    monkeypatch.setattr(selector, "score", lambda x, q, w: oracles.score(x, q, w)[1])
    monkeypatch.setattr(selector, "reencode", oracles.reencode)


def _small_chunks(monkeypatch):
    """Many relevance chunks with a ragged last one, and multi-tile attention."""
    monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", 5)
    monkeypatch.setattr(reencoder, "ATTENTION_ROWS", 3)


def _train_gradients(model, x, ts, q, seed):
    """Gradients of a probe loss on r, the soft gate and z of one train-mode
    ``select``, with respect to x, q and every model tensor."""
    tape = Tape()
    bound, tracked = model.bind(tape)
    tracked = dict(tracked, x=tape.var(x), q=tape.var(q))
    res = select(bound, tracked["x"], ts, tracked["q"], "train", np.random.default_rng(seed))
    probe = np.random.default_rng(seed + 1)
    loss = ad.sum_all(ad.mul(res.r_var, ad.const(probe.standard_normal(res.r_var.shape))))
    for out in (res.soft_var, res.z_var):
        loss = ad.add(loss, ad.sum_all(ad.mul(out, ad.const(probe.standard_normal(out.shape)))))
    names = sorted(tracked)
    grads = tape.gradients(loss, [tracked[n] for n in names])
    return res, dict(zip(names, grads))


def _assert_gradients_match(got, want):
    assert got.keys() == want.keys()
    for name in got:
        assert np.all(np.isfinite(got[name])), name
        np.testing.assert_allclose(got[name], want[name], rtol=TOL, atol=TOL, err_msg=name)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("reencode_depth", [0, 1, 3])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_select_gradients_match_tape_oracle(monkeypatch, heads, reencode_depth, chunked):
    """One train-mode ``select`` differentiated through the kernels equals
    the same call through the tape compositions."""
    if chunked:
        _small_chunks(monkeypatch)
    cfg = RunConfig(d=8, heads=heads, reencode_depth=reencode_depth, budget_hidden=8, n_max=24)
    model = SelectorModel.build(cfg)
    rng = np.random.default_rng(100 + 10 * heads + reencode_depth)
    for call in range(3):
        m = int(rng.integers(1, 30))
        x = rng.standard_normal((m, 8))
        q = rng.standard_normal((int(rng.integers(1, 4)), 8))
        ts = np.sort(rng.uniform(0, 100, m))
        res, got = _train_gradients(model, x, ts, q, call)
        with monkeypatch.context() as patch:
            _oracle_forwards(patch)
            ref, want = _train_gradients(model, x, ts, q, call)
        np.testing.assert_array_equal(res.indices, ref.indices)
        _assert_gradients_match(got, want)


@pytest.mark.parametrize("chunk", [5, scoring.RELEVANCE_CHUNK])
def test_score_gradients_with_tied_tokens_and_heads(monkeypatch, chunk):
    """Duplicated tokens, query rows and heads tie exactly; the adjoint of
    each token goes to its first maximal (head, query) row, as in colmax."""
    monkeypatch.setattr(scoring, "RELEVANCE_CHUNK", chunk)
    rng = np.random.default_rng(7)
    base = ScoringWeights.seeded(8, 4, rng)
    wq, wk = np.array(base.wq), np.array(base.wk)
    wq[:, 2:4], wk[:, 2:4] = wq[:, 0:2], wk[:, 0:2]  # heads 0 and 1 tie
    x = rng.standard_normal((13, 8))
    x[[4, 9, 12]] = x[1]
    q = rng.standard_normal((3, 8))
    q[2] = q[0]
    probe = rng.standard_normal((1, 13))

    def gradients(forward):
        tape = Tape()
        leaves = {name: tape.var(v) for name, v in (("x", x), ("q", q), ("wq", wq), ("wk", wk))}
        w = ScoringWeights(wq=leaves["wq"], wk=leaves["wk"], heads=4)
        r = forward(leaves["x"], leaves["q"], w)
        tracked = list(leaves.values())
        return r.value, tape.gradients(ad.sum_all(ad.mul(r, ad.const(probe))), tracked)

    r, got = gradients(score)
    r_ref, want = gradients(lambda x, q, w: oracles.score(x, q, w)[1])
    assert r[0, 1] == r[0, 4] == r[0, 9] == r[0, 12]
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-12)
    for g, g_ref in zip(got, want):
        np.testing.assert_allclose(g, g_ref, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("rows", [3, reencoder.ATTENTION_ROWS])
@pytest.mark.parametrize("case", ["one_token", "tied_rows", "large_logits", "beyond_n_max"])
def test_reencode_gradients_match_tape_oracle(monkeypatch, case, rows):
    """Every block tensor and the kept rows, one or many attention tiles."""
    monkeypatch.setattr(reencoder, "ATTENTION_ROWS", rows)
    rng = np.random.default_rng(1800)
    stack = ReencoderStack.seeded(8, 2, 2, rng)
    z, ts = rng.standard_normal((11, 8)), np.arange(11.0)
    if case == "one_token":
        z, ts = z[:1], ts[:1]
    elif case == "tied_rows":
        z, ts = np.tile(z[:1], (9, 1)), np.full(9, 5.0)
    elif case == "large_logits":
        for block in stack.blocks:
            block.gain_attn = np.full((1, 8), 40.0)
        z = 1e3 * z
    else:
        z, ts = rng.standard_normal((300, 8)), np.sort(rng.uniform(0, 3600, 300))
    probe = rng.standard_normal(z.shape)

    def gradients(forward):
        tape = Tape()
        bound = map_tensors(stack, lambda name, t: tape.var(t, name))
        zv = tape.var(z)
        out = forward(zv, ts, bound)
        tracked = [zv, *(t for _, t in named_tensors(bound))]
        return tape.gradients(ad.sum_all(ad.mul(out, ad.const(probe))), tracked)

    for g, g_ref in zip(gradients(reencode), gradients(oracles.reencode)):
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, g_ref, rtol=TOL, atol=TOL)


class TestEdgeCases:
    """M = 1, n_max >= M and all-tied streams through the whole of ``select``."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 12),
        extra=st.integers(0, 20),
        heads=st.sampled_from([1, 2, 4]),
        l=st.integers(1, 3),
        scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_short_streams_within_cap(self, m, extra, heads, l, scale, seed):
        """n_max >= M: infer keeps n = max(1, ceil(rho*M)) tokens; train-mode
        gradients, through z too, are finite and equal the oracle's."""
        cfg = RunConfig(d=8, heads=heads, reencode_depth=1, budget_hidden=8, n_max=m + extra)
        model = SelectorModel.build(cfg)
        rng = np.random.default_rng(seed)
        x, q = scale * rng.standard_normal((m, 8)), scale * rng.standard_normal((l, 8))
        ts = rng.uniform(0, 60, m)
        res = select(model, x, ts, q, "infer")
        assert res.indices.size == max(1, min(int(np.ceil(round(res.record.rho * m, 9))), m))
        if m == 1:
            np.testing.assert_array_equal(res.r_var.value, [[1.0]])
            np.testing.assert_array_equal(res.indices, [0])

        got_res, got = _train_gradients(model, x, ts, q, seed % 1000)
        with pytest.MonkeyPatch.context() as patch:
            _oracle_forwards(patch)
            ref_res, want = _train_gradients(model, x, ts, q, seed % 1000)
        np.testing.assert_array_equal(got_res.indices, ref_res.indices)
        _assert_gradients_match(got, want)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 60), l=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_all_tied_rows_keep_lowest_indices(self, m, l, seed):
        rng = np.random.default_rng(seed)
        model = SelectorModel.build(RunConfig(d=8, heads=2, budget_hidden=8, n_max=16))
        x = np.tile(rng.standard_normal((1, 8)), (m, 1))
        res = select(model, x, rng.uniform(0, 60, m), rng.standard_normal((l, 8)), "infer")
        assert np.all(res.r_var.value == res.r_var.value[0, 0])
        np.testing.assert_array_equal(res.indices, np.arange(res.record.n))


# Tape records of one train-mode select + total_loss + backward at the
# `tokengate train` defaults; each stage forward, the budget stage among
# them, records one operation (one per re-encoder block), the rest are
# small gate and loss ops; total_loss is a single operation over the task
# loss and rho.
TRAIN_STEP_RECORDS = 28


def test_train_step_tape_size(monkeypatch):
    """Per-op tape forwards of scoring, the budget stage or re-encoding
    must not creep back."""
    cfg = RunConfig()
    wl = generate_workload(WorkloadSpec.from_config(cfg), np.random.default_rng(0))
    records = 0
    record = Tape.record

    def counted(self, *args):
        nonlocal records
        records += 1
        return record(self, *args)

    monkeypatch.setattr(Tape, "record", counted)
    tape = Tape()
    bound, tracked = SelectorModel.build(cfg).bind(tape)
    res = select(bound, wl.x, wl.timestamps, wl.q, "train", np.random.default_rng(0))
    penalties = PenaltyWeights(cfg.lambda_t, cfg.lambda_m, cfg.lambda_s, cfg.rho_bar)
    loss = total_loss(planted_mass_loss(res, wl.planted), res.rho_var, wl.x.shape[0], cfg.n_max, penalties)
    tape.gradients(loss, list(tracked.values()))
    assert wl.x.shape[0] == 256
    assert records == TRAIN_STEP_RECORDS
