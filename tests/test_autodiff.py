"""Tape primitives against hand values and the finite-difference oracle."""

import warnings

import numpy as np
import pytest

from conftest import rel_err, tape_vs_fd
import oracles
from oracles import finite_difference_gradient
from tokengate import autodiff as ad
from tokengate.autodiff import Tape, Var, as_matrix
from tokengate.errors import InputError, NumericError, ParameterError, ShapeError


class TestMatrixValidation:
    def test_nan_rejected(self):
        with pytest.raises(InputError):
            as_matrix(np.array([[1.0, np.nan]]))

    def test_inf_rejected(self):
        with pytest.raises(InputError):
            as_matrix(np.array([[np.inf, 0.0]]))

    def test_overflowing_sum_accepted(self):
        """The sum check overflows; the entrywise scan then passes it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(as_matrix([[1e308, 1e308]]), [[1e308, 1e308]])

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_non_finite_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                as_matrix([[1.0] + bad])

    def test_rank3_rejected(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_vector_promoted_to_row(self):
        assert as_matrix(np.arange(3.0)).shape == (1, 3)


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(ad.const(np.eye(3)), ad.const(a))
        np.testing.assert_array_equal(out.value, a)

    def test_hand_expansion(self):
        out = ad.matmul(ad.const([[1.0, 2.0], [3.0, 4.0]]), ad.const([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[2.0], [4.0]])

    def test_triple_loop_oracle(self):
        """Random 8x8 product matches a naive triple loop to 1e-12."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        expected = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(ad.const(a), ad.const(b)).value
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.const(np.zeros((2, 3))), ad.const(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = oracles.softmax_rows(ad.const([[0.0, 0.0]]), 1.0).value
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_stability_forcing_case(self):
        """A 1000-vs-0 logit row must hit [1, 0] without overflow."""
        out = oracles.softmax_rows(ad.const([[1000.0, 0.0]]), 1.0).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 17)) * 10
        out = oracles.softmax_rows(ad.const(x), 0.7).value
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            oracles.softmax_rows(ad.const([[1.0]]), 0.0)

    def test_values_bit_identical_to_allocating_form(self):
        """The one-buffer softmax equals the form that allocated a new array
        per step, kept here as the reference."""

        def reference(x, temperature):
            z = x / temperature
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)

        rng = np.random.default_rng(2)
        for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0, 1e300):
            x = scale * rng.standard_normal((7, 300))
            x[0, :3] = [0.0, -0.0, 1.0]
            x[1] = x[1, 0]  # an all-tied row
            for temperature in (0.5, 1.0, 3.0):
                got = oracles._softmax_row_values(x, temperature)
                assert got.tobytes() == reference(x, temperature).tobytes()


class TestFiniteDifferenceOracle:
    def test_polynomial_exactness(self):
        grad = finite_difference_gradient(lambda v: float(v[0] ** 2), [3.0], step=1e-5)
        assert abs(grad[0] - 6.0) <= 1e-8

    def test_nonpositive_step(self):
        with pytest.raises(ParameterError):
            finite_difference_gradient(lambda v: 0.0, [1.0], step=0.0)

    def test_nonfinite_evaluation(self):
        with pytest.raises(NumericError):
            finite_difference_gradient(lambda v: float("nan"), [1.0])


class TestTapeContracts:
    def test_loss_adjoint_is_one(self):
        tape = Tape()
        x = tape.var([[2.0]])
        loss = ad.mul(x, x)
        (g,) = tape.gradients(loss, [loss])
        assert g[0, 0] == 1.0

    def test_gradient_requires_scalar_output(self):
        tape = Tape()
        x = tape.var(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            tape.gradients(ad.mul(x, x), [x])

    def test_mixing_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(InputError):
            ad.add(t1.var([[1.0]]), t2.var([[1.0]]))

    def test_untracked_input_gets_zero_gradient(self):
        tape = Tape()
        x = tape.var([[1.0]])
        other = Var(np.ones((1, 1)))
        loss = ad.mul(x, x)
        (g,) = tape.gradients(loss, [other])
        assert g.shape == (1, 1) and g[0, 0] == 0.0

    def test_reused_variable_accumulates(self):
        tape = Tape()
        x = tape.var([[3.0]])
        loss = ad.mul(x, x)  # d(x^2)/dx = 2x
        (g,) = tape.gradients(loss, [x])
        assert g[0, 0] == pytest.approx(6.0, abs=1e-12)


def _weighted_sum(rng, v):
    w = ad.const(rng.standard_normal(v.shape))
    return ad.sum_all(ad.mul(v, w))


UNARY_CASES = {
    "sigmoid": lambda v: ad.sigmoid(v),
    "tanh": lambda v: ad.tanh(v),
    "exp": lambda v: oracles.exp(v),
    "smul": lambda v: ad.smul(v, -1.7),
    "add_const": lambda v: ad.add_const(v, 0.3),
    "transpose": lambda v: ad.transpose(v),
    "softmax_rows": lambda v: oracles.softmax_rows(v, 0.5),
    "sum_all": lambda v: v,  # wrapped below anyway
    "row_means": lambda v: oracles.row_means(v),
    "col_means": lambda v: ad.col_means(v),
    "colmax": lambda v: oracles.colmax(v),
    "take_rows": lambda v: ad.take_rows(v, np.array([2, 0, 2])),
    "take_cols": lambda v: ad.take_cols(v, np.array([1, 1, 3])),
}


@pytest.mark.parametrize("name", sorted(UNARY_CASES))
def test_unary_gradients_match_fd(name):
    """Every differentiable primitive agrees with central differences to 1e-6
    on random instances in the 4x4..16x16 range."""
    rng = np.random.default_rng(hash(name) % 2**32)
    shape = (rng.integers(4, 17), rng.integers(4, 17))
    x0 = rng.standard_normal(shape)
    op = UNARY_CASES[name]

    def build(v):
        return _weighted_sum(np.random.default_rng(0), op(v))

    analytic, numeric = tape_vs_fd(build, x0)
    assert rel_err(analytic, numeric) <= 1e-6


POSITIVE_CASES = {
    "log": lambda v: ad.log(v),
    "pow_const": lambda v: oracles.pow_const(v, -0.5),
    "xlogx": lambda v: oracles.xlogx(v),
}


@pytest.mark.parametrize("name", sorted(POSITIVE_CASES))
def test_positive_domain_gradients_match_fd(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x0 = rng.uniform(0.2, 3.0, size=(5, 7))
    op = POSITIVE_CASES[name]

    def build(v):
        return _weighted_sum(np.random.default_rng(0), op(v))

    analytic, numeric = tape_vs_fd(build, x0)
    assert rel_err(analytic, numeric) <= 1e-6


BINARY_CASES = {
    "add": ad.add,
    "sub": ad.sub,
    "mul": ad.mul,
    "div": oracles.div,
    "matmul": ad.matmul,
}


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
@pytest.mark.parametrize("side", [0, 1])
def test_binary_gradients_match_fd(name, side):
    rng = np.random.default_rng(abs(hash((name, side))) % 2**32)
    if name == "matmul":
        shapes = [(6, 4), (4, 5)]
    else:
        shapes = [(6, 4), (6, 4)]
    values = [rng.standard_normal(s) for s in shapes]
    if name == "div":
        values[1] = rng.uniform(0.5, 2.0, size=shapes[1])
    op = BINARY_CASES[name]

    def build(v):
        operands = [ad.const(values[0]), ad.const(values[1])]
        operands[side] = v
        return _weighted_sum(np.random.default_rng(0), op(*operands))

    analytic, numeric = tape_vs_fd(build, values[side])
    assert rel_err(analytic, numeric) <= 1e-6


@pytest.mark.parametrize("broadcast_shape", [(1, 1), (1, 4), (6, 1)])
def test_broadcast_gradients_match_fd(broadcast_shape):
    """Broadcasting sides of mul/add reduce their gradients correctly."""
    rng = np.random.default_rng(11)
    small = rng.standard_normal(broadcast_shape)
    big = rng.standard_normal((6, 4))

    def build(v):
        return _weighted_sum(np.random.default_rng(0), ad.mul(ad.const(big), v))

    analytic, numeric = tape_vs_fd(build, small)
    assert rel_err(analytic, numeric) <= 1e-6


def test_concat_gradients_match_fd():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((4, 3))
    other = rng.standard_normal((4, 2))
    vother = rng.standard_normal((2, 3))

    def build_h(v):
        return _weighted_sum(np.random.default_rng(0), ad.hcat([v, ad.const(other)]))

    def build_v(v):
        return _weighted_sum(np.random.default_rng(0), oracles.vcat([v, ad.const(vother)]))

    for build in (build_h, build_v):
        analytic, numeric = tape_vs_fd(build, x0)
        assert rel_err(analytic, numeric) <= 1e-6


def test_straight_through_passes_gradient_unchanged():
    tape = Tape()
    soft = tape.var([[0.3, 0.9]])
    hard = np.array([[0.0, 1.0]])
    st = ad.straight_through(soft, hard)
    np.testing.assert_array_equal(st.value, hard)
    loss = ad.sum_all(ad.mul(st, ad.const([[2.0, 5.0]])))
    (g,) = tape.gradients(loss, [soft])
    np.testing.assert_array_equal(g, [[2.0, 5.0]])


def test_colmax_routes_gradient_to_first_maximal_row():
    tape = Tape()
    x = tape.var([[1.0, 0.0], [1.0, 2.0], [0.5, 2.0]])
    out = ad.sum_all(oracles.colmax(x))
    (g,) = tape.gradients(out, [x])
    np.testing.assert_array_equal(g, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
