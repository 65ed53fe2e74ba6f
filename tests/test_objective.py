"""Compute-aware penalty terms and their analytic gradients."""

import numpy as np
import pytest

from oracles import finite_difference_gradient, scalar
from tokengate import autodiff as ad
from tokengate.autodiff import Tape
from tokengate.errors import ParameterError, ShapeError
from tokengate.harness import PenaltyWeights, compute_penalties, total_loss


class TestComputePenalties:
    def test_vanishes_at_zero_retention(self):
        w = PenaltyWeights(lambda_t=0.2, lambda_m=0.3, lambda_s=0.05, rho_bar=0.3)
        value, _ = compute_penalties(0.0, 1000, 512, w)
        assert value == pytest.approx(0.05 * 0.3**2, abs=1e-15)

    def test_reference_configuration_value(self):
        """Hand-checked arithmetic for the 0.2/0.3/0.05 weight row."""
        w = PenaltyWeights(lambda_t=0.2, lambda_m=0.3, lambda_s=0.05, rho_bar=0.275)
        value, _ = compute_penalties(0.275, 1000, 512, w)
        expected = 0.2 * 275.0**2 / 512.0**2 + 0.3 * 275.0 / 512.0
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.21883, abs=5e-6)

    def test_gradient_is_fd_exact(self):
        """Quadratic in rho, so central differences are exact to roundoff."""
        w = PenaltyWeights(lambda_t=0.2, lambda_m=0.3, lambda_s=0.05, rho_bar=0.275)
        for rho in (0.05, 0.2, 0.45):
            _, grad = compute_penalties(rho, 1000, 512, w)
            numeric = finite_difference_gradient(
                lambda v: compute_penalties(float(v[0]), 1000, 512, w)[0], [rho], step=1e-4
            )
            assert abs(grad - numeric[0]) <= 1e-10

    def test_per_term_derivative_formulas(self):
        """Isolated terms reproduce d/drho[(rho M)^2/n^2] = 2 rho M^2/n^2 and
        d/drho[rho M/n] = M/n exactly."""
        rho, m, n_max = 0.31, 1700, 512
        _, quad = compute_penalties(rho, m, n_max, PenaltyWeights(1.0, 0.0, 0.0, 0.5))
        assert quad == pytest.approx(2.0 * rho * m**2 / n_max**2, rel=1e-15)
        _, lin = compute_penalties(rho, m, n_max, PenaltyWeights(0.0, 1.0, 0.0, 0.5))
        assert lin == pytest.approx(m / n_max, rel=1e-15)

    def test_compute_terms_strictly_increasing(self):
        w = PenaltyWeights(lambda_t=0.1, lambda_m=0.17, lambda_s=0.0)
        grid = np.linspace(0.01, 0.5, 30)
        values = [compute_penalties(rho, 2000, 256, w)[0] for rho in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            PenaltyWeights(lambda_t=-0.1)

    def test_penalty_var_backward_uses_analytic_gradient(self):
        w = PenaltyWeights()
        tape = Tape()
        rho = tape.var([[0.3]])
        out = total_loss(scalar(0.0), rho, 500, 256, w)
        (g,) = tape.gradients(out, [rho])
        _, expected = compute_penalties(0.3, 500, 256, w)
        assert g[0, 0] == pytest.approx(expected, rel=1e-12)


class TestTotalLoss:
    def test_zero_task_equals_penalties(self):
        w = PenaltyWeights()
        tape = Tape()
        rho = tape.var([[0.3]])
        loss = total_loss(scalar(0.0), rho, 500, 256, w)
        value, _ = compute_penalties(0.3, 500, 256, w)
        assert loss.item() == pytest.approx(value, rel=1e-12)

    def test_scaling_lambda_t_increases_total(self):
        rho = 0.3
        base = total_loss(
            scalar(0.0), ad.const([[rho]]), 500, 256, PenaltyWeights(lambda_t=0.1)
        ).item()
        scaled = total_loss(
            scalar(0.0), ad.const([[rho]]), 500, 256, PenaltyWeights(lambda_t=1.0)
        ).item()
        assert scaled > base

    def test_task_gradient_passes_through(self):
        tape = Tape()
        rho = tape.var([[0.2]])
        task = ad.smul(rho, 3.0)  # synthetic task loss depending on rho
        loss = total_loss(task, rho, 100, 256, PenaltyWeights(lambda_t=0, lambda_m=0, lambda_s=0))
        (g,) = tape.gradients(loss, [rho])
        assert g[0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_rho_adjoint_adds_task_and_penalty_gradients(self):
        """With every lambda nonzero and a task loss that reads rho, rho's
        adjoint is the task's 3 plus the penalty's analytic gradient."""
        w = PenaltyWeights(lambda_t=0.2, lambda_m=0.3, lambda_s=0.05, rho_bar=0.275)
        tape = Tape()
        rho = tape.var([[0.2]])
        loss = total_loss(ad.smul(rho, 3.0), rho, 100, 256, w)
        (g,) = tape.gradients(loss, [rho])
        _, penalty_grad = compute_penalties(0.2, 100, 256, w)
        assert penalty_grad != 0.0
        assert g[0, 0] == pytest.approx(3.0 + penalty_grad, rel=1e-12)

    def test_non_scalar_task_loss_rejected(self):
        """A (1, 3) task loss would add the penalty to each entry, so a sum
        of the loss would count it three times."""
        tape = Tape()
        rho = tape.var([[0.3]])
        task = ad.const(np.zeros((1, 3)))
        with pytest.raises(ShapeError, match=r"\(1, 3\)"):
            total_loss(task, rho, 500, 256, PenaltyWeights())
