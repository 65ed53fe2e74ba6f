"""Keep/drop gating of visual tokens.

Training uses a differentiable gate: a scalar threshold t is solved so
the tempered sigmoid keep-probabilities sum to the target budget rho*M,
then a two-class Gumbel straight-through sample turns the per-token
margins into hard keep decisions whose expectation matches the budget.
Inference takes the hard Top-n by relevance.

The logits fed to the Gumbel sampler are pre-scaled by 1/tau_s so the
hard sample's keep probability equals sigmoid((r_i - t)/tau_s) — the
same quantity the threshold equation controls.  Without that scaling
the expected kept count would not match rho*M for tau_s != 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var, sigmoid_values
from .config import RunConfig
from .errors import ParameterError

logger = logging.getLogger(__name__)

# Guard under which the gate counts as saturated and implicit gradients
# are clamped to zero instead of dividing by ~0.
SATURATION_GUARD = 1e-12

# Convergence criterion on the Newton step, well inside the 1e-9
# agreement required against a bisection oracle.
STEP_TOL = 1e-12


@dataclass
class KeepMask:
    """The kept token indices, nonempty and strictly ascending."""

    indices: Array

    def __post_init__(self) -> None:
        if self.indices.size < 1:
            raise ParameterError("keep mask must retain at least one token")
        if np.any(np.diff(self.indices) <= 0):
            raise ParameterError("kept indices must be strictly ascending")

    @property
    def count(self) -> int:
        return int(self.indices.size)


def _as_relevance(r) -> Array:
    r = np.asarray(r, dtype=np.float64).ravel()
    if r.size < 1:
        raise ParameterError("relevance vector must be nonempty")
    if not np.isfinite(r).all():
        raise ParameterError("relevance vector must be finite")
    return r


def _keep_probs(r: Array, t: float, tau: float, buf: Array) -> Array:
    """Fill the M-sized ``buf`` with sigmoid((r - t)/tau) and return it."""
    np.subtract(r, t, out=buf)
    buf /= tau
    return sigmoid_values(buf, out=buf)


def _keep_sum(r: Array, t: float, tau: float, buf: Array) -> float:
    return float(_keep_probs(r, t, tau, buf).sum())


def find_threshold(
    r, rho: float, tau_s: float, cfg: RunConfig = RunConfig()
) -> tuple[float, float]:
    """Solve sum_i sigmoid((r_i - t)/tau_s) = rho*M for the threshold t.

    A safeguarded Newton iteration (Numerical Recipes' ``rtsafe``).  It
    starts at the closed form t0 = mean(r) + tau_s*ln((1 - rho)/rho),
    the exact root when all scores are equal, clamped to the bracket
    [lo, hi] = [min r - max(margin, -o)*tau, max r + max(margin, o)*tau]
    with o = ln((1 - rho)/rho), which holds the root.  At rho = 1
    there is no finite root; t = min r - tau*ln(1/residual_tol) already
    meets the residual and is returned.  Every evaluation narrows the sign
    bracket, and a Newton step that would leave it bisects it instead.
    The solve stops at the evaluated point once the residual is within
    ``residual_tol*M`` and the next Newton step is below ``STEP_TOL``
    (relative) or below the step that rounding in the residual causes.
    After ``newton_iters`` evaluations without that, a bisection of the
    narrowed bracket finishes the job (the residual is strictly
    decreasing in t).  Every pass reuses one M-sized buffer.  Returns
    (t, |residual|).
    """
    r = _as_relevance(r)
    m = r.size
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"retention fraction must lie in (0, 1], got {rho}")
    if not 0.0 < tau_s < math.inf:
        raise ParameterError(f"gate temperature must be positive and finite, got {tau_s}")

    target = rho * m
    tol = cfg.residual_tol * m
    buf = np.empty(m)
    if rho == 1.0:
        # No finite root.  At this t each token's drop probability is
        # sigmoid(ln residual_tol) < residual_tol, so the residual is in tol.
        t = float(r.min()) - tau_s * math.log(1.0 / cfg.residual_tol)
        return t, abs(_keep_sum(r, t, tau_s, buf) - target)
    # The root lies within tau_s*|ln((1 - rho)/rho)| outside [min r, max r]:
    # the clamp bracket widens to reach it when rho is near 0 or 1.
    log_odds = math.log((1.0 - rho) / rho)
    lo = float(r.min()) - max(cfg.clamp_margin, -log_odds) * tau_s
    hi = float(r.max()) + max(cfg.clamp_margin, log_odds) * tau_s
    lo_ok = hi_ok = False  # has an evaluation confirmed the bracket end's sign?

    t = min(max(float(r.mean()) + tau_s * log_odds, lo), hi)
    for _ in range(cfg.newton_iters):
        s = _keep_probs(r, t, tau_s, buf)
        keep = float(s.sum())
        u = keep - target
        if u > 0:
            lo, lo_ok = t, True
        else:
            hi, hi_ok = t, True
        slope = keep - float(s @ s)  # tau_s * |du/dt| = sum s_i(1 - s_i)
        if slope > SATURATION_GUARD:
            step = u * tau_s / slope
            # A nearly saturated gate has so flat a slope that u's rounding
            # error (about eps*M) alone moves t by more than STEP_TOL.
            noise = m * np.finfo(float).eps * tau_s / slope
            if abs(u) <= tol and abs(step) <= max(STEP_TOL * max(1.0, abs(t)), noise):
                return t, abs(u)
            t += step
        if not lo < t < hi:  # saturated, or Newton left the bracket
            t = 0.5 * (lo + hi)

    t = _bisect_threshold(r, target, tau_s, lo, hi, lo_ok, hi_ok, buf)
    return t, abs(_keep_sum(r, t, tau_s, buf) - target)


def _bisect_threshold(
    r: Array, target: float, tau: float, lo: float, hi: float, lo_ok: bool, hi_ok: bool, buf: Array
) -> float:
    # keep-sum is strictly decreasing in t: u(lo) > 0 > u(hi) for any
    # attainable target; expand an end no evaluation has confirmed
    # until saturation no longer spoils it
    for _ in range(0 if lo_ok else 60):
        if _keep_sum(r, lo, tau, buf) - target > 0:
            break
        lo -= 10.0 * tau
    for _ in range(0 if hi_ok else 60):
        if _keep_sum(r, hi, tau, buf) - target <= 0:
            break
        hi += 10.0 * tau
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _keep_sum(r, mid, tau, buf) - target > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def threshold_gradients(r, rho: float, t: float, tau_s: float) -> tuple[float, Array]:
    """Implicit-function derivatives of the solved threshold.

    dt/drho = -M*tau / sum s_i(1-s_i) and dt/dr_i = s_i(1-s_i) / sum_j s_j(1-s_j)
    with s_i = sigmoid((r_i - t)/tau).  A saturated gate (vanishing
    denominator) clamps both to zero with a warning.
    """
    r = _as_relevance(r)
    m = r.size
    s = _keep_probs(r, t, tau_s, np.empty(m))
    weights = s * (1.0 - s)
    denom = float(weights.sum())
    if denom < SATURATION_GUARD:
        logger.warning("saturated gate: threshold gradients clamped to zero")
        return 0.0, np.zeros(m)
    dt_drho = -m * tau_s / denom
    dt_dr = weights / denom
    return dt_drho, dt_dr


def threshold_var(
    r: Var, rho: Var, tau_s: float, cfg: RunConfig = RunConfig()
) -> tuple[Var, float]:
    """Tape-aware threshold solve; backward uses the implicit gradients.

    Returns (t, |residual|), the residual as ``find_threshold`` evaluated
    it at the returned t.
    """
    r_values = r.value.ravel()
    rho_value = rho.item()
    t, residual = find_threshold(r_values, rho_value, tau_s, cfg)

    def backward(g):
        dt_drho, dt_dr = threshold_gradients(r_values, rho_value, t, tau_s)
        g0 = g[0, 0]
        return (g0 * dt_dr.reshape(1, -1), np.array([[g0 * dt_drho]]))

    return ad.apply(np.array([[t]]), (r, rho), backward), residual


def sample_gumbel_pairs(m: int, rng: np.random.Generator) -> Array:
    """Two independent Gumbel(0, 1) draws per token, shape (2, M)."""
    u = rng.random((2, m))
    return -np.log(-np.log(u + 1e-20) + 1e-20)


def soft_gate_apply(
    r: Var, t: Var, tau_s: float, noise: Array
) -> tuple[Var, Var, KeepMask]:
    """Gumbel straight-through gate with frozen noise.

    Builds the differentiable path soft_i = sigmoid(z_i / tau_s) with
    z_i = (r_i - t)/tau_s + g0_i - g1_i, takes the hard sample z_i > 0
    (argmax of the perturbed two-class logits), and returns
    (soft, straight_through, mask).  Forward values of the straight
    through variable are the hard 0/1 mask; its gradient flows through
    the soft path.  If everything is dropped, the highest-relevance
    token is forced on.
    """
    noise_diff = (noise[0] - noise[1]).reshape(1, -1)
    z = ad.add(ad.smul(ad.sub(r, t), 1.0 / tau_s), ad.const(noise_diff))
    soft = ad.sigmoid(ad.smul(z, 1.0 / tau_s))
    hard = (z.value.ravel() > 0.0).astype(np.float64)
    if hard.sum() < 1:
        hard[int(np.argmax(r.value.ravel()))] = 1.0
    st = ad.straight_through(soft, hard.reshape(1, -1))
    return soft, st, KeepMask(np.flatnonzero(hard))


def hard_top_n(r, n: int) -> KeepMask:
    """Inference gate: the n highest-relevance tokens, ties to the lower
    index, returned in ascending index order."""
    r = _as_relevance(r)
    m = r.size
    if n < 1:
        raise ParameterError(f"budget must be >= 1, got {n}")
    if n > m:
        logger.warning("budget %d exceeds token count %d; clamping", n, m)
        n = m
    # v is the n-th largest value: keep every r > v, then the
    # lowest-indexed r == v until n tokens are kept
    v = np.partition(r, m - n)[m - n]
    above = np.flatnonzero(r > v)
    tied = np.flatnonzero(r == v)[: n - above.size]
    return KeepMask(np.sort(np.concatenate([above, tied])))
