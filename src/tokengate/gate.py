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

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Var, sigmoid_values
from .config import RunConfig, check_ranges
from .errors import ParameterError

# Guard under which the gate counts as saturated and implicit gradients
# are clamped to zero instead of dividing by ~0.
SATURATION_GUARD = 1e-12

# Convergence criterion on the Newton step, well inside the 1e-9
# agreement required against a bisection oracle.
STEP_TOL = 1e-12


def _warn(message: str, *args) -> None:
    """Log a warning under this module's logger; ``logging`` loads with
    the first warning, so a run that gives none never imports it."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


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


def find_threshold(r, rho: float, tau_s: float) -> tuple[float, float]:
    """Solve sum_i sigmoid((r_i - t)/tau_s) = rho*M for the threshold t.

    A safeguarded Newton iteration (Numerical Recipes' ``rtsafe``) on the
    exact bracket [lo, hi] = [min r + o*tau_s, max r + o*tau_s] with
    o = ln((1 - rho)/rho): at t = lo every keep probability is at least
    sigmoid(-o) = rho, at t = hi at most rho, so the root lies in it.  It
    starts at the closed form t0 = mean(r) + o*tau_s, inside the bracket
    and the exact root when all scores are equal.  At rho = 1 there is no
    finite root; t = min r - tau*ln(1/residual_tol) already meets the
    residual and is returned.  Every evaluation narrows the bracket, and
    a Newton step that would leave it bisects it instead.  The solve
    stops at the evaluated point once the residual is within
    ``residual_tol*M`` and the next Newton step is below ``STEP_TOL``
    (relative) or below the step that rounding in the residual causes.
    After ``newton_iters`` evaluations without that, a bisection of the
    narrowed bracket finishes the job (the residual is strictly
    decreasing in t).  Every pass reuses one M-sized buffer.  Returns
    (t, |residual|).

    The inputs are plain numbers; ``residual_tol`` (1e-6) and
    ``newton_iters`` (6) are ``RunConfig`` class constants, not
    settings.  A rho outside (0, 1] or a tau_s outside the config's
    range (finite and >= 1e-6) raises ``ParameterError``.
    """
    r = _as_relevance(r)
    m = r.size
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"retention fraction must lie in (0, 1], got {rho}")
    check_ranges({"tau_s": tau_s}, ParameterError)

    target = rho * m
    tol = RunConfig.residual_tol * m
    buf = np.empty(m)
    if rho == 1.0:
        # No finite root.  At this t each token's drop probability is
        # sigmoid(ln residual_tol) < residual_tol, so the residual is in tol.
        t = float(r.min()) - tau_s * math.log(1.0 / RunConfig.residual_tol)
        return t, abs(_keep_sum(r, t, tau_s, buf) - target)
    log_odds = math.log((1.0 - rho) / rho)
    lo = float(r.min()) + log_odds * tau_s
    hi = float(r.max()) + log_odds * tau_s

    t = min(max(float(r.mean()) + tau_s * log_odds, lo), hi)
    for _ in range(RunConfig.newton_iters):
        s = _keep_probs(r, t, tau_s, buf)
        keep = float(s.sum())
        u = keep - target
        if u > 0:
            lo = t
        else:
            hi = t
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

    t = _bisect_threshold(r, target, tau_s, lo, hi, buf)
    return t, abs(_keep_sum(r, t, tau_s, buf) - target)


def _bisect_threshold(
    r: Array, target: float, tau: float, lo: float, hi: float, buf: Array
) -> float:
    # keep-sum is strictly decreasing in t, >= target at lo and <= target at hi
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
        _warn("saturated gate: threshold gradients clamped to zero")
        return 0.0, np.zeros(m)
    dt_drho = -m * tau_s / denom
    dt_dr = weights / denom
    return dt_drho, dt_dr


def threshold_var(r: Var, rho: Var, tau_s: float) -> tuple[Var, float]:
    """Tape-aware threshold solve; backward uses the implicit gradients.

    Takes the same plain numbers as ``find_threshold`` and returns
    (t, |residual|), the residual as ``find_threshold`` evaluated it at
    the returned t.
    """
    r_values = r.value.ravel()
    rho_value = rho.item()
    t, residual = find_threshold(r_values, rho_value, tau_s)

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
) -> tuple[Var, Var, Array]:
    """Gumbel straight-through gate with frozen noise.

    Builds the differentiable path soft_i = sigmoid(z_i / tau_s) with
    z_i = (r_i - t)/tau_s + g0_i - g1_i, takes the hard sample z_i > 0
    (argmax of the perturbed two-class logits), and returns
    (soft, straight_through, indices): indices are the kept tokens'
    int64 positions in ascending order.  Forward values of the straight
    through variable are the hard 0/1 mask; its gradient flows through
    the soft path.  If everything is dropped, the highest-relevance
    token is forced on, so at least one index is returned.
    """
    noise_diff = (noise[0] - noise[1]).reshape(1, -1)
    z = ad.add(ad.smul(ad.sub(r, t), 1.0 / tau_s), ad.const(noise_diff))
    soft = ad.sigmoid(ad.smul(z, 1.0 / tau_s))
    hard = (z.value.ravel() > 0.0).astype(np.float64)
    if hard.sum() < 1:
        hard[int(np.argmax(r.value.ravel()))] = 1.0
    st = ad.straight_through(soft, hard.reshape(1, -1))
    return soft, st, np.flatnonzero(hard)


def hard_top_n(r, n: int) -> Array:
    """Inference gate: the int64 indices of the min(n, M) highest-relevance
    tokens, ties to the lower index, in ascending order."""
    r = _as_relevance(r)
    m = r.size
    if n < 1:
        raise ParameterError(f"budget must be >= 1, got {n}")
    if n > m:
        _warn("budget %d exceeds token count %d; clamping", n, m)
        n = m
    # v is the n-th largest value: keep every r > v, then the
    # lowest-indexed r == v until n tokens are kept
    v = np.partition(r, m - n)[m - n]
    above = np.flatnonzero(r > v)
    tied = np.flatnonzero(r == v)[: n - above.size]
    return np.sort(np.concatenate([above, tied]))
