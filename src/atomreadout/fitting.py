"""Count histograms, Wilson intervals, the survival lifetime and the Rabi fit.

The lifetime is a closed-form censored maximum-likelihood estimate. The
damped-sinusoid fit is a damped normal-equations (Levenberg-Marquardt)
refinement with analytic Jacobians; it takes its frequency seed from the peak
of the data's spectrum, at or below the scan's Nyquist limit, so the
refinement starts neither in the wrong fringe nor on an alias. Steps that would
increase the residual are rejected, so the recorded residual history is
non-increasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MAX_ITERATIONS = 200
RELATIVE_PARAMETER_TOL = 1e-6


def build_histogram(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Frequencies of the detected counts in unit bins from 0 to max(counts)."""
    values = np.asarray(counts)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ValueError("counts must be integers")
    values = values.astype(np.int64, copy=False)   # an empty list arrives as float64
    if values.size and values.min() < 0:
        raise ValueError("counts must be nonnegative")
    return np.bincount(values)


def binomial_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = 1.9599639845400536  # NormalDist().inv_cdf(0.975), the two-sided 95% quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the bounds are exactly 0 and 1 at the empty/full edges; keep them so
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == trials else min(center + half, 1.0)
    return low, high


@dataclass(frozen=True)
class FitResult:
    """Fit outcome. ``gradient_norm`` is the scale-free stationarity measure
    max_j |J_j . r| / (||J_j|| ||r||); ``converged`` implies it is below 1e-6."""

    parameters: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    covariance_diag: dict[str, float]
    residual_history: tuple[float, ...]
    gradient_norm: float


def _relative_gradient(jac: np.ndarray, r: np.ndarray) -> float:
    """Stationarity measure: largest cosine between the residual and a Jacobian column."""
    col_norms = np.linalg.norm(jac, axis=0)
    grad = np.abs(jac.T @ r)
    safe = np.where(col_norms > 0.0, col_norms, 1.0)
    return float(np.max(grad / (safe * np.linalg.norm(r))))


def _levenberg_marquardt(
    names: tuple[str, ...],
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    accept: Callable[[np.ndarray], bool],
) -> FitResult:
    """Refine ``p0``; ``accept`` rejects candidate steps outside the model's domain."""
    p = np.asarray(p0, dtype=float)
    r = residual(p)
    cost = float(r @ r)
    history = [math.sqrt(cost)]
    lam = 1e-3
    stationary = perfect = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(p)
        jtj = jac.T @ jac
        grad = jac.T @ r
        stepped = False
        for _ in range(60):
            damping = lam * np.diag(np.clip(np.diag(jtj), 1e-12, None))
            try:
                step = np.linalg.solve(jtj + damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = p + step
            if not accept(cand):
                lam *= 10.0
                continue
            r_new = residual(cand)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                stepped = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not stepped:
            # no damped step improves the cost: a numerical stationary point
            stationary = True
            break
        rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(cand), 1e-30)))
        improvement = cost - cost_new
        p, r, cost = cand, r_new, cost_new
        history.append(math.sqrt(cost))
        lam = max(lam * 0.2, 1e-12)
        # residuals at the rounding floor of the data: a perfect fit
        perfect = math.sqrt(cost) <= 1e-12 * max(history[0], 1e-300)
        if perfect or rel_step < RELATIVE_PARAMETER_TOL or improvement <= 1e-12 * max(cost, 1e-300):
            stationary = True
            break
    jac = jacobian(p)
    grad_measure = 0.0 if perfect else _relative_gradient(jac, r)
    sigma2 = cost / (r.size - p.size)
    cov = np.maximum(np.diag(np.linalg.pinv(jac.T @ jac)) * sigma2, 0.0)
    return FitResult(
        dict(zip(names, (float(v) for v in p))),
        math.sqrt(cost),
        stationary and grad_measure <= 1e-6,
        iterations,
        dict(zip(names, (float(v) for v in cov))),
        tuple(history),
        grad_measure,
    )


def fit_exponential(lost: float, at_risk: float) -> FitResult:
    """Censored maximum-likelihood lifetime of a geometric per-cycle loss.

    ``lost`` atoms were lost within the run, over ``at_risk`` cycles at risk:
    every completed cycle, plus each lost atom's cycle of loss. The loss per
    cycle is p = lost / at_risk, with Fisher variance p(1 - p) / at_risk, and
    the lifetime L = -1 / ln(1 - p) takes its variance by the delta method.
    Nothing is iterated or fitted to residuals: ``iterations``, ``residual_norm``
    and ``gradient_norm`` are 0 and ``residual_history`` is empty.
    """
    if not 0 < lost < at_risk:
        raise ValueError("need 0 < lost < at_risk")
    p = lost / at_risk
    p_var = p * (1.0 - p) / at_risk
    log_kept = math.log1p(-p)
    dlifetime_dp = 1.0 / ((1.0 - p) * log_kept**2)
    return FitResult(
        parameters={"lifetime": -1.0 / log_kept, "loss_per_cycle": p},
        residual_norm=0.0,
        converged=True,
        iterations=0,
        covariance_diag={"lifetime": dlifetime_dp**2 * p_var, "loss_per_cycle": p_var},
        residual_history=(),
        gradient_norm=0.0,
    )


def _sinusoid_model(p: np.ndarray, ts: np.ndarray) -> np.ndarray:
    c, a, f, tau = p
    return c + 0.5 * a * (1.0 - np.cos(2.0 * math.pi * f * ts) * np.exp(-ts / tau))


def fit_damped_sinusoid(t: Sequence[float], p: Sequence[float]) -> FitResult:
    """Fit p(t) = C + A/2 * (1 - cos(2 pi f t) exp(-t/tau)), phase fixed at zero.

    Times must be evenly spaced, and are anchored at the first sample, so a
    uniform shift of the scan leaves the fitted parameters unchanged. The
    frequency is seeded from the largest nonzero-frequency bin of the data's
    spectrum, zero-padded 64-fold; every bin lies at or below the scan's
    Nyquist limit 1/(2 dt), above which a frequency is indistinguishable from
    its alias. C and A are then the linear least-squares coefficients at that
    frequency and tau = span, and a four-parameter refinement follows.
    """
    traw = np.asarray(t, dtype=float)
    ys = np.asarray(p, dtype=float)
    if traw.shape != ys.shape or traw.ndim != 1:
        raise ValueError("t and p must be one-dimensional and equally long")
    if traw.size < 8:
        raise ValueError("need at least 8 points")
    ts = traw - traw[0]
    span = float(ts[-1])
    if span <= 0:
        raise ValueError("times must span a positive interval")
    dt = span / (ts.size - 1)
    if np.max(np.abs(np.diff(ts) - dt)) > 1e-6 * dt:
        raise ValueError("times must be evenly spaced")

    pad = 64 * ts.size
    spectrum = np.abs(np.fft.rfft(ys - ys.mean(), pad))
    f_seed = (1 + int(np.argmax(spectrum[1:]))) / (pad * dt)
    fringe = -np.cos(2.0 * math.pi * f_seed * ts) * np.exp(-ts / span)
    (b0, b1), *_ = np.linalg.lstsq(np.column_stack((np.ones_like(ts), fringe)), ys, rcond=None)
    p0 = np.array([b0 - b1, 2.0 * b1, f_seed, span])

    def residual(q: np.ndarray) -> np.ndarray:
        return ys - _sinusoid_model(q, ts)

    def jacobian(q: np.ndarray) -> np.ndarray:
        _, a, f, tau = q
        theta = 2.0 * math.pi * f * ts
        damp = np.exp(-ts / tau)
        cos_t = np.cos(theta)
        dm_dc = np.ones_like(ts)
        dm_da = 0.5 * (1.0 - cos_t * damp)
        dm_df = 0.5 * a * 2.0 * math.pi * ts * np.sin(theta) * damp
        dm_dtau = -0.5 * a * cos_t * damp * ts / tau**2
        return -np.column_stack((dm_dc, dm_da, dm_df, dm_dtau))

    def accept(q: np.ndarray) -> bool:
        return q[2] > 0 and q[3] > 0

    names = ("offset", "amplitude", "frequency", "decoherence_time")
    return _levenberg_marquardt(names, residual, jacobian, p0, accept)
