"""Count histograms, Wilson intervals, the survival lifetime and the Rabi fit.

The lifetime is a closed-form censored maximum-likelihood estimate. The
damped-sinusoid fit is a variable projection (Golub and Pereyra): the offset
and amplitude enter the model linearly, so at each (f, tau) they are solved by
linear least squares, and a Gauss-Newton search moves (f, tau) alone on
Kaufman's reduced Jacobian, the f and tau columns projected off the two linear
ones. The search starts at the peak of the data's spectrum, at or below the
scan's Nyquist limit, so it starts neither in the wrong fringe nor on an alias.
Each step is halved (up to ten times) until it lowers the cost, so the
residual history decreases; the search stops when no halved step lowers it, or
when the residual is at the data's rounding floor (1e-12 of the data's norm).
``converged`` means that stop with a relative gradient of at most 1e-6 on the
full four-column Jacobian, from which ``covariance_diag`` is also taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_ITERATIONS = 200
BIN_SLICE = 1 << 14   # counts binned at a time, so a narrow input is never copied whole to intp


def build_histogram(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Frequencies of the detected counts in unit bins from 0 to max(counts)."""
    values = np.asarray(counts)
    if not values.size:   # an empty list arrives as float64
        return np.zeros(0, np.intp)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError("counts must be integers")
    if values.min() < 0:
        raise ValueError("counts must be nonnegative")
    frequencies = np.zeros(int(values.max()) + 1, np.intp)
    for lo in range(0, values.size, BIN_SLICE):   # bincount takes intp: one slice's copy at a time
        part = values[lo:lo + BIN_SLICE]
        frequencies += np.bincount(part.astype(np.intp, copy=False), minlength=frequencies.size)
    return frequencies


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


def fit_damped_sinusoid(t: Sequence[float], p: Sequence[float]) -> FitResult:
    """Fit p(t) = C + A/2 * (1 - cos(2 pi f t) exp(-t/tau)), phase fixed at zero.

    Times must be evenly spaced, and are anchored at the first sample, so a
    uniform shift of the scan leaves the fitted parameters unchanged. The
    frequency is seeded from the largest nonzero-frequency bin of the data's
    spectrum, zero-padded 64-fold; every bin lies at or below the scan's
    Nyquist limit 1/(2 dt), above which a frequency is indistinguishable from
    its alias. The search starts there with tau = span and moves (f, tau)
    only: C and A are the linear least-squares coefficients at each (f, tau).
    """
    traw = np.asarray(t, dtype=float)
    ys = np.asarray(p, dtype=float)
    if traw.shape != ys.shape or traw.ndim != 1:
        raise ValueError("t and p must be one-dimensional and equally long")
    if not (np.isfinite(traw).all() and np.isfinite(ys).all()):
        raise ValueError("t and p must be finite")
    if traw.size < 8:
        raise ValueError("need at least 8 points")
    ts = traw - traw[0]
    span = float(ts[-1])
    if span <= 0:
        raise ValueError("times must span a positive interval")
    dt = span / (ts.size - 1)
    if np.max(np.abs(np.diff(ts) - dt)) > 1e-6 * dt:
        raise ValueError("times must be evenly spaced")

    try:   # t or p beyond float64's scale make the fit divide by zero or overflow
        return _fit_projected(ts, ys, dt)
    except (FloatingPointError, np.linalg.LinAlgError) as err:
        raise ValueError("t and p are scaled beyond what the fit can represent") from err


@np.errstate(divide="raise", over="raise", invalid="raise", under="ignore")
def _fit_projected(ts: np.ndarray, ys: np.ndarray, dt: float) -> FitResult:
    """The search of ``fit_damped_sinusoid`` on its checked times ``ts``, anchored at 0."""
    pad = 64 * ts.size
    spectrum = np.abs(np.fft.rfft(ys - ys.mean(), pad))
    f_seed = (1 + int(np.argmax(spectrum[1:]))) / (pad * dt)

    def project(f: float, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The basis [1, g] at (f, tau), its coefficients (C, A), the residual and its cost."""
        g = 0.5 * (1.0 - np.cos(2.0 * math.pi * f * ts) * np.exp(-ts / tau))
        basis = np.column_stack((np.ones_like(ts), g))
        coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
        r = ys - basis @ coef
        return basis, coef, r, float(r @ r)

    def jacobian(basis: np.ndarray, a: float, f: float, tau: float) -> np.ndarray:
        """The model's derivatives in (C, A, f, tau): the basis, then the (f, tau) columns."""
        theta = 2.0 * math.pi * f * ts
        damp = np.exp(-ts / tau)
        dm_df = a * math.pi * ts * np.sin(theta) * damp
        dm_dtau = -0.5 * a * np.cos(theta) * damp * ts / tau**2
        return np.column_stack((basis, dm_df, dm_dtau))

    nonlinear = np.array([f_seed, ts[-1]])
    basis, coef, r, cost = project(*nonlinear)
    history = [math.sqrt(cost)]
    floor = 1e-12 * float(np.linalg.norm(ys))   # the data's rounding floor
    for iterations in range(1, MAX_ITERATIONS + 1):
        stopped = perfect = history[-1] <= floor
        if perfect:
            break
        # Kaufman's reduced Jacobian: the (f, tau) columns projected off the basis
        cols = jacobian(basis, coef[1], *nonlinear)[:, 2:]
        reduced = cols - basis @ np.linalg.lstsq(basis, cols, rcond=None)[0]
        step = np.linalg.lstsq(reduced, r, rcond=None)[0]
        for _ in range(10):   # the Gauss-Newton step, halved up to ten times to lower the cost
            cand = nonlinear + step
            if np.all(cand > 0):
                trial = project(*cand)
                if trial[3] < cost:
                    break
            step = 0.5 * step
        else:
            stopped = True   # no damped step lowers the cost: a numerical stationary point
            break
        nonlinear = cand
        basis, coef, r, cost = trial
        history.append(math.sqrt(cost))
    jac = jacobian(basis, coef[1], *nonlinear)
    grad_measure = 0.0 if perfect else _relative_gradient(jac, r)
    sigma2 = cost / (r.size - jac.shape[1])
    cov = np.maximum(np.diag(np.linalg.pinv(jac.T @ jac)) * sigma2, 0.0)
    names = ("offset", "amplitude", "frequency", "decoherence_time")
    return FitResult(
        dict(zip(names, (float(v) for v in (*coef, *nonlinear)))),
        math.sqrt(cost),
        stopped and grad_measure <= 1e-6,
        iterations,
        dict(zip(names, (float(v) for v in cov))),
        tuple(history),
        grad_measure,
    )
