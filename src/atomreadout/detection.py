"""Photon detection channel: Poisson count tails.

Scattered photons become detector counts through Bernoulli thinning at the net
collection+quantum efficiency; the background (stray light and detector dark
counts together) is one homogeneous Poisson process. Event times are
continuous and no dead time is modeled. The probe kernel in ``experiments``
samples these processes directly.
"""

from __future__ import annotations

import math


def poisson_tail_at_least(k: int, mean: float) -> float:
    """P(X >= k) for X ~ Poisson(mean), by direct partial summation.

    For k > mean the tail is summed upward from k (terms only decrease, no
    cancellation); otherwise the complement P(X < k) is small enough to
    subtract safely. Accurate to ~1e-15 relative either way.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if k == 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    if k > mean:
        term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total = term
        i = k
        while term > total * 1e-18:
            i += 1
            term *= mean / i
            total += term
        return min(total, 1.0)
    # k <= mean: tail is order unity, 1 - CDF(k-1) loses nothing
    term = math.exp(-mean)
    below = term
    for i in range(1, k):
        term *= mean / i
        below += term
    return 1.0 - below
