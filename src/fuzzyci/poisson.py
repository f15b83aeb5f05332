"""Poisson family: one count omega with mean tau.

The membership is built by :mod:`fuzzyci.discrete`; this module supplies
what is Poisson about it.  The branch thresholds come from the chi-square
tail identity ``P[X <= i-1 | tau] = 1 - F_chisq(2 tau; 2 i)``: the
membership for omega switches branches at half the chi-square quantiles.
Sums over omega run over a truncated support, 0..support_bound(tau): one
algorithm for every accepted mean 0 < tau <= 1e4, whose omitted tail mass
is at most ``TRUNCATION_MASS``.  The score (Wilson-type) interval is
the crisp comparison method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import Crisp, Randomized
from .specfun import (
    chisq_quantile,
    pois_cdf,
    pois_cdf_array,
    pois_log_pmf,
    pois_log_pmf_array,
    pois_log_pmf_column,
    two_sided_z,
)

__all__ = [
    "PoissonFamily",
    "ScoreInterval",
    "TRUNCATION_MASS",
    "MAX_OMEGA",
    "support_bound",
    "default_tau_max",
]

TRUNCATION_MASS = 1e-12
# support_bound(1e4): no count past it is in the support of an accepted mean.
MAX_OMEGA = 10711


def support_bound(tau_max: float) -> int:
    """Smallest m with P[X > m | tau_max] <= TRUNCATION_MASS.

    One algorithm for every accepted mean, 0 < tau_max <= 1e4: every sum over
    omega from 0 to this bound omits a mass of at most ``TRUNCATION_MASS``.
    """
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be positive, got {tau_max}")
    if tau_max > 1e4:
        # Sums run over about tau terms; larger means are out of range.
        raise ValueError("support bound only implemented for tau_max <= 1e4")
    # The masses fall from the mode upward, and the mode's exceeds the
    # truncation mass, so every count below the first small mass is in the
    # support.  Climb to that mass from the mode's, which stays representable
    # where exp(-tau_max) underflows.
    m = math.floor(tau_max)
    term = math.exp(pois_log_pmf(m, tau_max))
    while term > TRUNCATION_MASS:
        m += 1
        term *= tau_max / m
    # Keep the masses down to the cutoff.  From the first small mass on each
    # is less than 0.937 times the one before (the ratio tau_max / m, at every
    # accepted mean), so the masses below the cutoff sum to under 16e-32:
    # less than a thousandth of an ulp of TRUNCATION_MASS.
    kept = []
    cutoff = TRUNCATION_MASS * 1e-20
    while term >= cutoff:
        kept.append(term)
        m += 1
        term *= tau_max / m
    # m is now the first count below the cutoff, so P[X > m - 1] is nil.  Drop
    # kept masses from the small end while their sum stays within the
    # truncation mass, lowering the bound by one with each.
    tail = 0.0
    for term in reversed(kept):
        tail += term
        if tail > TRUNCATION_MASS:
            break
        m -= 1
    return m - 1


def default_tau_max(o: float) -> float:
    """Default upper end of the parameter integration range."""
    return o + 10.0 * math.sqrt(o) + 20.0


class _Poisson:
    """Sampling model shared by the proposed and the comparison membership."""

    tau_upper = math.inf

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    def check(self, omega: int, tau: float):
        if omega < 0:
            raise ValueError(f"omega must be a nonnegative integer, got {omega}")
        if not tau > 0.0:
            raise ValueError(f"tau must be positive, got {tau}")

    def log_pmf(self, omega: int, tau: float) -> float:
        return pois_log_pmf(omega, tau)

    def log_pmf_column(self, tau: float) -> np.ndarray:
        return pois_log_pmf_column(self.support_upper(tau), tau)

    def log_pmf_array(self, omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return pois_log_pmf_array(omega, tau)

    def support_upper(self, tau: float) -> int:
        return support_bound(tau)

    def reference(self, theta: float) -> "PoissonFamily":
        return PoissonFamily(theta, self.gamma)


@dataclass(frozen=True)
class PoissonFamily(_Poisson, Randomized):
    """Reference point o > 0, confidence gamma."""

    o: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.o < math.inf:
            raise ValueError(f"o must be positive and finite, got {self.o}")
        super().__post_init__()

    def solve_edge(self, level: float, k: int) -> float:
        """Half the level-quantile of chi-square with 2k degrees of freedom.

        Zero degrees of freedom is the point mass at zero.
        """
        return 0.5 * chisq_quantile(level, 2 * k) if k > 0 else 0.0

    def slack(self, omega: int, above: bool, tau: float) -> float:
        # gamma - P[X < omega] below o and gamma - P[X > omega] above it, both
        # through the CDF P[X <= k], k = omega - 1 or omega.
        cdf = pois_cdf(omega - 1 + above, tau)
        return self.gamma - 1.0 + cdf if above else self.gamma - cdf

    def slack_array(self, omega: np.ndarray, above: np.ndarray, tau: np.ndarray):
        # slack's expressions, elementwise.
        cdf = pois_cdf_array(omega - 1 + above, tau)
        return np.where(above, self.gamma - 1.0 + cdf, self.gamma - cdf)

    def slack_columns(self, p: np.ndarray):
        # The CDF P[X <= omega], as pois_cdf gives it; summing the upper
        # tail from the top of the truncated support would miss its mass.
        cdf = np.cumsum(p)
        return self.gamma - np.append(0.0, cdf[:-1]), self.gamma - 1.0 + cdf


@dataclass(frozen=True)
class ScoreInterval(_Poisson, Crisp):
    """The score interval as a crisp comparison membership."""

    gamma: float

    def endpoints(self, omega, sqrt=math.sqrt):
        """Endpoints of the score interval, before clipping."""
        z = two_sided_z(self.gamma)
        center = omega + 0.5 * z * z
        half = z * sqrt(omega + 0.25 * z * z)
        return center - half, center + half
