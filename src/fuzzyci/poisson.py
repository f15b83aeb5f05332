"""Poisson family: one count omega with mean tau.

The membership is built by :mod:`fuzzyci.discrete`; this module supplies
what is Poisson about it.  The branch thresholds come from the chi-square
tail identity ``P[X <= i-1 | tau] = 1 - F_chisq(2 tau; 2 i)``: the
membership for omega switches branches at half the chi-square quantiles.
Sums over omega run over a truncated support whose omitted tail mass is
certified below ``TRUNCATION_MASS``.  The score (Wilson-type) interval is
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
    """Smallest m with P[X <= m | tau_max] >= 1 - TRUNCATION_MASS."""
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be positive, got {tau_max}")
    if tau_max > 1e4:
        # Sums run over about tau terms; larger means are out of range.
        raise ValueError("support bound only implemented for tau_max <= 1e4")
    if tau_max > 700.0:
        return _support_bound_from_mode(tau_max)
    term = math.exp(-tau_max)
    total = term
    m = 0
    target = 1.0 - TRUNCATION_MASS
    while total < target:
        m += 1
        term *= tau_max / m
        total += term
    return m


def _support_bound_from_mode(tau: float) -> int:
    """:func:`support_bound` where exp(-tau) underflows.

    Masses relative to the mode's stay representable.  Sum them out from
    the mode to where they vanish, then drop upper-tail terms from the top
    while their share stays within the truncation mass.
    """
    mode = math.floor(tau)
    lower = [1.0]
    for k in range(mode, 0, -1):
        lower.append(lower[-1] * k / tau)
        if lower[-1] < 1e-300:
            break
    upper = [tau / (mode + 1)]
    while upper[-1] >= 1e-300:
        upper.append(upper[-1] * tau / (mode + 1 + len(upper)))
    m = mode + len(upper)
    total = math.fsum(lower + upper)
    tail = 0.0
    for term in reversed(upper):
        if (tail + term) / total > TRUNCATION_MASS:
            break
        tail += term
        m -= 1
    return m


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
