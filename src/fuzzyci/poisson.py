"""Poisson family: one count omega with mean tau.

The membership is built by :mod:`fuzzyci.discrete`; this module supplies
what is Poisson about it.  Its tail kernel, the upper tail
P[X >= k | tau] over arrays, is 1 - P[X <= k - 1 | tau] from
``pois_cdf_array``, one term recurrence at every mean, summed from 0 up to
tau = 700 and from tau - 10 sqrt(tau) above it; it gives the slacks of the
band integrals and the band edges.  Over the mass rows of a tau grid both
slacks come from the CDF, summed up from omega = 0.
Sums over omega run over a truncated support, 0..support_bound(tau): one
algorithm for every accepted mean 0 < tau <= 1e4, whose omitted tail mass
is at most ``TRUNCATION_MASS``.  The rows of a coverage grid share the
bound of its largest tau, which certifies every row, as P[X > m | tau]
increases with tau; proposed and score coverage alike sum each row to that
bound.  The score (Wilson-type) interval is the crisp comparison method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import Crisp, Randomized
from .specfun import (
    EXP_NORMAL_MAX, pois_cdf_array, pois_log_pmf_array, pois_log_pmf_rows, start_quantiles,
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
    term = math.exp(-tau_max + m * math.log(tau_max) - math.lgamma(m + 1))
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

    def log_pmf_rows(self, taus: np.ndarray, top: int) -> np.ndarray:
        return pois_log_pmf_rows(top, taus)

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

    def tail_array(self, k: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """P[X >= k | tau], one minus the CDF at k - 1, for k >= 0."""
        return 1.0 - pois_cdf_array(k - 1, tau)

    def edge_start(self, level: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Start of the tau where P(k, tau) = level, for k >= 1: Wilson-Hilferty.

        The gamma quantile k (1 - 1/(9k) + z / (3 sqrt k))^3, with z from
        ``start_quantiles``.  At a small k and a tiny level the cube root
        goes negative; it is clipped at 0.1, a start the tail kernel still
        resolves, rather than at a tiny one where the tail rounds to 0 and
        the pdf underflows.
        """
        root = 1.0 - 1.0 / (9.0 * k) + start_quantiles(level) / (3.0 * np.sqrt(k))
        return k * np.maximum(root, 0.1) ** 3

    def slack_rows(self, above: bool, taus: np.ndarray, p: np.ndarray):
        # Both from the CDF P[X <= omega], summed up from 0, so a row needs
        # no mass past its last count.  Up to EXP_NORMAL_MAX, where exp(-tau)
        # is still normal, the CDF is pois_cdf_array's term recurrence, with
        # exp(-tau) from math: its terms keep their relative accuracy where
        # the log masses p lose some (3e-11 in psi at tau = 350 below o).
        small = taus <= EXP_NORMAL_MAX
        cdf = np.empty_like(p)
        cdf[~small] = np.cumsum(p[~small], axis=1)
        t = taus[small]
        head = [math.exp(-tau) for tau in t.tolist()]
        terms = np.column_stack((head, t[:, None] / np.arange(1, p.shape[1])))
        cdf[small] = np.cumsum(np.cumprod(terms, axis=1), axis=1)
        if above:
            return self.gamma - 1.0 + cdf
        return self.gamma - np.hstack((np.zeros((len(p), 1)), cdf[:, :-1]))


@dataclass(frozen=True)
class ScoreInterval(_Poisson, Crisp):
    """The score interval as a crisp comparison membership."""

    gamma: float

    def endpoints(self, omega):
        """Endpoints of the score interval, before clipping."""
        z = two_sided_z(self.gamma)
        center = omega + 0.5 * z * z
        half = z * np.sqrt(omega + 0.25 * z * z)
        return center - half, center + half
