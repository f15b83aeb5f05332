"""Binomial family: omega successes in n trials with success probability tau.

The membership is built by :mod:`fuzzyci.discrete`; this module supplies
what is binomial about it.  Its tail kernel, the upper tail
P[X >= k | tau] over arrays, is the regularized incomplete beta
I(tau; k, n - k + 1), ``reg_inc_beta_array``; it gives the slacks of the
band integrals and the band edges.  Over the mass rows of a tau grid each
slack sums its small tail along omega: the CDF from omega = 0 above o, the
upper tail from n below.
The Agresti-Coull interval is the crisp comparison method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import Crisp, Randomized
from .specfun import (
    binom_log_pmf_array,
    binom_log_pmf_rows,
    reg_inc_beta_array,
    start_quantiles,
    two_sided_z,
)

__all__ = ["BinomialFamily", "AgrestiCoull", "MAX_N"]

# Mass rows and the log-factorial table hold n + 1 entries, so a larger n
# would exhaust memory before any sum ran.
MAX_N = 10**6


class _Binomial:
    """Sampling model shared by the proposed and the comparison membership."""

    tau_upper = 1.0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be an integer in [1, {MAX_N}], got {self.n}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    def check(self, omega: int, tau: float):
        if not 0 <= omega <= self.n:
            raise ValueError(f"omega must lie in [0, {self.n}], got {omega}")
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {tau}")

    def log_pmf_rows(self, taus: np.ndarray, top: int) -> np.ndarray:
        return binom_log_pmf_rows(self.n, taus)

    def log_pmf_array(self, omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return binom_log_pmf_array(omega, self.n, tau)

    def support_upper(self, tau: float) -> int:
        return self.n

    def reference(self, theta: float) -> "BinomialFamily":
        return BinomialFamily(self.n, theta, self.gamma)


@dataclass(frozen=True)
class BinomialFamily(_Binomial, Randomized):
    """n trials, reference point o in (0, 1), confidence gamma in (0, 1)."""

    n: int
    o: float
    gamma: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.o < 1.0:
            raise ValueError(f"o must lie in (0, 1), got {self.o}")

    def tail_array(self, k: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """P[X >= k | tau], the beta CDF I(tau; k, n - k + 1), for 0 <= k <= n + 1."""
        return reg_inc_beta_array(tau, k, self.n - k + 1)

    def edge_start(self, level: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Start of the tau where I(tau; k, n - k + 1) = level, for 1 <= k <= n.

        Abramowitz & Stegun 26.5.22 for the beta quantile, with its normal
        deviate from ``start_quantiles``; exact at k = 1, where the edge is
        1 - (1 - level)^(1/n), and at k = n, where it is level^(1/n).  It
        lies in the open interval (0, 1).
        """
        n, y = self.n, -start_quantiles(level)
        lam, inv_a, inv_b = (y * y - 3.0) / 6.0, 1.0 / (2 * k - 1), 1.0 / (2 * (n - k) + 1)
        h = 2.0 / (inv_a + inv_b)
        w = y * np.sqrt(lam + h) / h - (inv_b - inv_a) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        # k / (k + (n - k + 1) e^2w), which underflows rather than overflows.
        start = np.exp(-np.logaddexp(0.0, 2.0 * w + np.log((n - k + 1) / k)))
        start = np.where(k == n, level ** (1.0 / n), start)
        start = np.where(k == 1, 1.0 - (1.0 - level) ** (1.0 / n), start)
        return np.minimum(np.maximum(start, 5e-324), 1.0 - 2.0**-53)  # the floats next to 0 and 1

    def slack_rows(self, above: bool, taus: np.ndarray, p: np.ndarray):
        # Each side sums its small tail: the CDF P[X <= omega] from 0 above
        # o, the upper tail P[X >= omega] from n below it.
        if above:
            return self.gamma - 1.0 + np.cumsum(p, axis=1)
        return self.gamma - 1.0 + np.cumsum(p[:, ::-1], axis=1)[:, ::-1]


@dataclass(frozen=True)
class AgrestiCoull(_Binomial, Crisp):
    """The Agresti-Coull interval as a crisp comparison membership."""

    n: int
    gamma: float

    def endpoints(self, omega):
        """Endpoints of the Agresti-Coull interval, before clipping."""
        z = two_sided_z(self.gamma)
        n_tilde = self.n + z * z
        p_tilde = (omega + 0.5 * z * z) / n_tilde
        half = z * np.sqrt(p_tilde * (1.0 - p_tilde) / n_tilde)
        return p_tilde - half, p_tilde + half
