"""Crisp memberships for a normal mean with known standard error, and their
expected interval lengths on a bounded parameter space.

The sample mean x is normal around the true mean tau with standard error
sigma.  The one-sided construction anchored at the reference point o gives
the indicator of ``(min(o, x - z_g*sigma), max(o, x + z_g*sigma))`` where
z_g is the one-sided normal quantile at gamma.  For comparison, the usual
two-sided interval (truncated to the parameter bounds when they are given)
is also provided.  With bounds [a, b] present, both expected lengths come
from Pratt's identity: the expected length at theta is the integral over
[a, b] of the probability that the interval covers tau, for either
membership an integral of Phi.  The lower-bound envelope is the anchored
expected length with o set to the true mean; each is cross-checked
against independent quadrature in the tests.

Both classes offer ``psi_means(means, taus)``, the membership of each tau
of an array after each sample mean of another, a row per tau and a column
per mean by broadcasting, ``psi(x, tau)``, one entry of it,
``coverage(taus)``, in the shape of taus, ``expected_length(theta)`` and
``lower_bound(theta)``.  The lower bound, and the anchored interval, read
the one-sided normal quantile at gamma, which exists for gamma down to
``QUANTILE_FLOOR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .length import _gauss_legendre
from .specfun import QUANTILE_FLOOR, normal_cdf, normal_pdf, normal_quantile, two_sided_z

__all__ = ["NormalFamily", "TwoSidedInterval"]


@lru_cache(maxsize=1024)
def _one_sided_z(gamma: float) -> float:
    if gamma < QUANTILE_FLOOR:
        raise ValueError(f"gamma must lie in [{QUANTILE_FLOOR:g}, 1) for the one-sided normal "
                         f"quantile that anchored intervals and lower bounds read, got {gamma}")
    return normal_quantile(gamma)


def _mass(lo: float, hi: float, theta: float, z: float, sigma: float) -> float:
    """Integral of Phi((tau - theta) / sigma + z) over tau in [lo, hi].

    Over a span of at least sigma it is the difference of the
    antiderivative sigma * G(u), G(u) = u Phi(u) + phi(u), written in tau
    units so that no product overflows.  Over a shorter span that
    difference would cancel; there the 10-node Gauss-Legendre rule
    integrates the smooth Phi to rounding accuracy.  Taking z rather than
    z * sigma keeps a huge sigma finite.
    """
    lo, hi = lo - theta, hi - theta
    if hi - lo < sigma:
        return _gauss_legendre(lambda t: normal_cdf(t / sigma + z), lo, hi)

    u_lo, u_hi, d = lo / sigma + z, hi / sigma + z, z * sigma
    return (
        (hi + d) * normal_cdf(u_hi) + sigma * normal_pdf(u_hi)
        - ((lo + d) * normal_cdf(u_lo) + sigma * normal_pdf(u_lo))
    )


class _Normal:
    """Sampling model shared by the proposed and the comparison membership.

    ``bounds`` restricts the parameter space to an interval [a, b]; the
    expected-length expressions require it.  Memberships take any real tau
    and vanish outside the bounds.
    """

    tau_lower = -math.inf
    tau_upper = math.inf

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.bounds is not None:
            a, b = self.bounds
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"bounds must be finite, got {self.bounds}")
            if not a < b:
                raise ValueError(f"bounds must satisfy a < b, got {self.bounds}")

    def _inside(self, tau) -> np.ndarray:
        a, b = self.bounds or (-math.inf, math.inf)
        return np.greater_equal(tau, a) & np.less_equal(tau, b)

    def psi(self, x: float, tau: float) -> float:
        """Membership of tau after the sample mean x: one entry of ``psi_means``."""
        return float(self.psi_means(np.array([x]), tau)[0])

    def _require_bounds(self) -> tuple[float, float]:
        if self.bounds is None:
            raise ValueError("expected lengths require bounds")
        return self.bounds

    def coverage(self, taus) -> np.ndarray:
        """Probability that the interval covers each tau, in the shape of taus.

        Every tau must lie in the bounds.
        """
        outside = np.extract(~self._inside(taus), taus)
        if outside.size:
            a, b = self.bounds or (-math.inf, math.inf)
            raise ValueError(f"tau must lie in [{a}, {b}], got {float(outside[0])}")
        return np.full(np.shape(taus), self.gamma)

    def lower_bound(self, theta: float) -> float:
        """Envelope below every membership's expected-length curve.

        The expected length at theta of the construction anchored at the
        true mean, o = theta.
        """
        return self._el_anchored(theta, theta)

    def _el_anchored(self, o: float, theta: float) -> float:
        """Expected length at theta of the membership anchored at o.

        Below o the interval covers tau when x < tau + z sigma, above o
        when x > tau - z sigma, the same event mirrored through zero.
        """
        a, b = self._require_bounds()
        z = _one_sided_z(self.gamma)
        return _mass(a, o, theta, z, self.sigma) + _mass(-b, -o, -theta, z, self.sigma)


@dataclass(frozen=True)
class NormalFamily(_Normal):
    """Reference point o, confidence gamma, standard error sigma."""

    o: float
    gamma: float
    sigma: float
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        super().__post_init__()
        _one_sided_z(self.gamma)  # the interval itself reads the quantile: check gamma now
        if not math.isfinite(self.o):
            raise ValueError(f"o must be finite, got {self.o}")
        if not self._inside(self.o):
            raise ValueError(f"o must lie inside the bounds {self.bounds}, got {self.o}")

    def psi_means(self, means: np.ndarray, taus) -> np.ndarray:
        """Indicator membership of the one-sided interval anchored at o, per tau and mean."""
        c = _one_sided_z(self.gamma) * self.sigma
        taus = np.asarray(taus)[..., None]
        inside = (np.minimum(self.o, means - c) < taus) & (taus < np.maximum(self.o, means + c))
        return (inside & self._inside(taus)).astype(float)

    def coverage(self, taus) -> np.ndarray:
        """gamma, except at o, where the crisp interval covers with 2 gamma - 1.

        Below gamma = 1/2 the interval never covers o, so the coverage there
        is 0, not the negative 2 gamma - 1.
        """
        covered = super().coverage(taus)
        return np.where(np.asarray(taus) == self.o, max(0.0, 2.0 * self.gamma - 1.0), covered)

    def expected_length(self, theta: float) -> float:
        """Expected length of the o-anchored membership at true mean theta."""
        return self._el_anchored(self.o, theta)


@dataclass(frozen=True)
class TwoSidedInterval(_Normal):
    """The usual two-sided interval, truncated to the bounds when given."""

    gamma: float
    sigma: float
    bounds: tuple[float, float] | None = None

    def psi_means(self, means: np.ndarray, taus) -> np.ndarray:
        d = two_sided_z(self.gamma) * self.sigma
        taus = np.asarray(taus)[..., None]
        inside = (means - d <= taus) & (taus <= means + d)
        return (inside & self._inside(taus)).astype(float)

    def expected_length(self, theta: float) -> float:
        """Expected length of the truncated two-sided membership at theta.

        The interval covers tau when tau - d <= x <= tau + d, d = z sigma.
        """
        a, b = self._require_bounds()
        z = two_sided_z(self.gamma)
        return _mass(a, b, theta, z, self.sigma) - _mass(a, b, theta, -z, self.sigma)
