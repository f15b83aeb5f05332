"""Crisp membership for a normal mean with known sigma, and its expected
interval lengths on a bounded parameter space.

The one-sided construction anchored at the reference point o gives the
indicator of ``(min(o, x - z_g*se), max(o, x + z_g*se))`` where x is the
sample mean, se the standard error and z_g the one-sided normal quantile at
gamma.  For comparison, the usual two-sided interval (optionally truncated
to the parameter bounds) is also provided.  With bounds present, the
expected lengths of both memberships and the lower-bound envelope all have
closed forms in Phi and Gaussian exponentials; each is cross-checked against
an independent quadrature oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .specfun import normal_cdf, normal_quantile, two_sided_z

__all__ = [
    "NormalFamily",
    "psi_o",
    "psi_standard",
    "el_psi_o_closed",
    "el_psi_nl_closed",
    "el_lower_bound",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class NormalFamily:
    """Reference point o, confidence gamma, known sigma, sample size n.

    ``bounds`` restricts the parameter space to an interval [a, b]; the
    expected-length expressions require it.
    """

    o: float
    gamma: float
    sigma: float
    n: int = 1
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.bounds is not None:
            a, b = self.bounds
            if not a < b:
                raise ValueError(f"bounds must satisfy a < b, got {self.bounds}")
            if not a <= self.o <= b:
                raise ValueError(
                    f"o must lie inside the bounds {self.bounds}, got {self.o}"
                )

    @property
    def stderr(self) -> float:
        return self.sigma / math.sqrt(self.n)


@lru_cache(maxsize=1024)
def _one_sided_z(gamma: float) -> float:
    return normal_quantile(gamma)


def psi_o(x: float, tau: float, fam: NormalFamily) -> float:
    """Indicator membership of the one-sided interval anchored at o."""
    c = _one_sided_z(fam.gamma) * fam.stderr
    inside = min(fam.o, x - c) < tau < max(fam.o, x + c)
    if fam.bounds is not None:
        a, b = fam.bounds
        inside = inside and a <= tau <= b
    return 1.0 if inside else 0.0


def psi_standard(x: float, tau: float, fam: NormalFamily) -> float:
    """Indicator of the usual two-sided interval, truncated if bounded."""
    d = two_sided_z(fam.gamma) * fam.stderr
    inside = x - d <= tau <= x + d
    if fam.bounds is not None:
        a, b = fam.bounds
        inside = inside and a <= tau <= b
    return 1.0 if inside else 0.0


def _require_bounds(fam: NormalFamily) -> tuple[float, float]:
    if fam.bounds is None:
        raise ValueError("expected-length closed forms require bounds")
    return fam.bounds


def _gauss(t: float, s: float) -> float:
    """s * phi(t / s): the Gaussian exponential terms of the closed forms."""
    return s * _INV_SQRT_2PI * math.exp(-0.5 * (t / s) ** 2)


def el_psi_o_closed(theta: float, fam: NormalFamily) -> float:
    """Expected length of the o-anchored membership at true mean theta."""
    a, b = _require_bounds(fam)
    s = fam.stderr
    o = fam.o
    c = _one_sided_z(fam.gamma) * s

    def cdf(t):
        return normal_cdf(t / s)

    return (
        (b - o) * (1.0 - cdf(b - c - theta))
        + (o - a) * cdf(a + c - theta)
        + (theta - (o - c)) * (cdf(b - c - theta) - cdf(o - c - theta))
        + (_gauss(o - c - theta, s) - _gauss(b - c - theta, s))
        + (o + c - theta) * (cdf(o + c - theta) - cdf(a + c - theta))
        - (_gauss(a + c - theta, s) - _gauss(o + c - theta, s))
    )


def el_psi_nl_closed(theta: float, fam: NormalFamily) -> float:
    """Expected length of the truncated two-sided membership at theta.

    Two regimes: when the interval half-width is small enough that a full
    untruncated interval fits inside [a, b], and when it is not.  The
    boundary case belongs to the first regime; both expressions agree there.
    """
    a, b = _require_bounds(fam)
    s = fam.stderr
    d = two_sided_z(fam.gamma) * s

    def cdf(t):
        return normal_cdf(t / s)

    if a + d <= b - d:
        return (
            (theta - a + d) * (cdf(a + d - theta) - cdf(a - d - theta))
            + (_gauss(a - d - theta, s) - _gauss(a + d - theta, s))
            + 2.0 * d * (cdf(b - d - theta) - cdf(a + d - theta))
            + (b + d - theta) * (cdf(b + d - theta) - cdf(b - d - theta))
            - (_gauss(b - d - theta, s) - _gauss(b + d - theta, s))
        )
    return (
        (theta - a + d) * (cdf(b - d - theta) - cdf(a - d - theta))
        + (_gauss(a - d - theta, s) - _gauss(b - d - theta, s))
        + (b - a) * (cdf(a + d - theta) - cdf(b - d - theta))
        + (b + d - theta) * (cdf(b + d - theta) - cdf(a + d - theta))
        - (_gauss(a + d - theta, s) - _gauss(b + d - theta, s))
    )


def el_lower_bound(theta: float, fam: NormalFamily) -> float:
    """Envelope below every membership's expected-length curve.

    Equals the expected length of the construction tuned to the true mean,
    i.e. :func:`el_psi_o_closed` with o = theta.
    """
    a, b = _require_bounds(fam)
    s = fam.stderr
    gamma = fam.gamma
    z = _one_sided_z(gamma)
    c = z * s

    def cdf(t):
        return normal_cdf(t / s)

    return (
        (b - theta) * (1.0 - cdf(b - c - theta))
        + (theta - a) * cdf(a + c - theta)
        + c * (cdf(b - c - theta) - 1.0 + gamma)
        + (_gauss(c, s) - _gauss(b - c - theta, s))
        + c * (gamma - cdf(a + c - theta))
        - (_gauss(a + c - theta, s) - _gauss(c, s))
    )
