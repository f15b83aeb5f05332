"""Membership kernel shared by the discrete families.

Binomial and Poisson memberships come from the same randomized
Neyman-Pearson test, inverted into a fuzzy confidence interval (Geyer &
Meeden, 2005).  With p the mass function at tau, the membership of tau
after observing omega is

    clip((gamma - P[X < omega]) / p(omega), 0, 1)   for tau below o,
    clip((gamma - P[X > omega]) / p(omega), 0, 1)   for tau above o,

and the larger of the two at tau = o.  Per omega, each side has two
thresholds on the tau axis where the membership leaves 0 and reaches 1;
they come from quantiles of the family's conjugate distribution and short-
circuit the clamped regions, so the ratio is evaluated only between them.

A family object supplies what differs between the families:

- ``o``, ``gamma`` and ``tau_upper``: the parameter space is (0, tau_upper);
- ``check(omega, tau)``: raise ``ValueError`` outside the domain;
- ``thresholds(omega)``: ``(below_zero, below_one, above_one, above_zero)``,
  cached on the parameters other than o;
- ``slack_below(omega, tau)`` and ``slack_above(omega, tau)``: the two
  numerators above, each from whichever tail the family computes accurately;
- ``log_pmf(omega, tau)``, the log mass function, and ``support_upper(tau)``,
  the last omega a sum at tau needs.

A crisp comparison method supplies the same domain, mass and support parts
plus ``interval(omega)``, the endpoints of its interval.
"""

from __future__ import annotations

import math

from .length import DiscreteFamilyModel

__all__ = [
    "psi_lower",
    "psi_o",
    "coverage",
    "tau_breakpoints",
    "model",
    "crisp_membership",
    "crisp_coverage",
    "crisp_model",
]


def _randomized(slack: float, omega: int, tau: float, fam) -> float:
    if slack <= 0.0:
        return 0.0
    # The clamp absorbs float dust only; the ratio already lands in [0, 1].
    return min(1.0, max(0.0, math.exp(math.log(slack) - fam.log_pmf(omega, tau))))


def _psi_below(omega: int, tau: float, fam) -> float:
    zero, one, _, _ = fam.thresholds(omega)
    if tau <= zero:
        return 0.0
    if tau > one:
        return 1.0
    return _randomized(fam.slack_below(omega, tau), omega, tau, fam)


def _psi_above(omega: int, tau: float, fam) -> float:
    _, _, one, zero = fam.thresholds(omega)
    if tau <= one:
        return 1.0
    if tau > zero:
        return 0.0
    return _randomized(fam.slack_above(omega, tau), omega, tau, fam)


def psi_lower(omega: int, tau: float, fam) -> float:
    """One-sided membership for tau strictly below the reference point."""
    fam.check(omega, tau)
    if tau >= fam.o:
        raise ValueError(f"psi_lower requires tau < o, got tau={tau}, o={fam.o}")
    return _psi_below(omega, tau, fam)


def psi_o(omega: int, tau: float, fam) -> float:
    """Membership of tau after observing omega.

    At tau = o the two one-sided branch values are combined with max, which
    keeps the coverage at o at or above gamma.
    """
    fam.check(omega, tau)
    if tau < fam.o:
        return _psi_below(omega, tau, fam)
    if tau > fam.o:
        return _psi_above(omega, tau, fam)
    return max(_psi_below(omega, tau, fam), _psi_above(omega, tau, fam))


def _pmf(fam):
    return lambda omega, tau: math.exp(fam.log_pmf(omega, tau))


def _pmf_weighted(tau: float, fam, psi) -> float:
    fam.check(0, tau)  # omega = 0 lies in every support
    pmf = _pmf(fam)
    return math.fsum(
        pmf(w, tau) * psi(w, tau, fam) for w in range(fam.support_upper(tau) + 1)
    )


def coverage(tau: float, fam) -> float:
    """Probability mass the membership assigns to the truth at tau."""
    return _pmf_weighted(tau, fam, psi_o)


def tau_breakpoints(omega: int, fam) -> tuple[float, ...]:
    """Potential kinks/jumps of tau -> psi_o(omega | tau) inside the domain."""
    points = set(fam.thresholds(omega))
    points.add(fam.o)
    return tuple(sorted(p for p in points if 0.0 < p < fam.tau_upper))


def model(fam) -> DiscreteFamilyModel:
    """Expected-length engine handle for the proposed membership."""
    return DiscreteFamilyModel(
        label=repr(fam),
        psi=lambda w, t: psi_o(w, t, fam),
        pmf=_pmf(fam),
        support_upper=fam.support_upper,
        breakpoints=lambda w: tau_breakpoints(w, fam),
    )


def crisp_membership(omega: int, tau: float, method) -> float:
    """Indicator membership of a comparison method's interval."""
    method.check(omega, tau)
    lo, hi = method.interval(omega)
    return 1.0 if lo <= tau <= hi else 0.0


def crisp_coverage(tau: float, method) -> float:
    """Coverage of a comparison method's interval at tau."""
    return _pmf_weighted(tau, method, crisp_membership)


def crisp_model(method) -> DiscreteFamilyModel:
    """Expected-length engine handle for a comparison method."""
    return DiscreteFamilyModel(
        label=repr(method),
        psi=lambda w, t: crisp_membership(w, t, method),
        pmf=_pmf(method),
        support_upper=method.support_upper,
        breakpoints=lambda w: tuple(
            p for p in method.interval(w) if 0.0 < p < method.tau_upper
        ),
    )
