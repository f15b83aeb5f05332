"""Optimal membership construction for a pair of finite discrete measures.

Given probability measures mu and nu on a shared finite support and a
confidence level gamma, :func:`construct_psi_star` builds the membership
psi* in [0, 1]^n that minimizes the nu-mass among all memberships whose
mu-mass is at least gamma.  The construction partitions the support by
comparing the density ratio Y = dnu/dmu against its gamma-quantile under
mu: points below the quantile get psi = 1, points above get 0, ties at the
quantile share a single mass-splitting constant, and points carrying nu-mass
but no mu-mass (the singular part) get 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

__all__ = [
    "DiscreteMeasure",
    "PsiStar",
    "construct_psi_star",
]

_MASS_ATOL = 1e-12
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite discrete probability measure: point identifiers plus masses."""

    support: tuple[Hashable, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support contains duplicate identifiers")
        if any(m < 0.0 for m in self.mass):
            raise ValueError("masses must be nonnegative")
        total = math.fsum(self.mass)
        if abs(total - 1.0) > _MASS_ATOL:
            raise ValueError(f"masses must sum to 1, got {total!r}")

    @classmethod
    def from_weights(
        cls, support: Sequence[Hashable], weights: Sequence[float]
    ) -> "DiscreteMeasure":
        """Normalize nonnegative weights into a probability measure."""
        total = math.fsum(weights)
        if total <= 0.0:
            raise ValueError("weights must have positive total")
        return cls(tuple(support), tuple(w / total for w in weights))

    def __getitem__(self, point: Hashable) -> float:
        try:
            return self.mass[self.support.index(point)]
        except ValueError:
            return 0.0


@dataclass(frozen=True)
class PsiStar:
    """Optimal membership values plus the partition that produced them.

    ``psi`` is aligned with ``support``; ``partition`` labels each point
    A (psi = 1), B (psi = 0), C (psi = c_value) or D (no mu-mass, psi = 0).
    ``q_gamma`` is the gamma-quantile of the density ratio under mu and
    ``c_value`` the shared membership on the tie set C.
    """

    support: tuple[Hashable, ...]
    psi: tuple[float, ...]
    partition: tuple[str, ...]
    q_gamma: float
    c_value: float

    def expectation(self, measure: DiscreteMeasure) -> float:
        """Integral of psi against a measure (0 mass off this support)."""
        lookup = dict(zip(measure.support, measure.mass))
        return math.fsum(
            p * lookup.get(point, 0.0) for point, p in zip(self.support, self.psi)
        )


def _align(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Union support in deterministic order with aligned mass vectors."""
    support = list(mu.support)
    seen = set(mu.support)
    for point in nu.support:
        if point not in seen:
            support.append(point)
    mu_lookup = dict(zip(mu.support, mu.mass))
    nu_lookup = dict(zip(nu.support, nu.mass))
    mu_mass = [mu_lookup.get(p, 0.0) for p in support]
    nu_mass = [nu_lookup.get(p, 0.0) for p in support]
    return support, mu_mass, nu_mass


def _ratio_ties(y: float, q: float) -> bool:
    # Purely relative: tiny ratios of very different magnitude must not tie.
    if y == q:
        return True
    if math.isinf(y) or math.isinf(q):
        return False
    return abs(y - q) <= _TIE_RTOL * max(abs(y), abs(q))


def construct_psi_star(
    mu: DiscreteMeasure, nu: DiscreteMeasure, gamma: float
) -> PsiStar:
    """Membership minimizing nu-mass subject to mu-mass >= gamma.

    The mu-mass of the result equals gamma (up to rounding): the quantile
    cut keeps the constraint tight, so no nu-mass is spent beyond what the
    coverage requirement forces.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    support, mu_mass, nu_mass = _align(mu, nu)
    ratio = [
        (n / m) if m > 0.0 else math.inf for m, n in zip(mu_mass, nu_mass)
    ]

    # gamma-quantile of the ratio under mu; input order breaks exact ties
    # so the result is reproducible.
    order = sorted(
        (i for i in range(len(support)) if mu_mass[i] > 0.0),
        key=lambda i: (ratio[i], i),
    )
    cum = 0.0
    q = ratio[order[-1]]
    for i in order:
        cum += mu_mass[i]
        if cum >= gamma:
            q = ratio[i]
            break

    psi = [0.0] * len(support)
    labels = ["B"] * len(support)
    for i in range(len(support)):
        if mu_mass[i] == 0.0:
            labels[i] = "D"
            continue
        if _ratio_ties(ratio[i], q):
            labels[i] = "C"
        elif ratio[i] < q:
            labels[i] = "A"
            psi[i] = 1.0

    # Exact sums: at thousands of points, running sums drift c_value by 1e-10.
    mass_a = math.fsum(m for m, label in zip(mu_mass, labels) if label == "A")
    mass_c = math.fsum(m for m, label in zip(mu_mass, labels) if label == "C")
    if mass_c > 0.0:
        c_value = min(1.0, max(0.0, (gamma - mass_a) / mass_c))
    else:
        c_value = 0.0
    for i in range(len(support)):
        if labels[i] == "C":
            psi[i] = c_value

    return PsiStar(
        support=tuple(support),
        psi=tuple(psi),
        partition=tuple(labels),
        q_gamma=q,
        c_value=c_value,
    )
