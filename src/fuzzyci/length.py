"""Expected-length engine for discrete membership families.

The expected length at a true parameter theta is the outer expectation,
under the sampling distribution at theta, of the Lebesgue mass each
observation's membership assigns over the parameter axis (Pratt, 1961).
The outer sum is an exact pmf summation over the (truncated) support; the
inner integrals run on adaptive Gauss-Legendre quadrature.

For a proposed (:class:`~fuzzyci.discrete.Randomized`) family the inner
mass comes from band integrals.  The membership of omega is its branch
``psi_below`` below o and ``psi_above`` above it, and neither branch depends
on o.  Each branch is 0 or 1 outside its randomized band, between two of the
family's thresholds, so the mass at any anchor o is flat lengths plus the
full-band integrals, except for the band that contains o, which needs one
partial integral.  The full-band integrals are kept per quadrature spec in
the memo of the family's o-free model (see :mod:`fuzzyci.discrete`), so every
reference family of an envelope, and every curve of one figure, reads the
same entries.  Envelope points are kept there too, per quadrature spec and
theta, so the commands of a figure that share an envelope compute each point
once.

Any other family, a crisp comparison method for one, takes the generic
route: panels pre-split at the family's breakpoints (adaptive bisection
converges poorly across kinks, and open nodes keep jump points harmless).
That route is also the independent check on the band route.

A family is the model: the engine reads its ``psi(omega, tau)``,
``breakpoints(omega)``, ``log_pmf(omega, theta)`` and
``support_upper(theta)`` (see :mod:`fuzzyci.discrete`).  The envelope no
admissible membership's curve can undercut is the expected length at theta
of ``reference(theta)``, the proposed family anchored at o = theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .discrete import Randomized
from .specfun import ConvergenceError

__all__ = [
    "QuadratureSpec",
    "interval_mass",
    "expected_length",
    "el_curve",
    "lower_bound_curve",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GL = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))
_MAX_DEPTH = 30


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration range over the parameter axis plus error control."""

    lower: float
    upper: float
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(
                f"quadrature range must be finite, got lower={self.lower}, "
                f"upper={self.upper}"
            )
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if not 0.0 < self.rel_tol <= 1e-4:
            raise ValueError(f"rel_tol must lie in (0, 1e-4], got {self.rel_tol}")


def _gauss_legendre(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * x) for x, w in _GL)


def _refine(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _gauss_legendre(f, a, mid)
    right = _gauss_legendre(f, mid, b)
    err = abs(left + right - whole)
    if err <= tol or (b - a) <= 1e-14 * max(abs(a), abs(b), 1.0):
        return left + right
    if depth >= _MAX_DEPTH:
        raise ConvergenceError(
            f"quadrature did not converge on [{a}, {b}] at depth {depth}"
        )
    return _refine(f, a, mid, left, 0.5 * tol, depth + 1) + _refine(
        f, mid, b, right, 0.5 * tol, depth + 1
    )


def _breakpoint_mass(fam, omega: int, quad: QuadratureSpec) -> float:
    """Mass of tau -> psi(omega | tau), on panels split at the breakpoints."""
    edges = sorted(
        {quad.lower, quad.upper,
         *(p for p in fam.breakpoints(omega) if quad.lower < p < quad.upper)}
    )
    f = partial(fam.psi, omega)
    panels = list(zip(edges, edges[1:]))
    first_pass = [_gauss_legendre(f, a, b) for a, b in panels]
    scale = max(math.fsum(abs(v) for v in first_pass), 1e-12)
    width_total = quad.upper - quad.lower
    parts = []
    for (a, b), whole in zip(panels, first_pass):
        tol = quad.rel_tol * scale * (b - a) / width_total
        parts.append(_refine(f, a, b, whole, tol, 0))
    return max(0.0, math.fsum(parts))


def _band_integral(f, a: float, b: float, rel_tol: float) -> float:
    """Integral of 0 <= f <= 1 over [a, b], to rel_tol times its largest value."""
    if not a < b:
        return 0.0
    return _refine(f, a, b, _gauss_legendre(f, a, b), rel_tol * (b - a), 0)


def _bands(fam, omega: int, quad: QuadratureSpec):
    """omega's thresholds clipped to the range, then its two full-band integrals.

    ``psi_below`` rises from 0 to 1 across [below_zero, below_one] and
    ``psi_above`` falls from 1 to 0 across [above_one, above_zero].
    """
    bands = fam.memo.bands
    if (quad, omega) not in bands:
        lo, hi = quad.lower, quad.upper
        z0, z1, a1, a0 = (min(max(t, lo), hi) for t in fam.thresholds(omega))
        bands[quad, omega] = (
            z0, z1, a1, a0,
            _band_integral(partial(fam.psi_below, omega), z0, z1, quad.rel_tol),
            _band_integral(partial(fam.psi_above, omega), a1, a0, quad.rel_tol),
        )
    return bands[quad, omega]


def _band_mass(fam, omega: int, quad: QuadratureSpec) -> float:
    """Mass of a proposed family's membership: psi_below up to o, psi_above on."""
    fam.check(omega, fam.o)
    z0, z1, a1, a0, below, above = _bands(fam, omega, quad)
    o = min(max(fam.o, quad.lower), quad.upper)
    if o <= z0:
        up_to_o = 0.0
    elif o < z1:
        up_to_o = _band_integral(partial(fam.psi_below, omega), z0, o, quad.rel_tol)
    else:
        up_to_o = below + (o - z1)
    if o >= a0:
        from_o = 0.0
    elif o > a1:
        from_o = _band_integral(partial(fam.psi_above, omega), o, a0, quad.rel_tol)
    else:
        from_o = (a1 - o) + above
    return up_to_o + from_o


def interval_mass(fam, omega: int, quad: QuadratureSpec) -> float:
    """Lebesgue mass of tau -> psi(omega | tau) over the quadrature range."""
    if isinstance(fam, Randomized):
        return _band_mass(fam, omega, quad)
    return _breakpoint_mass(fam, omega, quad)


def _el_values(fam, thetas: list[float], quad: QuadratureSpec) -> list[float]:
    """Expected lengths at each theta, reusing the theta-free inner masses."""
    uppers = [fam.support_upper(theta) for theta in thetas]
    masses = [interval_mass(fam, w, quad) for w in range(max(uppers, default=-1) + 1)]
    return [
        math.fsum(math.exp(fam.log_pmf(w, theta)) * masses[w] for w in range(upper + 1))
        for theta, upper in zip(thetas, uppers)
    ]


def expected_length(fam, theta: float, quad: QuadratureSpec) -> float:
    """Outer pmf-weighted sum of the per-observation interval masses."""
    return _el_values(fam, [theta], quad)[0]


def el_curve(fam, theta_grid: Sequence[float], quad: QuadratureSpec) -> list[float]:
    """Expected length of one method at each grid point."""
    return _el_values(fam, [float(t) for t in theta_grid], quad)


def lower_bound_curve(
    fam, theta_grid: Sequence[float], quad: QuadratureSpec
) -> list[float]:
    """Envelope at each grid point: the proposed family tuned to it.

    Any family of the same sampling model serves, a comparison method too;
    their reference families share one memo, which keeps each point.
    """
    values = []
    for theta in map(float, theta_grid):
        reference = fam.reference(theta)
        points = reference.memo.envelope
        if (quad, theta) not in points:
            points[quad, theta] = expected_length(reference, theta, quad)
        values.append(points[quad, theta])
    return values
