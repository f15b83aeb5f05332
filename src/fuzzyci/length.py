"""Expected-length engine for discrete membership families.

The expected length at a true parameter theta is the outer expectation,
under the sampling distribution at theta, of the Lebesgue mass each
observation's membership assigns over the parameter axis (Pratt, 1961).
The outer sum is an exact pmf summation over the (truncated) support; the
inner masses come from the family's ``interval_masses(omegas, quad)``.  A
crisp comparison method's mass is the length of its interval clipped to the
range, in closed form (see :mod:`fuzzyci.discrete`); a proposed family's
comes from the band integrals computed here.

The membership of omega is its branch ``psi_below`` below o and
``psi_above`` above it, and neither branch depends on o.  Each branch is 0
or 1 outside its randomized band, between two of the family's thresholds,
so the mass at any anchor o is flat lengths plus the full-band integrals,
except for the band that contains o, which needs one partial integral.
Full-band integrals are kept per quadrature spec, and partial ones per spec
and o, in the memo of the family's o-free model, so every reference family
of an envelope, and every curve of one figure, reads the same entries.
Envelope points are kept there too, per quadrature spec and theta, so the
commands of a figure that share an envelope compute each point once.

Whatever integrals a request lacks are computed as one batch: the missing
full bands of its counts and its partial integrals, and for an envelope
those of every reference family.  The batch evaluates the branches
(``branch_array``, over the vectorized kernels of :mod:`fuzzyci.specfun`) at
the 30 Gauss-Legendre nodes of each band, 10 on the band and 10 on each
half, in one array pass, then refines in further passes only the panels
whose halves disagree with the whole: adaptive bisection with the
tolerance halved per level, a floor on the panel width, and a
:class:`~fuzzyci.specfun.ConvergenceError` for a panel that fails at depth
30.  An integral is the sum of its accepted panels over its own bisection
tree, so its bits do not depend on the batch that computed it.

The envelope no admissible membership's curve can undercut is the expected
length at theta of ``reference(theta)``, the proposed family anchored at
o = theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import ConvergenceError

__all__ = [
    "QuadratureSpec",
    "interval_mass",
    "expected_length",
    "el_curve",
    "lower_bound_curve",
]

# numpy.polynomial.legendre.leggauss(10), written out: importing
# numpy.polynomial for it would cost every command 0.7 MB and its load time.
_GL_HALF = (
    (0.14887433898163122, 0.2955242247147528),
    (0.4333953941292472, 0.2692667193099965),
    (0.6794095682990244, 0.219086362515982),
    (0.8650633666889845, 0.1494513491505804),
    (0.9739065285171717, 0.06667134430868814),
)
_GL = tuple((-x, w) for x, w in reversed(_GL_HALF)) + _GL_HALF
_GL_NODES = np.array([x for x, _ in _GL])
_GL_WEIGHTS = np.array([w for _, w in _GL])
_MAX_DEPTH = 30
# Integrand evaluations per array pass; bounds a batch's memory.
_BATCH_NODES = 1 << 15


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


def _rules(psi, elem, lo, hi) -> np.ndarray:
    """The 10-point rule of integrand ``elem[k]`` on [lo[k], hi[k]], for every k."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    tau = mid[:, None] + half[:, None] * _GL_NODES
    values = psi(np.repeat(elem, len(_GL_NODES)), tau.ravel()).reshape(tau.shape)
    total = values[:, 0] * _GL_WEIGHTS[0]
    for j in range(1, len(_GL_WEIGHTS)):  # a fixed order, whatever the batch
        total = total + values[:, j] * _GL_WEIGHTS[j]
    return half * total


def _pairs(x, y) -> np.ndarray:
    return np.stack((x, y), axis=1).ravel()


def _integrate(psi, lo, hi, rel_tol: float) -> np.ndarray:
    """Integral of 0 <= psi(i, .) <= 1 over [lo[i], hi[i]] for every i.

    ``psi(i, tau)`` evaluates integrand ``i[k]`` at ``tau[k]`` over arrays.
    Each integral meets rel_tol times its width.  A panel is accepted when
    its halves' sum is within its tolerance of its whole or its width is at
    the floor; otherwise each half is refined to half the tolerance.  Panels
    are evaluated newest first, up to ``_BATCH_NODES`` nodes a pass, so a
    failing panel's depth grows by a level every pass and reaches the limit
    however many panels fail with it.
    """
    out = np.zeros(len(lo))
    roots = np.flatnonzero(lo < hi)
    count = len(roots)
    if not count:
        return out
    values = np.empty(2 * count)  # per node of the bisection trees, by id
    next_id = count
    splits = []  # (node, its left child, depth); the right child is left + 1
    # A panel: integrand, ends, whole-panel rule (None before the first
    # pass), tolerance, depth, node id.
    stack = [(roots, lo[roots], hi[roots], None, rel_tol * (hi[roots] - lo[roots]),
              np.zeros(count, dtype=int), np.arange(count))]
    while stack:
        panels = stack.pop()
        limit = _BATCH_NODES // (30 if panels[3] is None else 20)
        if len(panels[0]) > limit:
            stack.append(tuple(None if v is None else v[:-limit] for v in panels))
            panels = tuple(None if v is None else v[-limit:] for v in panels)
        elem, a, b, whole, tol, depth, node = panels
        mid = 0.5 * (a + b)
        if whole is None:
            whole, left, right = np.split(
                _rules(psi, np.tile(elem, 3), np.concatenate((a, a, mid)),
                       np.concatenate((b, mid, b))), 3)
        else:
            left, right = np.split(
                _rules(psi, np.tile(elem, 2), np.concatenate((a, mid)),
                       np.concatenate((mid, b))), 2)
        total = left + right
        values[node] = total
        floor = (b - a) <= 1e-14 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        split = np.flatnonzero(~((np.abs(total - whole) <= tol) | floor))
        if not split.size:
            continue
        deep = split[depth[split] >= _MAX_DEPTH]
        if deep.size:
            i = deep[0]
            raise ConvergenceError(
                f"quadrature did not converge on [{a[i]}, {b[i]}] at depth {depth[i]}"
            )
        children = next_id + np.arange(2 * len(split))
        next_id += len(children)
        if next_id > len(values):
            values = np.concatenate((values, np.empty(max(len(values), len(children)))))
        splits.append((node[split], children[::2], depth[split]))
        stack.append((
            np.repeat(elem[split], 2), _pairs(a[split], mid[split]),
            _pairs(mid[split], b[split]), _pairs(left[split], right[split]),
            np.repeat(0.5 * tol[split], 2), np.repeat(depth[split] + 1, 2), children,
        ))
    if splits:
        node, left, depth = (np.concatenate(v) for v in zip(*splits))
        for level in range(depth.max(), -1, -1):  # children before their parents
            at = depth == level
            values[node[at]] = values[left[at]] + values[left[at] + 1]
    out[roots] = values[:count]
    return out


def _branch_integrals(fam, jobs, rel_tol: float) -> list[float]:
    """Integrals of fam's branches: ``(omega, above, lo, hi)`` per job."""
    omega, above, lo, hi = (np.array(v) for v in zip(*jobs))
    edges = np.array([fam.thresholds(w) for w in omega.tolist()])
    low = np.where(above, edges[:, 2], edges[:, 0])
    high = np.where(above, edges[:, 3], edges[:, 1])

    def psi(i, tau):
        return fam.branch_array(omega[i], above[i], tau, low[i], high[i])

    return _integrate(psi, lo, hi, rel_tol).tolist()


def _fill_bands(requests, quad: QuadratureSpec):
    """Compute, in one batch, the band integrals ``requests`` need and lack.

    ``requests`` pairs proposed families of one model with the counts whose
    masses each needs.  A new band is stored as omega's thresholds clipped to
    the range, then its two full-band integrals: ``psi_below`` rises from 0
    to 1 across [below_zero, below_one] and ``psi_above`` falls from 1 to 0
    across [above_one, above_zero].
    """
    model = requests[0][0]
    memo = model.memo
    lower, upper = quad.lower, quad.upper
    edges = {}  # omega -> clipped thresholds, for bands the memo lacks
    jobs = {}  # (omega, above, o or None for the full band) -> span
    for fam, omegas in requests:
        o = min(max(fam.o, lower), upper)
        for w in omegas:
            fam.check(w, fam.o)
            band = memo.bands.get((quad, w)) or edges.get(w)
            if band is None:
                band = edges[w] = tuple(min(max(t, lower), upper) for t in fam.thresholds(w))
                jobs[w, False, None] = band[0], band[1]
                jobs[w, True, None] = band[2], band[3]
            z0, z1, a1, a0 = band[:4]
            if z0 < o < z1 and (quad, w, False, o) not in memo.partials:
                jobs[w, False, o] = z0, o
            if a1 < o < a0 and (quad, w, True, o) not in memo.partials:
                jobs[w, True, o] = o, a0
    keys = [key for key, (a, b) in jobs.items() if a < b]
    values = {}
    if keys:
        spans = [(w, above, *jobs[w, above, o]) for w, above, o in keys]
        values = dict(zip(keys, _branch_integrals(model, spans, quad.rel_tol)))
    for w, band in edges.items():
        memo.bands[quad, w] = (
            *band, values.get((w, False, None), 0.0), values.get((w, True, None), 0.0)
        )
    for (w, above, o), value in values.items():
        if o is not None:
            memo.partials[quad, w, above, o] = value


def band_masses(fam, omegas: Sequence[int], quad: QuadratureSpec) -> list[float]:
    """Masses of a proposed family's memberships: psi_below up to o, psi_above on."""
    _fill_bands([(fam, omegas)], quad)
    bands, partials = fam.memo.bands, fam.memo.partials
    o = min(max(fam.o, quad.lower), quad.upper)
    masses = []
    for w in omegas:
        z0, z1, a1, a0, below, above = bands[quad, w]
        if o <= z0:
            up_to_o = 0.0
        elif o < z1:
            up_to_o = partials[quad, w, False, o]
        else:
            up_to_o = below + (o - z1)
        if o >= a0:
            from_o = 0.0
        elif o > a1:
            from_o = partials[quad, w, True, o]
        else:
            from_o = (a1 - o) + above
        masses.append(up_to_o + from_o)
    return masses


def interval_mass(fam, omega: int, quad: QuadratureSpec) -> float:
    """Lebesgue mass of tau -> psi(omega | tau) over the quadrature range."""
    return fam.interval_masses([omega], quad)[0]


def _el_values(fam, thetas: list[float], quad: QuadratureSpec) -> list[float]:
    """Expected lengths at each theta, reusing the theta-free inner masses."""
    uppers = [fam.support_upper(theta) for theta in thetas]
    masses = fam.interval_masses(range(max(uppers, default=-1) + 1), quad)
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
    their reference families share one memo, which keeps each point.  The
    band integrals of every point not yet kept are computed as one batch.
    """
    thetas = [float(t) for t in theta_grid]
    references = {theta: fam.reference(theta) for theta in thetas}
    cold = [
        (ref, range(ref.support_upper(theta) + 1))
        for theta, ref in references.items()
        if (quad, theta) not in ref.memo.envelope
    ]
    if cold:
        _fill_bands(cold, quad)
    values = []
    for theta in thetas:
        reference = references[theta]
        points = reference.memo.envelope
        if (quad, theta) not in points:
            points[quad, theta] = expected_length(reference, theta, quad)
        values.append(points[quad, theta])
    return values
