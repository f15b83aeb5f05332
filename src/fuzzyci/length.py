"""Expected-length engine for discrete membership families.

The expected length at a true parameter theta is the outer expectation,
under the sampling distribution at theta, of the Lebesgue mass each
observation's membership assigns over the parameter axis (Pratt, 1961).
The outer sum is an exact pmf summation over the (truncated) support,
weighted by the family's mass row at theta; the inner masses come from
the family's ``interval_masses(omegas, quad)``.  A
crisp comparison method's mass is the length of its interval clipped to the
range, in closed form (see :mod:`fuzzyci.discrete`); a proposed family's
comes from the band integrals computed here.

The membership of omega is its branch below o up to o and its branch
above o from there on, and neither branch depends on o.  Each branch is 0
or 1 outside its randomized band, between two of the family's band edges,
so the mass at any anchor o is flat lengths plus one integral per branch:
the branch below from its band's lower edge to o clipped into the band,
the branch above from o so clipped to its band's upper edge.  That is the
full band when the band lies wholly on its branch's side of o, a partial
integral when the band holds o, and nothing otherwise.  So the unit of
this route is the o-free model, and an anchor o is a number passed with
the counts.  One table per quadrature spec, in the model's memo, keeps
each omega's clipped band with its two full integrals, so every point of
an envelope, and every curve of one figure, reads the same entries.  A
partial integral serves one anchor and is not kept; envelope points are,
per quadrature spec and theta, so the commands of a figure that share an
envelope compute each point, and its partial integrals, once.

:func:`band_masses` returns the masses of one model at anchors o, each at
its own counts.  Whatever integrals they lack are computed as one batch:
both full bands of each count not seen before and the integrals up to each
anchor.  A proposed family asks for its own o; an envelope asks once for
every point it lacks, anchored at those points.  The batch evaluates the
branches (``branch_array``, over the vectorized kernels of
:mod:`fuzzyci.specfun`) at the 30 Gauss-Legendre nodes of each band, 10 on
the band and 10 on each half, in one array pass, then refines in further
passes only the panels whose halves disagree with the whole: adaptive
bisection with the tolerance halved per level, a floor on the panel width,
and a :class:`~fuzzyci.specfun.ConvergenceError` for a panel that fails at
depth 30.  An integral is the sum of its accepted panels in order of their
left ends, so its bits do not depend on the batch that computed it.

The envelope no admissible membership's curve can undercut is the expected
length at theta of ``reference(theta)``, the proposed family anchored at
o = theta: the model's masses at anchor theta, weighted by the pmf at
theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import ConvergenceError

__all__ = [
    "QuadratureSpec",
    "band_masses",
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
    """Integral of 0 <= psi(i, .) <= 1 over [lo[i], hi[i]] for every i; lo < hi.

    ``psi(i, tau)`` evaluates integrand ``i[k]`` at ``tau[k]`` over arrays.
    Each integral meets rel_tol times its width.  A panel is accepted when
    its halves' sum is within its tolerance of its whole or its width is at
    the floor; otherwise each half is refined to half the tolerance.  A pass
    evaluates the whole rule and both half rules of each panel it takes,
    newest first, up to ``_BATCH_NODES`` nodes a pass, so a failing panel's
    depth grows by a level every pass and reaches the limit however many
    panels fail with it.  A rule's value depends only on its integrand and
    its ends, and an integral is the sum of its accepted panels in order of
    their left ends, so its bits do not depend on the batch.
    """
    elem = np.arange(len(lo))
    # A panel: integrand, ends, tolerance, depth.
    stack = [(elem, lo, hi, rel_tol * (hi - lo), np.zeros(len(lo), dtype=int))]
    accepted = []  # (integrand, left end, value) of every accepted panel
    limit = _BATCH_NODES // 30  # three rules of 10 nodes a panel
    while stack:
        panels = stack.pop()
        if len(panels[0]) > limit:
            stack.append(tuple(v[:-limit] for v in panels))
            panels = tuple(v[-limit:] for v in panels)
        elem, a, b, tol, depth = panels
        mid = 0.5 * (a + b)
        whole, left, right = np.split(
            _rules(psi, np.tile(elem, 3), np.concatenate((a, a, mid)),
                   np.concatenate((b, mid, b))), 3)
        total = left + right
        floor = (b - a) <= 1e-14 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        done = (np.abs(total - whole) <= tol) | floor
        accepted.append((elem[done], a[done], total[done]))
        split = np.flatnonzero(~done)
        if not split.size:
            continue
        deep = split[depth[split] >= _MAX_DEPTH]
        if deep.size:
            i = deep[0]
            raise ConvergenceError(
                f"quadrature did not converge on [{a[i]}, {b[i]}] at depth {depth[i]}"
            )
        stack.append((
            np.repeat(elem[split], 2), _pairs(a[split], mid[split]),
            _pairs(mid[split], b[split]), np.repeat(0.5 * tol[split], 2),
            np.repeat(depth[split] + 1, 2),
        ))
    elem, a, value = (np.concatenate(v) for v in zip(*accepted))
    order = np.lexsort((a, elem))
    # bincount adds in array order: each integral's panels, left to right.
    return np.bincount(elem[order], weights=value[order], minlength=len(lo))


def band_masses(model, requests, quad: QuadratureSpec) -> list[list[float]]:
    """Masses of one model's memberships: the branch below o up to o, above on.

    ``model`` is any proposed family of the model, whose memo, band edges
    and branches serve every anchor; its own o plays no part.  ``requests``
    pairs anchors o with the counts whose masses each needs, and every
    count is checked against its anchor before any work starts.  A band is
    omega's band edges clipped to the range: the branch below rises from 0
    to 1 across [z0, z1] and the branch above falls from 1 to 0 across
    [a1, a0].  The integral below runs from z0 to its ``end``, the nearer
    of o and z1, and the one above from its end, the farther of o and a1,
    to a0: the full band when the end is z1 or a1, a partial integral when
    it is o.  An empty span's integral is 0.  The edges of every band not seen before
    come from one ``band_edges`` batch; both full bands of each such band
    and the partial integrals of every request are computed in one batch.
    The model's memo keeps each band with its two full integrals, once both
    are computed; a partial integral serves one anchor and is kept for this
    call only.
    """
    bands = model.memo.bands.setdefault(quad, {})
    lower, upper = quad.lower, quad.upper
    for o, omegas in requests:
        for w in omegas:
            model.check(w, o)
    cold = list(dict.fromkeys(w for _, ws in requests for w in ws if w not in bands))
    # omega -> clipped edges, for bands the memo lacks: one batch of edges.
    new = {w: tuple(min(max(t, lower), upper) for t in edges)
           for w, edges in zip(cold, model.band_edges(cold))}
    jobs = {}  # (omega, above, end) -> span, for every integral to compute
    for w, band in new.items():
        jobs[w, False, band[1]] = band[:2]
        jobs[w, True, band[2]] = band[2:]
    anchors = [min(max(o, lower), upper) for o, _ in requests]
    for (_, omegas), anchor in zip(requests, anchors):
        for w in omegas:
            z0, z1, a1, a0 = (new[w] if w in new else bands[w])[:4]
            if z0 < anchor < z1:
                jobs[w, False, anchor] = z0, anchor
            if a1 < anchor < a0:
                jobs[w, True, anchor] = anchor, a0
    integrals = dict.fromkeys(jobs, 0.0)
    keys = [key for key, (a, b) in jobs.items() if a < b]
    if keys:
        omega, above_o, lo, hi = (
            np.array(v) for v in zip(*((*key[:2], *jobs[key]) for key in keys))
        )
        values = _integrate(
            lambda i, tau: model.branch_array(omega[i], above_o[i], tau),
            lo, hi, quad.rel_tol,
        )
        integrals.update(zip(keys, values.tolist()))
    for w, (z0, z1, a1, a0) in new.items():
        bands[w] = z0, z1, a1, a0, integrals[w, False, z1], integrals[w, True, a1]

    def mass(w, o):
        z0, z1, a1, a0, full_below, full_above = bands[w]
        below = full_below if o >= z1 else integrals.get((w, False, o), 0.0)
        above = full_above if o <= a1 else integrals.get((w, True, o), 0.0)
        # The flat lengths, where a branch is 1: [z1, o] below o, [o, a1] above.
        flat_below = o - z1 if o > z1 else 0.0
        flat_above = a1 - o if a1 > o else 0.0
        return (below + flat_below) + (flat_above + above)

    return [[mass(w, o) for w in omegas] for (_, omegas), o in zip(requests, anchors)]


def _pratt_sum(fam, theta: float, masses) -> float:
    """Expected length at theta: ``masses[w]`` weighted by the pmf, over w's support.

    The log masses are one row of ``log_pmf_rows``, the very bits of
    ``log_pmf``; masses past the support at theta are not read.
    """
    fam.check(0, theta)  # omega = 0 lies in every support
    log_p = fam.log_pmf_rows(np.array([theta]), fam.support_upper(theta))[0].tolist()
    return math.fsum(math.exp(lp) * m for lp, m in zip(log_p, masses))


def el_curve(fam, theta_grid: Sequence[float], quad: QuadratureSpec) -> list[float]:
    """Expected length of one method at each grid point.

    The inner masses do not depend on theta, so every point reads one list
    of them, up to the largest support bound of the grid.
    """
    thetas = [float(t) for t in theta_grid]
    top = max((fam.support_upper(theta) for theta in thetas), default=-1)
    masses = fam.interval_masses(range(top + 1), quad)
    return [_pratt_sum(fam, theta, masses) for theta in thetas]


def lower_bound_curve(
    fam, theta_grid: Sequence[float], quad: QuadratureSpec
) -> list[float]:
    """Envelope at each grid point: the proposed family tuned to it.

    Any family of the same sampling model serves, a comparison method too.
    The envelope at theta is the expected length at theta of
    ``reference(theta)``, the model anchored at o = theta, so one reference
    family stands for the model: its memo keeps each point, and the masses
    of every point not yet kept come from one :func:`band_masses` batch
    with those points as anchors.
    """
    thetas = [float(t) for t in theta_grid]
    if not thetas:
        return []
    model = fam.reference(thetas[0])
    envelope = model.memo.envelope
    cold = [theta for theta in dict.fromkeys(thetas) if (quad, theta) not in envelope]
    requests = [(theta, range(model.support_upper(theta) + 1)) for theta in cold]
    for theta, masses in zip(cold, band_masses(model, requests, quad)):
        envelope[quad, theta] = _pratt_sum(model, theta, masses)
    return [envelope[quad, theta] for theta in thetas]
