"""Expected-length engine for discrete membership families.

The expected length at a true parameter theta is the outer expectation,
under the sampling distribution at theta, of the Lebesgue mass each
observation's membership assigns over the parameter axis (Pratt, 1961).
The outer sum is an exact pmf summation over the (truncated) support at
theta, one ``math.fsum`` per theta, weighted by its mass row from the
family's ``by_blocks``, the route from a theta grid to mass rows that
coverage reads too.  The inner masses are a float64 array over a range of
counts, from the family's ``interval_masses(counts, quad)``.  A crisp
comparison method's mass is the length of its interval clipped to the
range, in closed form (see :mod:`fuzzyci.discrete`); a proposed family's
comes from the band integrals computed here.

The membership of omega is its branch below o up to o and its branch
above o from there on, and neither branch depends on o; only the switch
between them does.  Each branch is 0 or 1 outside its randomized band,
between two band edges on the tau axis, the tau where an upper tail
P[X >= k | tau] equals gamma or 1 - gamma, k = omega or omega + 1.  So the
mass at any anchor o is flat lengths plus one integral per branch: the
branch below from its band's lower edge to o clipped into the band, the
branch above from o so clipped to its band's upper edge.  That is the full
band when the band lies wholly on its branch's side of o, a partial
integral when the band holds o, and nothing otherwise.  So the unit of
this route is the o-free model, and an anchor o is a number passed with a
range of counts.

All anchors of one model (the family's type and its fields but o) share
one memo, ``_memo(model)``: the band edges as one array indexed by level
and count, each stored once and read by the two counts whose bands it
bounds, the full-band integrals as one array indexed by side and count per
quadrature spec, and envelope points; one LRU over models holds the memos.
Any proposed family of a model serves as the model: :func:`band_edges`
reads a range of counts' edges, those the memo lacks from one batched root
solve, :func:`solve_band_edges`.  So every point of an envelope, and every
curve of one figure, reads the same entries.  A partial integral serves
one anchor and is not kept; envelope points are, per quadrature spec and
theta, so the commands of a figure that share an envelope compute each
point, and its partial integrals, once.

:func:`band_masses` returns the masses of one model at anchors o, each at
its own range of counts, as one float64 array per anchor, from whole-array
operations over an (anchor x count) matrix.  Whatever integrals they lack
are computed as one batch: both full bands of each count not seen before
and the integrals up to each anchor.  A proposed family asks for its own
o; an envelope asks once for every point it lacks, anchored at those
points; and both curves of a proposed family, :func:`el_and_lower_bound`,
ask in one batch.  The batch evaluates the branches (``branch_array``,
over the vectorized kernels of :mod:`fuzzyci.specfun`) at the 30
Gauss-Legendre nodes of each band, 10 on the band and 10 on each half, in
one array pass, then refines in further passes only the panels whose
halves disagree with the whole: adaptive bisection with the tolerance
halved per level, a floor on the panel width, and a
:class:`~fuzzyci.specfun.ConvergenceError` for a panel that fails at depth
30.  An integral is the sum of its accepted panels in order of their
left ends, so its bits do not depend on the batch that computed it.

The envelope no admissible membership's curve can undercut is the expected
length at theta of ``reference(theta)``, the proposed family anchored at
o = theta: the model's masses at anchor theta, weighted by the pmf at
theta.  Each curve's pmf weights come from ``by_blocks`` over its thetas,
and each theta's sum reads its own row up to its own support bound, so no
value depends on the block that holds it, nor on the other thetas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .specfun import ConvergenceError, _rtsafe

__all__ = [
    "QuadratureSpec",
    "band_masses",
    "el_curve",
    "el_and_lower_bound",
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


def _grown(table: np.ndarray, stop: int) -> np.ndarray:
    """``table`` with at least ``stop`` columns: padded with NaN to at least twice its width."""
    width = table.shape[1]
    if width >= stop:
        return table
    return np.pad(table, ((0, 0), (0, max(stop, 2 * width) - width)), constant_values=np.nan)


# Bounded in models, not entries: a figure or a command reads one model, so
# no support or grid size evicts what its next evaluation reads.
@lru_cache(maxsize=8)
def _memos(model: tuple) -> SimpleNamespace:
    return SimpleNamespace(edges=np.full((2, 0), np.nan), bands={}, envelope={})


def _memo(model) -> SimpleNamespace:
    """The memo every anchor o of one model shares; ``model`` is any family of it.

    The LRU ``_memos`` keys it by the family's type and every field but o.
    ``edges`` is a (2 x K) array indexed by count k: row 0 holds the tau
    where P[X >= k | tau] = 1 - gamma, row 1 where it is gamma, and NaN
    where no edge is solved yet.  omega's band edges are columns omega and
    omega + 1 of both rows, and the edges a range of counts lacks are
    solved together, as one batch.  ``bands[quad]`` is a (2 x K) array of
    the integrals of each count's branch below and above o over its full
    band (see :func:`band_masses`), and ``envelope[quad, theta]`` holds
    envelope points.  Every table grows with the counts and points asked
    for, none with the anchors o, and each entry is computed once; an array
    grows by NaN padding, at least doubling.  An entry is written only once
    its computation has returned.
    """
    return _memos((type(model), *(getattr(model, f.name) for f in fields(model) if f.name != "o")))


def band_edges(model, counts: range) -> tuple:
    """``(below_zero, below_one, above_one, above_zero)``: arrays of the counts' band edges.

    They are the tails' level crossings of omega and omega + 1, at level
    1 - gamma below o and gamma above it, for omega in the range
    ``counts``.  omega's full-membership edge below o is omega + 1's
    rejection edge, and likewise above o, so each edge is solved once per
    model: the edges the memo's ``edges`` lacks in the range's columns are
    solved in one batch, and stored once it returns.  The arrays are views
    of the memo's table, to be read only.
    """
    memo = _memo(model)
    edges = memo.edges = _grown(memo.edges, counts.stop + 1)
    block = edges[:, counts.start : counts.stop + 1]  # a view: writing it fills the memo
    rows, columns = cold = np.nonzero(np.isnan(block))
    if rows.size:
        levels = np.array([1.0 - model.gamma, model.gamma])
        block[cold] = solve_band_edges(model, levels[rows], counts.start + columns)
    return block[0, :-1], block[0, 1:], block[1, :-1], block[1, 1:]


def solve_band_edges(model, level: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The band edge of each element: the tau where P[X >= k | tau] = level.

    One elementwise root solve on the family's ``tail_array``, whose
    derivative in tau is k p(k | tau) / tau in both families, from its
    closed form start ``edge_start(level, k)``.  An unbounded space's
    bracket ends a margin above the start, doubled for each element until
    its tail reaches the level.  P[X >= 0] is 1 at every tau, so k = 0's
    edge is 0, and a k past the whole space's support, the binomial's
    n + 1, has its edge at tau_upper.  Every kernel evaluates each element
    from its own arguments, so an edge is the same float whatever else the
    batch holds.
    """
    edge = np.zeros(len(k))
    top = model.support_upper(model.tau_upper) if model.tau_upper < math.inf else math.inf
    edge[k > top] = model.tau_upper
    solve = np.flatnonzero((k > 0) & (k <= top))
    if not solve.size:
        return edge
    level, k = level[solve], k[solve]
    start = model.edge_start(level, k)
    if model.tau_upper < math.inf:
        hi = np.full(len(k), model.tau_upper)
    else:
        # About a standard deviation of the gamma above the start.
        hi, grow = start + 1.0 + np.sqrt(start), np.arange(len(k))
        while grow.size:
            grow = grow[model.tail_array(k[grow], hi[grow]) < level[grow]]
            hi[grow] *= 2.0
    edge[solve] = _rtsafe(
        lambda i, tau: model.tail_array(k[i], tau),
        lambda i, tau: k[i] * np.exp(model.log_pmf_array(k[i], tau)) / tau,
        level, start, np.zeros(len(k)), hi,
        lambda i: f"band edge failed for level={level[i]}, k={k[i]}",
    )
    return edge


def band_masses(model, requests, quad: QuadratureSpec) -> list[np.ndarray]:
    """Masses of one model's memberships: the branch below o up to o, above on.

    ``model`` is any proposed family of the model, whose memo, band edges
    and ``branch_array`` serve every anchor; its own o plays no part.  ``requests``
    pairs anchors o with the range of counts whose masses each needs, and
    each range is checked at its two ends against its anchor, as each
    support is an interval, before any work starts; an empty range checks
    nothing and gets an empty array.  The route works on arrays over the span of
    all the ranges, with a row per request where it depends on o.  A band
    is omega's band edges clipped to the range: the branch below rises from
    0 to 1 across [z0, z1] and the branch above falls from 1 to 0 across
    [a1, a0].  The integral below runs from z0 to the nearer of o and z1,
    and the one above from the farther of o and a1 to a0: the full band
    when that end is z1 or a1, a partial integral when it is o, where
    z0 < o < z1 or a1 < o < a0.  An empty band's integral is 0.  The edges
    of the span come from one ``band_edges`` batch; both full bands of each
    count the memo lacks and the partial integrals of every request are
    computed in one batch.  The memo keeps each count's two full integrals
    in ``bands[quad]``, written once the batch returns; a partial integral
    serves one anchor and is kept for this call only.  The masses are one
    float64 array per request, over its range.
    """
    for o, counts in requests:
        for w in (counts[0], counts[-1]) if counts else ():
            model.check(w, o)
    ranges = [counts for _, counts in requests if counts]
    if not ranges:
        return [np.zeros(0) for _ in requests]
    span = range(min(c.start for c in ranges), max(c.stop for c in ranges))
    z0, z1, a1, a0 = (np.clip(e, quad.lower, quad.upper) for e in band_edges(model, span))
    bands = _memo(model).bands
    bands[quad] = _grown(bands.get(quad, np.full((2, 0), np.nan)), span.stop)
    full = bands[quad][:, span.start : span.stop]  # a view: writing it fills the memo
    # A row per request: its anchor o, clipped to the range, and its counts.
    o = np.clip([[o] for o, _ in requests], quad.lower, quad.upper)
    counts = np.arange(span.start, span.stop)
    inside = np.array([(c.start <= counts) & (counts < c.stop) for _, c in requests])
    cold = np.isnan(full[0])
    # The integrals to compute, by (side, row, count): row 0 holds both full
    # bands of each cold count, and a row per request the partial integrals
    # where its o lies inside a band.  Below o one runs from z0 to the nearer
    # of o and z1, above o from the farther of o and a1 to a0, with row 0's
    # o past the band on each side.
    jobs = side, row, w = np.nonzero(np.stack((
        np.vstack((cold & (z0 < z1), inside & (z0 < o) & (o < z1))),
        np.vstack((cold & (a1 < a0), inside & (a1 < o) & (o < a0))),
    )))
    integrals = np.zeros((2, len(requests) + 1, len(span)))
    if w.size:
        lo = np.where(side == 0, z0[w], np.maximum(np.append(-np.inf, o)[row], a1[w]))
        hi = np.where(side == 0, np.minimum(np.append(np.inf, o)[row], z1[w]), a0[w])
        integrals[jobs] = _integrate(
            lambda i, tau: model.branch_array(span.start + w[i], side[i] == 1, tau),
            lo, hi, quad.rel_tol,
        )
    full[:, cold] = integrals[:, 0, cold]
    below = np.where(o >= z1, full[0], integrals[0, 1:])
    above = np.where(o <= a1, full[1], integrals[1, 1:])
    # The flat lengths, where a branch is 1: [z1, o] below o, [o, a1] above.
    masses = (below + np.maximum(o - z1, 0.0)) + (np.maximum(a1 - o, 0.0) + above)
    return [values[keep] for values, keep in zip(masses, inside)]


def _pratt_sums(fam, thetas, tops, masses) -> list[float]:
    """Expected length at each theta: ``masses[i]`` weighted by the pmf at ``thetas[i]``.

    The pmf rows are the family's ``by_blocks`` over the thetas, which
    checks the grid at its two ends.  The sum at theta is one ``math.fsum``
    over its own support, omega = 0..``tops[i]``, so its value does not
    depend on the block that holds its row, nor on the other thetas.
    """
    rows = (row for _, p in fam.by_blocks(thetas, 0, max(tops, default=0)) for row in p)
    return [math.fsum((row[: top + 1] * ms[: top + 1]).tolist())
            for row, top, ms in zip(rows, tops, masses)]


def el_curve(fam, theta_grid: Sequence[float], quad: QuadratureSpec) -> list[float]:
    """Expected length of one method at each grid point.

    The inner masses do not depend on theta, so every point reads one array
    of them, up to the largest support bound of the grid.
    """
    thetas = [float(t) for t in theta_grid]
    tops = [fam.support_upper(theta) for theta in thetas]
    masses = fam.interval_masses(range(max(tops, default=-1) + 1), quad)
    return _pratt_sums(fam, thetas, tops, [masses] * len(thetas))


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
    return _envelope(fam, [float(t) for t in theta_grid], quad, [])[0]


def el_and_lower_bound(fam, theta_grid: Sequence[float], quad: QuadratureSpec) -> tuple:
    """``el_curve`` and ``lower_bound_curve`` of one grid, the same values as each alone.

    A proposed family, one with a ``branch_array``, is of its envelope's
    model, so where the envelope lacks points, the family's own masses join
    their :func:`band_masses` batch: one root solve and one integration
    serve both curves.  Otherwise its masses come from ``interval_masses``.
    """
    thetas = [float(t) for t in theta_grid]
    tops = [fam.support_upper(theta) for theta in thetas]
    counts = range(max(tops, default=-1) + 1)
    own = [(fam.o, counts)] if hasattr(fam, "branch_array") else []
    bound, masses = _envelope(fam, thetas, quad, own)
    masses = masses[0] if masses else fam.interval_masses(counts, quad)
    return _pratt_sums(fam, thetas, tops, [masses] * len(thetas)), bound


def _envelope(fam, thetas, quad, own) -> tuple[list[float], list]:
    """The envelope at thetas, and the masses of the ``own`` requests to its model.

    The own requests join the batch of the points the memo lacks; with no
    such point, no batch runs and no own masses are returned.
    """
    model = fam.reference(thetas[0]) if thetas else None
    envelope = _memo(model).envelope if thetas else {}
    cold = [theta for theta in dict.fromkeys(thetas) if (quad, theta) not in envelope]
    masses = []
    if cold:
        tops = [model.support_upper(theta) for theta in cold]
        requests = [(theta, range(top + 1)) for theta, top in zip(cold, tops)]
        masses = band_masses(model, [*own, *requests], quad)
        for theta, value in zip(cold, _pratt_sums(model, cold, tops, masses[len(own) :])):
            envelope[quad, theta] = value
    return [envelope[quad, theta] for theta in thetas], masses[: len(own)]
