"""Membership kernel shared by the discrete families.

Binomial and Poisson memberships come from the same randomized
Neyman-Pearson test, inverted into a fuzzy confidence interval (Geyer &
Meeden, 2005).  With p the mass function at tau, the membership of tau
after observing omega is

    clip((gamma - P[X < omega]) / p(omega), 0, 1)   for tau below o,
    clip((gamma - P[X > omega]) / p(omega), 0, 1)   for tau above o,

and the larger of the two at tau = o.  At one tau the test covers every
omega at once, and so does its evaluation: the numerators are partial sums
of the masses p at tau (Geyer & Meeden's clamp form), psi * p =
clip(gamma - 1 + P[X >= omega], 0, p) below o and
clip(gamma - 1 + P[X <= omega], 0, p) above o.  Each side sums its small
tail, the one near 1 - gamma where the membership is randomized.

A whole tau grid is evaluated at once: a (tau x omega) matrix of masses,
one cumulative sum along omega per side of o, each on that side's rows
only (both at tau = o), and one matrix of memberships, ``psi_rows``, which
serves coverage, membership grids and ``psi`` alike.  Coverage is the row
sums of p * psi.  Each tau's scalars come from ``math``, so a row has the
bits of a single tau's evaluation.  The rows go in blocks of at most
``_BLOCK_ELEMENTS`` elements, or one row where a row is wider, which bounds
every temporary.  A point ``psi`` is one entry of a one-row grid, so many
tau should be asked for as one grid.

Neither branch depends on o; only the switch between them does.  Per
omega, each branch has two band edges on the tau axis where it leaves 0
and reaches 1 (its randomized band); they are the tau where an upper tail
P[X >= k | tau] equals gamma or 1 - gamma.  They serve the band integrals
of the expected-length engine, which integrates each branch over its band
once and shares the result among all o (see :mod:`fuzzyci.length`);
memberships at a tau need none of them.

As no branch depends on o, all anchors of one model (the family's type and
its fields but o) share one memo of band edges, each stored once and read
by the two counts whose bands it bounds, clipped bands with their
full-band integrals per quadrature spec, and envelope points; one LRU over
models holds the memos.  Any family object of a model serves as the model:
the band route of :mod:`fuzzyci.length` takes one, with the anchors o
whose masses it wants.

Every family object, proposed or crisp, offers the protocol the coverage
sums and the expected-length engine (:mod:`fuzzyci.length`) use:

- ``psi(omega, tau)``: the membership, after checking the domain;
- ``interval_masses(omegas, quad)``: the Lebesgue mass of each
  ``tau -> psi(omega, tau)`` over a quadrature range: the clipped interval
  length of a crisp method, the band route of :mod:`fuzzyci.length` for a
  proposed family;
- ``support_upper(tau)``, the last omega a sum at tau needs;
- ``log_pmf_rows(taus, top)``: the log mass function, a row per tau of
  the array ``taus``, over the counts a membership up to omega = top
  reads: 0..n for the binomial, whose upper tails are summed from n, and
  0..top for the Poisson, whose sums run up from 0;
- ``psi_rows(taus, p)``: ``psi`` at the same omegas and taus, given the
  mass rows ``p``, without domain checks;
- ``psi_counts(top, taus)``: ``psi`` at omega = 0..top, a row per tau,
  checked;
- ``reference(theta)``: the proposed family anchored at o = theta, whose
  expected length at theta is the envelope value there;
- ``coverage(taus)``: exact coverage at each tau, by :func:`coverage`.

:class:`Randomized` builds ``psi``, ``psi_rows``, the branches' array
form ``branch_array(omega, above, tau)`` (above o where ``above``, else
below) for points inside a band, over their numerator ``slack_array``,
``interval_masses``, and ``band_edges(omegas)``, each count's band edges
from one batched root solve ``solve_band_edges(keys)``, of a proposed
family from what differs between the families:

- ``o``, ``gamma`` and ``tau_upper``: the parameter space is (0, tau_upper);
- ``check(omega, tau)``: raise ``ValueError`` outside the domain;
- ``tail_array(k, tau)``: the upper tail P[X >= k | tau] elementwise over
  arrays, 1 at k = 0, from an array kernel of :mod:`fuzzyci.specfun`; its
  derivative in tau is k p(k | tau) / tau in both families;
- ``log_pmf_array(omega, tau)``: the log mass function elementwise over
  arrays;
- ``slack_rows(above, taus, p)``: the numerator above o if ``above``,
  else below, over the mass rows p, from the partial sums of its small
  tail along omega.

:class:`Crisp` builds them for a comparison method from ``check`` and
``endpoints(omega)``, the endpoints of its interval, elementwise over an
array of omega.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .length import band_masses
from .specfun import _rtsafe

__all__ = ["Randomized", "Crisp", "coverage"]


# Bounded in models, not entries: a figure or a command reads one model, so
# no support or grid size evicts what its next evaluation reads.
@lru_cache(maxsize=8)
def _memo(model) -> SimpleNamespace:
    """What every anchor o of one model shares, each entry computed once.

    ``edges[level, k]``, the tau where P[X >= k | tau] = level, serves the
    band route: omega's band edges are the edges at k = omega and
    omega + 1 at both levels, and the edges one call lacks are solved
    together, as one batch.  The expected-length engine keeps, per
    quadrature spec, omega's clipped band edges and the integrals of its
    two branches over them in ``bands[quad][omega]`` (see
    :func:`fuzzyci.length.band_masses`), and envelope points in
    ``envelope[quad, theta]``.  Every table grows with the counts and
    points asked for, none with the anchors o.  An entry is stored only
    once its computation has returned.
    """
    return SimpleNamespace(edges={}, bands={}, envelope={})


# The most masses a block of rows holds, unless one row is wider.
_BLOCK_ELEMENTS = 4096


class _Membership:
    """What the proposed and the crisp memberships share."""

    tau_lower = 0.0

    def psi(self, omega: int, tau: float) -> float:
        """Membership of tau after observing omega: one entry of a one-row grid.

        Each call builds a whole row, so many tau should be asked for as one
        grid instead.
        """
        return float(self.psi_counts(omega, [tau])[0, omega])

    def psi_counts(self, top: int, taus) -> np.ndarray:
        """``psi(omega, tau)`` at omega = 0..top, a row per tau of the grid, checked."""
        return self.by_blocks(taus, top, top, lambda t, p: self.psi_rows(t, p)[:, : top + 1])

    def by_blocks(self, taus, omega: int, top, rows_of) -> np.ndarray:
        """``rows_of(t, p)`` over a tau grid, stacked: t a block of taus, p their mass rows.

        The grid is checked with omega at its smallest and largest tau, as
        each parameter space is an interval.  The mass rows are
        ``log_pmf_rows(t, top)``, top by default the support bound of the
        largest tau, and a block holds at most ``_BLOCK_ELEMENTS`` masses, or
        one row: a bounded support's rows run to its end, others' to top.
        """
        taus = np.asarray(taus, dtype=float).ravel()
        if taus.size:
            self.check(omega, float(taus.min()))
            self.check(omega, float(taus.max()))
        if top is None:
            top = self.support_upper(taus.max()) if taus.size else 0
        last = self.support_upper(self.tau_upper) if self.tau_upper < math.inf else top
        step = max(1, _BLOCK_ELEMENTS // (last + 1))
        blocks = np.split(taus, range(step, len(taus), step))
        return np.concatenate([rows_of(t, np.exp(self.log_pmf_rows(t, top))) for t in blocks])

    def coverage(self, taus) -> np.ndarray:
        """Probability mass the membership assigns to the truth at each tau."""
        return coverage(taus, self)


class Randomized(_Membership):
    """The proposed membership of a discrete family anchored at ``o``."""

    @cached_property
    def memo(self) -> SimpleNamespace:
        """The memo of this family's model: its type and every field but o."""
        return _memo(
            (type(self), *(getattr(self, f.name) for f in fields(self) if f.name != "o"))
        )

    def band_edges(self, omegas) -> list[tuple]:
        """``(below_zero, below_one, above_one, above_zero)``: each count's band edges.

        They are the tails' level crossings of omega and omega + 1, at level
        1 - gamma below o and gamma above it.  omega's full-membership edge
        below o is omega + 1's rejection edge, and likewise above o, so each
        edge is solved once per model: the edges ``memo.edges`` lacks for
        all the counts are solved in one batch, and stored once it returns.
        """
        edges = self.memo.edges
        levels = (1.0 - self.gamma, self.gamma)
        keys = [[(level, k) for level in levels for k in (w, w + 1)] for w in omegas]
        cold = list(dict.fromkeys(key for four in keys for key in four if key not in edges))
        if cold:
            edges.update(zip(cold, self.solve_band_edges(cold)))
        return [tuple(edges[key] for key in four) for four in keys]

    def solve_band_edges(self, keys) -> list[float]:
        """The band edge of each ``(level, k)``: the tau where P[X >= k | tau] = level.

        One elementwise root solve on ``tail_array``, whose derivative in
        tau is k p(k | tau) / tau in both families.  The binomial's bounded
        space starts each edge at k / (n + 1), the mean of the beta whose CDF
        the tail is; an unbounded one starts at tau = k and doubles each
        element's bracket end from there until its tail reaches the level.
        P[X >= 0] is 1 at every tau, so k = 0's edge is 0, and a k past the
        whole space's support, the binomial's n + 1, has its edge at
        tau_upper.  Every kernel evaluates each element from its own
        arguments, so an edge is the same float whatever else the batch holds.
        """
        level, k = (np.array(v) for v in zip(*keys))
        edge = np.zeros(len(k))
        hi = np.full(len(k), self.tau_upper)
        if self.tau_upper < math.inf:
            top = self.support_upper(self.tau_upper)
            edge[k > top] = self.tau_upper
            solve = np.flatnonzero((k > 0) & (k <= top))
            start = k[solve] / (top + 1)
        else:
            solve = grow = np.flatnonzero(k > 0)
            start = hi[solve] = k[solve].astype(float)
            while grow.size:
                grow = grow[self.tail_array(k[grow], hi[grow]) < level[grow]]
                hi[grow] *= 2.0
        if solve.size:
            level, k, hi = level[solve], k[solve], hi[solve]
            edge[solve] = _rtsafe(
                lambda i, tau: self.tail_array(k[i], tau),
                lambda i, tau: k[i] * np.exp(self.log_pmf_array(k[i], tau)) / tau,
                level, start, np.zeros(len(k)), hi,
                lambda i: f"band edge failed for level={level[i]}, k={k[i]}",
            )
        return edge.tolist()

    def psi_rows(self, taus: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Clamp form of ``psi(omega, tau)`` over the mass rows p, a row per tau.

        Each side's numerator is summed on the rows of its side of o only,
        and a row at tau = o takes the larger of the two, which keeps the
        coverage at o at or above gamma.  Where p underflows to 0 the
        membership is its limit: 1 where the slack is positive, else 0.
        """
        slack = np.full_like(p, -np.inf)
        for above, rows in ((False, taus <= self.o), (True, taus >= self.o)):
            slack[rows] = np.maximum(slack[rows], self.slack_rows(above, taus[rows], p[rows]))
        with np.errstate(all="ignore"):
            return np.where(slack > 0.0, np.minimum(1.0, slack / p), 0.0)

    def slack_array(self, omega, above, tau) -> np.ndarray:
        """The branch's numerator, above o where ``above``, else below, over arrays.

        gamma - P[X < omega] below o and gamma - P[X > omega] above it, both
        from the upper tail P[X >= k], k = omega or omega + 1.
        """
        upper = self.tail_array(omega + above, tau)
        return np.where(above, self.gamma - upper, self.gamma - 1.0 + upper)

    def branch_array(self, omega, above, tau) -> np.ndarray:
        """The branch above o where ``above``, else below, elementwise over arrays.

        For tau strictly inside each element's band: every quadrature node
        lies there, so the 0 and 1 outside it are not needed.  The ratio is
        ``slack_array`` over the mass from ``log_pmf_array``.
        """
        slack = self.slack_array(omega, above, tau)
        positive = slack > 0.0
        with np.errstate(over="ignore"):
            ratio = np.exp(
                np.log(np.where(positive, slack, 1.0)) - self.log_pmf_array(omega, tau)
            )
        return np.where(positive, np.minimum(1.0, np.maximum(0.0, ratio)), 0.0)

    def interval_masses(self, omegas, quad) -> list[float]:
        """Flat lengths plus band integrals: see :func:`fuzzyci.length.band_masses`."""
        return band_masses(self, [(self.o, omegas)], quad)[0]


class Crisp(_Membership):
    """The indicator membership of a comparison method's interval."""

    def psi_rows(self, taus: np.ndarray, p: np.ndarray) -> np.ndarray:
        lo, hi = self.endpoints(np.arange(p.shape[1]))
        taus = taus[:, None]
        return ((lo <= taus) & (taus <= hi)).astype(float)

    def interval_masses(self, omegas, quad) -> list[float]:
        """Length of each omega's interval inside the range, in closed form."""
        middle = 0.5 * (quad.lower + quad.upper)
        for w in omegas:
            self.check(w, middle)  # checks omega; any tau in the range would do
        lo, hi = self.endpoints(np.asarray(omegas, dtype=float))
        lo = np.maximum(np.maximum(lo, 0.0), quad.lower)
        hi = np.minimum(np.minimum(hi, self.tau_upper), quad.upper)
        return np.maximum(0.0, hi - lo).tolist()


def coverage(taus, fam) -> np.ndarray:
    """Probability mass the membership assigns to the truth at each tau.

    The result has the shape of ``taus``.  The mass rows run to the support
    bound of the grid's largest tau, which certifies every row, and each
    row of p * psi is summed whole.  The exact coverage is at most the sum
    of the masses, 1, so a sum above 1 is rounding in the log masses and
    is clipped to 1.
    """
    # omega = 0 lies in every support; top None is the largest tau's bound.
    rows = fam.by_blocks(taus, 0, None, lambda t, p: (p * fam.psi_rows(t, p)).sum(axis=1))
    return np.minimum(1.0, rows).reshape(np.shape(taus))
