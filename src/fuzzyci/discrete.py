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
every temporary.  ``by_blocks`` yields them, the one route from a tau grid
to mass rows: memberships, coverage and the Pratt sums of the
expected-length engine all read it.  A point ``psi`` is one entry of a
one-row grid, so many tau should be asked for as one grid.

Neither branch depends on o; only the switch between them does.  Per
omega, each branch leaves 0 and reaches 1 across a randomized band on the
tau axis.  The band route of :mod:`fuzzyci.length` solves the band edges,
keeps them per model and integrates each branch over its band, once for
all o; memberships at a tau need none of it.

Every family object, proposed or crisp, offers the protocol the coverage
sums and the expected-length engine (:mod:`fuzzyci.length`) use:

- ``psi(omega, tau)``: the membership, after checking the domain;
- ``interval_masses(counts, quad)``: the Lebesgue mass of each
  ``tau -> psi(omega, tau)`` over a quadrature range, for omega in the
  ``range`` counts, checked at its two ends, as a float64 array: the
  clipped interval length of a crisp method, the band route of
  :mod:`fuzzyci.length` for a proposed family;
- ``support_upper(tau)``, the last omega a sum at tau needs;
- ``by_blocks(taus, omega, top)``: yields ``(t, p)``, blocks of the grid
  and their mass rows, after checking the grid's two ends with omega;
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
below) for points inside a band, and ``interval_masses`` of a proposed
family from what differs between the families:

- ``o``, ``gamma`` and ``tau_upper``: the parameter space is (0, tau_upper);
- ``check(omega, tau)``: raise ``ValueError`` outside the domain;
- ``tail_array(k, tau)``: the upper tail P[X >= k | tau] elementwise over
  arrays, 1 at k = 0, from the masses or an array kernel of
  :mod:`fuzzyci.specfun`; a value depends only on its own arguments, never
  on the batch, so a memoized edge or integral has the same bits whatever
  batch computed it; its derivative in tau is k p(k | tau) / tau in both
  families;
- ``edge_start(level, k)``: a closed-form start of the band-edge solve of
  :func:`fuzzyci.length.solve_band_edges`, the tau where the tail is level;
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

import numpy as np

from .length import band_masses

__all__ = ["Randomized", "Crisp", "coverage"]


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
        blocks = self.by_blocks(taus, top, top)
        return np.concatenate([self.psi_rows(t, p)[:, : top + 1] for t, p in blocks])

    def by_blocks(self, taus, omega: int, top):
        """Yield ``(t, p)`` over a tau grid in order: t a block of taus, p their mass rows.

        The grid is checked with omega at its smallest and largest tau, as
        each parameter space is an interval, before the first block.  The
        mass rows are ``exp(log_pmf_rows(t, top))``, top by default the
        support bound of the largest tau, and a block holds at most
        ``_BLOCK_ELEMENTS`` masses, or one row: a bounded support's rows run
        to its end, others' to top.  A row's values depend on its tau and
        top only, never on the block.
        """
        taus = np.asarray(taus, dtype=float).ravel()
        for tau in (taus.min(), taus.max()) if taus.size else ():
            self.check(omega, float(tau))
        if top is None:
            top = self.support_upper(taus.max()) if taus.size else 0
        last = self.support_upper(self.tau_upper) if self.tau_upper < math.inf else top
        step = max(1, _BLOCK_ELEMENTS // (last + 1))
        for t in np.split(taus, range(step, len(taus), step)):
            yield t, np.exp(self.log_pmf_rows(t, top))

    def coverage(self, taus) -> np.ndarray:
        """Probability mass the membership assigns to the truth at each tau."""
        return coverage(taus, self)


class Randomized(_Membership):
    """The proposed membership of a discrete family anchored at ``o``."""

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

    def branch_array(self, omega, above, tau) -> np.ndarray:
        """The branch above o where ``above``, else below, elementwise over arrays.

        For tau strictly inside each element's band: every quadrature node
        lies there, so the 0 and 1 outside it are not needed.  The ratio is
        the numerator, gamma - P[X < omega] below o and gamma - P[X > omega]
        above it, both from the upper tail P[X >= k], k = omega or
        omega + 1, over the mass from ``log_pmf_array``.
        """
        upper = self.tail_array(omega + above, tau)
        slack = np.where(above, self.gamma - upper, self.gamma - 1.0 + upper)
        positive = slack > 0.0
        with np.errstate(over="ignore"):
            ratio = np.exp(
                np.log(np.where(positive, slack, 1.0)) - self.log_pmf_array(omega, tau)
            )
        return np.where(positive, np.minimum(1.0, np.maximum(0.0, ratio)), 0.0)

    def interval_masses(self, counts: range, quad) -> np.ndarray:
        """Flat lengths plus band integrals: see :func:`fuzzyci.length.band_masses`."""
        return band_masses(self, [(self.o, counts)], quad)[0]


class Crisp(_Membership):
    """The indicator membership of a comparison method's interval."""

    def psi_rows(self, taus: np.ndarray, p: np.ndarray) -> np.ndarray:
        lo, hi = self.endpoints(np.arange(p.shape[1]))
        taus = taus[:, None]
        return ((lo <= taus) & (taus <= hi)).astype(float)

    def interval_masses(self, counts: range, quad) -> np.ndarray:
        """Length of each count's interval inside the range, in closed form.

        The counts are checked at the range's two ends, as each support is
        an interval; an empty range checks nothing.
        """
        middle = 0.5 * (quad.lower + quad.upper)
        for w in (counts[0], counts[-1]) if counts else ():
            self.check(w, middle)  # checks omega; any tau in the range would do
        lo, hi = self.endpoints(np.arange(counts.start, counts.stop, dtype=float))
        lo = np.maximum(np.maximum(lo, 0.0), quad.lower)
        hi = np.minimum(np.minimum(hi, self.tau_upper), quad.upper)
        return np.maximum(0.0, hi - lo)


def coverage(taus, fam) -> np.ndarray:
    """Probability mass the membership assigns to the truth at each tau.

    The result has the shape of ``taus``.  The mass rows run to the support
    bound of the grid's largest tau, which certifies every row, and each
    row of p * psi is summed whole.  The exact coverage is at most the sum
    of the masses, 1, so a sum above 1 is rounding in the log masses and
    is clipped to 1.
    """
    # omega = 0 lies in every support; top None is the largest tau's bound.
    blocks = fam.by_blocks(taus, 0, None)
    rows = np.concatenate([(p * fam.psi_rows(t, p)).sum(axis=1) for t, p in blocks])
    return np.minimum(1.0, rows).reshape(np.shape(taus))
