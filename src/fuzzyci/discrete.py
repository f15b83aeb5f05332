"""Membership kernel shared by the discrete families.

Binomial and Poisson memberships come from the same randomized
Neyman-Pearson test, inverted into a fuzzy confidence interval (Geyer &
Meeden, 2005).  With p the mass function at tau, the membership of tau
after observing omega is

    clip((gamma - P[X < omega]) / p(omega), 0, 1)   for tau below o,
    clip((gamma - P[X > omega]) / p(omega), 0, 1)   for tau above o,

and the larger of the two at tau = o.  Neither branch depends on o; only
the switch between them does.  Per omega, each branch has two thresholds on
the tau axis where it leaves 0 and reaches 1 (its randomized band); they
are the tau where an upper tail P[X >= k | tau] equals gamma or 1 - gamma,
and they short-circuit the clamped regions of the scalar ``psi``, so the
ratio is evaluated only inside the bands.  The thresholds serve ``psi``
and the band integrals of the expected-length engine, which integrates
each branch over its band once and shares the result among all o (see
:mod:`fuzzyci.length`); coverage needs none of them.

As no branch depends on o, all anchors of one model (the family's type and
its fields but o) share one memo of band edges, each stored once and read
by the two counts whose bands it bounds, clipped bands with their
full-band integrals per quadrature spec, and envelope points; one LRU over
models holds the memos.  Any family object of a model serves as the model:
the band route of :mod:`fuzzyci.length` takes one, with the anchors o
whose masses it wants.

Coverage at tau needs the whole column omega = 0, 1, ... at once, and there
the numerators are partial sums of the same mass column p (Geyer & Meeden's
clamp form): psi * p = clip(gamma - 1 + P[X >= omega], 0, p) below o and
clip(gamma - 1 + P[X <= omega], 0, p) above o.  One pmf column and one
cumulative sum per tau replace the root solves and special functions.

Every family object, proposed or crisp, offers the protocol the coverage
sums and the expected-length engine (:mod:`fuzzyci.length`) use:

- ``psi(omega, tau)``: the membership, after checking the domain;
- ``interval_masses(omegas, quad)``: the Lebesgue mass of each
  ``tau -> psi(omega, tau)`` over a quadrature range: the clipped interval
  length of a crisp method, the band route of :mod:`fuzzyci.length` for a
  proposed family;
- ``log_pmf(omega, tau)``, the log mass function, and ``support_upper(tau)``,
  the last omega a sum at tau needs;
- ``log_pmf_column(tau)``: ``log_pmf`` at omega = 0..support_upper(tau), as
  an array;
- ``psi_column(tau, p)``: ``psi`` at the same omegas, given the mass column
  ``p``, without domain checks;
- ``reference(theta)``: the proposed family anchored at o = theta, whose
  expected length at theta is the envelope value there;
- ``coverage(tau)``: exact coverage at tau, by :func:`coverage`.

:class:`Randomized` builds ``psi``, its branch ``branch(omega, above,
tau)`` (above o if ``above``, else below) and the branch's array form
``branch_array`` for points inside a band, ``psi_column``,
``interval_masses``, ``thresholds`` and their edges ``solve_edge(level,
k)`` of a proposed family from what differs between the families:

- ``o``, ``gamma`` and ``tau_upper``: the parameter space is (0, tau_upper);
- ``check(omega, tau)``: raise ``ValueError`` outside the domain;
- ``tail(k, tau)``: the upper tail P[X >= k | tau] for k >= 1, whose
  derivative in tau is k p(k | tau) / tau in both families;
- ``slack(omega, above, tau)``: the numerator above o if ``above``, else
  below, each from whichever tail the family computes accurately;
- ``slack_columns(p)``: both numerators over a mass column, each from the
  partial sums of the tail ``slack`` uses;
- ``slack_array(omega, above, tau)`` and ``log_pmf_array(omega, tau)``:
  ``slack`` and ``log_pmf`` elementwise over arrays, in the same
  expressions, from the array kernels of :mod:`fuzzyci.specfun`.

:class:`Crisp` builds them for a comparison method from ``check`` and
``endpoints(omega, sqrt)``, the endpoints of its interval written so that
omega may be an array when ``sqrt`` is ``numpy.sqrt``.
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
    memberships: omega's thresholds are the edges at k = omega and
    omega + 1 at both levels.  The expected-length engine keeps, per
    quadrature spec, omega's clipped band edges and the integrals of its
    two branches over them in ``bands[quad][omega]`` (see
    :func:`fuzzyci.length.band_masses`), and envelope points in
    ``envelope[quad, theta]``.  Every table grows with the counts and
    points asked for, none with the anchors o.  An entry is stored only
    once its computation has returned.
    """
    return SimpleNamespace(edges={}, bands={}, envelope={})


class _Membership:
    """What the proposed and the crisp memberships share."""

    tau_lower = 0.0

    def coverage(self, tau: float) -> float:
        """Probability mass the membership assigns to the truth at tau."""
        return coverage(tau, self)


class Randomized(_Membership):
    """The proposed membership of a discrete family anchored at ``o``."""

    @cached_property
    def memo(self) -> SimpleNamespace:
        """The memo of this family's model: its type and every field but o."""
        return _memo(
            (type(self), *(getattr(self, f.name) for f in fields(self) if f.name != "o"))
        )

    def thresholds(self, omega: int):
        """``(below_zero, below_one, above_one, above_zero)``: omega's band edges.

        omega's full-membership edge below o is omega + 1's rejection edge,
        and likewise above o, so each edge is solved and stored once per
        model; only the edges ``memo.edges`` lacks are solved.
        """
        return self._edge_pair(omega, False) + self._edge_pair(omega, True)

    def _edge_pair(self, omega: int, above: bool) -> tuple[float, float]:
        """omega's two band edges of the branch above o if ``above``, else below.

        They are the tails' level crossings of omega and omega + 1, at level
        gamma above o and 1 - gamma below it.  An edge is solved only when
        ``memo.edges`` lacks it, and stored once its solve returns.
        """
        edges = self.memo.edges
        level = self.gamma if above else 1.0 - self.gamma
        try:  # psi's every call: two lookups in the shared edges
            return edges[level, omega], edges[level, omega + 1]
        except KeyError:
            for k in (omega, omega + 1):
                if (level, k) not in edges:
                    edges[level, k] = self.solve_edge(level, k)
            return edges[level, omega], edges[level, omega + 1]

    def solve_edge(self, level: float, k: int) -> float:
        """The band edge: the tau in (0, tau_upper) where P[X >= k | tau] = level.

        Safeguarded Newton steps on ``tail``.  The binomial's bounded space
        starts at k / (n + 1), the mean of the beta whose CDF the tail is;
        an unbounded one starts at tau = k and doubles the bracket's upper
        end from there until the tail reaches the level.  P[X >= 0] is 1 at
        every tau, so k = 0's edge is 0, and a k past the whole space's
        support, the binomial's n + 1, has its edge at tau_upper.
        """
        if k == 0:
            return 0.0
        hi = self.tau_upper
        if hi < math.inf:
            top = self.support_upper(hi)
            if k > top:
                return hi
            start = k / (top + 1)
        else:
            start = hi = float(k)
            while self.tail(k, hi) < level:
                hi *= 2.0
        return _rtsafe(
            lambda tau: self.tail(k, tau),
            lambda tau: k * math.exp(self.log_pmf(k, tau)) / tau,
            level, start, 0.0, hi,
            f"band edge failed for level={level}, k={k}",
        )

    def psi(self, omega: int, tau: float) -> float:
        """Membership of tau after observing omega.

        At tau = o the two one-sided branch values are combined with max,
        which keeps the coverage at o at or above gamma.
        """
        self.check(omega, tau)
        if tau < self.o:
            return self.branch(omega, False, tau)
        if tau > self.o:
            return self.branch(omega, True, tau)
        return max(self.branch(omega, False, tau), self.branch(omega, True, tau))

    def branch(self, omega: int, above: bool, tau: float) -> float:
        """The membership's branch above o if ``above``, else below, at any tau.

        Below o it is 0, the ratio, then 1; above o, 1, the ratio, then 0.
        """
        low, high = self._edge_pair(omega, above)
        if tau <= low:
            return float(above)
        if tau > high:
            return float(not above)
        slack = self.slack(omega, above, tau)
        if slack <= 0.0:
            return 0.0
        # The clamp absorbs float dust only; the ratio already lands in [0, 1].
        return min(1.0, max(0.0, math.exp(math.log(slack) - self.log_pmf(omega, tau))))

    def branch_array(self, omega, above, tau) -> np.ndarray:
        """``branch`` over arrays, for tau strictly inside each element's band.

        The ratio comes from ``slack_array`` and ``log_pmf_array`` as the
        scalar's from ``slack`` and ``log_pmf``.  Every quadrature node lies
        strictly inside its band, so the 0 and 1 outside it are not needed.
        """
        slack = self.slack_array(omega, above, tau)
        positive = slack > 0.0
        with np.errstate(over="ignore"):
            ratio = np.exp(
                np.log(np.where(positive, slack, 1.0)) - self.log_pmf_array(omega, tau)
            )
        return np.where(positive, np.minimum(1.0, np.maximum(0.0, ratio)), 0.0)

    def psi_column(self, tau: float, p: np.ndarray) -> np.ndarray:
        """Clamp form of ``psi(omega, tau)`` over the mass column p at tau.

        Where p underflows to 0 the membership is its limit: 1 where the
        slack is positive, else 0.
        """
        below, above = self.slack_columns(p)
        if tau < self.o:
            slack = below
        elif tau > self.o:
            slack = above
        else:
            slack = np.maximum(below, above)
        with np.errstate(all="ignore"):
            return np.where(slack > 0.0, np.minimum(1.0, slack / p), 0.0)

    def interval_masses(self, omegas, quad) -> list[float]:
        """Flat lengths plus band integrals: see :func:`fuzzyci.length.band_masses`."""
        return band_masses(self, [(self.o, omegas)], quad)[0]


class Crisp(_Membership):
    """The indicator membership of a comparison method's interval."""

    def psi(self, omega: int, tau: float) -> float:
        self.check(omega, tau)
        lo, hi = self.endpoints(omega)
        return 1.0 if lo <= tau <= hi else 0.0

    def psi_column(self, tau: float, p: np.ndarray) -> np.ndarray:
        lo, hi = self.endpoints(np.arange(len(p)), np.sqrt)
        return ((lo <= tau) & (tau <= hi)).astype(float)

    def interval_masses(self, omegas, quad) -> list[float]:
        """Length of each omega's interval inside the range, in closed form."""
        middle = 0.5 * (quad.lower + quad.upper)
        for w in omegas:
            self.check(w, middle)  # checks omega; any tau in the range would do
        lo, hi = self.endpoints(np.asarray(omegas, dtype=float), np.sqrt)
        lo = np.maximum(np.maximum(lo, 0.0), quad.lower)
        hi = np.minimum(np.minimum(hi, self.tau_upper), quad.upper)
        return np.maximum(0.0, hi - lo).tolist()


def coverage(tau: float, fam) -> float:
    """Probability mass the membership assigns to the truth at tau."""
    fam.check(0, tau)  # omega = 0 lies in every support
    p = np.exp(fam.log_pmf_column(tau))
    return math.fsum((p * fam.psi_column(tau, p)).tolist())
