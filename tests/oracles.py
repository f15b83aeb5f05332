"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own integration and closed-form
code paths: plain Gauss-Legendre panels for normal expectations (with the
interval length taken straight from the interval endpoints), midpoint
Riemann sums for memberships over the parameter axis, a greedy fill for
the optimal-membership linear program, the integral of a membership
against a measure, the binomial mass and CDF by direct summation,
coverage as a sum of scalar memberships, the discrete
families' upper tails in 40-digit mpmath, a crisp method's clipped
interval from its endpoints, and interval masses by scalar adaptive
Gauss-Legendre quadrature on panels split at a membership's breakpoints,
with the fake families that test it.
"""

import math
from functools import partial

import numpy as np

from fuzzyci.core import _align
from fuzzyci.discrete import Crisp, Randomized
from fuzzyci.length import _gauss_legendre
from fuzzyci.specfun import (
    ConvergenceError,
    binom_log_pmf,
    normal_quantile,
    pois_log_pmf,
    two_sided_z,
)

_ORACLE_MAX_SUPPORT = 25

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(40)


def quadrature_el(length_fn, theta, stderr, kinks):
    """Gauss-Legendre expectation of a piecewise-linear length function.

    Panels split at the kink locations keep each integrand smooth; +-9
    standard errors truncate the Gaussian tail far below 1e-6.
    """
    lo, hi = theta - 9.0 * stderr, theta + 9.0 * stderr
    points = sorted({lo, hi, *[k for k in kinks if lo < k < hi]})
    total = 0.0
    for p, q in zip(points, points[1:]):
        mid, half = 0.5 * (p + q), 0.5 * (q - p)
        x = mid + half * _NODES
        dens = np.exp(-0.5 * ((x - theta) / stderr) ** 2) / (
            stderr * math.sqrt(2.0 * math.pi)
        )
        lengths = np.array([length_fn(float(v)) for v in x])
        total += half * float(np.sum(_WEIGHTS * dens * lengths))
    return total


def oracle_el_psi_o(theta, fam):
    """Expected length of the o-anchored normal membership, by quadrature."""
    a, b = fam.bounds
    c = normal_quantile(fam.gamma) * fam.sigma
    o = fam.o

    def length(x):
        lo = max(a, min(o, x - c))
        hi = min(b, max(o, x + c))
        return max(0.0, hi - lo)

    return quadrature_el(length, theta, fam.sigma, [a + c, o + c, o - c, b - c])


def _mp_el(length, kinks, theta, sigma):
    """Gaussian expectation at theta of a piecewise-linear interval length.

    ``length(x)`` and ``kinks`` take and hold mpmath numbers.  The integral
    runs at the working precision over theta +- 40 sigma (the rest weighs
    below 1e-340), split at the kinks inside that range.
    """
    import mpmath

    theta, s = mpmath.mpf(theta), mpmath.mpf(sigma)
    scale = 1 / (s * mpmath.sqrt(2))

    def integrand(x):
        return max(0, length(x)) * mpmath.exp(-(((x - theta) * scale) ** 2))

    lo, hi = theta - 40 * s, theta + 40 * s
    cuts = [k for k in kinks if lo < k < hi]
    edges = sorted({lo, hi, *cuts})
    return float(
        mpmath.quad(integrand, edges, method="gauss-legendre") * scale / mpmath.sqrt(mpmath.pi)
    )


def mp_el_anchored(o, theta, fam, dps=40):
    """Expected length at theta of the membership anchored at o, in dps digits.

    The interval is the one the library evaluates, with the same float
    c = z * sigma.
    """
    import mpmath

    c = normal_quantile(fam.gamma) * fam.sigma
    with mpmath.workdps(dps):
        a, b, c, o = (mpmath.mpf(v) for v in (*fam.bounds, c, o))

        def length(x):
            return min(b, max(o, x + c)) - max(a, min(o, x - c))

        return _mp_el(length, (a + c, o + c, o - c, b - c), theta, fam.sigma)


def mp_el_two_sided(theta, fam, dps=40):
    """Expected length at theta of the truncated two-sided interval, in dps digits.

    The interval is the one the library evaluates, with the same float
    d = z * sigma.
    """
    import mpmath

    d = two_sided_z(fam.gamma) * fam.sigma
    with mpmath.workdps(dps):
        a, b, d = (mpmath.mpf(v) for v in (*fam.bounds, d))

        def length(x):
            return min(b, x + d) - max(a, x - d)

        return _mp_el(length, (a - d, a + d, b - d, b + d), theta, fam.sigma)


def oracle_el_nl(theta, fam):
    """Expected length of the truncated two-sided interval, by quadrature."""
    a, b = fam.bounds
    d = normal_quantile(0.5 * (1.0 + fam.gamma)) * fam.sigma

    def length(x):
        return max(0.0, min(b, x + d) - max(a, x - d))

    return quadrature_el(length, theta, fam.sigma, [a - d, a + d, b - d, b + d])


def riemann_mass(psi, lo, hi, n_points, split=()):
    """Midpoint-rule mass of a membership, split at known jump locations."""
    edges = sorted({lo, hi, *[s for s in split if lo < s < hi]})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        m = max(1, round(n_points * (b - a) / (hi - lo)))
        h = (b - a) / m
        total += h * math.fsum(psi(a + (k + 0.5) * h) for k in range(m))
    return total


def radon_nikodym(mu, nu):
    """Density ratio of nu with respect to mu, plus the singular set.

    Returns ``(support, ratio, singular)`` where ``ratio[i] = nu_i / mu_i``
    on points with mu-mass and ``inf`` otherwise, and ``singular`` is the
    set of points carrying nu-mass but no mu-mass.
    """
    support, mu_mass, nu_mass = _align(mu, nu)
    ratio = [
        (n / m) if m > 0.0 else math.inf for m, n in zip(mu_mass, nu_mass)
    ]
    singular = {p for p, m, n in zip(support, mu_mass, nu_mass) if m == 0.0 and n > 0.0}
    return tuple(support), tuple(ratio), singular


def feasible_optimum_oracle(mu, nu, gamma):
    """Minimal nu-mass over memberships with mu-mass >= gamma, by greedy fill.

    Points are taken in ascending density-ratio order, the last one
    fractionally, which is optimal for this single-constraint linear
    program.  Kept deliberately independent of ``construct_psi_star``.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    support, mu_mass, nu_mass = _align(mu, nu)
    if len(support) > _ORACLE_MAX_SUPPORT:
        raise ValueError(
            f"oracle supports at most {_ORACLE_MAX_SUPPORT} points, got {len(support)}"
        )
    ratio = [
        (n / m) if m > 0.0 else math.inf for m, n in zip(mu_mass, nu_mass)
    ]
    order = sorted(
        (i for i in range(len(support)) if mu_mass[i] > 0.0),
        key=lambda i: (ratio[i], i),
    )
    remaining = gamma
    parts = []
    for i in order:
        if remaining <= 0.0:
            break
        take = min(1.0, remaining / mu_mass[i])
        parts.append(take * nu_mass[i])
        remaining -= take * mu_mass[i]
    return math.fsum(parts)


def expectation(psi_star, measure):
    """Integral of a ``PsiStar``'s psi against a measure (0 mass off its support)."""
    lookup = dict(zip(measure.support, measure.mass))
    return math.fsum(
        p * lookup.get(point, 0.0) for point, p in zip(psi_star.support, psi_star.psi)
    )


def binom_pmf(omega, n, tau):
    """Binomial mass at omega for n trials, from the library's log mass."""
    return math.exp(binom_log_pmf(omega, n, tau))


def binom_cdf(omega, n, tau):
    """Binomial CDF P[X <= omega] by direct summation of the smaller tail."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if omega < 0:
        return 0.0
    if omega >= n:
        return 1.0
    if omega <= n // 2:
        return math.fsum(binom_pmf(i, n, tau) for i in range(0, omega + 1))
    return 1.0 - math.fsum(binom_pmf(i, n, tau) for i in range(omega + 1, n + 1))


def scalar_coverage(tau, fam):
    """Coverage at tau summed from the scalar ``log_pmf`` and ``psi``.

    The threshold-and-special-function route, independent of the clamp-form
    columns behind ``discrete.coverage``.
    """
    return math.fsum(
        math.exp(fam.log_pmf(w, tau)) * fam.psi(w, tau)
        for w in range(fam.support_upper(tau) + 1)
    )


def pois_pmf(omega, tau):
    """Poisson mass at omega with mean tau, from the library's log mass."""
    return math.exp(pois_log_pmf(omega, tau))


def mp_tail_residual(fam, k, tau, level, dps=40):
    """|P[X >= k | tau] - level| for a binomial or Poisson family, in dps digits.

    The tail is the regularized incomplete beta I(tau; k, n - k + 1) or the
    regularized lower incomplete gamma P(k, tau), both from mpmath.
    """
    import mpmath

    with mpmath.workdps(dps):
        tau = mpmath.mpf(tau)
        if fam.tau_upper == 1.0:
            tail = mpmath.betainc(k, fam.n - k + 1, 0, tau, regularized=True)
        else:
            tail = mpmath.gammainc(k, 0, tau, regularized=True)
        return float(abs(tail - mpmath.mpf(level)))


_MAX_DEPTH = 30


def refine(f, a, b, whole, tol, depth):
    """Adaptive bisection of the 10-point rule, one panel at a time."""
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
    return refine(f, a, mid, left, 0.5 * tol, depth + 1) + refine(
        f, mid, b, right, 0.5 * tol, depth + 1
    )


def band_integral(f, a, b, rel_tol):
    """Integral of 0 <= f <= 1 over [a, b], to rel_tol times its largest value."""
    if not a < b:
        return 0.0
    return refine(f, a, b, _gauss_legendre(f, a, b), rel_tol * (b - a), 0)


def breakpoints(fam, omega):
    """Where tau -> psi(omega, tau) may kink or jump inside the domain.

    A proposed family's thresholds and o, a crisp method's endpoints, or
    what a fake family advertises.
    """
    if isinstance(fam, Randomized):
        points = {*fam.thresholds(omega), fam.o}
    elif isinstance(fam, Crisp):
        points = set(fam.endpoints(omega))
    else:
        return fam.breakpoints(omega)
    return tuple(sorted(p for p in points if 0.0 < p < fam.tau_upper))


def interval(method, omega):
    """A crisp method's interval for omega, clipped to the parameter space.

    Inside the space, comparing tau with the raw endpoints gives the same
    answer as comparing it with these.
    """
    lo, hi = method.endpoints(omega)
    return max(0.0, lo), min(method.tau_upper, hi)


def breakpoint_mass(fam, omega, quad):
    """Mass of tau -> psi(omega | tau), on panels split at the breakpoints.

    Adaptive bisection converges poorly across kinks, and open nodes keep
    jump points harmless.
    """
    edges = sorted(
        {quad.lower, quad.upper,
         *(p for p in breakpoints(fam, omega) if quad.lower < p < quad.upper)}
    )
    f = partial(fam.psi, omega)
    panels = list(zip(edges, edges[1:]))
    first_pass = [_gauss_legendre(f, a, b) for a, b in panels]
    scale = max(math.fsum(abs(v) for v in first_pass), 1e-12)
    width_total = quad.upper - quad.lower
    parts = []
    for (a, b), whole in zip(panels, first_pass):
        tol = quad.rel_tol * scale * (b - a) / width_total
        parts.append(refine(f, a, b, whole, tol, 0))
    return max(0.0, math.fsum(parts))


def breakpoint_el(fam, theta, quad):
    """Expected length at theta from the breakpoint masses."""
    return math.fsum(
        math.exp(fam.log_pmf(w, theta)) * breakpoint_mass(fam, w, quad)
        for w in range(fam.support_upper(theta) + 1)
    )


class Uniform:
    """Observations 0..n equally likely at every theta; psi fixed per class."""

    def __init__(self, n=0):
        self.n = n

    def log_pmf(self, omega, theta):
        return -math.log(self.n + 1)

    def support_upper(self, theta):
        return self.n

    def breakpoints(self, omega):
        return ()


class Constant(Uniform):
    def __init__(self, level, n=4):
        super().__init__(n)
        self.level = level

    def psi(self, omega, tau):
        return self.level


class Indicator(Uniform):
    def __init__(self, lo, hi):
        super().__init__()
        self.lo, self.hi = lo, hi

    def psi(self, omega, tau):
        return 1.0 if self.lo < tau < self.hi else 0.0

    def breakpoints(self, omega):
        return (self.lo, self.hi)


class Sneaky(Uniform):
    """A jump at 0.37 that ``breakpoints`` does not advertise."""

    def psi(self, omega, tau):
        return 1.0 if tau < 0.37 else 0.0
