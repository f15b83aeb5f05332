"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own integration and closed-form
code paths: plain Gauss-Legendre panels for normal expectations (with the
interval length taken straight from the interval endpoints), midpoint
Riemann sums for memberships over the parameter axis, a greedy fill for
the optimal-membership linear program, the integral of a membership
against a measure, the scalar incomplete beta and log masses, the binomial
mass and CDF by direct summation, the Poisson CDF by its term recurrence,
the discrete families' band edges one scalar root solve at a time, a
proposed family's membership one point at a time (those edges, then one
branch's slack from a scalar tail), coverage as a sum of those scalar
memberships, the discrete memberships and coverage one tau at a time from
one mass column each (the route the grid rows must match bit for bit), the
discrete families' upper tails in 40-digit mpmath, a crisp method's
clipped interval from its endpoints, and interval masses by
scalar adaptive Gauss-Legendre quadrature on panels split at a
membership's breakpoints, with the fake families that test it, the 0/1
knapsack optimum by a dynamic program over one capacity at a time, the
CLI's CSV text formatted one value at a time, and a normal membership from
its scalar comparisons, one sample mean at a time.
"""

import math
from functools import lru_cache, partial

import numpy as np

from fuzzyci.binomial import AgrestiCoull, BinomialFamily
from fuzzyci.core import _align
from fuzzyci.discrete import Crisp, Randomized
from fuzzyci.length import _gauss_legendre
from fuzzyci.normal import NormalFamily
from fuzzyci.poisson import PoissonFamily, ScoreInterval
from fuzzyci.specfun import (
    _ABS_TOL,
    _EPS,
    _FPMIN,
    EXP_NORMAL_MAX,
    ConvergenceError,
    log_factorials,
    normal_quantile,
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


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I(x; a, b), one point at a time.

    The CDF of a Beta(a, b) variable at x, for real shapes a, b >= 0, not
    both zero.  Degenerate shapes follow the limits of the beta family:
    I(x; 0, b) = 1 for x > 0 and I(x; a, 0) = 0 for x < 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if a < 0 or b < 0:
        raise ValueError("shape parameters must be nonnegative")
    if a == 0.0 and b == 0.0:
        raise ValueError("shape parameters must not both be zero")
    if a == 0.0:
        return 1.0 if x > 0.0 else 0.0
    if b == 0.0:
        return 1.0 if x >= 1.0 else 0.0
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry switch keeps the continued fraction in its fast-convergence
    # region on both sides of the mode.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def binom_log_pmf(omega, n, tau):
    """Log of the binomial mass function at omega for n trials, success tau."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0 <= omega <= n:
        raise ValueError(f"omega must lie in [0, {n}], got {omega}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    ln_choose = (
        math.lgamma(n + 1) - math.lgamma(omega + 1) - math.lgamma(n - omega + 1)
    )
    return ln_choose + omega * math.log(tau) + (n - omega) * math.log1p(-tau)


def pois_log_pmf(omega, tau):
    """Log of the Poisson mass function at omega with mean tau, from ``math``.

    The expression and order of the library's log-mass rows, and of the
    mode's log mass in ``poisson.support_bound``.
    """
    if omega < 0:
        raise ValueError(f"omega must be a nonnegative integer, got {omega}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return -tau + omega * math.log(tau) - math.lgamma(omega + 1)


def log_pmf(fam, omega, tau):
    """A family's log mass at omega, one point at a time.

    The scalar binomial or Poisson log mass for the library's families, a
    fake family's own ``log_pmf``.
    """
    if isinstance(fam, (BinomialFamily, AgrestiCoull)):
        return binom_log_pmf(omega, fam.n, tau)
    if isinstance(fam, (PoissonFamily, ScoreInterval)):
        return pois_log_pmf(omega, tau)
    return fam.log_pmf(omega, tau)


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), series/continued fraction.

    At an integer s = k it is the Poisson upper tail P[X >= k | mean x].
    """
    if x < 0 or s <= 0:
        raise ValueError("requires x >= 0 and s > 0")
    if x == 0.0:
        return 0.0
    # Near x = s both expansions need about sqrt(70 s) terms.
    budget = 500 + int(10.0 * math.sqrt(s))
    if x < s + 1.0:
        # Power series around zero.
        ap = s
        summed = 1.0 / s
        term = summed
        for _ in range(budget):
            ap += 1.0
            term *= x / ap
            summed += term
            if abs(term) < abs(summed) * _EPS:
                ln = -x + s * math.log(x) - math.lgamma(s)
                return summed * math.exp(ln)
        raise ConvergenceError(f"incomplete gamma series failed for s={s}, x={x}")
    # Continued fraction for the upper tail (modified Lentz).
    b_ = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b_
    h = d
    for i in range(1, budget):
        an = -i * (i - s)
        b_ += 2.0
        d = an * d + b_
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b_ + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < _EPS:
            ln = -x + s * math.log(x) - math.lgamma(s)
            return 1.0 - h * math.exp(ln)
    raise ConvergenceError(
        f"incomplete gamma continued fraction failed for s={s}, x={x}"
    )


def scalar_tail(fam, k, tau):
    """P[X >= k | tau], one point at a time.

    The binomial's incomplete beta I(tau; k, n - k + 1), for 0 <= k <= n + 1;
    the Poisson's incomplete gamma P(k, tau), for k >= 1.
    """
    if isinstance(fam, BinomialFamily):
        return reg_inc_beta(tau, k, fam.n - k + 1)
    return reg_lower_gamma(k, tau)


def scalar_rtsafe(cdf, pdf, p, x, lo, hi, failure):
    """Solve ``cdf(x) = p`` for x in the bracket [lo, hi], starting at x.

    A safeguarded Newton solve of one element in plain floats, with the
    library's Newton steps kept inside the bracket, bisection fallback and
    iteration budget, but its own stopping rule: it evaluates every iterate
    and returns x once its residual is within ``_ABS_TOL`` and the step
    that reached it was within 1e-12 of it relative, or a Newton step from
    it rounds to x itself.  The library returns that last Newton iterate
    without evaluating it, a pass earlier.
    """
    step = math.inf
    for _ in range(200):
        f = cdf(x) - p
        if abs(f) <= _ABS_TOL and step <= 1e-12 * max(1.0, abs(x)):
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        dfdx = pdf(x)
        newton_ok = dfdx > 0.0
        if newton_ok:
            x_new = x - f / dfdx
            if x_new == x and abs(f) <= _ABS_TOL:
                return x
            newton_ok = lo < x_new < hi
        if not newton_ok:
            x_new = 0.5 * (lo + hi)
        step = abs(x_new - x)
        if hi - lo < 4.0 * _EPS * max(1.0, abs(x_new)):
            return 0.5 * (lo + hi)
        x = x_new
    raise ConvergenceError(failure)


def scalar_solve_edge(fam, level, k):
    """The band edge: the tau in (0, tau_upper) where P[X >= k | tau] = level.

    One ``scalar_rtsafe`` solve per edge on ``scalar_tail``, on scalar
    kernels and from starts of its own, independent of the library's batch.
    The binomial's bounded space starts at k / (n + 1), the mean of the
    beta whose CDF the tail is; an unbounded one starts at tau = k and
    doubles the bracket's upper end from there until the tail reaches the
    level.  The library starts from closed-form quantiles (``edge_start``)
    and stops a pass earlier, so the two routes agree within the residual
    tolerance, not bit for bit.  k = 0's edge is 0, and a k past the
    binomial's n has its edge at 1.
    """
    # Band edges do not depend on o: every anchor of a model shares them.
    return _scalar_edge(fam.reference(0.5), level, k)


@lru_cache(maxsize=None)
def _scalar_edge(fam, level, k):
    if k == 0:
        return 0.0
    hi = fam.tau_upper
    if hi < math.inf:
        if k > fam.n:
            return hi
        start = k / (fam.n + 1)
    else:
        start = hi = float(k)
        while scalar_tail(fam, k, hi) < level:
            hi *= 2.0
    return scalar_rtsafe(
        lambda tau: scalar_tail(fam, k, tau),
        lambda tau: k * math.exp(log_pmf(fam, k, tau)) / tau,
        level, start, 0.0, hi,
        f"band edge failed for level={level}, k={k}",
    )


@lru_cache(maxsize=None)
def scalar_thresholds(fam, omega):
    """``(below_zero, below_one, above_one, above_zero)``: omega's band edges.

    The tails' level crossings of omega and omega + 1, at level 1 - gamma
    below o and gamma above it, each from ``scalar_solve_edge``.
    """
    return tuple(
        scalar_solve_edge(fam, level, k)
        for level in (1.0 - fam.gamma, fam.gamma) for k in (omega, omega + 1)
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


def pois_cdf(omega, tau):
    """Poisson CDF P[X <= omega]: the library's ascending term recurrence, in scalars.

    Summed from count 0 and exp(-tau) up to ``EXP_NORMAL_MAX``.  Above it
    exp(-tau) underflows, and the sum starts at f = floor(tau - 10 sqrt tau)
    from Loader's saddle-point mass at the mode floor(tau), carried down to
    f; an omega below f gives 0.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    first = 0 if tau <= EXP_NORMAL_MAX else math.floor(tau - 10.0 * math.sqrt(tau))
    if omega < first:
        return 0.0
    if first:
        mode = math.floor(tau)
        d = tau - mode
        stirlerr = (1.0 / 12.0 - 1.0 / (360.0 * mode * mode)) / mode
        term = math.exp(-stirlerr - mode * math.log1p(-d / tau) - d)
        term /= math.sqrt(2.0 * math.pi * mode)
        for i in range(mode, first, -1):
            term *= i / tau
    else:
        term = math.exp(-tau)
    total = term
    for i in range(first + 1, omega + 1):
        term *= tau / i
        total += term
    return min(1.0, total)


def scalar_slack(fam, omega, above, tau):
    """A proposed family's numerator above o if ``above``, else below, at one point.

    gamma - P[X < omega] below o and gamma - P[X > omega] above it: the
    binomial's from its upper tail P[X >= k], k = omega or omega + 1, the
    Poisson's from its CDF P[X <= k], k = omega - 1 or omega.
    """
    if isinstance(fam, BinomialFamily):
        upper = scalar_tail(fam, omega + above, tau)
        return fam.gamma - upper if above else fam.gamma - 1.0 + upper
    cdf = pois_cdf(omega - 1 + above, tau)
    return fam.gamma - 1.0 + cdf if above else fam.gamma - cdf


def scalar_branch(fam, omega, above, tau):
    """A proposed family's branch above o if ``above``, else below, at any tau.

    Below o it is 0, the ratio, then 1; above o, 1, the ratio, then 0.  The
    band edges short-circuit the clamped regions, so the ratio is evaluated
    only inside the band.
    """
    z0, z1, a1, a0 = scalar_thresholds(fam, omega)
    low, high = (a1, a0) if above else (z0, z1)
    if tau <= low:
        return float(above)
    if tau > high:
        return float(not above)
    slack = scalar_slack(fam, omega, above, tau)
    if slack <= 0.0:
        return 0.0
    # The clamp absorbs float dust only; the ratio already lands in [0, 1].
    return min(1.0, max(0.0, math.exp(math.log(slack) - log_pmf(fam, omega, tau))))


def scalar_psi(fam, omega, tau):
    """Membership of tau after omega, one point at a time.

    A proposed family's by the threshold-and-special-function route,
    independent of the clamp-form rows its own ``psi`` reads (the larger
    branch at tau = o); a crisp method's from its interval's endpoints; any
    other family's by its own ``psi``.
    """
    if isinstance(fam, Crisp):
        fam.check(omega, tau)
        lo, hi = interval(fam, omega)
        return 1.0 if lo <= tau <= hi else 0.0
    if not isinstance(fam, Randomized):
        return fam.psi(omega, tau)
    fam.check(omega, tau)
    if tau < fam.o:
        return scalar_branch(fam, omega, False, tau)
    if tau > fam.o:
        return scalar_branch(fam, omega, True, tau)
    return max(scalar_branch(fam, omega, above, tau) for above in (False, True))


def column_log_pmf(fam, tau, top):
    """Log masses at one tau, as one column: 0..n for a binomial, 0..top for a Poisson.

    The per-tau route the grid rows replaced, the same expressions in the
    same order, with the logs from ``math``.
    """
    if fam.tau_upper == 1.0:
        n, w = fam.n, np.arange(fam.n + 1)
        lf = log_factorials(n)
        return lf[n] - lf[w] - lf[n - w] + w * math.log(tau) + (n - w) * math.log1p(-tau)
    return -tau + np.arange(top + 1) * math.log(tau) - log_factorials(top)


def _column_slack(fam, above, tau, p):
    """A proposed family's numerator above o if ``above``, else below, over one column."""
    if fam.tau_upper == 1.0:
        if above:
            return fam.gamma - 1.0 + np.cumsum(p)
        return fam.gamma - 1.0 + np.cumsum(p[::-1])[::-1]
    if tau > EXP_NORMAL_MAX:
        cdf = np.cumsum(p)
    else:
        cdf = np.cumsum(np.cumprod(np.append(math.exp(-tau), tau / np.arange(1, len(p)))))
    if above:
        return fam.gamma - 1.0 + cdf
    return fam.gamma - np.append(0.0, cdf[:-1])


def column_psi(fam, tau, top):
    """Memberships at omega = 0..top and one tau: one mass column, one sum per side.

    The per-tau route the grid rows replaced: a crisp method's indicator
    from its endpoints, a proposed family's clamp form over the column,
    only tau's side of o summed, both at tau = o.
    """
    p = np.exp(column_log_pmf(fam, tau, top))
    if isinstance(fam, Crisp):
        lo, hi = fam.endpoints(np.arange(len(p)))
        return ((lo <= tau) & (tau <= hi)).astype(float)[: top + 1]
    if tau == fam.o:
        slack = np.maximum(_column_slack(fam, False, tau, p), _column_slack(fam, True, tau, p))
    else:
        slack = _column_slack(fam, tau > fam.o, tau, p)
    with np.errstate(all="ignore"):
        return np.where(slack > 0.0, np.minimum(1.0, slack / p), 0.0)[: top + 1]


def column_coverage(tau, fam, top=None):
    """Coverage at one tau by the per-tau route, summed over omega = 0..top.

    top defaults to tau's own support bound; a grid's rows all run to the
    bound of its largest tau.
    """
    if top is None:
        top = fam.support_upper(tau)
    p = np.exp(column_log_pmf(fam, tau, top))
    return float(np.sum(p * column_psi(fam, tau, len(p) - 1)))


def scalar_coverage(tau, fam):
    """Coverage at tau summed from the scalar ``log_pmf`` and ``scalar_psi``.

    The threshold-and-special-function route, independent of the clamp-form
    columns behind ``discrete.coverage``.
    """
    return math.fsum(
        math.exp(log_pmf(fam, w, tau)) * scalar_psi(fam, w, tau)
        for w in range(fam.support_upper(tau) + 1)
    )


def pois_pmf(omega, tau):
    """Poisson mass at omega with mean tau, from the scalar log mass above."""
    return math.exp(pois_log_pmf(omega, tau))


def _mp_tail(fam, k, tau):
    """P[X >= k | tau] of a binomial or Poisson family at mpmath's precision.

    The regularized incomplete beta I(tau; k, n - k + 1) or the regularized
    lower incomplete gamma P(k, tau); 1 at k = 0 and, for the binomial, 0
    past n.
    """
    import mpmath

    if k <= 0:
        return mpmath.mpf(1)
    if fam.tau_upper == 1.0:
        if k > fam.n:
            return mpmath.mpf(0)
        return mpmath.betainc(k, fam.n - k + 1, 0, tau, regularized=True)
    return mpmath.gammainc(k, 0, tau, regularized=True)


def mp_tail_residual(fam, k, tau, level, dps=40):
    """|P[X >= k | tau] - level| for a binomial or Poisson family, in dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        return float(abs(_mp_tail(fam, k, mpmath.mpf(tau)) - mpmath.mpf(level)))


def mp_psi(fam, omega, tau, dps=40):
    """A proposed family's membership at tau != o, in dps digits.

    The slack of tau's side of o over the mass, clamped to [0, 1], from
    mpmath's tails and masses at the float gamma and tau.
    """
    import mpmath

    with mpmath.workdps(dps):
        t, gamma = mpmath.mpf(tau), mpmath.mpf(fam.gamma)
        if tau > fam.o:
            slack = gamma - _mp_tail(fam, omega + 1, t)
        else:
            slack = gamma - 1 + _mp_tail(fam, omega, t)
        if fam.tau_upper == 1.0:
            mass = mpmath.binomial(fam.n, omega) * t**omega * (1 - t) ** (fam.n - omega)
        else:
            mass = mpmath.exp(-t) * t**omega / mpmath.factorial(omega)
        return float(min(1, max(0, slack / mass)))


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

    A proposed family's scalar band edges and o, a crisp method's endpoints, or
    what a fake family advertises.
    """
    if isinstance(fam, Randomized):
        points = {*scalar_thresholds(fam, omega), fam.o}
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
    f = partial(scalar_psi, fam, omega)
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
        math.exp(log_pmf(fam, w, theta)) * breakpoint_mass(fam, w, quad)
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


def solve_01_dp_loop(instance):
    """The 0/1 knapsack optimum, one capacity at a time per item.

    Integer weights and capacity; the selected indices and their value.
    Capacities run downward so that ``best[c - w]`` still excludes item i,
    and an item is taken only where it strictly beats leaving it out.
    """
    weights = [int(w) for w in instance.weights]
    capacity = int(instance.capacity)
    best = [0.0] * (capacity + 1)
    taken = [bytearray(capacity + 1) for _ in weights]
    for i, (w, v) in enumerate(zip(weights, instance.values)):
        row = taken[i]
        for c in range(capacity, w - 1, -1):
            candidate = best[c - w] + v
            if candidate > best[c]:
                best[c] = candidate
                row[c] = 1
    subset = []
    c = capacity
    for i in range(len(weights) - 1, -1, -1):
        if taken[i][c]:
            subset.append(i)
            c -= weights[i]
    subset.reverse()
    return tuple(subset), best[capacity]


def csv_text(header, rows, comments=()):
    """The CLI's CSV: floats at 17 significant digits, other values by str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def scalar_normal_psi(fam, x, tau):
    """A normal membership of tau after the sample mean x, from the scalar comparisons.

    The one-sided interval anchored at o is open, the two-sided one closed;
    both vanish outside the bounds.  The half-widths are the library's
    floats, z * sigma.
    """
    if fam.bounds is not None and not fam.bounds[0] <= tau <= fam.bounds[1]:
        return 0.0
    if isinstance(fam, NormalFamily):
        c = normal_quantile(fam.gamma) * fam.sigma
        return 1.0 if min(fam.o, x - c) < tau < max(fam.o, x + c) else 0.0
    d = two_sided_z(fam.gamma) * fam.sigma
    return 1.0 if x - d <= tau <= x + d else 0.0
