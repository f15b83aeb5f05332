"""Self-contained special-function kernels.

Everything the distribution families need lives here: the regularized
incomplete beta and lower incomplete gamma functions, whose values at
integer shapes are the binomial and Poisson upper tails, the standard
normal CDF/quantile, and binomial/Poisson mass and distribution functions
evaluated in log space, per point or as a whole column over the support.
The ``*_array`` kernels evaluate the scalar ones elementwise over arrays of
points, in the same operation order, with numpy's ``log`` and ``exp`` in
place of ``math``'s; each element's value depends on its own arguments
only, not on the rest of the array.

All functions are pure and reentrant.  The root solves, the normal
quantile here and the band edges of :mod:`fuzzyci.discrete`, run through
``_rtsafe``: they meet the absolute residual ``_ABS_TOL`` within
``_MAX_ITER`` iterations or raise :class:`ConvergenceError` instead of
returning an unconverged value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "reg_inc_beta",
    "reg_inc_beta_array",
    "reg_lower_gamma",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "two_sided_z",
    "log_factorials",
    "binom_log_pmf",
    "binom_log_pmf_column",
    "binom_log_pmf_array",
    "pois_log_pmf",
    "pois_log_pmf_column",
    "pois_log_pmf_array",
    "pois_cdf",
    "pois_cdf_array",
]

_EPS = 1e-15
_FPMIN = 1e-300
_ABS_TOL = 1e-10
_MAX_ITER = 200


class ConvergenceError(ArithmeticError):
    """An iterative solver exhausted its iteration budget."""


def _betacf(a: float, b: float, x: float) -> float:
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


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I(x; a, b).

    The cumulative distribution function of a Beta(a, b) variable at x.
    Degenerate shape parameters follow the limits of the beta family:
    I(x; 0, b) = 1 for x > 0 and I(x; a, 0) = 0 for x < 1.

    Parameters
    ----------
    x : float in [0, 1]
    a, b : float >= 0, not both zero
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


def _floor(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _betacf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_betacf` elementwise; each element leaves once it converges."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floor(1.0 - qab * x / qap)
    h = d
    out = np.empty_like(x)
    index = np.arange(len(x))
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor(1.0 + aa * d)
        c = _floor(1.0 + aa / c)
        de = d * c
        h = h * de
        done = np.abs(de - 1.0) < _EPS
        if done.any():
            out[index[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            a, b, x, qab, qap, qam, c, d, h, index = (
                v[keep] for v in (a, b, x, qab, qap, qam, c, d, h, index)
            )
    raise ConvergenceError(
        f"incomplete beta continued fraction failed for a={a[0]}, b={b[0]}, x={x[0]}"
    )


def reg_inc_beta_array(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`reg_inc_beta` elementwise, for integer shapes.

    ``a`` and ``b`` are integer arrays, nonnegative and never both zero, and
    x lies in [0, 1]; none of this is checked.  The log-gamma prefactor is
    read from :func:`log_factorials`, which holds the scalar's ``lgamma``
    values, and the continued fraction runs in the scalar's operation order.
    """
    out = np.where(a == 0, x > 0.0, x >= 1.0).astype(float)
    inner = np.flatnonzero((a > 0) & (b > 0) & (x > 0.0) & (x < 1.0))
    if not inner.size:
        return out
    x, a, b = x[inner], a[inner], b[inner]
    log_fact = log_factorials(int((a + b).max()))
    ln_front = (
        log_fact[a + b - 1]
        - log_fact[a - 1]
        - log_fact[b - 1]
        + a * np.log(x)
        + b * np.log1p(-x)
    )
    front = np.exp(ln_front)
    direct = x < (a + 1.0) / (a + b + 2.0)
    cf = _betacf_array(
        np.where(direct, a, b).astype(float),
        np.where(direct, b, a).astype(float),
        np.where(direct, x, 1.0 - x),
    )
    out[inner] = np.where(direct, front * cf / a, 1.0 - front * cf / b)
    return out


def _rtsafe(cdf, pdf, p, x, lo, hi, failure: str) -> float:
    """Solve ``cdf(x) = p`` for x in the bracket [lo, hi], starting at x.

    Newton steps on the increasing ``cdf`` with derivative ``pdf``, kept
    inside a bracket that every iterate narrows; a step that would leave it
    falls back to bisection (Numerical Recipes ``rtsafe``).  Converged means
    the residual is within ``_ABS_TOL`` and the iteration has stalled in
    x: deep in a tail the CDF is nearly flat and the residual alone says
    little.  A Newton step that rounds to x itself has stalled too.
    Raises :class:`ConvergenceError` with ``failure`` when the budget runs
    out.
    """
    step = math.inf
    for _ in range(_MAX_ITER):
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
            # Bracket exhausted at machine precision; accept the midpoint.
            return 0.5 * (lo + hi)
        x = x_new
    raise ConvergenceError(failure)


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


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate in both tails via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_quantile(p: float) -> float:
    """Standard normal quantile: z with normal_cdf(z) = p, for p in (0, 1).

    The solver stops at a residual of ``_ABS_TOL``, up to about 1e-12 off
    in z; one more Newton step brings z to within rounding.  Above p = 1/2
    the lower tail is solved at 1 - p, which is exact there, since the CDF
    near 1 is too coarse for that step.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p > 0.5:
        return -normal_quantile(1.0 - p)
    z = _rtsafe(
        normal_cdf, normal_pdf, p, 0.0, -40.0, 40.0,
        f"normal quantile failed for p={p}",
    )
    return z - (normal_cdf(z) - p) / normal_pdf(z)


@lru_cache(maxsize=1024)
def two_sided_z(gamma: float) -> float:
    """Half-width quantile z of a two-sided normal interval: P[|Z| <= z] = gamma."""
    return normal_quantile(0.5 * (1.0 + gamma))


_log_factorial_table = np.empty(0)  # grown by log_factorials


def log_factorials(m: int) -> np.ndarray:
    """Read-only array of log(k!) for k = 0..m.

    Each entry is ``math.lgamma(k + 1)``, the value the scalar mass
    functions use, so the columns below match them bit for bit; a running
    sum of logs drifts (9e-12 at m = 1000).  One table serves every m and
    at least doubles whenever a caller needs more of it.
    """
    global _log_factorial_table
    size = len(_log_factorial_table)
    if m >= size:
        grown = [math.lgamma(k + 1) for k in range(size, max(m + 1, 2 * size))]
        _log_factorial_table = np.concatenate((_log_factorial_table, grown))
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[: m + 1]


def binom_log_pmf(omega: int, n: int, tau: float) -> float:
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


def _binom_log_pmf(omega, n: int, log_tau, log1m_tau) -> np.ndarray:
    log_fact = log_factorials(n)
    ln_choose = log_fact[n] - log_fact[omega] - log_fact[n - omega]
    return ln_choose + omega * log_tau + (n - omega) * log1m_tau


def binom_log_pmf_column(n: int, tau: float) -> np.ndarray:
    """:func:`binom_log_pmf` at omega = 0..n, same expression and order.

    The caller checks the domain.
    """
    return _binom_log_pmf(np.arange(n + 1), n, math.log(tau), math.log1p(-tau))


def binom_log_pmf_array(omega: np.ndarray, n: int, tau: np.ndarray) -> np.ndarray:
    """:func:`binom_log_pmf` elementwise over arrays of omega and tau, unchecked."""
    return _binom_log_pmf(omega, n, np.log(tau), np.log1p(-tau))


def pois_log_pmf(omega: int, tau: float) -> float:
    """Log of the Poisson mass function at omega with mean tau."""
    if omega < 0:
        raise ValueError(f"omega must be a nonnegative integer, got {omega}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return -tau + omega * math.log(tau) - math.lgamma(omega + 1)


def pois_log_pmf_column(m: int, tau: float) -> np.ndarray:
    """:func:`pois_log_pmf` at omega = 0..m, same expression and order.

    The caller checks the domain.
    """
    return -tau + np.arange(m + 1) * math.log(tau) - log_factorials(m)


def pois_log_pmf_array(omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """:func:`pois_log_pmf` elementwise over arrays of omega and tau, unchecked."""
    return -tau + omega * np.log(tau) - log_factorials(int(omega.max()))[omega]


def pois_cdf(omega: int, tau: float) -> float:
    """Poisson CDF P[X <= omega]: ascending term recurrence up to tau = 700.

    Above it exp(-tau) underflows, and the CDF is 1 - P(omega + 1, tau).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if omega < 0:
        return 0.0
    if tau > 700.0:
        return 1.0 - reg_lower_gamma(omega + 1, tau)
    term = math.exp(-tau)
    total = term
    for i in range(1, omega + 1):
        term *= tau / i
        total += term
    return min(1.0, total)


def pois_cdf_array(omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """:func:`pois_cdf` elementwise over arrays of omega and positive tau.

    Below tau = 700 every element runs the scalar's term recurrence, all of
    them at once: with the elements sorted by omega, step i updates the
    prefix whose omega is at least i.  Above it each element takes the
    scalar's incomplete gamma.
    """
    out = np.zeros(len(tau))
    large = np.flatnonzero((tau > 700.0) & (omega >= 0))
    for i in large:
        out[i] = pois_cdf(int(omega[i]), float(tau[i]))
    small = np.flatnonzero((tau <= 700.0) & (omega >= 0))
    if not small.size:
        return out
    order = small[np.argsort(-omega[small], kind="stable")]
    tau = tau[order]
    # at_least[i]: how many of the sorted elements have omega >= i.
    at_least = np.cumsum(np.bincount(omega[order])[::-1])[::-1]
    term = np.exp(-tau)
    total = term.copy()
    for i in range(1, len(at_least)):
        m = at_least[i]
        term[:m] *= tau[:m] / i
        total[:m] += term[:m]
    out[order] = np.minimum(1.0, total)
    return out
