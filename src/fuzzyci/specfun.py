"""Self-contained special-function kernels.

Everything the distribution families need lives here: the regularized
incomplete beta over arrays, whose values at integer shapes are the
binomial upper tails (the binomial family sums its masses instead up to
``binomial.SUM_MAX_N`` trials), the Poisson CDF over arrays,
:func:`pois_cdf_array`, one term recurrence at every mean, the standard
normal CDF/quantile, and binomial/Poisson mass functions in log space, as
rows over the support, one per tau of a grid, or elementwise over arrays.
In every array kernel each element's value depends on its own arguments
only, not on the rest of the array.

All functions are pure and reentrant.  One elementwise root finder,
``_rtsafe``, solves the band edges of :mod:`fuzzyci.length`, a whole
batch per call, from the families' closed-form starts, whose normal
deviates come from :func:`start_quantiles`.  Each element stops once it
meets the absolute residual ``_ABS_TOL`` and its Newton step is within
1e-12 of it relative, and returns that step's iterate; an element still
iterating after ``_MAX_ITER`` passes makes the call raise
:class:`ConvergenceError` instead of returning an unconverged value.  The
normal quantile is a scalar Newton iteration on log Phi, which converges
monotonically from its start.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "reg_inc_beta_array",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "start_quantiles",
    "two_sided_z",
    "log_factorials",
    "binom_log_pmf_rows",
    "binom_log_pmf_array",
    "pois_log_pmf_rows",
    "pois_log_pmf_array",
    "pois_cdf_array",
]

_EPS = 1e-15
_FPMIN = 1e-300
_ABS_TOL = 1e-10
_MAX_ITER = 200


class ConvergenceError(ArithmeticError):
    """An iterative solver exhausted its iteration budget."""


def _floor(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _betacf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), elementwise.

    Each element leaves the arrays once it converges.
    """
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
    """Regularized incomplete beta I(x; a, b) elementwise, for integer shapes.

    The CDF of a Beta(a, b) variable at x; at a = k, b = n - k + 1 it is the
    binomial upper tail P[X >= k].  ``a`` and ``b`` are integer arrays,
    nonnegative and never both zero, and x lies in [0, 1]; none of this is
    checked.  Degenerate shapes follow the limits of the beta family:
    I(x; 0, b) = 1 for x > 0 and I(x; a, 0) = 0 for x < 1.  The log-gamma
    prefactor is read from :func:`log_factorials`.
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
    # Symmetry switch keeps the continued fraction in its fast-convergence
    # region on both sides of the mode.
    direct = x < (a + 1.0) / (a + b + 2.0)
    cf = _betacf_array(
        np.where(direct, a, b).astype(float),
        np.where(direct, b, a).astype(float),
        np.where(direct, x, 1.0 - x),
    )
    out[inner] = np.where(direct, front * cf / a, 1.0 - front * cf / b)
    return out


def _rtsafe(cdf, pdf, p, x, lo, hi, failure) -> np.ndarray:
    """Solve ``cdf(x) = p`` for x in the bracket [lo, hi], starting at x, elementwise.

    It solves the band edges of :mod:`fuzzyci.length`, a batch per call.
    ``p``, ``x``, ``lo`` and ``hi`` are arrays of one length;
    ``cdf(i, x)`` and ``pdf(i, x)`` evaluate elements ``i`` at ``x`` over
    arrays, where ``i`` holds the indices of the elements still iterating.
    Each element takes Newton steps on its increasing ``cdf`` with
    derivative ``pdf``, kept inside a bracket that every iterate narrows; a
    step that would leave it falls back to bisection (Numerical Recipes
    ``rtsafe``).  Converged means the residual is within ``_ABS_TOL`` and
    the Newton step from x, inside the bracket, is within 1e-12 of x
    relative: deep in a tail the CDF is nearly flat and the residual alone
    says little.  A converged element returns that last Newton iterate,
    with no pass to evaluate it; an element whose bracket shrinks to
    rounding returns the bracket's midpoint.  An element leaves the arrays
    once it is done, so its root depends on its own iteration only.
    Raises :class:`ConvergenceError` with ``failure(i)`` for the first
    element i still iterating when the budget runs out.
    """
    out, index = np.empty(len(x)), np.arange(len(x))
    for _ in range(_MAX_ITER):
        f = cdf(index, x) - p
        lo, hi = np.where(f < 0.0, x, lo), np.where(f < 0.0, hi, x)
        dfdx = pdf(index, x)
        # A step past 1e300 leaves every bracket: bisect rather than overflow.
        newton = dfdx > 1e-300 * np.abs(f)
        x_new = x - f / np.where(newton, dfdx, 1.0)
        converged = (np.abs(f) <= _ABS_TOL) & newton & (lo <= x_new) & (x_new <= hi) & (
            np.abs(x_new - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))
        mid = 0.5 * (lo + hi)
        x_new = np.where(converged | newton & (lo < x_new) & (x_new < hi), x_new, mid)
        # Bracket exhausted at machine precision; accept the midpoint.
        done = converged | (hi - lo < 4.0 * _EPS * np.maximum(1.0, np.abs(x_new)))
        if done.any():
            out[index[done]] = np.where(converged, x_new, mid)[done]
            if done.all():
                return out
            index, p, x_new, lo, hi = (v[~done] for v in (index, p, x_new, lo, hi))
        x = x_new
    raise ConvergenceError(failure(index[0]))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate in both tails via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


# The smallest p the quantile takes: above it erfc at every Newton iterate is
# a normal float, since the iterates lie between sqrt(-log p) and the root.
QUANTILE_FLOOR = 1e-300


def normal_quantile(p: float) -> float:
    """Standard normal quantile: z with normal_cdf(z) = p, for p in [1e-300, 1).

    Newton's method on log Phi(z) = log p, in erfc's own argument
    x = -z / sqrt 2, so that no rounding of z / sqrt 2 enters Phi: it solves
    log erfc(x) = log 2p from x = sqrt(-log p), right of the root, where
    erfc(x) < 2p.  As log erfc is concave, each step lands right of the root
    and the iterates fall to it.  A last Newton step on erfc itself brings x
    to within rounding; above p = 1/4 it reads erfc(x) - 2p as
    (1 - 2p) - erf(x), both terms exact or accurate as x nears 0.  At
    p = 1/2 it returns 0 exactly, where that step would leave a rounding
    residue of either sign; above it the lower tail is solved at 1 - p,
    which is exact there.
    """
    if not QUANTILE_FLOOR <= p < 1.0:
        raise ValueError(f"p must lie in [{QUANTILE_FLOOR:g}, 1), got {p}")
    if p >= 0.5:
        return -normal_quantile(1.0 - p) if p > 0.5 else 0.0
    log_2p, x, step = math.log(2.0 * p), math.sqrt(-math.log(p)), -math.inf
    # Each step that does not stop the loop lowers x by more than the
    # tolerance, and x stays above the root up to rounding: the loop ends.
    while -step > 1e-12 * max(1.0, x):
        tail = math.erfc(x)
        step = (math.log(tail) - log_2p) * tail * _HALF_SQRT_PI * math.exp(x * x)
        x += step
    residual = (1.0 - 2.0 * p) - math.erf(x) if p > 0.25 else math.erfc(x) - 2.0 * p
    return -_SQRT2 * (x + residual * _HALF_SQRT_PI * math.exp(x * x))


def start_quantiles(p: np.ndarray) -> np.ndarray:
    """``normal_quantile`` of each p clamped into its domain: a root solver's start.

    One scalar quantile per distinct p, clamped into [``QUANTILE_FLOOR``,
    1 - 2^-53], the largest float below 1: a level below the floor, or a
    1 - gamma that rounds to 1, starts at the clamped quantile, while the
    root is still solved at p.
    """
    # A dict, not np.unique, whose sort code nothing else in a command pages in.
    z = {v: normal_quantile(min(max(v, QUANTILE_FLOOR), 1.0 - 2.0**-53)) for v in set(p.tolist())}
    return np.array([z[v] for v in p.tolist()], dtype=float)


@lru_cache(maxsize=1024)
def two_sided_z(gamma: float) -> float:
    """Half-width quantile z of a two-sided normal interval: P[|Z| <= z] = gamma."""
    return normal_quantile(0.5 * (1.0 + gamma))


_log_factorial_table = np.empty(0)  # grown by log_factorials


def log_factorials(m: int) -> np.ndarray:
    """Read-only array of log(k!) for k = 0..m.

    Each entry is ``math.lgamma(k + 1)``, so the rows below match a scalar
    log mass from ``math`` bit for bit; a running sum of logs drifts (9e-12
    at m = 1000).  One table serves every m and at least doubles whenever a
    caller needs more of it.
    """
    global _log_factorial_table
    size = len(_log_factorial_table)
    if m >= size:
        grown = [math.lgamma(k + 1) for k in range(size, max(m + 1, 2 * size))]
        _log_factorial_table = np.concatenate((_log_factorial_table, grown))
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[: m + 1]


def _binom_log_pmf(omega, n: int, log_tau, log1m_tau) -> np.ndarray:
    """Log of the binomial mass function at omega for n trials, from log(tau)."""
    log_fact = log_factorials(n)
    ln_choose = log_fact[n] - log_fact[omega] - log_fact[n - omega]
    return ln_choose + omega * log_tau + (n - omega) * log1m_tau


def binom_log_pmf_rows(n: int, taus: np.ndarray) -> np.ndarray:
    """Log binomial mass function at omega = 0..n, a row per tau, unchecked.

    Each tau's logs come from ``math``, so every row has the bits of a
    single tau's.
    """
    logs = np.array([(math.log(t), math.log1p(-t)) for t in taus.tolist()]).reshape(-1, 2)
    return _binom_log_pmf(np.arange(n + 1), n, logs[:, :1], logs[:, 1:])


def binom_log_pmf_array(omega: np.ndarray, n: int, tau: np.ndarray) -> np.ndarray:
    """Log binomial mass function elementwise over arrays of omega and tau, unchecked.

    The arrays broadcast.  At tau = 0 or 1, where the whole mass sits on
    omega = 0 or n, the log mass takes 0 log 0 = 0: it is 0 there and
    -inf at every other omega, with no floating-point warning.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = _binom_log_pmf(omega, n, np.log(tau), np.log1p(-tau))
    at_end = (tau == 0.0) | (tau == 1.0)
    if np.any(at_end):
        # 0 log 0 reads nan, at the one count that holds the mass.
        log_pmf = np.where(at_end & (omega == np.where(tau == 1.0, n, 0)), 0.0, log_pmf)
    return log_pmf


def pois_log_pmf_rows(m: int, taus: np.ndarray) -> np.ndarray:
    """Log Poisson mass function at omega = 0..m, a row per tau, unchecked.

    -tau + omega log(tau) - lgamma(omega + 1) in that order, with each tau's
    log from ``math``, so every row has the bits of a single tau's.
    """
    logs = np.array(list(map(math.log, taus.tolist())))
    return -taus[:, None] + np.arange(m + 1) * logs[:, None] - log_factorials(m)


def pois_log_pmf_array(omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Log Poisson mass function elementwise over arrays of omega and tau, unchecked."""
    return -tau + omega * np.log(tau) - log_factorials(int(omega.max()))[omega]


# The largest mean tau whose exp(-tau) the Poisson kernels take as a normal
# float: the smallest normal float is exp(-708.4), so 700 leaves a margin.
EXP_NORMAL_MAX = 700.0


def _descending(steps: np.ndarray):
    """Order that sorts ``steps`` descending, and at_least[i], how many are >= i."""
    return np.argsort(-steps, kind="stable"), np.cumsum(np.bincount(steps)[::-1])[::-1]


def _pois_first_mass(tau: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Poisson mass at count ``first`` < tau, for tau above ``EXP_NORMAL_MAX``.

    Loader's saddle-point mass at the mode floor(tau), exp(-stirlerr - bd0)
    over sqrt(2 pi mode), carried down to ``first`` by the ratios i / tau.
    At the mode bd0 = mode log(mode / tau) + tau - mode is below 1/tau and
    keeps its absolute accuracy, where -tau + k log tau - lgamma(k + 1)
    cancels terms near 1e5 in size.  Two terms of Stirling's series give
    stirlerr: the next, 1/(1260 mode^5), is below 5e-18 from mode 700 up.
    """
    mode = np.floor(tau)
    d = tau - mode
    stirlerr = (1.0 / 12.0 - 1.0 / (360.0 * mode * mode)) / mode
    term = np.exp(-stirlerr - mode * np.log1p(-d / tau) - d) / np.sqrt(2.0 * math.pi * mode)
    order, at_least = _descending((mode - first).astype(int))
    down, mode, tau = term[order], mode[order], tau[order]
    for i in range(1, len(at_least)):
        m = at_least[i]
        down[:m] *= (mode[:m] - (i - 1)) / tau[:m]
    term[order] = down
    return term


def pois_cdf_array(omega: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Poisson CDF P[X <= omega] elementwise over arrays of omega and positive tau.

    The ascending term recurrence p(i) = p(i - 1) tau / i, summed from each
    element's first count f, run for every element at once: with the
    elements sorted by omega - f, step j updates the prefix whose omega - f
    is at least j.  Up to ``EXP_NORMAL_MAX`` f = 0 and p(0) = exp(-tau).
    Above it f = floor(tau - 10 sqrt tau), under which the masses sum to
    less than exp(-50), and p(f) comes from ``_pois_first_mass``.  An
    omega below f, negative omega included, gives 0.
    """
    out = np.zeros(len(tau))
    large = tau > EXP_NORMAL_MAX
    first = np.zeros(len(tau), dtype=int)
    first[large] = np.floor(tau[large] - 10.0 * np.sqrt(tau[large]))
    live = np.flatnonzero(omega >= first)
    if not live.size:
        return out
    order, at_least = _descending(omega[live] - first[live])
    order = live[order]
    tau, first, large = tau[order], first[order], large[order]
    term = np.exp(-tau)
    shifted = large.any()
    if shifted:
        term[large] = _pois_first_mass(tau[large], first[large])
    total = term.copy()
    for i in range(1, len(at_least)):
        m = at_least[i]
        term[:m] *= tau[:m] / (first[:m] + i if shifted else i)
        total[:m] += term[:m]
    out[order] = np.minimum(1.0, total)
    return out
