"""Tests for the special-function kernels.

Closed-form identities are asserted at 1e-12.  Values without a closed form
were computed with independent oracles (adaptive Simpson quadrature of the
beta integrand; mpmath's incomplete gamma / erfinv at 40 digits) and frozen
here as literals.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binom_cdf,
    binom_log_pmf,
    binom_pmf,
    pois_cdf,
    pois_log_pmf,
    pois_pmf,
    reg_inc_beta,
    reg_lower_gamma,
)

from fuzzyci.specfun import (
    QUANTILE_FLOOR,
    normal_cdf,
    normal_quantile,
    pois_cdf_array,
    reg_inc_beta_array,
    two_sided_z,
)


def simpson_beta_integral(x, a, b, tol=1e-12):
    """Adaptive-Simpson oracle for the (unregularized) incomplete beta."""

    def f(t):
        return t ** (a - 1.0) * (1.0 - t) ** (b - 1.0)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        if depth > 60 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1
        )

    # Avoid the integrable endpoint singularities for a or b below one.
    lo = 1e-14 if a < 1.0 else 0.0
    hi = x
    flo, fhi = f(lo) if lo > 0 else (0.0 if a > 1 else f(1e-14)), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return recurse(lo, hi, flo, fmid, fhi, whole, tol, 0)


def beta(x, a, b):
    """The library's incomplete beta over arrays, at integer shapes."""
    x, a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), a, b)
    return reg_inc_beta_array(x, a, b)


class TestRegIncBeta:
    def test_identity_a1_b1(self):
        assert beta(0.5, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_identity_a2_b1(self):
        assert beta(0.6, 2, 1) == pytest.approx(0.36, abs=1e-12)

    def test_identity_a1_b2(self):
        assert beta(0.6, 1, 2) == pytest.approx(0.84, abs=1e-12)

    def test_against_quadrature_oracle(self):
        # I(0.3; 3, 5) = P[Bin(7, 0.3) >= 3] = 0.3529305 exactly.
        a, b, x = 3, 5, 0.3
        beta_ab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        oracle = simpson_beta_integral(x, a, b) / beta_ab
        assert beta(x, a, b) == pytest.approx(oracle, abs=1e-10)
        assert beta(x, a, b) == pytest.approx(0.3529305, abs=1e-12)

    def test_scalar_reference_against_quadrature_oracle(self):
        # The tests' scalar copy at real shapes.  B(2.5, 4.5) via lgamma;
        # value cross-checked against mpmath.
        a, b, x = 2.5, 4.5, 0.3
        beta_ab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        oracle = simpson_beta_integral(x, a, b) / beta_ab
        assert reg_inc_beta(x, a, b) == pytest.approx(oracle, abs=1e-10)
        assert reg_inc_beta(x, a, b) == pytest.approx(0.40653901668245927, abs=1e-12)

    def test_boundary_conventions(self):
        values = beta([0.3, 0.0, 0.3, 1.0], [0, 0, 5, 5], [5, 5, 0, 0])
        assert values.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_domain_errors(self):
        # Only the tests' scalar copy checks its domain.
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2, 3)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 2, 3)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0, 0)

    @given(
        x=st.floats(0.001, 0.999),
        a=st.integers(1, 20),
        b=st.integers(1, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, x, a, b):
        assert beta(x, a, b) + beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        x = np.arange(1, 200) / 200.0
        for a, b in [(1, 1), (2, 3), (10, 1), (1, 10), (8, 12)]:
            assert np.all(np.diff(beta(x, a, b)) >= 0.0), (a, b)

    def test_matches_the_scalar_reference(self):
        # Integer shapes, both sides of the symmetry switch.
        rng = np.random.default_rng(19)
        a, b = rng.integers(1, 400, 500), rng.integers(1, 400, 500)
        x = rng.uniform(0.0, 1.0, 500)
        values = beta(x, a, b)
        for i in range(500):
            assert values[i] == pytest.approx(reg_inc_beta(x[i], a[i], b[i]), abs=1e-13)


class TestRegLowerGamma:
    def test_poisson_tail_identity(self):
        # pois_cdf(i-1, tau) = 1 - P(i, tau)
        for i in range(1, 31):
            for tau in [0.05, 0.5, 1.0, 3.0, 7.5, 15.0, 30.0]:
                lhs = pois_cdf(i - 1, tau)
                rhs = 1.0 - reg_lower_gamma(i, tau)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_lower_gamma(0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_gamma(2, -1.0)

    def test_large_shape_against_mpmath(self):
        # Points on both sides of x = s + 1: the series and the continued
        # fraction.  The prefactor exp(-x + s log x - lgamma(s)) cancels
        # terms near 1e5 in size, which costs about 1e-11.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s in (4000, 11000):
                root = math.sqrt(s)
                for x in (s - 2.0 * root, float(s), s + 1.5, s + 2.0 * root):
                    exact = mpmath.gammainc(s, 0, mpmath.mpf(x), regularized=True)
                    assert reg_lower_gamma(s, x) == pytest.approx(float(exact), abs=1e-10)


class TestNormal:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @given(z=st.floats(-8.0, 8.0))
    @settings(max_examples=200, deadline=None)
    def test_cdf_symmetry(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    def test_quantile_frozen(self):
        # sqrt(2) * erfinv(0.9) at 40 digits.
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_quantile_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(17)
        ps = [1e-6, 0.025, 0.2, 0.5, 0.8, 0.975, 1.0 - 1e-5]
        ps += [rng.uniform(1e-6, 1.0 - 1e-5) for _ in range(300)]
        ps += [10.0 ** rng.uniform(-6.0, -1.0) for _ in range(100)]
        ps += [1.0 - 10.0 ** rng.uniform(-5.0, -1.0) for _ in range(100)]
        with mpmath.workdps(40):
            for p in ps:
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
                assert abs(normal_quantile(p) - float(exact)) <= 1e-13, p

    def test_quantile_log_uniform_against_mpmath(self):
        # A log-uniform sample over [1e-300, 1 - 1e-16], upper tails down to
        # 1 - p = 1e-16, and p near 1/2, where z nears 0: each within 4e-14
        # relative of the root of log Phi(z) = log p at 40 digits.  Above 1/2
        # the root is solved at 1 - p, which is exact there.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2121)
        lo, hi = math.log(QUANTILE_FLOOR), math.log1p(-1e-16)
        ps = [QUANTILE_FLOOR] + [math.exp(rng.uniform(lo, hi)) for _ in range(300)]
        ps += [1.0 - 10.0 ** rng.uniform(-16.0, -1.0) for _ in range(40)]
        ps += [rng.uniform(0.49, 0.51) for _ in range(40)]
        with mpmath.workdps(40):
            for p in ps:
                z = normal_quantile(p)
                log_tail = mpmath.log(mpmath.mpf(min(p, 1.0 - p)))
                root = mpmath.findroot(
                    lambda t: mpmath.log(mpmath.ncdf(t)) - log_tail, -abs(z))
                exact = root if p <= 0.5 else -root
                assert abs(z - exact) <= 4e-14 * abs(exact), p

    def test_quantile_floor(self):
        assert math.isfinite(normal_quantile(QUANTILE_FLOOR))
        for p in (QUANTILE_FLOOR / 10.0, 5e-324):
            with pytest.raises(ValueError, match="1e-300"):
                normal_quantile(p)

    def test_quantile_of_one_half_is_zero(self):
        # Every gamma below 2**-53 gives the two-sided quantile p = 1/2; a
        # residue of either sign there would make the interval [x - d, x + d]
        # empty for some x and not for others.
        assert normal_quantile(0.5) == 0.0
        for gamma in (1e-17, 1e-310):
            assert two_sided_z(gamma) == 0.0

    def test_round_trip(self):
        for p in [0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999]:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_monotone(self):
        # Beyond |z| ~ 8.3 the CDF saturates in double precision.
        values = [normal_cdf(z) for z in range(-8, 9)]
        assert all(u < v for u, v in zip(values, values[1:]))


class TestDiscreteMass:
    def test_binom_pmf_at_zero(self):
        for n, tau in [(5, 0.2), (10, 0.7), (25, 0.01)]:
            assert binom_pmf(0, n, tau) == pytest.approx((1 - tau) ** n, rel=1e-12)

    def test_binom_pmf_sums_to_one(self):
        for n, tau in [(5, 0.3), (10, 0.5), (25, 0.9), (50, 0.02)]:
            total = math.fsum(binom_pmf(w, n, tau) for w in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_binom_cdf_exact_rational(self):
        # sum_{i<=5} C(10,i) / 2^10 = 638/1024
        assert binom_cdf(5, 10, 0.5) == pytest.approx(0.623046875, abs=1e-13)

    def test_binom_beta_identity(self):
        # I(tau, w, n-w+1) = 1 - binom_cdf(w-1, n, tau) for integer w >= 1
        for n in [5, 10, 25]:
            w, tau = (v.ravel() for v in np.meshgrid(
                np.arange(1, n + 1), [0.05, 0.3, 0.5, 0.77, 0.95]
            ))
            lhs = beta(tau, w, n - w + 1)
            for i in range(len(w)):
                rhs = 1.0 - binom_cdf(int(w[i]) - 1, n, float(tau[i]))
                assert lhs[i] == pytest.approx(rhs, abs=1e-12)

    def test_pois_pmf_at_zero(self):
        for tau in [0.1, 1.0, 8.0]:
            assert pois_pmf(0, tau) == pytest.approx(math.exp(-tau), rel=1e-13)

    def test_pois_cdf_above_700_against_mpmath(self):
        # Above tau = 700 the recurrence starts at f = floor(tau - 10 sqrt tau)
        # from the mode's saddle-point mass carried down; its error stays that
        # of the recurrence below 700 (6e-15), independent of tau.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        taus = np.concatenate(([700.5, 2000.0, 1e4], rng.uniform(700.0, 1e4, 300)))
        cases = []
        with mpmath.workdps(40):
            for tau in taus.tolist():
                spread = 4.0 * math.sqrt(tau)
                k = int(rng.integers(math.ceil(tau - spread), math.floor(tau + spread) + 1))
                exact = mpmath.gammainc(k + 1, mpmath.mpf(tau), mpmath.inf, regularized=True)
                cases.append((k, tau, float(exact)))
        omega, tau, _ = (np.array(v) for v in zip(*cases))
        values = pois_cdf_array(omega, tau)
        for (k, t, truth), value in zip(cases, values.tolist()):
            assert abs(value - truth) <= 3e-14, (k, t)

    def test_pois_cdf_has_no_seam_at_700(self):
        # Up to 700 the sum starts at 0 from exp(-tau), just above it at
        # f = 435 from the saddle-point mass: both sides agree to rounding.
        k = np.arange(550, 900)
        below = pois_cdf_array(k, np.full(len(k), 700.0))
        above = pois_cdf_array(k, np.full(len(k), np.nextafter(700.0, np.inf)))
        assert np.abs(above - below).max() <= 2e-14

    def test_pois_truncated_sum_reaches_one(self):
        def cdf(m, tau):
            return pois_cdf_array(np.array([m]), np.array([tau]))[0]

        for tau in [0.5, 3.8, 8.0, 30.0]:
            m = 0
            while cdf(m, tau) < 1.0 - 1e-12:
                m += 1
            assert cdf(m, tau) >= 1.0 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_log_pmf(-1, 10, 0.5)
        with pytest.raises(ValueError):
            binom_log_pmf(11, 10, 0.5)
        with pytest.raises(ValueError):
            binom_log_pmf(3, 10, 0.0)
        with pytest.raises(ValueError):
            pois_log_pmf(0, 0.0)
        with pytest.raises(ValueError):
            pois_log_pmf(-1, 2.0)
