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

from oracles import binom_cdf, binom_pmf, pois_pmf

from fuzzyci.specfun import (
    binom_log_pmf,
    normal_cdf,
    normal_quantile,
    pois_cdf,
    pois_cdf_array,
    pois_log_pmf,
    reg_inc_beta,
    reg_lower_gamma,
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


class TestRegIncBeta:
    def test_identity_a1_b1(self):
        assert reg_inc_beta(0.5, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_identity_a2_b1(self):
        assert reg_inc_beta(0.6, 2, 1) == pytest.approx(0.36, abs=1e-12)

    def test_identity_a1_b2(self):
        assert reg_inc_beta(0.6, 1, 2) == pytest.approx(0.84, abs=1e-12)

    def test_against_quadrature_oracle(self):
        # B(2.5, 4.5) via lgamma; value cross-checked against mpmath.
        a, b, x = 2.5, 4.5, 0.3
        beta_ab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        oracle = simpson_beta_integral(x, a, b) / beta_ab
        assert reg_inc_beta(x, a, b) == pytest.approx(oracle, abs=1e-10)
        assert reg_inc_beta(x, a, b) == pytest.approx(0.40653901668245927, abs=1e-12)

    def test_boundary_conventions(self):
        assert reg_inc_beta(0.3, 0, 5) == 1.0
        assert reg_inc_beta(0.0, 0, 5) == 0.0
        assert reg_inc_beta(0.3, 5, 0) == 0.0
        assert reg_inc_beta(1.0, 5, 0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2, 3)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 2, 3)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0, 0)

    @given(
        x=st.floats(0.001, 0.999),
        a=st.floats(0.5, 20.0),
        b=st.floats(0.5, 20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, x, a, b):
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_monotone_in_x(self):
        for a, b in [(0.5, 0.5), (2, 3), (10, 1), (1, 10), (7.5, 12.5)]:
            values = [reg_inc_beta(i / 200.0, a, b) for i in range(1, 200)]
            assert all(u <= v for u, v in zip(values, values[1:]))


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
            for w in range(1, n + 1):
                for tau in [0.05, 0.3, 0.5, 0.77, 0.95]:
                    lhs = reg_inc_beta(tau, w, n - w + 1)
                    rhs = 1.0 - binom_cdf(w - 1, n, tau)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pois_pmf_at_zero(self):
        for tau in [0.1, 1.0, 8.0]:
            assert pois_pmf(0, tau) == pytest.approx(math.exp(-tau), rel=1e-13)

    def test_pois_cdf_above_700_against_mpmath(self):
        # Above tau = 700 the CDF is one incomplete gamma.  Both bounds are
        # set by the log mass prefactor exp(-tau + k log tau - lgamma(k)),
        # whose error grows with tau.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        taus = np.concatenate(([700.5, 2000.0, 1e4], rng.uniform(700.0, 1e4, 300)))
        cases = []
        with mpmath.workdps(40):
            for tau in taus.tolist():
                spread = 4.0 * math.sqrt(tau)
                k = int(rng.integers(math.ceil(tau - spread), math.floor(tau + spread) + 1))
                exact = mpmath.gammainc(k + 1, mpmath.mpf(tau), mpmath.inf, regularized=True)
                error = abs(pois_cdf(k, tau) - float(exact))
                assert error <= (1e-12 if tau <= 2000.0 else 6e-12), (k, tau)
                cases.append((k, tau))
        # The array form takes the scalar's value above 700.
        omega, tau = (np.array(v) for v in zip(*cases))
        assert pois_cdf_array(omega, tau).tolist() == [pois_cdf(k, t) for k, t in cases]

    def test_pois_truncated_sum_reaches_one(self):
        for tau in [0.5, 3.8, 8.0, 30.0]:
            m = 0
            while pois_cdf(m, tau) < 1.0 - 1e-12:
                m += 1
            assert pois_cdf(m, tau) >= 1.0 - 1e-12

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
