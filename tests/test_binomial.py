"""Tests for the binomial membership family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyci.binomial import MAX_N, AgrestiCoull, BinomialFamily
from fuzzyci.discrete import coverage
from fuzzyci.core import DiscreteMeasure, construct_psi_star
from fuzzyci.specfun import normal_quantile
from oracles import binom_pmf, breakpoints, interval


def binomial_measure(n, theta):
    ids = tuple(range(n + 1))
    return DiscreteMeasure(ids, tuple(binom_pmf(w, n, theta) for w in ids))


class TestPsiLower:
    def test_rejected_region(self):
        fam = BinomialFamily(10, 0.5, 0.95)
        threshold = fam.band_edges([3])[0][0]  # P[X >= 3 | tau] = 0.05
        assert 0.05 < threshold
        assert fam.psi(3, 0.05) == 0.0

    def test_randomized_region_matches_constructor(self):
        fam = BinomialFamily(10, 0.5, 0.95)
        value = fam.psi(3, 0.3)
        assert 0.0 < value <= 1.0
        mu = binomial_measure(10, 0.3)
        nu = binomial_measure(10, 0.5)
        res = construct_psi_star(mu, nu, 0.95)
        assert value == pytest.approx(res.psi[3], abs=1e-9)

    def test_omega_zero_boundary_convention(self):
        # The zero branch never fires for omega = 0: psi = gamma/(1-tau)^n
        # throughout the randomized region, and 1 beyond it.
        fam = BinomialFamily(10, 0.5, 0.95)
        upper = fam.band_edges([0])[0][1]  # P[X >= 1 | tau] = 0.05
        for tau in (1e-6, 1e-3, 0.9 * upper):
            assert fam.psi(0, tau) == pytest.approx(
                0.95 / (1.0 - tau) ** 10, rel=1e-9
            )
        assert fam.psi(0, 1.1 * upper) == 1.0


class TestPsiO:
    def test_exact_coverage_on_grid(self):
        fam = BinomialFamily(10, 0.5, 0.95)
        for tau in (0.05, 0.3, 0.62, 0.95):
            assert coverage(tau, fam) == pytest.approx(0.95, abs=1e-10)

    def test_coverage_at_o_is_at_least_gamma(self):
        for o in (0.1, 0.5, 0.9):
            fam = BinomialFamily(10, o, 0.95)
            assert coverage(o, fam) >= 0.95 - 1e-12

    def test_shape_claims(self):
        # Unimodal per omega: non-decreasing below o, non-increasing above,
        # with a one-sided limit of 1 at o for some omega.
        taus = np.linspace(0.001, 0.999, 499)
        for o in (0.2, 0.5, 0.8):
            fam = BinomialFamily(10, o, 0.95)
            for w in range(11):
                vals = [fam.psi(w, float(t)) for t in taus]
                below = [v for t, v in zip(taus, vals) if t < o]
                above = [v for t, v in zip(taus, vals) if t > o]
                assert all(u <= v + 1e-12 for u, v in zip(below, below[1:]))
                assert all(u >= v - 1e-12 for u, v in zip(above, above[1:]))
            eps = 1e-9
            assert max(fam.psi(w, o - eps) for w in range(11)) >= 1.0 - 1e-6
            assert max(fam.psi(w, o + eps) for w in range(11)) >= 1.0 - 1e-6

    def test_matches_generic_constructor(self):
        rng = np.random.default_rng(314159)
        for _ in range(60):
            n = int(rng.integers(1, 26))
            gamma = float(rng.choice([0.9, 0.95, 0.99]))
            tau, o = np.sort(rng.uniform(0.02, 0.98, 2))
            if o - tau < 1e-3:
                continue
            if rng.random() < 0.5:
                tau, o = o, tau
            fam = BinomialFamily(n, float(o), gamma)
            res = construct_psi_star(
                binomial_measure(n, float(tau)), binomial_measure(n, float(o)), gamma
            )
            for w in range(n + 1):
                assert fam.psi(w, float(tau)) == pytest.approx(
                    res.psi[w], abs=1e-9
                )

    @given(
        n=st.integers(1, 40),
        o=st.floats(0.01, 0.99),
        gamma=st.floats(0.5, 0.999),
        tau=st.floats(0.001, 0.999),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_membership_stays_in_unit_interval(self, n, o, gamma, tau, data):
        omega = data.draw(st.integers(0, n))
        fam = BinomialFamily(n, o, gamma)
        value = fam.psi(omega, tau)
        assert 0.0 <= value <= 1.0

    def test_breakpoints_cover_branch_edges(self):
        fam = BinomialFamily(10, 0.5, 0.95)
        points = breakpoints(fam, 3)
        assert fam.o in points
        assert all(0.0 < p < 1.0 for p in points)
        assert points == tuple(sorted(points))


class TestAgrestiCoull:
    def test_center_is_inside(self):
        lo, hi = interval(AgrestiCoull(10, 0.95), 5)
        center = 0.5 * (lo + hi)
        assert AgrestiCoull(10, 0.95).psi(5, center) == 1.0

    def test_far_outside(self):
        assert AgrestiCoull(10, 0.95).psi(10, 1e-9) == 0.0

    def test_endpoints_by_bisecting_the_indicator(self):
        # Locate the membership jump by bisection and compare with the
        # closed-form endpoints.
        n, gamma, w = 10, 0.95, 3
        method = AgrestiCoull(n, gamma)
        lo, hi = interval(method, w)

        def bisect_jump(a, b):
            fa = method.psi(w, a)
            for _ in range(60):
                mid = 0.5 * (a + b)
                if method.psi(w, mid) == fa:
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        assert bisect_jump(1e-6, (lo + hi) / 2) == pytest.approx(lo, abs=1e-12)
        assert bisect_jump((lo + hi) / 2, 1.0 - 1e-6) == pytest.approx(hi, abs=1e-12)

    def test_expected_z_value(self):
        lo, hi = interval(AgrestiCoull(10, 0.95), 3)
        z = normal_quantile(0.975)
        n_tilde = 10 + z * z
        p_tilde = (3 + z * z / 2) / n_tilde
        half = z * math.sqrt(p_tilde * (1 - p_tilde) / n_tilde)
        assert lo == pytest.approx(p_tilde - half, abs=1e-12)
        assert hi == pytest.approx(p_tilde + half, abs=1e-12)

    def test_coverage_oscillates_around_gamma(self):
        taus = np.linspace(0.05, 0.95, 181)
        cov = [coverage(float(t), AgrestiCoull(10, 0.95)) for t in taus]
        assert min(cov) < 0.95 < max(cov)


class TestOptimalityAtReferencePoint:
    def test_false_coverage_at_o_is_minimal(self):
        # Among memberships meeting the coverage constraint at tau, fam.psi
        # assigns the least mass to o-distributed data.  Restricted to taus
        # where the comparison interval actually covers at level gamma
        # (it under-covers elsewhere) and to tau != o.
        n, gamma = 10, 0.95
        method = AgrestiCoull(n, gamma)
        for o in (0.1, 0.5, 0.9):
            fam = BinomialFamily(n, o, gamma)
            pmf_o = [binom_pmf(w, n, o) for w in range(n + 1)]
            for t in np.linspace(0.01, 0.99, 197):
                t = float(t)
                if t == o:
                    continue
                if coverage(t, method) < gamma:
                    continue
                proposed = sum(p * fam.psi(w, t) for w, p in enumerate(pmf_o))
                comparison = sum(
                    p * method.psi(w, t)
                    for w, p in enumerate(pmf_o)
                )
                assert proposed <= comparison + 1e-12


class TestFamilyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BinomialFamily(0, 0.5, 0.95)
        with pytest.raises(ValueError):
            BinomialFamily(10, 0.0, 0.95)
        with pytest.raises(ValueError):
            BinomialFamily(10, 0.5, 1.0)

    def test_rejects_n_above_the_cap(self):
        # Only builds the families: nothing n-sized is allocated.
        assert BinomialFamily(MAX_N, 0.5, 0.95).n == MAX_N
        for n in (MAX_N + 1, 10**9):
            with pytest.raises(ValueError, match="n must be an integer"):
                BinomialFamily(n, 0.5, 0.95)
            with pytest.raises(ValueError, match="n must be an integer"):
                AgrestiCoull(n, 0.95)
