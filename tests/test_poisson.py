"""Tests for the Poisson membership family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyci import length
from fuzzyci.core import DiscreteMeasure, construct_psi_star
from fuzzyci.discrete import coverage
from fuzzyci.poisson import (
    MAX_OMEGA,
    TRUNCATION_MASS,
    PoissonFamily,
    ScoreInterval,
    support_bound,
)
from fuzzyci.specfun import normal_quantile
from oracles import breakpoints, interval, pois_cdf, pois_pmf


def poisson_measures(tau, o):
    m = max(support_bound(tau), support_bound(o))
    ids = tuple(range(m + 1))
    mu = DiscreteMeasure.from_weights(ids, [pois_pmf(w, tau) for w in ids])
    nu = DiscreteMeasure.from_weights(ids, [pois_pmf(w, o) for w in ids])
    return mu, nu


class TestPsiLower:
    def test_omega_zero_middle_branch(self):
        # Empty partial sum: psi = gamma * exp(tau) up to tau = -ln(gamma),
        # where it reaches exactly 1; full membership beyond.
        fam = PoissonFamily(8.0, 0.95)
        boundary = -math.log(0.95)
        assert boundary == pytest.approx(length.band_edges(fam, range(1))[1][0], abs=1e-9)
        for tau in (1e-6, 0.01, 0.9 * boundary):
            assert fam.psi(0, tau) == pytest.approx(
                0.95 * math.exp(tau), rel=1e-9
            )
        assert fam.psi(0, 1.01 * boundary) == 1.0

    def test_rejected_region(self):
        fam = PoissonFamily(8.0, 0.95)
        threshold = length.band_edges(fam, range(3, 4))[0][0]  # P[X >= 3 | tau] = 0.05
        assert 0.5 < threshold
        assert fam.psi(3, 0.5) == 0.0

    def test_randomized_region_matches_constructor(self):
        fam = PoissonFamily(8.0, 0.95)
        value = fam.psi(3, 2.5)
        assert 0.0 < value <= 1.0
        mu, nu = poisson_measures(2.5, 8.0)
        res = construct_psi_star(mu, nu, 0.95)
        assert value == pytest.approx(res.psi[3], abs=1e-8)


class TestPsiO:
    def test_exact_coverage(self):
        fam = PoissonFamily(8.0, 0.95)
        assert coverage(3.0, fam) == pytest.approx(0.95, abs=1e-8 + 1e-12)

    def test_coverage_grid(self):
        for gamma in (0.9, 0.95, 0.99):
            for o in (0.5, 3.8, 8.0):
                fam = PoissonFamily(o, gamma)
                for tau in np.linspace(0.05, 20.0, 80):
                    tau = float(tau)
                    if abs(tau - o) < 1e-9:
                        continue
                    assert coverage(tau, fam) == pytest.approx(
                        gamma, abs=1e-8 + TRUNCATION_MASS
                    )

    def test_exact_coverage_above_mean_700(self):
        # exp(-tau) underflows here; the support bound works from the mode.
        fam = PoissonFamily(800.0, 0.95)
        for tau in (760.0, 840.0):
            assert coverage(tau, fam) == pytest.approx(0.95, abs=1e-8 + TRUNCATION_MASS)

    def test_exact_coverage_at_large_means(self):
        # Each tau once took seconds of per-omega chi-square root solves, and
        # from a mean of about 4000 the solves failed to converge.
        for o, tau in ((2000.0, 1950.0), (5000.0, 4900.0), (5000.0, 5100.0)):
            assert coverage(tau, PoissonFamily(o, 0.95)) == pytest.approx(0.95, abs=1e-10)

    def test_membership_near_mean_5000(self):
        # The band edges here need chi-square quantiles with about 10^4
        # degrees of freedom.
        fam = PoissonFamily(5000.0, 0.95)
        for tau in (4950.0, 5050.0):
            values = [fam.psi(w, tau) for w in (4850, 4950, 5000, 5050, 5150)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert 0.0 < sum(values) < len(values)

    def test_coverage_at_o_is_at_least_gamma(self):
        for o in (0.5, 3.8, 8.0):
            fam = PoissonFamily(o, 0.95)
            assert coverage(o, fam) >= 0.95 - 1e-12

    def test_shape_claims(self):
        taus = np.linspace(0.05, 25.0, 400)
        for o in (4.0, 8.0, 12.0):
            fam = PoissonFamily(o, 0.95)
            for w in range(0, 26):
                vals = [fam.psi(w, float(t)) for t in taus]
                below = [v for t, v in zip(taus, vals) if t < o]
                above = [v for t, v in zip(taus, vals) if t > o]
                assert all(u <= v + 1e-12 for u, v in zip(below, below[1:]))
                assert all(u >= v - 1e-12 for u, v in zip(above, above[1:]))
            eps = 1e-9
            assert max(fam.psi(w, o - eps) for w in range(30)) >= 1.0 - 1e-6
            assert max(fam.psi(w, o + eps) for w in range(30)) >= 1.0 - 1e-6

    def test_matches_generic_constructor(self):
        rng = np.random.default_rng(271828)
        for _ in range(50):
            gamma = float(rng.choice([0.9, 0.95, 0.99]))
            tau = float(rng.uniform(0.1, 15.0))
            o = float(rng.uniform(0.1, 15.0))
            if abs(tau - o) < 0.05:
                continue
            fam = PoissonFamily(o, gamma)
            mu, nu = poisson_measures(tau, o)
            res = construct_psi_star(mu, nu, gamma)
            for w in range(len(res.support)):
                assert fam.psi(w, tau) == pytest.approx(res.psi[w], abs=1e-8)

    @given(
        o=st.floats(0.05, 30.0),
        gamma=st.floats(0.5, 0.999),
        tau=st.floats(0.001, 50.0),
        omega=st.integers(0, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_membership_stays_in_unit_interval(self, o, gamma, tau, omega):
        fam = PoissonFamily(o, gamma)
        value = fam.psi(omega, tau)
        assert 0.0 <= value <= 1.0

    def test_threshold_monotone_in_omega(self):
        for gamma in (0.9, 0.95, 0.99):
            fam = PoissonFamily(8.0, gamma)
            # Each count's edges at level 1 - gamma, of k = w and w + 1.
            for below_zero, below_one, _, _ in zip(*length.band_edges(fam, range(1, 30))):
                assert below_zero < below_one

    def test_breakpoints(self):
        fam = PoissonFamily(8.0, 0.95)
        points = breakpoints(fam, 3)
        assert fam.o in points
        assert points == tuple(sorted(points))
        assert all(p > 0.0 for p in points)


class TestScoreMembership:
    def test_small_tau_with_zero_count(self):
        assert ScoreInterval(0.95).psi(0, 1e-9) == 1.0

    def test_center_inside(self):
        z = normal_quantile(0.975)
        center = 4 + z * z / 2
        assert ScoreInterval(0.95).psi(4, center) == 1.0

    def test_endpoints_direct_formula(self):
        z = normal_quantile(0.975)
        lo, hi = interval(ScoreInterval(0.95), 4)
        assert lo == pytest.approx(4 + z * z / 2 - z * math.sqrt(4 + z * z / 4))
        assert hi == pytest.approx(4 + z * z / 2 + z * math.sqrt(4 + z * z / 4))

    def test_coverage_oscillates(self):
        method = ScoreInterval(0.95)
        cov = [coverage(float(t), method) for t in np.linspace(0.2, 15.0, 120)]
        assert min(cov) < 0.95 < max(cov)


class TestSupportBound:
    def test_certifies_tail(self):
        for tau in (0.5, 3.8, 8.0, 50.0):
            m = support_bound(tau)
            assert pois_cdf(m, tau) >= 1.0 - 1e-12
            if m > 0:
                assert pois_cdf(m - 1, tau) < 1.0 - 1e-12

    def test_certifies_tail_above_mean_700(self):
        # Upper tails summed term by term: 1 - pois_cdf cancels at 1e-12.
        def tail(m, tau):
            return math.fsum(pois_pmf(k, tau) for k in range(m + 1, m + 2000))

        for tau in (700.5, 800.0, 1000.0):
            m = support_bound(tau)
            assert tail(m, tau) <= TRUNCATION_MASS < tail(m - 1, tau)

    def test_is_the_smallest_certified_bound(self):
        # P[X > m | tau] is the regularized lower incomplete gamma P(m + 1, tau).
        # 22.12 and 41.64 are near-ties that a running sum of masses compared
        # with 1 - TRUNCATION_MASS decides wrongly.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(15)
        taus = [22.12, 41.64, 1e-9, 700.0, 1e4, *(10.0 ** rng.uniform(-9, 4, 2000))]

        def tail(m, tau):
            return mpmath.gammainc(m + 1, 0, tau, regularized=True)

        with mpmath.workdps(40):
            for tau in taus:
                m = support_bound(float(tau))
                assert tail(m, tau) <= TRUNCATION_MASS
                assert m == 0 or tail(m - 1, tau) > TRUNCATION_MASS, tau

    def test_domain(self):
        with pytest.raises(ValueError):
            support_bound(0.0)
        with pytest.raises(ValueError):
            support_bound(math.inf)

    def test_max_omega_is_the_support_of_the_largest_mean(self):
        assert MAX_OMEGA == support_bound(1e4)
        with pytest.raises(ValueError):
            support_bound(math.nextafter(1e4, math.inf))


class TestFamilyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PoissonFamily(0.0, 0.95)
        with pytest.raises(ValueError):
            PoissonFamily(1.0, 1.5)
