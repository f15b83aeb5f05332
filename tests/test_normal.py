"""Tests for the normal-mean membership and its expected lengths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mp_el_anchored,
    mp_el_two_sided,
    oracle_el_nl,
    oracle_el_psi_o,
    scalar_normal_psi,
)

from fuzzyci.normal import NormalFamily, TwoSidedInterval
from fuzzyci.specfun import normal_cdf, normal_quantile, two_sided_z


def two_sided(fam):
    """The comparison interval with the same gamma, sigma and bounds."""
    return TwoSidedInterval(gamma=fam.gamma, sigma=fam.sigma, bounds=fam.bounds)


class TestMembership:
    def test_tau_at_sample_mean_is_covered(self):
        fam = NormalFamily(o=0.0, gamma=0.95, sigma=1.0)
        for x in (-3.0, 0.0, 0.7, 4.2):
            assert fam.psi(x, x) == 1.0
            assert two_sided(fam).psi(x, x) == 1.0

    def test_outside_upper_endpoint(self):
        fam = NormalFamily(o=0.0, gamma=0.95, sigma=1.0)
        # Upper endpoint max(0, 1 + 1.6449) = 2.6449 < 2.7.
        assert fam.psi(1.0, 2.7) == 0.0
        assert fam.psi(1.0, 2.6) == 1.0

    def test_one_sided_coverage_identity(self):
        # P_tau(psi_o = 1) = gamma exactly for tau != o (unbounded case):
        # the interval covers tau iff the sample mean falls on the right
        # side of a one-sided z-boundary.
        for gamma in (0.9, 0.95, 0.99):
            z = normal_quantile(gamma)
            for se in (0.25, 1.0, 3.0):
                fam = NormalFamily(o=1.0, gamma=gamma, sigma=se)
                for tau in np.linspace(-4.0, 6.0, 120):
                    tau = float(tau)
                    if tau == fam.o:
                        continue
                    if tau < fam.o:
                        prob = normal_cdf((tau + z * se - tau) / se)
                    else:
                        prob = 1.0 - normal_cdf((tau - z * se - tau) / se)
                    assert prob == pytest.approx(gamma, abs=1e-10)
                    assert fam.coverage(tau) == gamma
                    # Spot-check the indicator against the probability event.
                    assert fam.psi(tau + 0.5 * z * se, tau) == 1.0
                assert fam.coverage(fam.o) == 2.0 * gamma - 1.0

    def test_coverage_at_o_is_never_negative(self):
        # Below gamma = 1/2 the one-sided boundaries cross and no sample mean
        # covers o; at 1/2 they meet at o.
        for gamma in (1e-100, 0.3, 0.5):
            fam = NormalFamily(o=0.5, gamma=gamma, sigma=1.0)
            assert fam.coverage(fam.o) == 0.0
            assert fam.coverage(0.0) == gamma
            assert fam.coverage(np.array([0.0, fam.o])).tolist() == [gamma, 0.0]

    def test_two_sided_coverage_identity(self):
        for gamma in (0.9, 0.95, 0.99):
            z = normal_quantile(0.5 * (1.0 + gamma))
            assert normal_cdf(z) - normal_cdf(-z) == pytest.approx(gamma, abs=1e-10)
            assert TwoSidedInterval(gamma=gamma, sigma=1.0).coverage(0.3) == gamma

    def test_bounds_truncate_membership(self):
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=1.0, bounds=(0.0, 1.0))
        assert fam.psi(0.5, 1.5) == 0.0
        assert two_sided(fam).psi(0.5, 1.5) == 0.0
        assert two_sided(fam).psi(0.5, 0.9) == 1.0
        for method in (fam, two_sided(fam)):
            assert method.coverage(1.0) == 0.95
            with pytest.raises(ValueError, match="tau"):
                method.coverage(1.5)
            # A grid names its first tau outside the bounds.
            with pytest.raises(ValueError, match=r"tau must lie in \[0.0, 1.0\], got 1.5$"):
                method.coverage(np.array([0.5, 1.5, 2.0]))

    def test_overlap_region_grid(self):
        # The overlap of the two acceptance regions is where both intervals
        # contain tau; it must equal the product of the memberships.
        fam = NormalFamily(o=0.0, gamma=0.95, sigma=1.0)
        for x in np.linspace(-3, 3, 13):
            for tau in np.linspace(-3, 3, 13):
                x, tau = float(x), float(tau)
                both = fam.psi(x, tau) * two_sided(fam).psi(x, tau)
                assert both in (0.0, 1.0)
                assert both <= fam.psi(x, tau)


class TestMeansColumn:
    """``psi_means`` against the scalar comparisons, one sample mean at a time."""

    FAMILIES = [
        NormalFamily(o=0.2, gamma=0.9, sigma=0.3, bounds=(-0.5, 1.0)),
        NormalFamily(o=0.0, gamma=0.95, sigma=1.0),
        NormalFamily(o=0.5, gamma=0.3, sigma=0.7, bounds=(0.0, 1.0)),
        TwoSidedInterval(gamma=0.9, sigma=0.3, bounds=(-0.5, 1.0)),
        TwoSidedInterval(gamma=0.95, sigma=1.0),
    ]

    @pytest.mark.parametrize("fam", FAMILIES, ids=repr)
    def test_equals_the_scalar_comparisons(self, fam):
        # The taus include each mean's interval ends, computed as the library
        # computes them, where the open and the closed comparison differ,
        # and taus at o and outside the bounds.
        half = (normal_quantile(fam.gamma) if isinstance(fam, NormalFamily)
                else two_sided_z(fam.gamma)) * fam.sigma
        means = np.linspace(-2.0, 2.5, 37)
        taus = [-3.0, -0.5, 0.0, 0.2, 0.5, 1.0, 3.0, *(means - half), *(means + half)]
        # The taus as one grid: a row per tau, a column per mean.
        grid = fam.psi_means(means, np.array(taus))
        assert grid.dtype == np.float64 and grid.shape == (len(taus), len(means))
        for tau, column in zip(map(float, taus), grid):
            expected = [scalar_normal_psi(fam, x, tau) for x in means.tolist()]
            assert column.tolist() == expected, tau
            assert [fam.psi(x, tau) for x in means.tolist()] == expected, tau

    def test_ends_of_the_interval(self):
        # The anchored interval is open and the two-sided one closed, so at
        # tau = x - c only the latter covers.
        fam = NormalFamily(o=10.0, gamma=0.95, sigma=1.0)
        c = normal_quantile(fam.gamma)
        x = np.array([0.0, 1.0])
        assert fam.psi_means(x, float(x[1] - c)).tolist() == [1.0, 0.0]
        nl = TwoSidedInterval(gamma=fam.gamma, sigma=1.0)
        d = two_sided_z(fam.gamma)
        assert nl.psi_means(x, float(x[1] - d)).tolist() == [1.0, 1.0]
        assert nl.psi_means(x, float(x[0] + d)).tolist() == [1.0, 1.0]

    def test_empty_means(self):
        for fam in self.FAMILIES:
            assert fam.psi_means(np.array([]), 0.3).shape == (0,)
            assert fam.psi_means(np.array([]), np.array([0.3, 0.4])).shape == (2, 0)
            assert fam.psi_means(np.array([0.3]), np.array([])).shape == (0, 1)


class TestExpectedLengthClosedForms:
    def test_far_left_theta_with_tiny_stderr(self):
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=1e-3, bounds=(0.0, 1.0))
        assert fam.expected_length(-0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("se", [0.1, 1 / 6, 1 / 3, 1.0])
    def test_el_psi_o_matches_quadrature(self, se):
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
        for theta in np.linspace(0.0, 1.0, 41):
            theta = float(theta)
            assert fam.expected_length(theta) == pytest.approx(
                oracle_el_psi_o(theta, fam), abs=1e-6
            )

    @pytest.mark.parametrize("se", [0.1, 1 / 6, 1 / 3, 1.0])
    def test_el_psi_nl_matches_quadrature(self, se):
        fam = TwoSidedInterval(gamma=0.95, sigma=se, bounds=(0.0, 1.0))
        for theta in np.linspace(0.0, 1.0, 41):
            theta = float(theta)
            assert fam.expected_length(theta) == pytest.approx(
                oracle_el_nl(theta, fam), abs=1e-6
            )

    @pytest.mark.parametrize("se", [0.1, 1 / 6, 1 / 3, 1.0])
    def test_lower_bound_matches_quadrature(self, se):
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
        for theta in np.linspace(0.0, 1.0, 41):
            theta = float(theta)
            fam_theta = NormalFamily(o=theta, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
            assert fam.lower_bound(theta) == pytest.approx(
                oracle_el_psi_o(theta, fam_theta), abs=1e-6
            )

    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 1 / 3, 1.0, 3.0, 1e6, 1e8, 1e15])
    @pytest.mark.parametrize("gamma", [0.9, 0.95, 0.99])
    def test_lower_bound_matches_high_precision_quadrature(self, sigma, gamma):
        # The expected lengths of both classes too, up to a sigma so large
        # that the whole interval hardly depends on the sample mean.
        fam = TwoSidedInterval(gamma=gamma, sigma=sigma, bounds=(0.0, 1.0))
        anchored = NormalFamily(o=0.3, gamma=gamma, sigma=sigma, bounds=(0.0, 1.0))
        for theta in np.linspace(0.0, 1.0, 11):
            theta = float(theta)
            assert abs(fam.lower_bound(theta) - mp_el_anchored(theta, theta, fam)) <= 1e-14
            assert abs(
                anchored.expected_length(theta) - mp_el_anchored(0.3, theta, anchored)
            ) <= 1e-14
            assert abs(fam.expected_length(theta) - mp_el_two_sided(theta, fam)) <= 1e-14

    def test_lower_bound_is_substitution_identity(self):
        # The envelope is the membership anchored at o = theta, whatever
        # method or reference point the envelope is asked of.
        fam = NormalFamily(o=0.5, gamma=0.9, sigma=1 / 6, bounds=(0.0, 1.0))
        for theta in np.linspace(0.0, 1.0, 21):
            theta = float(theta)
            fam_theta = NormalFamily(o=theta, gamma=0.9, sigma=1 / 6, bounds=(0.0, 1.0))
            expected = fam_theta.expected_length(theta)
            assert fam.lower_bound(theta) == expected
            assert two_sided(fam).lower_bound(theta) == expected

    @pytest.mark.parametrize("theta", [-1.0, -1e-12, 1.0 + 1e-12, 2.0])
    def test_lower_bound_refuses_theta_outside_the_bounds(self, theta):
        # The envelope at theta is anchored at o = theta, an anchor the
        # bounds must hold; the expected length takes any theta.
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=0.3, bounds=(0.0, 1.0))
        for method in (fam, two_sided(fam)):
            with pytest.raises(ValueError) as refused:
                method.lower_bound(theta)
            assert str(refused.value) == (
                f"theta must lie inside the bounds (0.0, 1.0), got {theta}")
            assert 0.0 < method.expected_length(theta) < 1.0
            assert 0.0 < method.lower_bound(0.0) and 0.0 < method.lower_bound(1.0)

    def test_wide_bounds_recover_fixed_width(self):
        fam = TwoSidedInterval(gamma=0.95, sigma=1.0, bounds=(-1e5, 1e5))
        d = normal_quantile(0.975)
        assert fam.expected_length(0.0) == pytest.approx(2.0 * d, abs=1e-9)

    def test_case_boundary_continuity(self):
        z = normal_quantile(0.975)
        s_star = 1.0 / (2.0 * z)
        fam1 = TwoSidedInterval(gamma=0.95, sigma=s_star, bounds=(0.0, 1.0))
        fam2 = TwoSidedInterval(
            gamma=0.95, sigma=s_star * (1.0 + 1e-12), bounds=(0.0, 1.0)
        )
        for theta in (0.0, 0.25, 0.5, 0.8, 1.0):
            assert fam1.expected_length(theta) == pytest.approx(
                fam2.expected_length(theta), abs=1e-9
            )

    def test_tangency_and_dominance(self):
        for se in (0.1, 1 / 6, 1 / 3, 1.0):
            fam = NormalFamily(o=0.5, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
            for theta in np.linspace(0.0, 1.0, 41):
                theta = float(theta)
                bound = fam.lower_bound(theta)
                assert fam.expected_length(theta) >= bound - 1e-9
                assert two_sided(fam).expected_length(theta) >= bound - 1e-9
            assert fam.expected_length(fam.o) == pytest.approx(
                fam.lower_bound(fam.o), abs=1e-9
            )

    def test_large_stderr_dominance(self):
        # With stderr comparable to the parameter range, the o-anchored
        # membership has the smaller worst-case expected length.
        fam = NormalFamily(o=0.5, gamma=0.95, sigma=1.0, bounds=(0.0, 1.0))
        grid = [float(t) for t in np.linspace(0.0, 1.0, 101)]
        max_proposed = max(fam.expected_length(t) for t in grid)
        max_standard = max(two_sided(fam).expected_length(t) for t in grid)
        assert max_proposed <= max_standard

    @given(
        a=st.floats(-1e6, 1e6),
        log_width=st.floats(-3.0, 6.0),
        log_sigma=st.floats(-3.0, 308.0),
        gamma=st.floats(0.5, 0.999),
        u=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_lengths_finite_and_ordered(self, a, log_width, log_sigma, gamma, u, v):
        # 0 <= envelope <= EL <= b - a for every sigma up to 1e308.  The
        # envelope may exceed EL by the 1e-9 dominance tolerance, and EL may
        # exceed b - a by the rounding of the two quantile solves.
        b = a + 10.0 ** log_width
        bounds = (a, b)
        sigma = 10.0 ** log_sigma
        o, theta = min(b, a + u * (b - a)), a + v * (b - a)
        for fam in (
            NormalFamily(o=o, gamma=gamma, sigma=sigma, bounds=bounds),
            TwoSidedInterval(gamma=gamma, sigma=sigma, bounds=bounds),
        ):
            el, bound = fam.expected_length(theta), fam.lower_bound(theta)
            assert math.isfinite(el) and math.isfinite(bound)
            assert 0.0 <= bound <= el + 1e-9 * (b - a)
            assert el <= (b - a) * (1.0 + 1e-12)

    def test_requires_bounds(self):
        fam = NormalFamily(o=0.0, gamma=0.95, sigma=1.0)
        with pytest.raises(ValueError):
            fam.expected_length(0.0)
        with pytest.raises(ValueError):
            two_sided(fam).expected_length(0.0)
        with pytest.raises(ValueError):
            fam.lower_bound(0.0)


class TestFamilyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NormalFamily(o=0.0, gamma=0.95, sigma=0.0)
        with pytest.raises(ValueError):
            NormalFamily(o=0.0, gamma=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            NormalFamily(o=2.0, gamma=0.95, sigma=1.0, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            NormalFamily(o=0.5, gamma=0.95, sigma=1.0, bounds=(1.0, 0.0))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"sigma": math.inf}, "sigma"),
            ({"o": math.nan}, "o"),
            ({"o": math.inf}, "o"),
            ({"bounds": (-math.inf, 1.0)}, "bounds"),
            ({"bounds": (0.0, math.inf)}, "bounds"),
        ],
    )
    def test_rejects_non_finite_parameters(self, kwargs, name):
        params = {"o": 0.5, "gamma": 0.95, "sigma": 1.0, **kwargs}
        with pytest.raises(ValueError, match=name):
            NormalFamily(**params)
        if "o" not in kwargs:
            del params["o"]
            with pytest.raises(ValueError, match=name):
                TwoSidedInterval(**params)
