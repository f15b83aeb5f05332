"""Tests for the generic optimal-membership constructor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feasible_optimum_oracle, radon_nikodym

from fuzzyci.core import DiscreteMeasure, construct_psi_star


def measure(*masses):
    return DiscreteMeasure(tuple(range(1, len(masses) + 1)), tuple(masses))


def random_measure(rng, size):
    w = rng.random(size) ** 2 + 1e-9
    return DiscreteMeasure.from_weights(tuple(range(size)), w.tolist())


class TestDiscreteMeasure:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            measure(0.5, 0.6)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            measure(1.2, -0.2)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((1, 1), (0.5, 0.5))

    def test_from_weights_normalizes(self):
        m = DiscreteMeasure.from_weights(("a", "b"), (2.0, 6.0))
        assert m.mass == (0.25, 0.75)
        assert m["a"] == 0.25
        assert m["missing"] == 0.0


class TestRadonNikodym:
    def test_identical_measures(self):
        mu = measure(0.25, 0.25, 0.25, 0.25)
        support, ratio, singular = radon_nikodym(mu, mu)
        assert ratio == (1.0, 1.0, 1.0, 1.0)
        assert singular == set()

    def test_point_mass_against_uniform(self):
        mu = measure(0.25, 0.25, 0.25, 0.25)
        nu = DiscreteMeasure((1, 2, 3, 4), (1.0, 0.0, 0.0, 0.0))
        _, ratio, singular = radon_nikodym(mu, nu)
        assert ratio == (4.0, 0.0, 0.0, 0.0)
        assert singular == set()

    def test_disjoint_supports(self):
        mu = DiscreteMeasure((1,), (1.0,))
        nu = DiscreteMeasure((2,), (1.0,))
        support, ratio, singular = radon_nikodym(mu, nu)
        assert support == (1, 2)
        assert singular == {2}


class TestConstructPsiStar:
    def test_identical_measures_constant(self):
        mu = measure(0.1, 0.2, 0.3, 0.4)
        res = construct_psi_star(mu, mu, 0.5)
        assert res.psi == (0.5, 0.5, 0.5, 0.5)
        assert res.partition == ("C", "C", "C", "C")
        assert res.c_value == 0.5

    def test_point_mass_example(self):
        mu = measure(0.25, 0.25, 0.25, 0.25)
        nu = DiscreteMeasure((1, 2, 3, 4), (1.0, 0.0, 0.0, 0.0))
        res = construct_psi_star(mu, nu, 0.5)
        assert res.psi == pytest.approx((0.0, 2 / 3, 2 / 3, 2 / 3), abs=1e-12)
        assert res.expectation(nu) == pytest.approx(0.0, abs=1e-12)

    def test_singular_points_get_zero(self):
        mu = DiscreteMeasure((1, 2), (0.4, 0.6))
        nu = DiscreteMeasure((1, 3), (0.5, 0.5))
        res = construct_psi_star(mu, nu, 0.7)
        i = res.support.index(3)
        assert res.partition[i] == "D"
        assert res.psi[i] == 0.0

    def test_rejects_bad_gamma(self):
        mu = measure(0.5, 0.5)
        with pytest.raises(ValueError):
            construct_psi_star(mu, mu, 0.0)
        with pytest.raises(ValueError):
            construct_psi_star(mu, mu, 1.0)

    @given(
        st.integers(2, 12),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_coverage_identity(self, size, gamma, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, size)
        nu = random_measure(rng, size)
        res = construct_psi_star(mu, nu, gamma)
        assert res.expectation(mu) == pytest.approx(gamma, abs=1e-10)

    @given(
        st.integers(2, 12),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_correctness(self, size, gamma, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, size)
        nu = random_measure(rng, size)
        res = construct_psi_star(mu, nu, gamma)
        _, ratio, _ = radon_nikodym(mu, nu)
        for y, label in zip(ratio, res.partition):
            tied = abs(y - res.q_gamma) <= 1e-12 * max(abs(y), abs(res.q_gamma))
            if label == "A":
                assert y < res.q_gamma and not tied
            elif label == "B":
                assert y > res.q_gamma and not tied
            elif label == "C":
                assert tied

    @given(
        st.integers(2, 12),
        st.floats(0.05, 0.95),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_bounds(self, size, gamma, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, size)
        nu = random_measure(rng, size)
        res = construct_psi_star(mu, nu, gamma)
        mass_a = math.fsum(
            m for m, lab in zip(mu.mass, res.partition) if lab == "A"
        )
        mass_b = math.fsum(
            m for m, lab in zip(mu.mass, res.partition) if lab == "B"
        )
        assert mass_a <= gamma + 1e-12
        assert mass_b <= 1.0 - gamma + 1e-12


class TestFeasibleOptimumOracle:
    def test_identical_measures(self):
        mu = measure(0.3, 0.3, 0.4)
        for gamma in [0.2, 0.5, 0.9]:
            assert feasible_optimum_oracle(mu, mu, gamma) == pytest.approx(
                gamma, abs=1e-12
            )

    def test_point_mass_example(self):
        mu = measure(0.25, 0.25, 0.25, 0.25)
        nu = DiscreteMeasure((1, 2, 3, 4), (1.0, 0.0, 0.0, 0.0))
        assert feasible_optimum_oracle(mu, nu, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_constructor_on_random_instances(self):
        rng = np.random.default_rng(20240901)
        for _ in range(300):
            size = int(rng.integers(2, 11))
            gamma = float(rng.uniform(0.05, 0.95))
            mu = random_measure(rng, size)
            nu = random_measure(rng, size)
            res = construct_psi_star(mu, nu, gamma)
            oracle = feasible_optimum_oracle(mu, nu, gamma)
            assert res.expectation(nu) == pytest.approx(oracle, abs=1e-12)

    def test_size_limit(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 26)
        with pytest.raises(ValueError):
            feasible_optimum_oracle(mu, mu, 0.5)

    def test_beats_random_feasible_memberships(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            size = int(rng.integers(2, 16))
            gamma = float(rng.uniform(0.05, 0.95))
            mu = random_measure(rng, size)
            nu = random_measure(rng, size)
            best = construct_psi_star(mu, nu, gamma).expectation(nu)
            mu_arr = np.array(mu.mass)
            nu_arr = np.array(nu.mass)
            for _ in range(50):
                u = rng.random(size)
                # Shrink toward all-ones until the coverage constraint holds.
                deficit = float(np.dot(1.0 - u, mu_arr))
                t = 1.0 if deficit <= 1.0 - gamma else (1.0 - gamma) / deficit
                psi = 1.0 - t * (1.0 - u)
                assert float(np.dot(psi, mu_arr)) >= gamma - 1e-12
                assert float(np.dot(psi, nu_arr)) >= best - 1e-12
