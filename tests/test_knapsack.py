"""Tests for the fractional knapsack solver and the measure-problem mapping."""

import itertools
import math
import random

import numpy as np
import pytest

from fuzzyci.core import construct_psi_star
from fuzzyci.knapsack import (
    KnapsackInstance,
    solve_01_dp,
    solve_fractional,
    to_measure_problem,
)


def brute_force_01(instance):
    """Exhaustive 0/1 optimum; exponential, for small fixtures only."""
    n = len(instance.weights)
    best = 0.0
    for mask in itertools.product((0, 1), repeat=n):
        weight = sum(w * m for w, m in zip(instance.weights, mask))
        if weight <= instance.capacity:
            best = max(best, sum(v * m for v, m in zip(instance.values, mask)))
    return best


class TestSolveFractional:
    def test_single_item_fits_exactly(self):
        sol = solve_fractional(KnapsackInstance((2.0,), (3.0,), 2.0))
        assert sol.x == (1.0,)
        assert sol.total_value == 3.0
        assert sol.partition == ("A",)

    def test_dominant_ratio(self):
        sol = solve_fractional(KnapsackInstance((1.0, 1.0), (1.0, 2.0), 1.0))
        assert sol.x == (0.0, 1.0)
        assert sol.total_value == 2.0

    def test_fractional_tie_group(self):
        # Items 1 and 2 share ratio 1.5 and split the leftover capacity.
        sol = solve_fractional(KnapsackInstance((3.0, 2.0, 2.0), (5.0, 3.0, 3.0), 4.0))
        assert sol.partition == ("A", "C", "C")
        assert sol.x == pytest.approx((1.0, 0.25, 0.25))
        assert sol.total_value == pytest.approx(6.5, abs=1e-12)

    def test_matches_lp_oracle(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            w = rng.uniform(0.1, 5.0, n)
            v = rng.uniform(0.0, 5.0, n)
            cap = float(rng.uniform(0.05, 1.0) * w.sum())
            sol = solve_fractional(KnapsackInstance(tuple(w), tuple(v), cap))
            lp = linprog(-v, A_ub=[w], b_ub=[cap], bounds=[(0, 1)] * n, method="highs")
            assert lp.status == 0
            assert sol.total_value == pytest.approx(-lp.fun, abs=1e-9)

    def test_at_most_one_fractional_group(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            w = rng.uniform(0.1, 5.0, n)
            v = rng.uniform(0.0, 5.0, n)
            cap = float(rng.uniform(0.0, 1.2) * w.sum())
            sol = solve_fractional(KnapsackInstance(tuple(w), tuple(v), cap))
            fracs = {xi for xi in sol.x if 0.0 < xi < 1.0}
            assert len(fracs) <= 1
            assert sol.total_weight == pytest.approx(min(cap, w.sum()), abs=1e-12)
            # Fractional group exists only when A does not exhaust capacity.
            if fracs:
                weight_a = math.fsum(
                    wi for wi, lab in zip(w, sol.partition) if lab == "A"
                )
                assert weight_a < cap

    def test_exact_exhaustion_has_no_fractional_group(self):
        sol = solve_fractional(KnapsackInstance((2.0, 3.0), (9.0, 1.0), 2.0))
        assert sol.partition == ("A", "B")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            KnapsackInstance((1.0, -1.0), (1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            KnapsackInstance((1.0,), (-1.0,), 1.0)
        with pytest.raises(ValueError):
            KnapsackInstance((1.0,), (1.0, 2.0), 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                KnapsackInstance((1.0, 2.0), (1.0, 1.0), bad)
            with pytest.raises(ValueError):
                KnapsackInstance((1.0, bad), (1.0, 1.0), 1.0)
            with pytest.raises(ValueError):
                KnapsackInstance((1.0, 2.0), (bad, 1.0), 1.0)


class TestSolve01DP:
    def test_single_item(self):
        subset, value = solve_01_dp(KnapsackInstance((2.0,), (3.0,), 2.0))
        assert subset == (0,)
        assert value == 3.0

    def test_two_items(self):
        subset, value = solve_01_dp(KnapsackInstance((1.0, 1.0), (1.0, 2.0), 1.0))
        assert subset == (1,)
        assert value == 2.0

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = 12
            w = tuple(float(x) for x in rng.integers(1, 9, n))
            v = tuple(float(x) for x in rng.uniform(0.0, 10.0, n))
            cap = float(rng.integers(5, int(sum(w))))
            inst = KnapsackInstance(w, v, cap)
            _, value = solve_01_dp(inst)
            assert value == pytest.approx(brute_force_01(inst), abs=1e-9)

    def test_relaxation_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            w = tuple(float(x) for x in rng.integers(1, 12, n))
            v = tuple(float(x) for x in rng.uniform(0.0, 10.0, n))
            cap = float(rng.integers(1, max(2, int(sum(w)))))
            inst = KnapsackInstance(w, v, cap)
            _, dp_value = solve_01_dp(inst)
            assert solve_fractional(inst).total_value >= dp_value - 1e-9

    def test_rejects_fractional_weights(self):
        with pytest.raises(ValueError):
            solve_01_dp(KnapsackInstance((1.5,), (1.0,), 2.0))

    def test_budget_guard(self):
        inst = KnapsackInstance((1.0,) * 10, (1.0,) * 10, 2e6)
        with pytest.raises(ValueError):
            solve_01_dp(inst)


class TestToMeasureProblem:
    def test_worked_example(self):
        inst = KnapsackInstance((1.0, 1.0), (1.0, 2.0), 1.0)
        mu, nu, gamma = to_measure_problem(inst)
        assert gamma == 0.5
        assert mu.mass == (0.5, 0.5)
        assert nu.mass == pytest.approx((1 / 3, 2 / 3))
        res = construct_psi_star(mu, nu, gamma)
        assert res.psi == pytest.approx((1.0, 0.0), abs=1e-12)
        x = solve_fractional(inst).x
        assert x == pytest.approx(tuple(1.0 - p for p in res.psi), abs=1e-12)
        # Brute-force subset check: (0, 1) is the best 0/1 selection.
        assert brute_force_01(inst) == 2.0

    def test_full_symmetry_splits_evenly(self):
        inst = KnapsackInstance((2.0,) * 4, (3.0,) * 4, 4.0)
        mu, nu, gamma = to_measure_problem(inst)
        res = construct_psi_star(mu, nu, gamma)
        assert res.partition == ("C",) * 4
        assert res.psi == pytest.approx((0.5,) * 4)
        sol = solve_fractional(inst)
        assert sol.x == pytest.approx((0.5,) * 4)

    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            w = tuple(rng.uniform(0.1, 5.0, n).tolist())
            v = tuple(rng.uniform(0.01, 5.0, n).tolist())
            cap = float(rng.uniform(0.05, 0.95) * sum(w))
            inst = KnapsackInstance(w, v, cap)
            mu, nu, gamma = to_measure_problem(inst)
            res = construct_psi_star(mu, nu, gamma)
            x = solve_fractional(inst).x
            for xi, pi in zip(x, res.psi):
                assert xi == pytest.approx(1.0 - pi, abs=1e-10)

    def test_round_trip_4000_items_small_capacity(self):
        # gamma - mass_a over thousands of items, divided by one small tie mass:
        # a running sum of mass_a drifted past 1e-10 here.
        rng = random.Random(4000)
        items = [(rng.randint(1, 10), rng.uniform(0.1, 10.0)) for _ in range(4000)]
        inst = KnapsackInstance(
            tuple(float(w) for w, _ in items), tuple(v for _, v in items), 220.0
        )
        mu, nu, gamma = to_measure_problem(inst)
        res = construct_psi_star(mu, nu, gamma)
        x = solve_fractional(inst).x
        assert max(abs(xi - (1.0 - pi)) for xi, pi in zip(x, res.psi)) <= 1e-10

    def test_domain_errors(self):
        inst = KnapsackInstance((1.0, 2.0), (1.0, 1.0), 3.0)
        with pytest.raises(ValueError):
            to_measure_problem(inst)  # capacity equals total weight
        with pytest.raises(ValueError):
            to_measure_problem(KnapsackInstance((1.0,), (1.0,), 0.0))
        with pytest.raises(ValueError):
            to_measure_problem(KnapsackInstance((1.0, 1.0), (0.0, 0.0), 1.0))
