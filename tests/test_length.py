"""Tests for the expected-length engine."""

import math

import numpy as np
import pytest

from fuzzyci import binomial, discrete, poisson
from fuzzyci.length import (
    DiscreteFamilyModel,
    ELCurve,
    QuadratureSpec,
    el_curve,
    expected_length,
    interval_mass,
    lower_bound_curve,
)
from fuzzyci.specfun import ConvergenceError
from oracles import riemann_mass

UNIT = QuadratureSpec(0.0, 1.0)


def constant_model(level, n=4):
    return DiscreteFamilyModel(
        label="constant",
        psi=lambda w, t: level,
        pmf=lambda w, th: 1.0 / (n + 1),
        support_upper=lambda th: n,
        breakpoints=lambda w: (),
    )


def indicator_model(lo, hi):
    return DiscreteFamilyModel(
        label="indicator",
        psi=lambda w, t: 1.0 if lo < t < hi else 0.0,
        pmf=lambda w, th: 1.0,
        support_upper=lambda th: 0,
        breakpoints=lambda w: (lo, hi),
    )


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, rel_tol=1e-3)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, max_depth=0)


class TestIntervalMass:
    def test_constant_membership(self):
        assert interval_mass(constant_model(0.95), 0, UNIT) == pytest.approx(
            0.95, abs=1e-12
        )

    def test_crisp_indicator(self):
        assert interval_mass(indicator_model(0.2, 0.7), 0, UNIT) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_binomial_against_fine_riemann_oracle(self):
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        mass = interval_mass(discrete.model(fam), 5, UNIT)
        oracle = riemann_mass(
            lambda t: discrete.psi_o(5, t, fam), 0.0, 1.0, 10**6, split=(fam.o,)
        )
        assert mass == pytest.approx(oracle, rel=1e-6)

    def test_random_cases_against_riemann_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            if rng.random() < 0.5:
                n = int(rng.integers(1, 16))
                fam = binomial.BinomialFamily(
                    n, float(rng.uniform(0.1, 0.9)), float(rng.choice([0.9, 0.95]))
                )
                model = discrete.model(fam)
                w = int(rng.integers(0, n + 1))
                quad = UNIT
                points = 15000
                psi = lambda t: discrete.psi_o(w, t, fam)
            else:
                fam = poisson.PoissonFamily(
                    float(rng.uniform(0.5, 10.0)), float(rng.choice([0.9, 0.95]))
                )
                model = discrete.model(fam)
                w = int(rng.integers(0, 15))
                quad = QuadratureSpec(1e-9, poisson.default_tau_max(fam.o))
                # The oracle's own midpoint error scales with the squared
                # step, so the wide range needs proportionally more points.
                points = 40000
                psi = lambda t: discrete.psi_o(w, t, fam)
            mass = interval_mass(model, w, quad)
            oracle = riemann_mass(psi, quad.lower, quad.upper, points, split=(fam.o,))
            assert mass == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_reports_nonconvergence(self):
        # A jump the model does not advertise, with no refinement budget.
        sneaky = DiscreteFamilyModel(
            label="sneaky",
            psi=lambda w, t: 1.0 if t < 0.37 else 0.0,
            pmf=lambda w, th: 1.0,
            support_upper=lambda th: 0,
            breakpoints=lambda w: (),
        )
        with pytest.raises(ConvergenceError):
            interval_mass(sneaky, 0, QuadratureSpec(0.0, 1.0, max_depth=2))


class TestExpectedLength:
    def test_constant_membership_any_theta(self):
        model = constant_model(0.95)
        for theta in (0.1, 0.5, 0.9):
            assert expected_length(model, theta, UNIT) == pytest.approx(
                0.95, abs=1e-12
            )

    def test_binomial_curves_are_positive_and_bounded(self):
        for o in (0.1, 0.5, 0.9):
            fam = binomial.BinomialFamily(10, o, 0.95)
            model = discrete.model(fam)
            for theta in (0.2, 0.5, 0.8):
                value = expected_length(model, theta, UNIT)
                assert 0.0 < value < 1.0

    def test_poisson_tail_insensitivity(self):
        fam = poisson.PoissonFamily(8.0, 0.95)
        model = discrete.model(fam)
        tau_max = poisson.default_tau_max(8.0)
        for theta in (3.0, 8.0):
            base = expected_length(model, theta, QuadratureSpec(1e-9, tau_max))
            doubled = expected_length(model, theta, QuadratureSpec(1e-9, 2 * tau_max))
            assert abs(base - doubled) < 1e-8


class TestCurves:
    def test_tangency_and_dominance_binomial(self):
        grid = np.linspace(0.05, 0.95, 19)
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        make_ref = lambda th: discrete.model(binomial.BinomialFamily(10, th, 0.95))
        curve = el_curve(discrete.model(fam), make_ref, grid, UNIT)
        for theta, el, bound in zip(curve.theta_grid, curve.el, curve.lower_bound):
            assert el >= bound - 1e-9
            if theta == 0.5:
                assert abs(el - bound) < 1e-7

    def test_agresti_coull_dominates_bound(self):
        grid = np.linspace(0.05, 0.95, 19)
        make_ref = lambda th: discrete.model(binomial.BinomialFamily(10, th, 0.95))
        curve = el_curve(discrete.crisp_model(binomial.AgrestiCoull(10, 0.95)), make_ref, grid, UNIT)
        for el, bound in zip(curve.el, curve.lower_bound):
            assert el >= bound - 1e-9

    def test_lower_bound_curve_is_self_consistent(self):
        grid = [0.2, 0.5, 0.8]
        make_ref = lambda th: discrete.model(binomial.BinomialFamily(10, th, 0.95))
        curve = lower_bound_curve(make_ref, grid, UNIT)
        assert curve.el == curve.lower_bound
        assert curve.method_label == "lower_bound"

    def test_poisson_tangency(self):
        quad = QuadratureSpec(1e-9, poisson.default_tau_max(8.0))
        make_ref = lambda th: discrete.model(poisson.PoissonFamily(th, 0.95))
        curve = el_curve(
            discrete.model(poisson.PoissonFamily(8.0, 0.95)), make_ref, [5.0, 8.0], quad
        )
        assert curve.el[1] == pytest.approx(curve.lower_bound[1], abs=1e-7)
        assert curve.el[0] >= curve.lower_bound[0] - 1e-9

    def test_empty_grid(self):
        make_ref = lambda th: discrete.model(binomial.BinomialFamily(10, th, 0.95))
        curve = el_curve(
            discrete.model(binomial.BinomialFamily(10, 0.5, 0.95)), make_ref, [], UNIT
        )
        assert curve.theta_grid == ()
        assert curve.el == ()

    def test_curve_length_validation(self):
        with pytest.raises(ValueError):
            ELCurve((0.1,), (0.2, 0.3), (0.1,), "broken")
