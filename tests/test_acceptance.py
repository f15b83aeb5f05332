"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math

import numpy as np
import pytest

from oracles import (
    binom_pmf,
    expectation,
    feasible_optimum_oracle,
    oracle_el_nl,
    oracle_el_psi_o,
    pois_pmf,
    scalar_coverage,
)

from fuzzyci import binomial, discrete, normal, poisson
from fuzzyci.core import DiscreteMeasure, construct_psi_star
from fuzzyci.knapsack import KnapsackInstance, solve_01_dp, solve_fractional, to_measure_problem
from fuzzyci.length import QuadratureSpec, el_curve, lower_bound_curve
from fuzzyci.specfun import normal_cdf, normal_quantile, reg_inc_beta_array


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def binomial_measure(n, theta):
    ids = tuple(range(n + 1))
    return DiscreteMeasure(ids, tuple(binom_pmf(w, n, theta) for w in ids))


def test_criterion_1_binomial_exact_coverage():
    grid = [k / 1000.0 for k in range(1, 1000)]
    worst = 0.0
    worst_oracle = 0.0
    for n in (5, 10, 25):
        for gamma in (0.9, 0.95, 0.99):
            for o in (0.1, 0.5, 0.9):
                fam = binomial.BinomialFamily(n, o, gamma)
                for tau in grid:
                    cov = discrete.coverage(tau, fam)
                    worst_oracle = max(
                        worst_oracle, abs(cov - scalar_coverage(tau, fam))
                    )
                    if tau == o:
                        # The max convention keeps coverage at or above
                        # gamma at the reference point itself.
                        assert cov >= gamma - 1e-12
                        continue
                    worst = max(worst, abs(cov - gamma))
    report(
        "criterion 1 (binomial exact coverage)",
        worst < 1e-8 and worst_oracle <= 1e-11,
        f"max |coverage - gamma| = {worst:.3g} over 27 settings x 999 taus, "
        f"max |coverage - scalar sum| = {worst_oracle:.3g} (tol 1e-11)",
    )


def test_criterion_1_large_n_binomial_exact_coverage():
    grid = [k / 1000.0 for k in range(1, 1000)]
    worst = 0.0
    for n in (1000, 5000):
        for gamma in (0.9, 0.99):
            fam = binomial.BinomialFamily(n, 0.3, gamma)
            for tau in grid:
                cov = discrete.coverage(tau, fam)
                if tau == fam.o:
                    assert cov >= gamma - 1e-12
                    continue
                worst = max(worst, abs(cov - gamma))
    # The scalar sum pays O(n) root solves per (n, gamma): a few taus only.
    fam = binomial.BinomialFamily(1000, 0.3, 0.95)
    worst_oracle = max(
        abs(discrete.coverage(tau, fam) - scalar_coverage(tau, fam))
        for tau in (0.25, 0.3, 0.35)
    )
    report(
        "criterion 1 (binomial exact coverage, large n)",
        worst < 1e-8 and worst_oracle <= 1e-11,
        f"max |coverage - gamma| = {worst:.3g} over n in (1000, 5000) x 2 gammas "
        f"x 999 taus, max |coverage - scalar sum| = {worst_oracle:.3g} "
        "(tol 1e-11) at n = 1000",
    )


def test_criterion_2_poisson_exact_coverage():
    grid = [float(t) for t in np.linspace(0.02, 20.0, 999)]
    worst = 0.0
    worst_oracle = 0.0
    for gamma in (0.9, 0.95, 0.99):
        for o in (0.5, 3.8, 8.0):
            fam = poisson.PoissonFamily(o, gamma)
            for tau in grid:
                cov = discrete.coverage(tau, fam)
                worst_oracle = max(worst_oracle, abs(cov - scalar_coverage(tau, fam)))
                if tau == o:
                    assert cov >= gamma - 1e-12
                    continue
                worst = max(worst, abs(cov - gamma))
    report(
        "criterion 2 (poisson exact coverage)",
        worst < 1e-8 + 1e-12 and worst_oracle <= 1e-11,
        f"max |coverage - gamma| = {worst:.3g} over 9 settings x 999 taus, "
        f"max |coverage - scalar sum| = {worst_oracle:.3g} (tol 1e-11)",
    )


def test_criterion_2_large_mean_poisson_exact_coverage():
    worst = 0.0
    for o in (2000.0, 1e4):
        fam = poisson.PoissonFamily(o, 0.95)
        # Six standard deviations either side; support sums stop at 1e4.
        spread = 6.0 * math.sqrt(o)
        grid = np.linspace(o - spread, min(o + spread, 1e4), 199).tolist()
        for tau in grid:
            cov = discrete.coverage(tau, fam)
            if tau == o:
                assert cov >= 0.95 - 1e-12
                continue
            worst = max(worst, abs(cov - 0.95))
    report(
        "criterion 2 (poisson exact coverage, large mean)",
        worst < 1e-8 + 1e-12,
        f"max |coverage - gamma| = {worst:.3g} over o in (2000, 1e4) x 199 taus",
    )


def test_criterion_3_closed_forms_match_constructor():
    rng = np.random.default_rng(20240815)
    worst_binom = 0.0
    pairs = 0
    while pairs < 200:
        n = int(rng.integers(1, 26))
        gamma = float(rng.choice([0.9, 0.95, 0.99]))
        tau, o = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98))
        if abs(tau - o) < 1e-3:
            continue
        pairs += 1
        fam = binomial.BinomialFamily(n, o, gamma)
        res = construct_psi_star(
            binomial_measure(n, tau), binomial_measure(n, o), gamma
        )
        worst_binom = max(
            worst_binom,
            max(abs(fam.psi(w, tau) - res.psi[w]) for w in range(n + 1)),
        )
    worst_pois = 0.0
    pairs = 0
    while pairs < 200:
        gamma = float(rng.choice([0.9, 0.95, 0.99]))
        tau, o = float(rng.uniform(0.1, 15.0)), float(rng.uniform(0.1, 15.0))
        if abs(tau - o) < 0.02:
            continue
        pairs += 1
        fam = poisson.PoissonFamily(o, gamma)
        m = max(poisson.support_bound(tau), poisson.support_bound(o))
        ids = tuple(range(m + 1))
        mu = DiscreteMeasure.from_weights(ids, [pois_pmf(w, tau) for w in ids])
        nu = DiscreteMeasure.from_weights(ids, [pois_pmf(w, o) for w in ids])
        res = construct_psi_star(mu, nu, gamma)
        worst_pois = max(
            worst_pois,
            max(abs(fam.psi(w, tau) - res.psi[w]) for w in ids),
        )
    report(
        "criterion 3 (closed form = generic constructor)",
        worst_binom < 1e-9 and worst_pois < 1e-8,
        f"max deviation binomial {worst_binom:.3g} (tol 1e-9), "
        f"poisson {worst_pois:.3g} (tol 1e-8), 200 pairs each",
    )


def test_criterion_4_optimality_on_random_instances():
    rng = np.random.default_rng(7071067)
    worst_gap = 0.0
    violations = 0
    for _ in range(1000):
        size = int(rng.integers(2, 21))
        gamma = float(rng.uniform(0.05, 0.95))
        mu_w = rng.random(size) ** 2 + 1e-9
        nu_w = rng.random(size) ** 2 + 1e-9
        ids = tuple(range(size))
        mu = DiscreteMeasure.from_weights(ids, mu_w.tolist())
        nu = DiscreteMeasure.from_weights(ids, nu_w.tolist())
        res = construct_psi_star(mu, nu, gamma)
        assert abs(expectation(res, mu) - gamma) < 1e-10  # coverage identity
        best = expectation(res, nu)
        worst_gap = max(worst_gap, abs(best - feasible_optimum_oracle(mu, nu, gamma)))
        mu_arr = np.asarray(mu.mass)
        nu_arr = np.asarray(nu.mass)
        u = rng.random((100, size))
        # Shrink each random membership toward all-ones until feasible.
        deficit = (1.0 - u) @ mu_arr
        t = np.minimum(1.0, (1.0 - gamma) / np.maximum(deficit, 1e-300))
        psi = 1.0 - t[:, None] * (1.0 - u)
        assert np.all(psi @ mu_arr >= gamma - 1e-12)
        violations += int(np.sum(psi @ nu_arr < best - 1e-12))
    report(
        "criterion 4 (optimality vs oracle and random feasible memberships)",
        worst_gap <= 1e-12 and violations == 0,
        f"max |objective - greedy oracle| = {worst_gap:.3g}, "
        f"{violations} of 100000 random feasible memberships beat it",
    )


def test_criterion_5_knapsack_round_trip():
    rng = np.random.default_rng(1618033)
    worst_gap = 0.0
    relaxation_ok = True
    structure_ok = True
    for _ in range(500):
        size = int(rng.integers(1, 13))
        weights = tuple(float(w) for w in rng.integers(1, 13, size))
        values = tuple(float(v) for v in rng.uniform(0.01, 10.0, size))
        capacity = float(rng.integers(1, max(2, int(sum(weights)))))
        if not 0.0 < capacity < sum(weights):
            continue
        inst = KnapsackInstance(weights, values, capacity)
        sol = solve_fractional(inst)
        fractions = {x for x in sol.x if 0.0 < x < 1.0}
        if len(fractions) > 1:
            structure_ok = False
        if fractions:
            weight_a = math.fsum(
                w for w, lab in zip(weights, sol.partition) if lab == "A"
            )
            if not weight_a < capacity:
                structure_ok = False
        _, dp_value = solve_01_dp(inst)
        if sol.total_value < dp_value - 1e-9:
            relaxation_ok = False
        mu, nu, gamma = to_measure_problem(inst)
        res = construct_psi_star(mu, nu, gamma)
        worst_gap = max(
            worst_gap, max(abs(x - (1.0 - p)) for x, p in zip(sol.x, res.psi))
        )
    report(
        "criterion 5 (knapsack round trip)",
        structure_ok and relaxation_ok and worst_gap < 1e-10,
        f"max |x - (1 - psi)| = {worst_gap:.3g}, structure {structure_ok}, "
        f"relaxation bound {relaxation_ok}, 500 instances",
    )


def test_criterion_6_normal_closed_forms_vs_quadrature():
    worst = {"psi_o": 0.0, "psi_nl": 0.0, "lower_bound": 0.0}
    grid = [float(t) for t in np.linspace(0.0, 1.0, 101)]
    for se in (0.1, 1 / 6, 1 / 3, 1.0):
        fam = normal.NormalFamily(o=0.5, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
        standard = normal.TwoSidedInterval(gamma=0.95, sigma=se, bounds=(0.0, 1.0))
        for theta in grid:
            worst["psi_o"] = max(
                worst["psi_o"],
                abs(fam.expected_length(theta) - oracle_el_psi_o(theta, fam)),
            )
            worst["psi_nl"] = max(
                worst["psi_nl"],
                abs(standard.expected_length(theta) - oracle_el_nl(theta, standard)),
            )
            fam_theta = normal.NormalFamily(
                o=theta, gamma=0.95, sigma=se, bounds=(0.0, 1.0)
            )
            worst["lower_bound"] = max(
                worst["lower_bound"],
                abs(standard.lower_bound(theta) - oracle_el_psi_o(theta, fam_theta)),
            )
    ok = all(v < 1e-6 for v in worst.values())
    report(
        "criterion 6 (normal closed forms vs 2-D quadrature)",
        ok,
        "max |closed - quadrature|: "
        + ", ".join(f"{k} {v:.3g}" for k, v in worst.items())
        + " (tol 1e-6, both cases covered: se=1/10 is case 1, se=1 is case 2)",
    )


def test_criterion_7_lower_bound_dominance_and_tangency():
    unit = QuadratureSpec(0.0, 1.0)
    worst_viol = -math.inf
    worst_tangency = 0.0

    # Binomial, n = 10, gamma = 0.95.
    for o in (0.1, 0.5, 0.9):
        fam = binomial.BinomialFamily(10, o, 0.95)
        grid = sorted(set(np.linspace(0.05, 0.95, 37).tolist()) | {o})
        curves = zip(grid, el_curve(fam, grid, unit), lower_bound_curve(fam, grid, unit))
        for theta, el, bound in curves:
            worst_viol = max(worst_viol, bound - el)
            if theta == o:
                worst_tangency = max(worst_tangency, abs(el - bound))

    # Poisson, gamma = 0.95.
    pquad = QuadratureSpec(1e-9, poisson.default_tau_max(12.0))
    for o in (0.5, 3.8, 8.0):
        fam = poisson.PoissonFamily(o, 0.95)
        grid = sorted(set(np.linspace(0.3, 12.0, 17).tolist()) | {o})
        curves = zip(
            grid, el_curve(fam, grid, pquad), lower_bound_curve(fam, grid, pquad)
        )
        for theta, el, bound in curves:
            worst_viol = max(worst_viol, bound - el)
            if theta == o:
                worst_tangency = max(worst_tangency, abs(el - bound))

    # Normal closed forms, Fig-11 settings.
    for se in (0.1, 1 / 6, 1 / 3, 1.0):
        for o in (0.25, 0.5, 0.75):
            fam = normal.NormalFamily(o=o, gamma=0.95, sigma=se, bounds=(0.0, 1.0))
            for theta in np.linspace(0.0, 1.0, 41):
                theta = float(theta)
                gap = fam.lower_bound(theta) - fam.expected_length(theta)
                worst_viol = max(worst_viol, gap)
            worst_tangency = max(
                worst_tangency, abs(fam.expected_length(o) - fam.lower_bound(o))
            )
    report(
        "criterion 7 (lower-bound dominance and tangency)",
        worst_viol <= 1e-9 and worst_tangency < 1e-7,
        f"max (bound - el) = {worst_viol:.3g} (tol 1e-9), "
        f"max tangency gap at theta=o = {worst_tangency:.3g} (tol 1e-7)",
    )


def test_criterion_8_qualitative_figure_shapes():
    monotone_ok = True
    limit_ok = True

    taus = [float(t) for t in np.linspace(0.002, 0.998, 199)]
    for o in (0.2, 0.5, 0.8):
        fam = binomial.BinomialFamily(10, o, 0.95)
        for w in range(11):
            vals = [fam.psi(w, t) for t in taus]
            below = [v for t, v in zip(taus, vals) if t < o]
            above = [v for t, v in zip(taus, vals) if t > o]
            monotone_ok &= all(u <= v + 1e-12 for u, v in zip(below, below[1:]))
            monotone_ok &= all(u >= v - 1e-12 for u, v in zip(above, above[1:]))
        limit_ok &= (
            max(fam.psi(w, o - 1e-9) for w in range(11)) >= 1.0 - 1e-6
        )
        limit_ok &= (
            max(fam.psi(w, o + 1e-9) for w in range(11)) >= 1.0 - 1e-6
        )

    ptaus = [float(t) for t in np.linspace(0.05, 25.0, 199)]
    for o in (4.0, 8.0, 12.0):
        fam = poisson.PoissonFamily(o, 0.95)
        for w in range(26):
            vals = [fam.psi(w, t) for t in ptaus]
            below = [v for t, v in zip(ptaus, vals) if t < o]
            above = [v for t, v in zip(ptaus, vals) if t > o]
            monotone_ok &= all(u <= v + 1e-12 for u, v in zip(below, below[1:]))
            monotone_ok &= all(u >= v - 1e-12 for u, v in zip(above, above[1:]))
        limit_ok &= (
            max(fam.psi(w, o - 1e-9) for w in range(30)) >= 1.0 - 1e-6
        )
        limit_ok &= (
            max(fam.psi(w, o + 1e-9) for w in range(30)) >= 1.0 - 1e-6
        )

    fam = normal.NormalFamily(o=0.5, gamma=0.95, sigma=1.0, bounds=(0.0, 1.0))
    standard = normal.TwoSidedInterval(gamma=0.95, sigma=1.0, bounds=(0.0, 1.0))
    grid = [float(t) for t in np.linspace(0.0, 1.0, 101)]
    dominance_ok = max(fam.expected_length(t) for t in grid) <= max(
        standard.expected_length(t) for t in grid
    )
    report(
        "criterion 8 (qualitative figure shapes)",
        monotone_ok and limit_ok and dominance_ok,
        f"per-side monotonicity {monotone_ok}, one-sided limit 1 at o {limit_ok}, "
        f"large-stderr worst-case dominance {dominance_ok}",
    )


def test_criterion_9_special_function_identities():
    beta = reg_inc_beta_array(np.array([0.5, 0.6, 0.6]), np.array([1, 2, 1]), np.array([1, 1, 2]))
    checks = (np.abs(beta - [0.5, 0.36, 0.84]) < 1e-12).tolist()
    counts = poisson.PoissonFamily(1.0, 0.95)
    high, half = counts.solve_band_edges([(0.95, 1), (0.5, 1)])
    checks.append(abs(high + math.log(0.05)) < 1e-10)
    checks.append(abs(half - math.log(2.0)) < 1e-10)
    checks.append(abs(normal_cdf(0.0) - 0.5) < 1e-12)
    for z in (0.3, 1.7, 4.0):
        checks.append(abs(normal_cdf(z) + normal_cdf(-z) - 1.0) < 1e-12)
    for n, tau in ((5, 0.2), (25, 0.9)):
        checks.append(abs(binom_pmf(0, n, tau) - (1 - tau) ** n) < 1e-12)
        total = math.fsum(binom_pmf(w, n, tau) for w in range(n + 1))
        checks.append(abs(total - 1.0) < 1e-12)
    checks.append(abs(pois_pmf(0, 3.0) - math.exp(-3.0)) < 1e-12)
    identities_ok = all(checks)

    def round_trip(fam, keys):
        # Each edge's level back from the tail, over one batch of edges.
        level, k = (np.array(v) for v in zip(*keys))
        edges = np.array(fam.solve_band_edges(keys))
        return float(np.max(np.abs(fam.tail_array(k, edges) - level)))

    worst_rt = 0.0
    for n in (1, 2, 7, 20):
        trials = binomial.BinomialFamily(n, 0.5, 0.95)
        keys = [(p, k) for k in (1, n // 2 + 1, n) for p in (0.01, 0.2, 0.5, 0.8, 0.99)]
        worst_rt = max(worst_rt, round_trip(trials, keys))
    keys = [(p, k) for k in (1, 4, 10) for p in (0.05, 0.5, 0.95)]
    worst_rt = max(worst_rt, round_trip(counts, keys))
    for p in (0.01, 0.5, 0.975):
        worst_rt = max(worst_rt, abs(normal_cdf(normal_quantile(p)) - p))
    report(
        "criterion 9 (special-function identities and round trips)",
        identities_ok and worst_rt < 1e-9,
        f"closed-form identities {identities_ok}, "
        f"max inverse round-trip residual = {worst_rt:.3g} (tol 1e-9)",
    )


def bernoulli_minimax(gamma):
    """Minimal maximum expected length for one Bernoulli trial.

    The pointwise linear program: minimize psi(0 | tau) + psi(1 | tau)
    subject to coverage >= gamma at tau, integrated over tau in [0, 1].
    """
    return (
        2.0 * gamma - 1.0 - gamma * math.log(gamma)
        + (1.0 - gamma) * math.log(2.0 * (1.0 - gamma))
    )


def test_criterion_10_minimax_expected_length():
    # If a family's expected-length curve peaks at its reference point o,
    # it is minimax: any membership with coverage >= gamma has expected
    # length at o no smaller than the family's (criterion 7), which is
    # the family's maximum.  The certificate is that peak on a dense grid.
    unit = QuadratureSpec(0.0, 1.0)
    grid = [k / 1000.0 for k in range(1, 1000)]
    formula_gap = abs(bernoulli_minimax(0.95) - 0.833599375018)
    worst_value = worst_peak = 0.0
    off_centre_larger = True
    for gamma in (0.8, 0.9, 0.95, 0.99):
        fam = binomial.BinomialFamily(1, 0.5, gamma)
        minimax = bernoulli_minimax(gamma)
        worst_value = max(worst_value, abs(el_curve(fam, [0.5], unit)[0] - minimax))
        worst_peak = max(worst_peak, max(el_curve(fam, grid, unit)) - minimax)
        off_centre = max(el_curve(binomial.BinomialFamily(1, 0.3, gamma), grid, unit))
        off_centre_larger &= off_centre > minimax + 1e-3

    # Binomial with o = 1/2: the peak sits at o for 2 <= n <= N(gamma) and
    # moves to an end of the grid at n = N(gamma) + 1.
    binomial_peak = -math.inf
    past_n_at_end = True
    for gamma, last in ((0.8, 2), (0.9, 5), (0.95, 8), (0.99, 17)):
        for n in range(2, last + 2):
            fam = binomial.BinomialFamily(n, 0.5, gamma)
            curve = el_curve(fam, grid, unit)
            if n == last + 1:
                past_n_at_end &= int(np.argmax(curve)) in (0, len(grid) - 1)
            else:
                binomial_peak = max(
                    binomial_peak, max(curve) - el_curve(fam, [0.5], unit)[0]
                )

    # Normal mean on [0, 1] with o = 1/2: the peak sits at o for sigma >= 1/3
    # and moves to an end of the bounds at sigma = 0.1.
    thetas = np.linspace(0.0, 1.0, 2001).tolist()
    normal_peak = -math.inf
    low_sigma_at_end = True
    for gamma in (0.8, 0.9, 0.95, 0.99):
        for sigma in (1 / 3, 0.5, 1.0, 3.0, 0.1):
            fam = normal.NormalFamily(o=0.5, gamma=gamma, sigma=sigma, bounds=(0.0, 1.0))
            curve = [fam.expected_length(theta) for theta in thetas]
            if sigma == 0.1:
                low_sigma_at_end &= int(np.argmax(curve)) in (0, len(thetas) - 1)
            else:
                normal_peak = max(normal_peak, max(curve) - fam.expected_length(0.5))
    report(
        "criterion 10 (minimax expected length)",
        formula_gap < 5e-13 and worst_value <= 1e-10 and worst_peak <= 1e-12
        and off_centre_larger and binomial_peak <= 1e-12 and past_n_at_end
        and normal_peak <= 1e-12 and low_sigma_at_end,
        f"M(0.95) - 0.833599375018 = {formula_gap:.2g}, "
        f"Bernoulli max |EL(1/2) - M(gamma)| = {worst_value:.3g} (tol 1e-10), "
        f"curve above M by {worst_peak:.3g} (tol 1e-12), o = 0.3 larger "
        f"{off_centre_larger}; binomial n <= N(gamma) curve above EL(1/2) by "
        f"{binomial_peak:.3g} (tol 1e-12), peak at an end at N(gamma) + 1 "
        f"{past_n_at_end}; normal curve above EL(1/2) by {normal_peak:.3g} "
        f"(tol 1e-12), peak at an end at sigma = 0.1 {low_sigma_at_end}",
    )


def _discretized_minimax(n, gamma, cells=600, thetas=400):
    """Minimal maximum expected length of a binomial membership, by LP.

    The membership psi(omega | tau) is a free value in [0, 1] at each cell
    midpoint tau_i of [0, 1] (so the mass is the midpoint sum); coverage
    must reach gamma at every midpoint, and the expected length at each
    of ``thetas`` midpoint thetas must stay under the objective t.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    def pmf(x):
        w = np.arange(n + 1)
        comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        return comb * x[:, None] ** w * (1.0 - x[:, None]) ** (n - w)

    h = 1.0 / cells
    tau = (np.arange(cells) + 0.5) * h
    theta = (np.arange(thetas) + 0.5) / thetas
    size = (n + 1) * cells  # psi[omega, i] at omega * cells + i, then t
    lengths = np.hstack(
        [np.repeat(pmf(theta) * h, cells, axis=1), -np.ones((thetas, 1))]
    )
    rows = np.repeat(np.arange(cells), n + 1)
    cols = (np.arange(n + 1)[None, :] * cells + np.arange(cells)[:, None]).ravel()
    cover = sparse.csr_matrix(
        (-pmf(tau).ravel(), (rows, cols)), shape=(cells, size + 1)
    )
    result = linprog(
        np.append(np.zeros(size), 1.0),
        A_ub=sparse.vstack([sparse.csr_matrix(lengths), cover]),
        b_ub=np.append(np.zeros(thetas), np.full(cells, -gamma)),
        bounds=[(0.0, 1.0)] * size + [(0.0, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    return result.fun


def test_criterion_10_minimax_matches_discretized_lp():
    # An independent route to the minimax value: no membership of any form
    # is assumed.  The discretization leaves it about 3e-6 above the
    # family's expected length at o = 1/2.
    pytest.importorskip("scipy")
    unit = QuadratureSpec(0.0, 1.0)
    gaps = []
    for n in (1, 2, 3):
        family = el_curve(binomial.BinomialFamily(n, 0.5, 0.95), [0.5], unit)[0]
        gaps.append(abs(_discretized_minimax(n, 0.95) - family))
    report(
        "criterion 10 (discretized LP cross-check)",
        max(gaps) <= 1e-5,
        "n = 1, 2, 3 at gamma = 0.95: |LP - EL(1/2)| = "
        + ", ".join(f"{g:.3g}" for g in gaps) + " (tol 1e-5)",
    )
