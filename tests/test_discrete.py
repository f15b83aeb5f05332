"""Tests for the membership kernel shared by the discrete families."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import mp_tail_residual, scalar_coverage

from fuzzyci import binomial, discrete, poisson, specfun
from fuzzyci.discrete import coverage
from fuzzyci.specfun import ConvergenceError, log_factorials


def count_solves(monkeypatch, cls):
    """Record the (level, k) of every band-edge solve of ``cls`` from now on."""
    solves = []
    solve = cls.solve_edge

    def counted(self, level, k):
        solves.append((level, k))
        return solve(self, level, k)

    monkeypatch.setattr(cls, "solve_edge", counted)
    return solves


def four_solves(fam, omega):
    """omega's thresholds, each from its own band-edge solve."""
    below, above = 1.0 - fam.gamma, fam.gamma
    return (
        fam.solve_edge(below, omega),
        fam.solve_edge(below, omega + 1),
        fam.solve_edge(above, omega),
        fam.solve_edge(above, omega + 1),
    )


@pytest.mark.parametrize(
    "first, second, taus",
    [
        (
            binomial.BinomialFamily(12, 0.3, 0.9371),
            binomial.BinomialFamily(12, 0.7, 0.9371),
            (0.05, 0.3, 0.5, 0.7, 0.95),
        ),
        (
            poisson.PoissonFamily(2.0, 0.9371),
            poisson.PoissonFamily(9.0, 0.9371),
            (0.5, 2.0, 6.0, 9.0, 14.0),
        ),
    ],
    ids=["binomial", "poisson"],
)
def test_families_differing_only_in_o_share_one_memo(first, second, taus, monkeypatch):
    # Every anchor of a model reads one memo; its cost rests on the band
    # edges being kept on everything but o.
    assert first.memo is second.memo
    top = first.support_upper(max(taus))
    for tau in taus:
        for w in range(top + 1):
            first.psi(w, tau)
    for w in range(top + 1):
        first.thresholds(w)
    before = dict(first.memo.edges)
    solves = count_solves(monkeypatch, type(first))
    for tau in taus:
        for w in range(top + 1):
            second.psi(w, tau)
    for w in range(top + 1):
        second.thresholds(w)
    assert solves == []
    assert second.memo.edges == before


def test_coverage_leaves_the_memos_untouched():
    # A gamma no other test uses: any lookup would add a model.
    gamma = 0.9182736
    families = (
        binomial.BinomialFamily(40, 0.4, gamma),
        poisson.PoissonFamily(6.0, gamma),
    )
    before = discrete._memo.cache_info()
    for fam in families:
        for tau in (0.2, fam.o, 0.7 if fam.tau_upper == 1.0 else 11.0):
            assert 0.0 < coverage(tau, fam) < 1.0
    assert discrete._memo.cache_info() == before
    assert all("memo" not in vars(fam) for fam in families)


@pytest.mark.parametrize("gamma", [0.8, 0.95, 0.99])
def test_shared_band_edges_give_the_four_solve_thresholds(gamma):
    # Each band edge is solved once and read by two neighbouring omegas; the
    # thresholds must be the very floats four separate solves give.
    for n in (1, 2, 10, 40, 300):
        fam = binomial.BinomialFamily(n, 0.5, gamma)
        for w in range(n + 1):
            assert fam.thresholds(w) == four_solves(fam, w)
    fam = poisson.PoissonFamily(1.0, gamma)
    for w in range(151):
        assert fam.thresholds(w) == four_solves(fam, w)


@pytest.mark.parametrize(
    "fam",
    [binomial.BinomialFamily(40, 0.5, 0.9073515), poisson.PoissonFamily(1.0, 0.9073515)],
    ids=["binomial", "poisson"],
)
def test_each_band_edge_is_solved_once(fam, monkeypatch):
    # A gamma no other test uses: omega = 0..40 has 42 edges per level,
    # each stored once, in the memo's one table of edges.
    solves = count_solves(monkeypatch, type(fam))
    for w in range(41):
        fam.thresholds(w)
    assert sorted(vars(fam.memo)) == ["bands", "edges", "envelope"]
    assert len(solves) == len(set(solves)) == len(fam.memo.edges) == 2 * (40 + 2)
    for w in range(41):
        fam.thresholds(w)
    assert len(solves) == 2 * (40 + 2)


def test_a_failed_solve_stores_nothing(monkeypatch):
    # A gamma no other test uses, so the memo starts empty.
    gamma = 0.9361728
    fam = binomial.BinomialFamily(10, 0.5, gamma)
    solve = binomial.BinomialFamily.solve_edge

    def failing(self, level, k):
        if k == 4:
            raise ConvergenceError("no root")
        return solve(self, level, k)

    monkeypatch.setattr(binomial.BinomialFamily, "solve_edge", failing)
    with pytest.raises(ConvergenceError):
        fam.thresholds(3)
    # The edge solved before the failure is kept, the failed one is not.
    assert list(fam.memo.edges) == [(1.0 - gamma, 3)]
    monkeypatch.undo()
    assert fam.thresholds(3) == four_solves(fam, 3)


def count_tails(monkeypatch, cls):
    """Record the k of every ``tail`` evaluation of ``cls`` from now on."""
    calls = []
    tail = cls.tail

    def counted(self, k, tau):
        calls.append(k)
        return tail(self, k, tau)

    monkeypatch.setattr(cls, "tail", counted)
    return calls


class TestSolveEdge:
    """Band edges: the tau where P[X >= k | tau] = level, in either family."""

    def test_binomial_closed_forms(self):
        # P[X >= n | tau] = tau^n.
        fam = binomial.BinomialFamily(2, 0.5, 0.95)
        assert fam.solve_edge(0.36, 2) == pytest.approx(0.6, abs=1e-9)
        fam = binomial.BinomialFamily(1, 0.5, 0.95)
        assert fam.solve_edge(0.5, 1) == pytest.approx(0.5, abs=1e-9)

    def test_binomial_frozen_value(self):
        # mpmath root of I(x; 5, 6) = 0.95 at 40 digits.
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        assert fam.solve_edge(0.95, 5) == pytest.approx(0.696462787435958, abs=1e-9)

    def test_poisson_closed_form(self):
        # P[X >= 1 | tau] = 1 - exp(-tau).
        fam = poisson.PoissonFamily(1.0, 0.95)
        assert fam.solve_edge(0.95, 1) == pytest.approx(-math.log(0.05), abs=1e-10)
        assert fam.solve_edge(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_poisson_frozen_value(self):
        # mpmath root of P(4, tau) = 0.95 at 40 digits: half the 0.95
        # quantile of chi-square with 8 degrees of freedom.
        fam = poisson.PoissonFamily(1.0, 0.95)
        assert fam.solve_edge(0.95, 4) == pytest.approx(15.507313055865454 / 2, abs=5e-9)

    def test_conventions(self):
        # P[X >= 0] = 1 and, for the binomial, P[X >= n + 1] = 0 at every tau.
        fam = binomial.BinomialFamily(4, 0.5, 0.95)
        assert fam.solve_edge(0.4, 0) == 0.0
        assert fam.solve_edge(0.4, 5) == 1.0
        assert poisson.PoissonFamily(1.0, 0.95).solve_edge(0.4, 0) == 0.0

    def test_round_trip_in_level(self):
        for n in (1, 2, 5, 10, 20, 40):
            fam = binomial.BinomialFamily(n, 0.5, 0.95)
            for k in range(1, n + 1):
                for level in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                    edge = fam.solve_edge(level, k)
                    assert fam.tail(k, edge) == pytest.approx(level, abs=1e-9)
        fam = poisson.PoissonFamily(1.0, 0.95)
        for k in (1, 2, 4, 8, 20):
            for level in (0.01, 0.05, 0.5, 0.9, 0.95, 0.99):
                edge = fam.solve_edge(level, k)
                assert fam.tail(k, edge) == pytest.approx(level, abs=1e-9)

    def test_round_trip_in_tau(self):
        # The edge at tail(k, tau) recovers tau wherever the tail is not flat
        # in doubles: an ulp of the level maps to ulp / density in tau, so
        # the 1e-9 target is only attainable where the density is not
        # vanishing.
        for n in (1, 4, 9, 19, 29):
            fam = binomial.BinomialFamily(n, 0.5, 0.95)
            for k in range(1, n + 1):
                for j in range(1, 100):
                    tau = j / 100.0
                    if k * math.exp(fam.log_pmf(k, tau)) / tau < 1e-6:
                        continue
                    level = fam.tail(k, tau)
                    if 0.0 < level < 1.0:
                        assert fam.solve_edge(level, k) == pytest.approx(tau, abs=1e-9)

    @pytest.mark.parametrize(
        "fam",
        [binomial.BinomialFamily(18, 0.5, 0.95), poisson.PoissonFamily(1.0, 0.95)],
        ids=["binomial", "poisson"],
    )
    def test_reports_nonconvergence(self, fam, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="band edge"):
            fam.solve_edge(0.731, 7)

    def test_monotone_in_k(self):
        fam = binomial.BinomialFamily(60, 0.5, 0.95)
        edges = [fam.solve_edge(0.95, k) for k in range(62)]
        assert all(u < v for u, v in zip(edges, edges[1:]))
        fam = poisson.PoissonFamily(1.0, 0.95)
        edges = [fam.solve_edge(0.95, k) for k in range(30)]
        assert all(u < v for u, v in zip(edges, edges[1:]))

    def test_large_k_against_mpmath(self):
        # Near tau = k the incomplete-gamma expansions need about sqrt(70 k)
        # terms: more than 500 from about k = 4000 on.
        pytest.importorskip("mpmath")
        fam = poisson.PoissonFamily(1.0, 0.95)
        for k in (4000, 6000, 11000):
            for level in (0.005, 0.05, 0.95, 0.995):
                edge = fam.solve_edge(level, k)
                assert mp_tail_residual(fam, k, edge, level) < 1e-10
        fam = binomial.BinomialFamily(5000, 0.5, 0.95)
        for k in (1, 50, 2500, 4990, 5000):
            for level in (0.005, 0.05, 0.95, 0.995):
                edge = fam.solve_edge(level, k)
                assert mp_tail_residual(fam, k, edge, level) < 1e-10

    def test_sampled_edges_meet_the_residual_at_40_digits(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        for _ in range(150):
            gamma = float(rng.uniform(0.5, 0.999))
            level = gamma if rng.random() < 0.5 else 1.0 - gamma
            if rng.random() < 0.5:
                n = int(np.exp(rng.uniform(0.0, np.log(2000.0))))
                fam = binomial.BinomialFamily(n, 0.5, gamma)
                k = int(rng.integers(1, n + 1))
            else:
                fam = poisson.PoissonFamily(1.0, gamma)
                k = int(np.exp(rng.uniform(0.0, np.log(11000.0))))
            edge = fam.solve_edge(level, k)
            assert mp_tail_residual(fam, k, edge, level) <= 1e-10, (fam, level, k)

    @pytest.mark.parametrize(
        "fam, top",
        [(binomial.BinomialFamily(40, 0.5, 0.95), 41), (poisson.PoissonFamily(10.0, 0.95), 80)],
        ids=["binomial", "poisson"],
    )
    def test_each_edge_takes_at_most_12_tail_evaluations(self, fam, top, monkeypatch):
        # A Newton step that rounds to its own point has converged; it must
        # not bisect the rest of the bracket.
        calls = count_tails(monkeypatch, type(fam))
        for level in (1.0 - fam.gamma, fam.gamma):
            for k in range(top + 1):
                del calls[:]
                fam.solve_edge(level, k)
                assert len(calls) <= 12, (level, k, len(calls))


def test_memos_are_bounded_in_models():
    limit = discrete._memo.cache_info().maxsize
    assert limit is not None
    # Gammas no other test uses: each family is a model of its own.
    families = [binomial.BinomialFamily(3, 0.5, 0.8 + 1e-7 * i) for i in range(limit + 1)]
    memos = [fam.memo for fam in families]
    assert len(set(map(id, memos))) == limit + 1
    assert discrete._memo.cache_info().currsize == limit
    # The least recently used model was dropped: a new anchor starts afresh.
    assert binomial.BinomialFamily(3, 0.2, families[0].gamma).memo is not memos[0]
    assert binomial.BinomialFamily(3, 0.2, families[-1].gamma).memo is memos[-1]


def test_log_factorials_are_lgamma_values():
    table = log_factorials(3000)
    assert table.tolist() == [math.lgamma(k + 1) for k in range(3001)]
    assert log_factorials(10).tolist() == table[:11].tolist()
    assert not table.flags.writeable


@pytest.mark.parametrize(
    "fam, taus",
    [
        (binomial.BinomialFamily(1000, 0.5, 0.95), (1e-3, 0.3, 0.999)),
        (poisson.PoissonFamily(400.0, 0.97), (0.05, 200.0, 1500.0)),
    ],
    ids=repr,
)
def test_log_pmf_column_is_scalar_log_pmf(fam, taus):
    for tau in taus:
        column = fam.log_pmf_column(tau)
        assert len(column) == fam.support_upper(tau) + 1
        assert column.tolist() == [fam.log_pmf(w, tau) for w in range(len(column))]


@pytest.mark.parametrize(
    "fam, taus",
    [
        (binomial.BinomialFamily(10, 0.5, 0.95), (0.05, 0.3, 0.5, 0.7, 0.95)),
        (binomial.BinomialFamily(200, 0.3, 0.99), (0.2, 0.3, 0.45)),
        (binomial.BinomialFamily(1000, 0.6, 0.9), (0.55, 0.6, 0.65)),
        (poisson.PoissonFamily(3.8, 0.95), (0.5, 3.8, 9.0)),
        (poisson.PoissonFamily(50.0, 0.9), (35.0, 50.0, 70.0)),
        (poisson.PoissonFamily(400.0, 0.97), (200.0, 400.0, 450.0)),
    ],
    ids=repr,
)
def test_psi_column_matches_scalar_psi(fam, taus):
    for tau in taus:
        p = np.exp(fam.log_pmf_column(tau))
        column = fam.psi_column(tau, p)
        scalar = [fam.psi(w, tau) for w in range(len(p))]
        assert np.max(np.abs(column - scalar)) <= 1e-10


@pytest.mark.parametrize(
    "fam, omegas, around_700",
    [
        (binomial.BinomialFamily(1, 0.4, 0.8), range(2), False),
        (binomial.BinomialFamily(10, 0.4, 0.95), range(11), False),
        (binomial.BinomialFamily(40, 0.4, 0.99), range(41), False),
        (poisson.PoissonFamily(5.0, 0.95), range(60), False),
        # Where the array CDF hands over to the log-space scalar.
        (poisson.PoissonFamily(5.0, 0.8), range(640, 760), True),
    ],
    ids=["binomial-1", "binomial-10", "binomial-40", "poisson", "poisson-700"],
)
def test_branch_array_matches_scalar_branch_inside_the_bands(fam, omegas, around_700):
    # omega = 0 and omega = n are among the counts.  Kernels and log masses
    # differ by up to 1.4e-14 in the slack psi * p, the ratio's numerator.
    straddling = 0
    for w in omegas:
        z0, z1, a1, a0 = fam.thresholds(w)
        for above, a, b in ((False, z0, z1), (True, a1, a0)):
            if not a < b:
                continue
            straddling += a < 700.0 < b
            taus = np.linspace(a, b, 41)[1:-1]
            array = fam.branch_array(np.full(len(taus), w), np.full(len(taus), above), taus)
            for tau, value in zip(taus.tolist(), array.tolist()):
                p = math.exp(fam.log_pmf(w, tau))
                assert abs(value - fam.branch(w, above, tau)) * p <= 1.4e-14, (w, tau)
    assert bool(straddling) == around_700


@pytest.mark.parametrize(
    "method, taus",
    [
        (binomial.AgrestiCoull(10, 0.95), np.linspace(0.005, 0.995, 199)),
        (binomial.AgrestiCoull(1000, 0.9), np.linspace(0.005, 0.995, 37)),
        (poisson.ScoreInterval(0.95), np.linspace(0.05, 30.0, 199)),
    ],
    ids=["agresti_coull_n10", "agresti_coull_n1000", "score"],
)
def test_crisp_psi_column_is_scalar_indicator(method, taus):
    for tau in taus.tolist():
        p = np.exp(method.log_pmf_column(tau))
        column = method.psi_column(tau, p)
        assert column.tolist() == [method.psi(w, tau) for w in range(len(p))]
        # The sums differ only where numpy's exp and math.exp round apart.
        assert coverage(tau, method) == pytest.approx(
            scalar_coverage(tau, method), abs=1e-14
        )


def _families():
    gammas = st.floats(0.5, 0.999)
    binomials = st.builds(
        binomial.BinomialFamily, st.integers(1, 2000), st.floats(0.01, 0.99), gammas
    )
    poissons = st.builds(poisson.PoissonFamily, st.floats(0.05, 200.0), gammas)
    return st.one_of(binomials, poissons)


def _tau(fam, u):
    """Map u in (0, 1) onto the family's parameter space."""
    return u if fam.tau_upper == 1.0 else 3.0 * fam.o * u + 0.01


class TestPsiColumnProperties:
    @given(fam=_families(), u=st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_membership_in_unit_interval(self, fam, u):
        tau = _tau(fam, u)
        column = fam.psi_column(tau, np.exp(fam.log_pmf_column(tau)))
        assert np.all((column >= 0.0) & (column <= 1.0))

    @given(fam=_families(), u=st.floats(0.001, 0.999), at_o=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exact_coverage_off_o_and_at_least_gamma_at_o(self, fam, u, at_o):
        tau = fam.o if at_o else _tau(fam, u)
        cov = coverage(tau, fam)
        if tau == fam.o:
            assert cov >= fam.gamma - 1e-12
        else:
            assert cov == pytest.approx(fam.gamma, abs=1e-8 + poisson.TRUNCATION_MASS)

    @given(
        fam=_families(),
        u=st.floats(0.001, 0.999),
        v=st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_tau_on_each_side_of_o(self, fam, u, v):
        lo, hi = sorted((_tau(fam, u), _tau(fam, v)))
        assume(lo < hi and (hi < fam.o or lo > fam.o))
        first = fam.psi_column(lo, np.exp(fam.log_pmf_column(lo)))
        second = fam.psi_column(hi, np.exp(fam.log_pmf_column(hi)))
        common = min(len(first), len(second))
        step = second[:common] - first[:common]
        if hi < fam.o:
            assert np.all(step >= -1e-10)  # rises towards o from below
        else:
            assert np.all(step <= 1e-10)  # falls away from o above
