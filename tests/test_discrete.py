"""Tests for the membership kernel shared by the discrete families."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    column_coverage,
    column_psi,
    log_pmf,
    mp_psi,
    mp_tail_residual,
    scalar_branch,
    scalar_coverage,
    scalar_psi,
)

from fuzzyci import binomial, length, poisson, specfun
from fuzzyci.discrete import coverage
from fuzzyci.length import QuadratureSpec, band_masses
from fuzzyci.specfun import ConvergenceError, log_factorials


def count_solves(monkeypatch, cls):
    """Record the (level, k) pairs of every band-edge batch of a ``cls`` model from now on.

    One list of pairs per batch.
    """
    batches = []
    solve = length.solve_band_edges

    def counted(model, level, k):
        if type(model) is cls:
            batches.append(list(zip(level.tolist(), k.tolist())))
        return solve(model, level, k)

    monkeypatch.setattr(length, "solve_band_edges", counted)
    return batches


def count_root_solves(monkeypatch):
    """Record the number of elements of every band-edge root solve from now on."""
    calls = []
    rtsafe = length._rtsafe

    def counted(cdf, pdf, p, *args):
        calls.append(len(p))
        return rtsafe(cdf, pdf, p, *args)

    monkeypatch.setattr(length, "_rtsafe", counted)
    return calls


def one_key_solves(fam, omega):
    """omega's band edges, each from a batch that holds its (level, k) alone."""
    return tuple(
        solve(fam, [(level, k)])[2][0]
        for level in (1.0 - fam.gamma, fam.gamma) for k in (omega, omega + 1)
    )


def count_edges(fam, omega):
    """omega's four band edges from ``band_edges``, as a tuple of floats."""
    return tuple(np.concatenate(length.band_edges(fam, range(omega, omega + 1))).tolist())


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
    assert length._memo(first) is length._memo(second)
    top = first.support_upper(max(taus))
    length.band_edges(first, range(top + 1))
    before = length._memo(first).edges.copy()
    solves = count_solves(monkeypatch, type(first))
    assert (np.array(length.band_edges(second, range(top + 1))).tolist()
            == np.array(length.band_edges(first, range(top + 1))).tolist())
    assert solves == []
    assert np.array_equal(length._memo(second).edges, before, equal_nan=True)


def test_coverage_leaves_the_memos_untouched():
    # A gamma no other test uses: any lookup would add a model.
    gamma = 0.9182736
    families = (
        binomial.BinomialFamily(40, 0.4, gamma),
        poisson.PoissonFamily(6.0, gamma),
    )
    before = length._memos.cache_info()
    for fam in families:
        for tau in (0.2, fam.o, 0.7 if fam.tau_upper == 1.0 else 11.0):
            assert 0.0 < coverage(tau, fam) < 1.0
    assert length._memos.cache_info() == before
    assert all("memo" not in vars(fam) for fam in families)


@pytest.mark.parametrize("gamma", [0.8, 0.95, 0.99])
def test_shared_band_edges_give_the_four_solve_thresholds(gamma):
    # Each band edge is solved once, in one batch with all the others, and
    # read by two neighbouring omegas.  Every kernel evaluates an element
    # from its own arguments, so the batch's edges, every solved entry of
    # the memo's table, must be the very floats of a batch in another order
    # and of batches that hold one (level, k) each; those cost milliseconds
    # an edge, so they run at 21 counts per model.
    rng = np.random.default_rng(19)
    models = [(binomial.BinomialFamily(n, 0.5, gamma), n + 1) for n in (1, 2, 10, 40, 300)]
    models.append((poisson.PoissonFamily(1.0, gamma), 151))
    for fam, count in models:
        edges = length.band_edges(fam, range(count))
        rows, k = np.nonzero(~np.isnan(length._memo(fam).edges))
        order = rng.permutation(len(k))
        level = np.array([1.0 - gamma, gamma])[rows[order]]
        assert (length.solve_band_edges(fam, level, k[order]).tolist()
                == length._memo(fam).edges[rows[order], k[order]].tolist())
        for w in sorted({*range(0, count, max(1, count // 20)), count - 1}):
            assert tuple(e[w] for e in edges) == one_key_solves(fam, w)


@pytest.mark.parametrize(
    "fam",
    [binomial.BinomialFamily(40, 0.5, 0.9073515), poisson.PoissonFamily(1.0, 0.9073515)],
    ids=["binomial", "poisson"],
)
def test_each_band_edge_is_solved_once(fam, monkeypatch):
    # A gamma no other test uses: omega = 0..40 has 42 edges per level,
    # each stored once, in the memo's one (level x k) array of edges, from
    # one root solve of the band route's one batch.
    solves = count_solves(monkeypatch, type(fam))
    roots = count_root_solves(monkeypatch)
    quad = QuadratureSpec(1e-3, 0.999 if fam.tau_upper == 1.0 else 60.0)
    band_masses(fam, [(fam.o, range(41))], quad)
    assert sorted(vars(length._memo(fam))) == ["bands", "edges", "envelope"]
    assert len(solves) == len(roots) == 1
    keys = solves[0]
    solved = np.count_nonzero(~np.isnan(length._memo(fam).edges))
    assert len(keys) == len(set(keys)) == solved == 2 * (40 + 2)
    # k = 0, and the binomial's n + 1, need no root.
    assert roots == [len(keys) - (4 if fam.tau_upper == 1.0 else 2)]
    length.band_edges(fam, range(41))
    band_masses(fam, [(fam.o, range(41))], QuadratureSpec(0.1, 0.9))
    assert len(solves) == len(roots) == 1


def test_band_masses_checks_every_count_before_solving():
    # A gamma no other test uses, so the memo starts empty: the range's
    # first count, omega = 0, is valid, its last, n + 1, is not, and no
    # edge is solved nor any table grown.
    n = 10
    model = binomial.BinomialFamily(n, 0.5, 0.9361729)
    with pytest.raises(ValueError):
        band_masses(model, [(0.5, range(n + 2))], QuadratureSpec(1e-3, 0.999))
    assert length._memo(model).edges.size == 0 and length._memo(model).bands == {}


def test_a_failed_solve_stores_nothing(monkeypatch):
    # A gamma no other test uses, so the memo starts empty.
    gamma = 0.9361728
    fam = binomial.BinomialFamily(10, 0.5, gamma)
    monkeypatch.setattr(specfun, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="band edge"):
        length.band_edges(fam, range(3, 4))
    # No edge of the failed batch is kept.
    assert np.isnan(length._memo(fam).edges).all()
    monkeypatch.undo()
    assert count_edges(fam, 3) == one_key_solves(fam, 3)


def count_tails(monkeypatch, cls):
    """Record the k array of every ``tail_array`` evaluation of ``cls`` from now on."""
    calls = []
    tail = cls.tail_array

    def counted(self, k, tau):
        calls.append(k)
        return tail(self, k, tau)

    monkeypatch.setattr(cls, "tail_array", counted)
    return calls


def solve(fam, keys):
    """The ``(level, k)`` pairs ``keys`` as two arrays, with their edges from one batch."""
    level, k = (np.array(v) for v in zip(*keys))
    return level, k, length.solve_band_edges(fam, level, k)


def solve_keys(fam, keys):
    """The edges of the ``(level, k)`` pairs ``keys`` from one batch, as a list."""
    return solve(fam, keys)[2].tolist()


class TestSolveEdge:
    """Band edges: the tau where P[X >= k | tau] = level, in either family."""

    def test_binomial_closed_forms(self):
        # P[X >= n | tau] = tau^n.
        fam = binomial.BinomialFamily(2, 0.5, 0.95)
        assert solve_keys(fam, [(0.36, 2)])[0] == pytest.approx(0.6, abs=1e-9)
        fam = binomial.BinomialFamily(1, 0.5, 0.95)
        assert solve_keys(fam, [(0.5, 1)])[0] == pytest.approx(0.5, abs=1e-9)

    def test_binomial_frozen_value(self):
        # mpmath root of I(x; 5, 6) = 0.95 at 40 digits.
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        assert solve_keys(fam, [(0.95, 5)])[0] == pytest.approx(
            0.696462787435958, abs=1e-9
        )

    def test_poisson_closed_form(self):
        # P[X >= 1 | tau] = 1 - exp(-tau).
        fam = poisson.PoissonFamily(1.0, 0.95)
        high, half = solve_keys(fam, [(0.95, 1), (0.5, 1)])
        assert high == pytest.approx(-math.log(0.05), abs=1e-10)
        assert half == pytest.approx(math.log(2.0), abs=1e-10)

    def test_poisson_frozen_value(self):
        # mpmath root of P(4, tau) = 0.95 at 40 digits: half the 0.95
        # quantile of chi-square with 8 degrees of freedom.
        fam = poisson.PoissonFamily(1.0, 0.95)
        assert solve_keys(fam, [(0.95, 4)])[0] == pytest.approx(
            15.507313055865454 / 2, abs=5e-9
        )

    def test_conventions(self):
        # P[X >= 0] = 1 and, for the binomial, P[X >= n + 1] = 0 at every tau.
        fam = binomial.BinomialFamily(4, 0.5, 0.95)
        assert solve_keys(fam, [(0.4, 0), (0.4, 5), (0.4, 2)])[:2] == [0.0, 1.0]
        assert solve_keys(poisson.PoissonFamily(1.0, 0.95), [(0.4, 0)]) == [0.0]

    def test_round_trip_in_level(self):
        levels = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
        for n in (1, 2, 5, 10, 20, 40):
            fam = binomial.BinomialFamily(n, 0.5, 0.95)
            level, k, edge = solve(fam, [(p, k) for k in range(1, n + 1) for p in levels])
            assert np.max(np.abs(fam.tail_array(k, edge) - level)) <= 1e-9, n
        fam = poisson.PoissonFamily(1.0, 0.95)
        levels = (0.01, 0.05, 0.5, 0.9, 0.95, 0.99)
        level, k, edge = solve(fam, [(p, k) for k in (1, 2, 4, 8, 20) for p in levels])
        assert np.max(np.abs(fam.tail_array(k, edge) - level)) <= 1e-9

    def test_round_trip_in_tau(self):
        # The edge at tail(k, tau) recovers tau wherever the tail is not flat
        # in doubles: an ulp of the level maps to ulp / density in tau, so
        # the 1e-9 target is only attainable where the density is not
        # vanishing.
        for n in (1, 4, 9, 19, 29):
            fam = binomial.BinomialFamily(n, 0.5, 0.95)
            k, tau = (
                v.ravel() for v in np.meshgrid(np.arange(1, n + 1), np.arange(1, 100) / 100.0)
            )
            level = fam.tail_array(k, tau)
            density = k * np.exp(fam.log_pmf_array(k, tau)) / tau
            keep = (density >= 1e-6) & (0.0 < level) & (level < 1.0)
            _, _, edge = solve(fam, list(zip(level[keep].tolist(), k[keep].tolist())))
            assert np.max(np.abs(edge - tau[keep])) <= 1e-9, n

    @pytest.mark.parametrize(
        "fam",
        [binomial.BinomialFamily(18, 0.5, 0.95), poisson.PoissonFamily(1.0, 0.95)],
        ids=["binomial", "poisson"],
    )
    def test_reports_nonconvergence(self, fam, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="band edge"):
            solve_keys(fam, [(0.731, 7)])

    def test_monotone_in_k(self):
        fam = binomial.BinomialFamily(60, 0.5, 0.95)
        edges = solve_keys(fam, [(0.95, k) for k in range(62)])
        assert all(u < v for u, v in zip(edges, edges[1:]))
        fam = poisson.PoissonFamily(1.0, 0.95)
        edges = solve_keys(fam, [(0.95, k) for k in range(30)])
        assert all(u < v for u, v in zip(edges, edges[1:]))

    def test_large_k_against_mpmath(self):
        # Near tau = k the incomplete-gamma expansions need about sqrt(70 k)
        # terms: more than 500 from about k = 4000 on.
        pytest.importorskip("mpmath")
        levels = (0.005, 0.05, 0.95, 0.995)
        for fam, ks in (
            (poisson.PoissonFamily(1.0, 0.95), (4000, 6000, 11000)),
            (binomial.BinomialFamily(5000, 0.5, 0.95), (1, 50, 2500, 4990, 5000)),
        ):
            keys = [(p, k) for k in ks for p in levels]
            for (p, k), edge in zip(keys, solve_keys(fam, keys)):
                assert mp_tail_residual(fam, k, edge, p) < 1e-10, (fam, p, k)

    def test_sampled_edges_meet_the_residual_at_40_digits(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(16)
        counts = poisson.PoissonFamily(1.0, 0.5)  # edges do not depend on gamma
        samples, poisson_keys = [], []
        for _ in range(150):
            gamma = float(rng.uniform(0.5, 0.999))
            level = gamma if rng.random() < 0.5 else 1.0 - gamma
            if rng.random() < 0.5:
                n = int(np.exp(rng.uniform(0.0, np.log(2000.0))))
                fam = binomial.BinomialFamily(n, 0.5, gamma)
                k = int(rng.integers(1, n + 1))
                samples.append((fam, level, k, solve_keys(fam, [(level, k)])[0]))
            else:
                k = int(np.exp(rng.uniform(0.0, np.log(11000.0))))
                poisson_keys.append((level, k))
        for key, edge in zip(poisson_keys, solve_keys(counts, poisson_keys)):
            samples.append((counts, *key, edge))
        for fam, level, k, edge in samples:
            assert mp_tail_residual(fam, k, edge, level) <= 1e-10, (fam, level, k)

    @pytest.mark.parametrize(
        "fam, top",
        [
            (binomial.BinomialFamily(40, 0.5, 0.95), 41),
            (binomial.BinomialFamily(1000, 0.5, 0.95), 1001),
            (poisson.PoissonFamily(10.0, 0.95), 80),
            (poisson.PoissonFamily(400.0, 0.95), poisson.support_bound(400.0)),
        ],
        ids=["binomial-40", "binomial-1000", "poisson-10", "poisson-400"],
    )
    def test_each_edge_takes_at_most_6_tail_evaluations(self, fam, top, monkeypatch):
        # The closed-form starts leave a few Newton steps, and the last one
        # is returned unevaluated: 4 evaluations for the binomial, 5 for the
        # Poisson with its bracket check.  A start lost to k / (n + 1) or
        # tau = k, or a step that bisects the rest of the bracket, takes
        # more.  One batch per level, so each k is one element.
        calls = count_tails(monkeypatch, type(fam))
        for level in (1.0 - fam.gamma, fam.gamma):
            del calls[:]
            solve_keys(fam, [(level, k) for k in range(top + 1)])
            evaluations = np.bincount(np.concatenate(calls))
            assert evaluations.max() <= 6, (level, evaluations.argmax())

    @pytest.mark.parametrize(
        "fam, top, sampled",
        [
            (binomial.BinomialFamily(1, 0.5, 0.95), 1, False),
            (binomial.BinomialFamily(40, 0.5, 0.95), 40, False),
            (binomial.BinomialFamily(1000, 0.5, 0.95), 1000, True),
            (poisson.PoissonFamily(1.0, 0.95), poisson.support_bound(1.0), False),
            (poisson.PoissonFamily(24.0, 0.95), poisson.support_bound(24.0), False),
            (poisson.PoissonFamily(400.0, 0.95), poisson.support_bound(400.0), False),
        ],
        ids=["binomial-1", "binomial-40", "binomial-1000", "poisson-1", "poisson-24",
             "poisson-400"],
    )
    def test_one_batch_meets_the_residual_and_is_monotone(self, fam, top, sampled):
        # Every edge of one band_edges batch, sampled at n = 1000, meets the
        # residual at 40 digits, and each level's edges rise with k.
        pytest.importorskip("mpmath")
        edges = length.band_edges(fam, range(top + 1))
        for level, column in ((1.0 - fam.gamma, 0), (fam.gamma, 2)):
            by_k = np.append(edges[column], edges[column + 1][-1])  # k = 0..top + 1
            assert np.all(np.diff(by_k) >= 0.0), level
            # Past the binomial's n the edge is 1 by convention, not a root.
            last = fam.n if fam.tau_upper == 1.0 else top + 1
            for k in range(1, last + 1, 37 if sampled else 1):
                assert mp_tail_residual(fam, k, by_k[k], level) < 1e-10, (level, k)


def test_memos_are_bounded_in_models():
    limit = length._memos.cache_info().maxsize
    assert limit is not None
    # Gammas no other test uses: each family is a model of its own.
    families = [binomial.BinomialFamily(3, 0.5, 0.8 + 1e-7 * i) for i in range(limit + 1)]
    memos = [length._memo(fam) for fam in families]
    assert len(set(map(id, memos))) == limit + 1
    assert length._memos.cache_info().currsize == limit
    # The least recently used model was dropped: a new anchor starts afresh.
    assert length._memo(binomial.BinomialFamily(3, 0.2, families[0].gamma)) is not memos[0]
    assert length._memo(binomial.BinomialFamily(3, 0.2, families[-1].gamma)) is memos[-1]


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
    # The taus as one grid, every row to the largest support.
    top = max(map(fam.support_upper, taus))
    rows = fam.log_pmf_rows(np.array(taus), top)
    assert rows.shape == (len(taus), top + 1)
    for tau, row in zip(taus, rows):
        assert row.tolist() == [log_pmf(fam, w, tau) for w in range(len(row))]


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
    # The taus as one grid; each row is checked over its own support.
    p = np.exp(fam.log_pmf_rows(np.array(taus), max(map(fam.support_upper, taus))))
    rows = fam.psi_rows(np.array(taus), p)
    for tau, row in zip(taus, rows):
        scalar = [scalar_psi(fam, w, tau) for w in range(fam.support_upper(tau) + 1)]
        assert np.max(np.abs(row[: len(scalar)] - scalar)) <= 1e-10


@pytest.mark.parametrize(
    "fam, taus",
    [
        (binomial.BinomialFamily(2000, 0.5, 0.95), (0.45, 0.55)),
        (binomial.BinomialFamily(200, 0.3, 0.99), (0.2, 0.45)),
        (poisson.PoissonFamily(400.0, 0.97), (350.0, 370.0, 450.0)),
    ],
    ids=repr,
)
def test_psi_column_is_as_accurate_as_the_scalar_route(fam, taus):
    # At each count whose band holds tau, against 40-digit mpmath: each side
    # of o sums its small tail, so the column loses no more than the
    # threshold-and-tail route (the mass p bounds both).
    pytest.importorskip("mpmath")
    rows = fam.psi_counts(max(map(fam.support_upper, taus)), taus)
    for tau, column in zip(taus, rows):
        column_error = scalar_error = 0.0
        inside = 0
        omegas = range(fam.support_upper(tau) + 1)
        for w, (z0, z1, a1, a0) in enumerate(zip(*length.band_edges(fam, omegas))):
            if not (a1 < tau < a0 if tau > fam.o else z0 < tau < z1):
                continue
            inside += 1
            exact = mp_psi(fam, w, tau)
            column_error = max(column_error, abs(column[w] - exact))
            scalar_error = max(scalar_error, abs(scalar_psi(fam, w, tau) - exact))
        assert inside
        assert column_error <= 1.25 * scalar_error + 1e-14, (tau, scalar_error)


@pytest.mark.parametrize("o, expected", [(4.0, 0.0), (0.02, 1.0), (0.01, 1.0)])
def test_poisson_counts_past_the_support_bound(o, expected):
    # fig06's tau = 0.02 and counts up to 25, far past the support: the
    # column runs to the last count, where the membership is 0 below o and
    # 1 at o and above, as the scalar route has it.
    fam = poisson.PoissonFamily(o, 0.95)
    tau = 0.02
    top = poisson.support_bound(tau)
    assert top < 25
    grid = fam.psi_counts(25, [tau])
    assert grid.shape == (1, 26)
    column = grid[0]
    for w in range(top + 1, 26):
        assert fam.psi(w, tau) == column[w] == scalar_psi(fam, w, tau) == expected


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
    for w, (z0, z1, a1, a0) in zip(omegas, zip(*length.band_edges(fam, omegas))):
        for above, a, b in ((False, z0, z1), (True, a1, a0)):
            if not a < b:
                continue
            straddling += a < 700.0 < b
            taus = np.linspace(a, b, 41)[1:-1]
            array = fam.branch_array(np.full(len(taus), w), np.full(len(taus), above), taus)
            for tau, value in zip(taus.tolist(), array.tolist()):
                p = math.exp(log_pmf(fam, w, tau))
                scalar = scalar_branch(fam, w, above, tau)
                assert abs(value - scalar) * p <= 1.4e-14, (w, tau)
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
    # The taus as one grid, every row to the largest support.
    p = np.exp(method.log_pmf_rows(taus, max(map(method.support_upper, taus))))
    rows = method.psi_rows(taus, p)
    for tau, row, cov in zip(taus.tolist(), rows, coverage(taus, method).tolist()):
        assert row.tolist() == [scalar_psi(method, w, tau) for w in range(len(row))]
        # The sums differ only where numpy's exp and math.exp round apart.
        assert cov == pytest.approx(scalar_coverage(tau, method), abs=1e-14)


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
        column = fam.psi_counts(fam.support_upper(tau), [tau])
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
        # One grid of both, to the smaller support, lo's.
        first, second = fam.psi_counts(fam.support_upper(lo), [lo, hi])
        step = second - first
        if hi < fam.o:
            assert np.all(step >= -1e-10)  # rises towards o from below
        else:
            assert np.all(step <= 1e-10)  # falls away from o above


class TestGridAgainstColumns:
    """A grid's rows against the per-tau columns, bit for bit.

    Score coverage is compared with columns summed to the grid's one support
    bound, as the grid sums it, and within 4 ulp of columns summed over each
    tau's own support.

    A binomial n of 4096 or more makes one row wider than a block; up to 40
    taus, with rows of a few hundred counts, cross block boundaries; the
    wide Poisson means put rows on both sides of tau = 700.
    """

    @given(
        kind=st.sampled_from(["binomial", "agresti_coull", "poisson", "score"]),
        size=st.floats(0.0, 1.0),
        wide=st.booleans(),
        gamma=st.floats(0.5, 0.999),
        o_u=st.floats(0.01, 0.99),
        us=st.lists(st.floats(0.01, 0.99), max_size=40),
        at_o=st.booleans(),
    )
    # A binomial row wider than a block; Poisson grids of 30 rows, several
    # blocks, on both sides of tau = 700; a grid where exp(-tau) from numpy
    # instead of math would move two memberships.
    @example("binomial", 0.5, True, 0.95, 0.4, [0.2, 0.5, 0.7], True)
    @example("poisson", 0.0, False, 0.972, 0.23, np.linspace(0.3, 0.7, 30).tolist(), False)
    @example("poisson", 0.0, True, 0.9, 0.5, np.linspace(0.3, 0.7, 30).tolist(), True)
    @example("score", 0.0, True, 0.99, 0.5, np.linspace(0.3, 0.7, 30).tolist(), False)
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_the_columns(self, kind, size, wide, gamma, o_u, us, at_o):
        if kind in ("binomial", "agresti_coull"):
            n = 4096 + int(size * 200) if wide else 1 + int(size * 400)
            o, taus = o_u, us
            fam = (binomial.BinomialFamily(n, o, gamma) if kind == "binomial"
                   else binomial.AgrestiCoull(n, gamma))
        else:
            o = 600.0 + 200.0 * o_u if wide else 0.05 + 100.0 * o_u
            taus = [2.0 * o * u for u in us]
            fam = (poisson.PoissonFamily(o, gamma) if kind == "poisson"
                   else poisson.ScoreInterval(gamma))
        if at_o:
            taus = sorted([*taus, o])
        top = fam.support_upper(max([*taus, o]))
        rows = fam.psi_counts(top, taus)
        assert rows.shape == (len(taus), top + 1)
        for tau, row in zip(taus, rows):
            assert np.array_equal(row, column_psi(fam, tau, top)), tau
        grid = coverage(np.array(taus), fam)
        own = np.array([column_coverage(tau, fam) for tau in taus])
        if kind == "score":
            # Every row runs to the grid's one bound: past a row's own
            # support its terms are exact zeros, but numpy's pairwise sum
            # groups a row of more than 128 terms apart.
            bound = fam.support_upper(max(taus, default=o))
            columns = np.array([column_coverage(tau, fam, bound) for tau in taus])
            assert np.all(np.abs(grid - own) <= 4 * np.spacing(own))
        else:
            columns = own
        # The grid clips every sum at 1: rounding in the log masses can lift
        # a row at tau = o above it.
        columns = np.minimum(1.0, columns)
        if kind == "poisson":
            # One support bound for the grid adds mass past each row's own.
            assert np.all(np.abs(grid - columns) <= poisson.TRUNCATION_MASS)
        else:
            assert np.array_equal(grid, columns)
