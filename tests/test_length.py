"""Tests for the expected-length engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyci import binomial, cli, discrete, length, poisson
from fuzzyci.length import QuadratureSpec, el_curve, lower_bound_curve
from fuzzyci.specfun import ConvergenceError
from oracles import (
    Constant,
    Indicator,
    Sneaky,
    band_integral,
    breakpoint_el,
    breakpoint_mass,
    interval,
    riemann_mass,
    scalar_branch,
    scalar_psi,
)

UNIT = QuadratureSpec(0.0, 1.0)
FIG08_RANGE = QuadratureSpec(1e-9, 60.0)


def count_band_integrals(monkeypatch):
    """Record the span of every band integral computed from now on."""
    spans = []
    integrate = length._integrate

    def counted(psi, lo, hi, rel_tol):
        spans.extend(zip(lo.tolist(), hi.tolist()))
        return integrate(psi, lo, hi, rel_tol)

    monkeypatch.setattr(length, "_integrate", counted)
    return spans


def band_record(fam, quad, w):
    """``(z0, z1, a1, a0, full_below, full_above)``: omega's band in the memo.

    omega's edges in ``memo.edges`` clipped to the range, then the integrals
    of the branch below over [z0, z1] and of the branch above over [a1, a0]
    in ``memo.bands[quad]``; an empty band's integral is 0.
    """
    edges = np.clip(length._memo(fam).edges[:, w : w + 2], quad.lower, quad.upper)
    (z0, z1), (a1, a0) = edges.tolist()
    full_below, full_above = length._memo(fam).bands[quad][:, w].tolist()
    assert (z0 < z1 or full_below == 0.0) and (a1 < a0 or full_above == 0.0)
    return z0, z1, a1, a0, full_below, full_above


def banded_counts(fam, quad):
    """The counts whose full-band integrals the memo keeps for ``quad``."""
    return np.flatnonzero(~np.isnan(length._memo(fam).bands[quad][0])).tolist()


def memo_entries(memo):
    """The number of entries in each table of a model's memo, and each array's shape.

    An array counts its entries other than NaN; a table kept per quadrature
    spec counts the entries of every spec.
    """
    def entries(v):
        return (np.count_nonzero(~np.isnan(v)), v.shape) if isinstance(v, np.ndarray) else 1

    return {
        "edges": entries(memo.edges),
        "bands": [entries(v) for v in memo.bands.values()],
        "envelope": len(memo.envelope),
    }


def count_envelope_points(monkeypatch):
    """Record the theta of every envelope point computed from now on.

    ``lower_bound_curve`` asks ``length.band_masses`` for the masses of
    its model at each cold point, with the point's theta as the anchor.
    ``discrete`` binds its own name for the function, so the masses of
    other curves are not counted.
    """
    thetas = []
    compute = length.band_masses

    def counted(model, requests, quad):
        thetas.extend(o for o, _ in requests)
        return compute(model, requests, quad)

    monkeypatch.setattr(length, "band_masses", counted)
    return thetas


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, rel_tol=1e-3)


class TestBreakpointOracle:
    """The scalar breakpoint quadrature the band route is checked against."""

    def test_constant_membership(self):
        assert breakpoint_mass(Constant(0.95), 0, UNIT) == pytest.approx(
            0.95, abs=1e-12
        )

    def test_crisp_indicator(self):
        assert breakpoint_mass(Indicator(0.2, 0.7), 0, UNIT) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_constant_membership_any_theta(self):
        fam = Constant(0.95)
        for theta in (0.1, 0.5, 0.9):
            assert breakpoint_el(fam, theta, UNIT) == pytest.approx(0.95, abs=1e-12)

    def test_reports_nonconvergence(self):
        # Bisection cannot resolve an unadvertised jump within its depth budget.
        with pytest.raises(ConvergenceError):
            breakpoint_mass(Sneaky(), 0, UNIT)


class TestIntervalMass:
    def test_binomial_against_fine_riemann_oracle(self):
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        mass = fam.interval_masses(range(5, 6), UNIT)[0]
        oracle = riemann_mass(
            lambda t: scalar_psi(fam, 5, t), 0.0, 1.0, 10**6, split=(fam.o,)
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
                w = int(rng.integers(0, n + 1))
                quad = UNIT
                points = 15000
                psi = lambda t: scalar_psi(fam, w, t)
            else:
                fam = poisson.PoissonFamily(
                    float(rng.uniform(0.5, 10.0)), float(rng.choice([0.9, 0.95]))
                )
                w = int(rng.integers(0, 15))
                quad = QuadratureSpec(1e-9, poisson.default_tau_max(fam.o))
                # The oracle's own midpoint error scales with the squared
                # step, so the wide range needs proportionally more points.
                points = 40000
                psi = lambda t: scalar_psi(fam, w, t)
            mass = fam.interval_masses(range(w, w + 1), quad)[0]
            oracle = riemann_mass(psi, quad.lower, quad.upper, points, split=(fam.o,))
            assert mass == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_reports_nonconvergence(self):
        # Batched bisection cannot resolve an unadvertised jump within its
        # depth budget, nor meet a tolerance below rounding on a band.
        def jump(i, tau):
            return (tau < 0.37).astype(float)

        with pytest.raises(ConvergenceError, match="did not converge"):
            length._integrate(jump, np.array([0.0]), np.array([1.0]), 1e-9)
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        with pytest.raises(ConvergenceError, match="at depth 30"):
            fam.interval_masses(range(5, 6), QuadratureSpec(0.0, 1.0, rel_tol=1e-300))[0]

    def test_cli_exits_3_when_bisection_runs_out_of_depth(self, capsys):
        # Every panel fails, so the batches must deepen, not widen, to
        # reach the depth limit quickly.
        status = cli.main([
            "lower-bound", "--family", "binomial", "--n", "10", "--gamma", "0.95",
            "--theta-grid", "0.5:0.5:1", "--rel-tol", "1e-300",
        ])
        assert status == cli.NUMERICAL_ERROR
        assert "did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 5, 10, 40, 400])
    def test_agresti_coull_is_the_clipped_interval_length(self, n):
        method = binomial.AgrestiCoull(n, 0.95)
        masses = method.interval_masses(range(n + 1), UNIT)
        for w in range(n + 1):
            assert masses[w] == pytest.approx(
                breakpoint_mass(method, w, UNIT), rel=0.0, abs=1e-14
            )
            lo, hi = interval(method, w)
            assert masses[w] == hi - lo

    def test_crisp_masses_of_a_million_counts(self):
        # The range is checked at its two ends, not count by count, and
        # the masses are the closed-form intervals clipped to the range.
        n = 10**6
        method = binomial.AgrestiCoull(n, 0.95)
        quad = QuadratureSpec(0.25, 0.75)
        masses = method.interval_masses(range(n + 1), quad)
        assert masses.dtype == np.float64 and masses.shape == (n + 1,)
        sample = [0, 1, n // 4, n // 2, n - 1, n]
        sample += np.random.default_rng(538).integers(0, n + 1, 40).tolist()
        for w in sample:
            lo, hi = interval(method, w)
            assert masses[w] == max(0.0, min(hi, quad.upper) - max(lo, quad.lower)), w
        assert masses[0] == 0.0 < masses[n // 2]  # outside the range, and inside
        with pytest.raises(ValueError, match="omega"):
            method.interval_masses(range(n - 5, n + 2), quad)

    @pytest.mark.parametrize("gamma", [0.9, 0.95, 0.99])
    def test_score_interval_is_the_clipped_interval_length(self, gamma):
        method = poisson.ScoreInterval(gamma)
        masses = method.interval_masses(range(200), FIG08_RANGE)
        for w in range(200):
            assert masses[w] == pytest.approx(
                breakpoint_mass(method, w, FIG08_RANGE), rel=0.0, abs=1e-14
            )


def _assert_band_route_matches_breakpoints(fam, quad, omegas, rel=1e-13):
    for w in omegas:
        band = fam.interval_masses(range(w, w + 1), quad)[0]
        generic = breakpoint_mass(fam, w, quad)
        assert band == pytest.approx(generic, rel=rel, abs=1e-300), (fam, w)


class TestBandRoute:
    """Proposed families take the band route; the breakpoint route checks it."""

    @pytest.mark.parametrize("gamma", [0.8, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 10, 40])
    def test_binomial_matches_breakpoint_quadrature(self, n, gamma):
        for o in (0.01, 0.3, 0.5, 0.97):
            fam = binomial.BinomialFamily(n, o, gamma)
            _assert_band_route_matches_breakpoints(fam, UNIT, range(n + 1))

    @pytest.mark.parametrize("gamma", [0.8, 0.95, 0.99])
    def test_poisson_matches_breakpoint_quadrature(self, gamma):
        top = poisson.support_bound(FIG08_RANGE.upper)
        for o in (1e-6, 5.0, 10.0):
            fam = poisson.PoissonFamily(o, gamma)
            _assert_band_route_matches_breakpoints(fam, FIG08_RANGE, range(top + 1))

    @pytest.mark.parametrize("o", [1e-12, 0.003, 0.997, 1.0 - 1e-12])
    def test_binomial_o_near_the_ends(self, o):
        fam = binomial.BinomialFamily(10, o, 0.95)
        _assert_band_route_matches_breakpoints(fam, UNIT, range(11))
        # On a range that excludes o, the membership over it is one branch
        # alone, as it is for the family anchored at the nearer end.
        inner = QuadratureSpec(0.2, 0.8)
        _assert_band_route_matches_breakpoints(fam, inner, range(11))
        end = binomial.BinomialFamily(10, 0.2 if o < 0.5 else 0.8, 0.95)
        for w in range(11):
            one = range(w, w + 1)
            assert fam.interval_masses(one, inner)[0] == end.interval_masses(one, inner)[0]

    def test_poisson_o_above_the_range(self):
        # Anchored above the range, the mass is the below branch's alone,
        # never more than the range is wide.
        quad = QuadratureSpec(1e-9, 30.0)
        fam = poisson.PoissonFamily(50.0, 0.95)
        _assert_band_route_matches_breakpoints(fam, quad, range(60))
        masses = [fam.interval_masses(range(w, w + 1), quad)[0] for w in range(60)]
        assert all(0.0 <= mass <= 30.0 for mass in masses)

    @pytest.mark.parametrize(
        "family, w, quad",
        [
            (lambda o: binomial.BinomialFamily(3, o, 0.8), 1, UNIT),
            (lambda o: binomial.BinomialFamily(10, o, 0.95), 4, UNIT),
            (lambda o: poisson.PoissonFamily(o, 0.95), 6, QuadratureSpec(1e-9, 30.0)),
        ],
        ids=["binomial-3", "binomial-10", "poisson"],
    )
    def test_o_on_a_band_edge(self, family, w, quad):
        # Anchored exactly on z0, z1, a1 or a0 of omega, that band's end is
        # its near edge (an empty integral) or its far edge (the full band).
        for edge in np.concatenate(length.band_edges(family(0.5), range(w, w + 1))).tolist():
            fam = family(edge)
            top = fam.support_upper(quad.upper)
            _assert_band_route_matches_breakpoints(fam, quad, range(top + 1))

    @pytest.mark.parametrize(
        "fam, quad",
        [
            (binomial.BinomialFamily(10, 0.1, 0.95), QuadratureSpec(0.2, 0.8)),
            (binomial.BinomialFamily(10, 0.9, 0.95), QuadratureSpec(0.2, 0.8)),
            (poisson.PoissonFamily(1.0, 0.95), QuadratureSpec(3.0, 30.0)),
            (poisson.PoissonFamily(40.0, 0.95), QuadratureSpec(1e-9, 30.0)),
        ],
        ids=["binomial-below", "binomial-above", "poisson-below", "poisson-above"],
    )
    def test_o_outside_the_range(self, fam, quad):
        top = fam.support_upper(quad.upper)
        _assert_band_route_matches_breakpoints(fam, quad, range(top + 1))

    @given(
        n=st.integers(0, 60),
        gamma=st.floats(0.5, 0.999),
        u=st.floats(1e-6, 1.0 - 1e-6),
        v=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_breakpoint_quadrature(self, n, gamma, u, v):
        # n = 0 draws a Poisson family on the fig08 range.  Both routes meet
        # rel_tol = 1e-9 and stop refining at different points; at n <= 3 a
        # band can end near the pole of psi at tau = 0 or 1, where they part
        # by up to 4e-13 (worst of 40 000 random draws).
        if n:
            fam, quad = binomial.BinomialFamily(n, u, gamma), UNIT
            w = round(v * n)
        else:
            fam, quad = poisson.PoissonFamily(70.0 * u, gamma), FIG08_RANGE
            w = round(v * poisson.support_bound(quad.upper))
        _assert_band_route_matches_breakpoints(fam, quad, [w], rel=1e-12)

    @pytest.mark.parametrize(
        "fam, quad",
        [
            (binomial.BinomialFamily(1, 0.4, 0.8), UNIT),
            (binomial.BinomialFamily(10, 0.4, 0.95), UNIT),
            (binomial.BinomialFamily(40, 0.4, 0.99), UNIT),
            (binomial.BinomialFamily(300, 0.4, 0.95), QuadratureSpec(0.3, 0.6)),
            (poisson.PoissonFamily(5.0, 0.95), FIG08_RANGE),
            # Bands that straddle tau = 700, where the CDF goes to log space.
            (poisson.PoissonFamily(5.0, 0.8), QuadratureSpec(698.0, 703.0)),
        ],
        ids=["binomial-1", "binomial-10", "binomial-40", "binomial-300",
             "poisson", "poisson-above-700"],
    )
    def test_batched_bands_match_scalar_bisection(self, fam, quad):
        # Every full band of a model, degenerate shapes (omega = 0, omega = n,
        # Poisson omega = 0) included, against one scalar bisection per band
        # over the scalar branches.
        length._memos.cache_clear()
        top = fam.support_upper(quad.upper)
        fam.interval_masses(range(top + 1), quad)
        for w in range(top + 1):
            z0, z1, a1, a0, below, above = band_record(fam, quad, w)
            scalar_below = band_integral(
                lambda t: scalar_branch(fam, w, False, t), z0, z1, quad.rel_tol
            )
            scalar_above = band_integral(
                lambda t: scalar_branch(fam, w, True, t), a1, a0, quad.rel_tol
            )
            assert below == pytest.approx(scalar_below, rel=1e-13, abs=1e-300), w
            assert above == pytest.approx(scalar_above, rel=1e-13, abs=1e-300), w

    def test_band_values_do_not_depend_on_the_pass_size(self, monkeypatch):
        # A kink inside each span makes bisection refine about 20 levels
        # deep; small passes then take the panels in other groups and order.
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 0.5, 40)
        hi = lo + rng.uniform(0.1, 0.5, 40)
        kink = lo + (hi - lo) * rng.uniform(0.1, 0.9, 40)
        calls = []

        def psi(i, tau):
            calls.append(len(tau))
            return np.minimum(1.0, 2.0 * np.abs(tau - kink[i]))

        whole = length._integrate(psi, lo, hi, 1e-10).tolist()
        passes = len(calls)
        for nodes in (300, 30):  # ten panels a pass, then one
            del calls[:]
            monkeypatch.setattr(length, "_BATCH_NODES", nodes)
            assert length._integrate(psi, lo, hi, 1e-10).tolist() == whole
            assert max(calls) == nodes and len(calls) > 5 * passes

    @pytest.mark.parametrize(
        "fam, quad",
        [
            (binomial.BinomialFamily(1, 0.3, 0.9), UNIT),
            (binomial.BinomialFamily(12, 0.3, 0.9), UNIT),
            (poisson.PoissonFamily(6.0, 0.9), QuadratureSpec(1e-9, 30.0)),
        ],
        ids=["binomial-1", "binomial-12", "poisson"],
    )
    def test_band_values_do_not_depend_on_the_batch(self, fam, quad):
        # One count at a time, through interval_masses, or all counts of the
        # model and their partial integrals in one el_curve batch: the same
        # bits.  The degenerate bands of omega = 0 and omega = top are in
        # both, and each count alone reads a cold memo.
        top = fam.support_upper(quad.upper)
        one_by_one = {}
        for w in range(top + 1):
            length._memos.cache_clear()
            mass = fam.interval_masses(range(w, w + 1), quad)[0]
            one_by_one[w] = (mass, band_record(fam, quad, w))
        length._memos.cache_clear()
        masses = fam.interval_masses(range(top + 1), quad)
        el_curve(fam, [0.5 * (quad.lower + quad.upper)], quad)
        for w in range(top + 1):
            assert (masses[w], band_record(fam, quad, w)) == one_by_one[w], w

    @pytest.mark.parametrize(
        "family, anchors, quad",
        [
            (lambda o: binomial.BinomialFamily(10, o, 0.95), (0.05, 0.5, 0.9), UNIT),
            (lambda o: binomial.BinomialFamily(40, o, 0.9), (0.3, 0.77), UNIT),
            (
                lambda o: poisson.PoissonFamily(o, 0.95),
                (0.5, 8.0, 20.0),
                QuadratureSpec(1e-9, poisson.default_tau_max(20.0)),
            ),
        ],
        ids=["binomial-10", "binomial-40", "poisson"],
    )
    def test_el_curve_touches_the_envelope_exactly(self, family, anchors, quad):
        # At theta = o the proposed family is its own reference family, so
        # the two curves are one computation, whichever comes first.
        for o in anchors:
            fam = family(o)
            length._memos.cache_clear()
            el_first = el_curve(fam, [o], quad)
            assert el_first == lower_bound_curve(fam, [o], quad)
            length._memos.cache_clear()
            bound_first = lower_bound_curve(fam, [o], quad)
            assert bound_first == el_curve(fam, [o], quad) == el_first

    @pytest.mark.parametrize(
        "fam, grid, quad",
        [
            (binomial.BinomialFamily(12, 0.3, 0.9), [0.05, 0.3, 0.5, 0.5, 0.95], UNIT),
            (poisson.PoissonFamily(4.0, 0.9), [0.5, 4.0, 9.0], QuadratureSpec(1e-9, 30.0)),
            (binomial.AgrestiCoull(12, 0.9), [0.05, 0.5], UNIT),
        ],
        ids=["binomial", "poisson", "agresti_coull"],
    )
    def test_both_curves_from_one_integration(self, fam, grid, quad, monkeypatch):
        # An el-curve command's two curves: a proposed family's own masses
        # join the envelope's cold points in one batch, with the values of
        # each curve computed alone from cold memos.
        length._memos.cache_clear()
        alone = el_curve(fam, grid, quad), lower_bound_curve(fam, grid, quad)
        length._memos.cache_clear()
        calls = []
        integrate = length._integrate

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(length, "_integrate", counted)
        assert length.el_and_lower_bound(fam, grid, quad) == alone
        # A crisp method's masses are closed-form: the envelope alone integrates.
        assert len(calls) == 1
        # With every envelope point kept, the family's masses come as alone.
        assert length.el_and_lower_bound(fam, grid, quad) == alone
        assert length.el_and_lower_bound(fam, [], quad) == ([], [])

    @pytest.mark.parametrize(
        "first, second, quad",
        [
            (
                binomial.BinomialFamily(12, 0.3, 0.9371),
                binomial.BinomialFamily(12, 0.7, 0.9371),
                UNIT,
            ),
            (
                poisson.PoissonFamily(2.0, 0.9371),
                poisson.PoissonFamily(9.0, 0.9371),
                QuadratureSpec(1e-9, 25.0),
            ),
        ],
        ids=["binomial", "poisson"],
    )
    def test_families_differing_only_in_o_share_band_memo(
        self, first, second, quad, monkeypatch
    ):
        # The envelope builds one reference family per theta; its cost rests
        # on the band integrals being kept on everything but o.
        omegas = range(first.support_upper(quad.upper) + 1)
        for w in omegas:
            first.interval_masses(range(w, w + 1), quad)[0]
        bands = {w: band_record(first, quad, w) for w in banded_counts(first, quad)}
        assert set(omegas) <= bands.keys()
        integrals = count_band_integrals(monkeypatch)
        for w in omegas:
            second.interval_masses(range(w, w + 1), quad)[0]
        assert {w: band_record(second, quad, w) for w in banded_counts(second, quad)} == bands
        # Only the partial integrals of the two bands that hold o remain.
        assert len(integrals) <= 2

    def test_memo_grows_keeping_its_entries(self, monkeypatch):
        # A gamma no other test uses, so the memo starts empty.  Counts 0..5,
        # then 0..7 and 0..400: each table grows by NaN padding, at least
        # doubling, and the first six counts' edges and full bands keep their
        # bits and are not computed again.  o lies past every band of those
        # six counts, so none of them has a partial integral either.
        fam = poisson.PoissonFamily(300.0, 0.9417263)
        quad = QuadratureSpec(1e-9, 600.0)
        small = length.band_masses(fam, [(fam.o, range(6))], quad)[0]
        memo = length._memo(fam)
        assert memo.edges.shape == (2, 7) and memo.bands[quad].shape == (2, 6)
        first = [band_record(fam, quad, w) for w in range(6)]
        edges = memo.edges.tolist()
        length.band_masses(fam, [(fam.o, range(8))], quad)
        assert memo.edges.shape == (2, 14) and memo.bands[quad].shape == (2, 12)
        solved = []
        solve = length.solve_band_edges

        def counted(model, level, k):
            solved.extend(k.tolist())
            return solve(model, level, k)

        monkeypatch.setattr(length, "solve_band_edges", counted)
        spans = count_band_integrals(monkeypatch)
        masses = length.band_masses(fam, [(fam.o, range(401))], quad)[0]
        assert memo.edges.shape[1] >= 402 and memo.bands[quad].shape[1] >= 401
        assert min(solved) == 9
        assert memo.edges[:, :7].tolist() == edges
        assert [band_record(fam, quad, w) for w in range(6)] == first
        assert not {(z0, z1) for z0, z1, *_ in first} & set(spans)
        assert not {(a1, a0) for _, _, a1, a0, *_ in first} & set(spans)
        assert masses[:6].tolist() == small.tolist()
        # A range that starts above 0, warm or from a cold memo, has the bits
        # of those counts of the range from 0, and a cold one fills only its
        # own counts' bands.
        assert np.array_equal(
            length.band_masses(fam, [(fam.o, range(200, 401))], quad)[0], masses[200:])
        length._memos.cache_clear()
        assert np.array_equal(
            length.band_masses(fam, [(fam.o, range(200, 401))], quad)[0], masses[200:])
        assert banded_counts(fam, quad) == list(range(200, 401))

    def test_a_failed_call_keeps_no_band(self):
        # A band is kept once its full-band integrals are: after a call that
        # fails, a later one integrates the band again, and fails again
        # where the first failed.  With o = 0.9 omega = 3's mass needs its
        # full band below o.
        length._memos.cache_clear()
        fam = binomial.BinomialFamily(10, 0.9, 0.95)
        with pytest.raises(ValueError, match="omega"):
            fam.interval_masses(range(3, 12), UNIT)
        mass = fam.interval_masses(range(3, 4), UNIT)[0]
        length._memos.cache_clear()
        assert mass == fam.interval_masses(range(3, 4), UNIT)[0]
        tight = QuadratureSpec(0.0, 1.0, rel_tol=1e-300)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="at depth 30"):
                fam.interval_masses(range(5, 6), tight)

    def test_rejects_omega_outside_the_support(self):
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        with pytest.raises(ValueError, match="omega"):
            fam.interval_masses(range(11, 12), UNIT)[0]


class TestExpectedLength:
    def test_binomial_curves_are_positive_and_bounded(self):
        for o in (0.1, 0.5, 0.9):
            fam = binomial.BinomialFamily(10, o, 0.95)
            for theta in (0.2, 0.5, 0.8):
                value = el_curve(fam, [theta], UNIT)[0]
                assert 0.0 < value < 1.0

    def test_poisson_tail_insensitivity(self):
        fam = poisson.PoissonFamily(8.0, 0.95)
        tau_max = poisson.default_tau_max(8.0)
        for theta in (3.0, 8.0):
            base = el_curve(fam, [theta], QuadratureSpec(1e-9, tau_max))[0]
            doubled = el_curve(fam, [theta], QuadratureSpec(1e-9, 2 * tau_max))[0]
            assert abs(base - doubled) < 1e-8


class TestPrattSums:
    @pytest.mark.parametrize(
        "fam, grid, quad",
        [
            # Rows to the grid's largest support bound, in several blocks,
            # each theta's own support ending at its own count.
            (poisson.PoissonFamily(20.0, 0.95), np.linspace(0.5, 50.0, 100), FIG08_RANGE),
            # n + 1 masses a row, more than a block holds: a row a block.
            # The narrow range keeps most bands empty.
            (
                binomial.BinomialFamily(4096, 0.5, 0.95),
                [0.3, 0.4995, 0.5, 0.5004, 0.7],
                QuadratureSpec(0.499, 0.501),
            ),
        ],
        ids=["poisson", "binomial-4096"],
    )
    def test_sums_do_not_depend_on_their_block(self, fam, grid, quad):
        # Each theta's expected length and envelope point, summed in a grid
        # of many blocks, has the bits of a one-point grid's.
        grid = [float(t) for t in grid]
        assert len(list(fam.by_blocks(grid, 0, None))) >= 3
        length._memos.cache_clear()
        el, bound = length.el_and_lower_bound(fam, grid, quad)
        for theta, el_theta, bound_theta in zip(grid, el, bound):
            length._memo(fam).envelope.clear()  # the point is summed again, alone
            assert length.el_and_lower_bound(fam, [theta], quad) == ([el_theta], [bound_theta])
            assert list(length._memo(fam).envelope) == [(quad, theta)]


class TestCurves:
    def test_tangency_and_dominance_binomial(self):
        grid = np.linspace(0.05, 0.95, 19)
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        curves = zip(grid, el_curve(fam, grid, UNIT), lower_bound_curve(fam, grid, UNIT))
        for theta, el, bound in curves:
            assert el >= bound - 1e-9
            if theta == 0.5:
                assert abs(el - bound) < 1e-7

    def test_agresti_coull_dominates_bound(self):
        grid = np.linspace(0.05, 0.95, 19)
        method = binomial.AgrestiCoull(10, 0.95)
        for el, bound in zip(
            el_curve(method, grid, UNIT), lower_bound_curve(method, grid, UNIT)
        ):
            assert el >= bound - 1e-9

    def test_lower_bound_curve_is_self_consistent(self):
        # Each envelope point is the reference family's own expected length.
        grid = [0.2, 0.5, 0.8]
        bound = lower_bound_curve(binomial.BinomialFamily(10, 0.5, 0.95), grid, UNIT)
        assert bound == [
            el_curve(binomial.BinomialFamily(10, th, 0.95), [th], UNIT)[0]
            for th in grid
        ]
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        assert bound[1] == el_curve(fam, [0.5], UNIT)[0]

    @pytest.mark.parametrize(
        "method, families, grid, quad",
        [
            (
                binomial.AgrestiCoull(10, 0.95),
                [binomial.BinomialFamily(10, o, 0.95) for o in (0.1, 0.5, 0.9)],
                [0.2, 0.5, 0.8],
                UNIT,
            ),
            (
                poisson.ScoreInterval(0.95),
                [poisson.PoissonFamily(o, 0.95) for o in (0.5, 8.0)],
                [1.0, 5.0],
                QuadratureSpec(1e-9, poisson.default_tau_max(5.0)),
            ),
        ],
        ids=["binomial", "poisson"],
    )
    def test_lower_bound_curve_needs_no_reference_point(
        self, method, families, grid, quad
    ):
        bound = lower_bound_curve(method, grid, quad)
        for fam in families:
            assert lower_bound_curve(fam, grid, quad) == bound

    @pytest.mark.parametrize(
        "method, proposed, grid, quad",
        [
            (
                binomial.AgrestiCoull(10, 0.9462),
                binomial.BinomialFamily(10, 0.35, 0.9462),
                [0.1, 0.35, 0.6, 0.85],
                UNIT,
            ),
            (
                poisson.ScoreInterval(0.9462),
                poisson.PoissonFamily(4.0, 0.9462),
                [0.5, 2.0, 4.0, 7.0],
                QuadratureSpec(1e-9, poisson.default_tau_max(7.0)),
            ),
        ],
        ids=["binomial", "poisson"],
    )
    def test_envelope_points_are_kept_in_the_reference_memo(
        self, method, proposed, grid, quad, monkeypatch
    ):
        length._memos.cache_clear()
        misses = count_envelope_points(monkeypatch)
        first = lower_bound_curve(proposed, grid, quad)
        assert len(misses) == len(grid)
        assert len(length._memo(proposed.reference(grid[0])).envelope) == len(grid)
        # Each cold point is the reference family's own expected length.
        assert first == [
            el_curve(proposed.reference(th), [th], quad)[0] for th in grid
        ]
        # The comparison method's reference families are the proposed
        # family's, whatever its o, so its envelope is read, not computed.
        del misses[:]
        assert lower_bound_curve(method, grid, quad) == first
        assert misses == []
        # The tolerance is part of the key.
        looser = QuadratureSpec(quad.lower, quad.upper, rel_tol=1e-8)
        lower_bound_curve(method, grid, looser)
        assert len(misses) == len(grid)

    def test_band_integrals_of_more_than_4096_counts_outlive_a_theta(
        self, monkeypatch
    ):
        # One model's band integrals must all survive from one theta to the
        # next, however many counts it has.  The narrow range keeps most
        # bands empty, so the cost is the 2(n + 2) edge solves.
        fam = binomial.BinomialFamily(4097, 0.5, 0.95)
        quad = QuadratureSpec(0.499, 0.501)
        lower_bound_curve(fam, [0.3], quad)
        integrals = count_band_integrals(monkeypatch)
        lower_bound_curve(fam, [0.7], quad)
        assert integrals == []

    def test_memo_does_not_grow_with_the_anchors(self):
        # A partial integral serves one anchor, so the memo keeps none: a
        # process that asks one model for ever new anchors keeps its size.
        # A gamma no other test uses, so the memo starts empty.
        anchors = np.linspace(0.0005, 0.9995, 1000).tolist()
        el_curve(binomial.BinomialFamily(40, anchors[0], 0.9517), [0.5], UNIT)
        memo = length._memo(binomial.BinomialFamily(40, 0.5, 0.9517))
        first = memo_entries(memo)
        for o in anchors[1:]:
            el_curve(binomial.BinomialFamily(40, o, 0.9517), [0.5], UNIT)
        assert memo_entries(memo) == first

    def test_envelope_of_more_than_4096_points_is_computed_once(self, monkeypatch):
        # One model's envelope points must all survive a repeat of the grid.
        fam = binomial.BinomialFamily(1, 0.5, 0.95)
        grid = np.linspace(0.001, 0.999, 4100)
        quad = QuadratureSpec(0.0, 1.0, rel_tol=1e-6)
        first = lower_bound_curve(fam, grid, quad)
        misses = count_envelope_points(monkeypatch)
        assert lower_bound_curve(fam, grid, quad) == first
        assert misses == []

    def test_poisson_tangency(self):
        quad = QuadratureSpec(1e-9, poisson.default_tau_max(8.0))
        fam = poisson.PoissonFamily(8.0, 0.95)
        el = el_curve(fam, [5.0, 8.0], quad)
        bound = lower_bound_curve(fam, [5.0, 8.0], quad)
        assert el[1] == pytest.approx(bound[1], abs=1e-7)
        assert el[0] >= bound[0] - 1e-9

    def test_empty_grid(self):
        fam = binomial.BinomialFamily(10, 0.5, 0.95)
        assert el_curve(fam, [], UNIT) == []
        assert lower_bound_curve(fam, [], UNIT) == []

    @pytest.mark.parametrize(
        "fam, grid, quad",
        [
            (binomial.BinomialFamily(10, 0.5, 0.9624), np.linspace(0.1, 0.9, 8), UNIT),
            (binomial.AgrestiCoull(10, 0.9624), np.linspace(0.1, 0.9, 8), UNIT),
            (
                poisson.PoissonFamily(3.0, 0.9624),
                np.linspace(0.5, 8.0, 8),
                QuadratureSpec(1e-9, poisson.default_tau_max(8.0)),
            ),
        ],
        ids=["binomial", "agresti_coull", "poisson"],
    )
    def test_lower_bound_curve_builds_one_reference_family(
        self, fam, grid, quad, monkeypatch
    ):
        # One reference family stands for the model at every point, cold
        # or warm.
        reference = type(fam).reference
        anchors = []

        def counted(self, theta):
            anchors.append(theta)
            return reference(self, theta)

        monkeypatch.setattr(type(fam), "reference", counted)
        first = lower_bound_curve(fam, grid, quad)
        assert len(anchors) == 1
        assert lower_bound_curve(fam, grid, quad) == first
        assert len(anchors) == 2

    @pytest.mark.parametrize(
        "fam, theta",
        [
            (binomial.BinomialFamily(6, 0.5, 0.95), float("nan")),
            (binomial.BinomialFamily(6, 0.5, 0.95), 0.0),
            (binomial.BinomialFamily(6, 0.5, 0.95), 1.0),
            (binomial.AgrestiCoull(6, 0.95), float("nan")),
            (poisson.PoissonFamily(2.0, 0.95), float("nan")),
            (poisson.ScoreInterval(0.95), float("nan")),
        ],
        ids=["binomial-nan", "binomial-0", "binomial-1", "agresti_coull-nan",
             "poisson-nan", "score-nan"],
    )
    @pytest.mark.parametrize("first", [False, True], ids=["after", "first"])
    def test_curves_refuse_theta_outside_the_space(self, fam, theta, first):
        # A column Pratt sum without the family's check sums NaN masses, so
        # the check must run wherever theta stands in the grid.
        grid = [theta, 0.5] if first else [0.5, theta]
        quad = UNIT if fam.tau_upper == 1.0 else QuadratureSpec(1e-9, 20.0)
        with pytest.raises(ValueError):
            el_curve(fam, grid, quad)
        with pytest.raises(ValueError):
            lower_bound_curve(fam, grid, quad)
