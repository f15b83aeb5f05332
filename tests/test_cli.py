"""Tests for the command-line surface."""

import argparse
import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csv_text, scalar_psi

from fuzzyci import binomial, cli, discrete, length, normal, poisson
from fuzzyci.cli import build_parser, main, parse_grid, UsageError
from fuzzyci.specfun import ConvergenceError


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return header, rows


class TestParseGrid:
    def test_inclusive_endpoints(self):
        grid = parse_grid("0.1:0.9:5")
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(0.9)
        assert len(grid) == 5

    def test_empty_and_singleton(self):
        assert parse_grid("0:1:0") == []
        assert parse_grid("0.25:0.9:1") == [0.25]

    def test_malformed(self):
        with pytest.raises(UsageError):
            parse_grid("0:1")
        with pytest.raises(UsageError):
            parse_grid("a:b:3")
        with pytest.raises(UsageError):
            parse_grid("0:1:-2")
        for spec in ("0.1:inf:2", "nan:1:3", "-inf:0:0"):
            with pytest.raises(UsageError):
                parse_grid(spec)

    def test_non_finite_endpoint_is_usage_error_without_warning(self, capsys):
        # Rejected before numpy sees it, so no RuntimeWarning leaks out.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run_cli(
                capsys,
                "coverage", "--family", "poisson", "--gamma", "0.95",
                "--o", "3", "--tau-grid", "0.1:inf:2",
            )
        assert status == 2
        assert out == ""


class TestMembershipCommand:
    def test_row_count_matches_grid(self, capsys):
        status, out = run_cli(
            capsys,
            "membership", "--family", "binomial", "--n", "10",
            "--gamma", "0.95", "--o", "0.5", "--tau-grid", "0.001:0.999:999",
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "omega", "psi"]
        assert len(rows) == 999 * 11

    def test_empty_grid_gives_header_only(self, capsys):
        status, out = run_cli(
            capsys,
            "membership", "--family", "binomial", "--n", "10",
            "--gamma", "0.95", "--o", "0.5", "--tau-grid", "0:1:0",
        )
        assert status == 0
        assert out == "tau,omega,psi\n"

    def test_rows_match_library_values(self, capsys):
        status, out = run_cli(
            capsys,
            "membership", "--family", "binomial", "--n", "5",
            "--gamma", "0.9", "--o", "0.3", "--tau-grid", "0.1:0.9:9",
        )
        assert status == 0
        fam = binomial.BinomialFamily(5, 0.3, 0.9)
        _, rows = parse_csv(out)
        for tau, omega, psi in rows:
            assert psi == fam.psi(int(omega), tau)

    def test_poisson_score_method(self, capsys):
        status, out = run_cli(
            capsys,
            "membership", "--family", "poisson", "--method", "score",
            "--gamma", "0.95", "--tau-grid", "0.5:10:20", "--omega-max", "6",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20 * 7
        for tau, omega, psi in rows:
            assert psi == poisson.ScoreInterval(0.95).psi(int(omega), tau)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "binomial", "--n", "40", "--o", "0.3"),
            ("--family", "binomial", "--n", "40", "--method", "agresti_coull"),
            ("--family", "poisson", "--o", "8", "--omega-max", "30"),
            ("--family", "poisson", "--method", "score", "--omega-max", "30"),
        ],
        ids=["binomial", "agresti_coull", "poisson", "score"],
    )
    def test_solves_no_band_edge(self, capsys, monkeypatch, argv):
        # A gamma no other test uses, so no memo holds an edge already.
        def refuse(*args):
            raise AssertionError("a band edge was solved")

        for cls in (binomial.BinomialFamily, poisson.PoissonFamily):
            monkeypatch.setattr(cls, "solve_band_edges", refuse)
        status, out = run_cli(
            capsys, "membership", *argv, "--gamma", "0.9471625",
            "--tau-grid", "0.05:0.95:19",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 19 * (41 if "binomial" in argv else 31)

    def test_normal_requires_x_grid(self, capsys):
        # Negative grid endpoints need the --flag=value form.
        status, _ = run_cli(
            capsys,
            "membership", "--family", "normal", "--gamma", "0.95",
            "--o", "0", "--sigma", "1", "--tau-grid=-1:1:5",
        )
        assert status == 2

    def test_normal_membership_grid(self, capsys):
        status, out = run_cli(
            capsys,
            "membership", "--family", "normal", "--gamma", "0.95",
            "--o", "0", "--sigma", "1", "--tau-grid=-2:2:9", "--x-grid=-1:1:3",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 27
        assert {r[2] for r in rows} <= {0.0, 1.0}

    def test_usage_error_on_wrong_method(self, capsys):
        status, _ = run_cli(
            capsys,
            "membership", "--family", "binomial", "--method", "score",
            "--n", "10", "--gamma", "0.95", "--o", "0.5", "--tau-grid", "0.1:0.9:3",
        )
        assert status == 2

    def test_out_of_domain_tau(self, capsys):
        status, _ = run_cli(
            capsys,
            "membership", "--family", "binomial", "--n", "10",
            "--gamma", "0.95", "--o", "0.5", "--tau-grid", "0:1:3",
        )
        assert status == 2


class TestCoverageCommand:
    def test_proposed_constant_gamma(self, capsys):
        status, out = run_cli(
            capsys,
            "coverage", "--family", "binomial", "--n", "10",
            "--gamma", "0.95", "--o", "0.5", "--tau-grid", "0.05:0.95:10",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 10
        for _, cov in rows:
            assert cov == pytest.approx(0.95, abs=1e-8)

    def test_agresti_coull_oscillates(self, capsys):
        status, out = run_cli(
            capsys,
            "coverage", "--family", "binomial", "--method", "agresti_coull",
            "--n", "10", "--gamma", "0.95", "--tau-grid", "0.05:0.95:60",
        )
        assert status == 0
        _, rows = parse_csv(out)
        values = [cov for _, cov in rows]
        assert min(values) < 0.95 < max(values)

    def test_poisson_coverage(self, capsys):
        status, out = run_cli(
            capsys,
            "coverage", "--family", "poisson", "--gamma", "0.9",
            "--o", "3.8", "--tau-grid", "0.5:10:8",
        )
        assert status == 0
        _, rows = parse_csv(out)
        for _, cov in rows:
            assert cov == pytest.approx(0.9, abs=1e-8 + 1e-12)

    def test_poisson_coverage_at_mean_5000(self, capsys):
        status, out = run_cli(
            capsys,
            "coverage", "--family", "poisson", "--gamma", "0.95",
            "--o", "5000", "--tau-grid", "4900:4900:1",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(0.95, abs=1e-10)

    def test_bounded_normal_rejects_tau_outside_bounds(self, capsys):
        argv = (
            "coverage", "--family", "normal", "--gamma", "0.95", "--o", "0.5",
            "--sigma", "0.3", "--a", "0", "--b", "1",
        )
        for grid in ("-0.5:1.5:3", "0:1.5:2", "-0.5:1:2"):
            status, out = run_cli(capsys, *argv, f"--tau-grid={grid}")
            assert status == 2
            assert out == ""
        status, out = run_cli(capsys, *argv, "--tau-grid", "0:1:3")
        assert status == 0
        _, rows = parse_csv(out)
        assert rows == [(0.0, 0.95), (0.5, 0.95 * 2 - 1), (1.0, 0.95)]


    def test_normal_coverage_at_o_below_one_half_is_zero(self, capsys):
        status, out = run_cli(
            capsys,
            "coverage", "--family", "normal", "--gamma", "0.3", "--sigma", "1",
            "--o", "0.5", "--tau-grid", "0:1:3",
        )
        assert status == 0
        assert out.splitlines()[2] == "0.5,0"


class TestElCurveCommand:
    def test_binomial_curve_tangent_at_o(self, capsys):
        status, out = run_cli(
            capsys,
            "el-curve", "--family", "binomial", "--n", "10",
            "--gamma", "0.95", "--o", "0.5", "--theta-grid", "0.1:0.9:9",
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["theta", "el", "lower_bound"]
        thetas = [r[0] for r in rows]
        assert thetas == sorted(thetas)
        for theta, el, bound in rows:
            assert el >= bound - 1e-9
            if theta == 0.5:
                assert el == pytest.approx(bound, abs=1e-7)

    def test_normal_dominance_data(self, capsys):
        status, out = run_cli(
            capsys,
            "el-curve", "--family", "normal", "--method", "truncated_standard",
            "--gamma", "0.95", "--sigma", "1", "--a", "0", "--b", "1",
            "--theta-grid", "0:1:11",
        )
        assert status == 0
        _, rows = parse_csv(out)
        for _, el, bound in rows:
            assert el >= bound - 1e-9

    def test_normal_huge_sigma(self, capsys):
        base = ("el-curve", "--family", "normal", "--gamma", "0.95",
                "--a", "0", "--b", "1", "--theta-grid", "0:1:3")
        status, out = run_cli(capsys, *base, "--method", "truncated_standard",
                              "--sigma", "1e308")
        assert status == 0
        assert all(math.isfinite(v) for row in parse_csv(out)[1] for v in row)
        for method in (("--o", "0.5"), ("--method", "truncated_standard")):
            status, out = run_cli(capsys, *base, *method, "--sigma", "1e15")
            assert status == 0
            for _, el, bound in parse_csv(out)[1]:
                assert bound - 1e-9 <= el <= 1.0

    def test_json_and_csv_encode_identical_values(self, capsys):
        argv = (
            "el-curve", "--family", "binomial", "--n", "5",
            "--gamma", "0.9", "--o", "0.3", "--theta-grid", "0.2:0.8:4",
        )
        status, csv_out = run_cli(capsys, *argv, "--format", "csv")
        assert status == 0
        status, json_out = run_cli(capsys, *argv, "--format", "json")
        assert status == 0
        _, csv_rows = parse_csv(csv_out)
        payload = json.loads(json_out)
        assert payload["columns"] == ["theta", "el", "lower_bound"]
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            assert csv_row == tuple(json_row)

    def test_poisson_score_curve(self, capsys):
        status, out = run_cli(
            capsys,
            "el-curve", "--family", "poisson", "--method", "score",
            "--gamma", "0.95", "--theta-grid", "0.5:3:4", "--tau-max", "15",
        )
        assert status == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        for _, el, bound in rows:
            assert el >= bound - 1e-9

    def test_poisson_o_above_tau_max(self, capsys):
        # Over [0, tau-max] the membership anchored above the range is its
        # below branch alone; the values are those of the breakpoint
        # quadrature, which the band route must match.
        status, out = run_cli(
            capsys,
            "el-curve", "--family", "poisson", "--gamma", "0.95", "--o", "50",
            "--tau-max", "30", "--theta-grid", "5:20:2",
        )
        assert status == 0
        expected = [
            (5.0, 27.668524593595066, 7.579977848341537),
            (20.0, 16.319224142190951, 13.516308737303639),
        ]
        for row, want in zip(parse_csv(out)[1], expected, strict=True):
            assert row == pytest.approx(want, rel=1e-12)

    def test_poisson_band_of_tiny_mass_converges(self, capsys):
        # The breakpoint quadrature scales its tolerance by the total mass;
        # at o = 40.47 the mass of omega = 53 below tau-max is 2.6e-4, and
        # that tolerance sank below the noise in psi (exit 3).
        status, out = run_cli(
            capsys,
            "el-curve", "--family", "poisson", "--gamma", "0.9772361769965767",
            "--o", "40.469622765153176", "--tau-max", "39.4822041639816",
            "--theta-grid", "30:39:2",
        )
        assert status == 0
        for _, el, bound in parse_csv(out)[1]:
            assert bound - 1e-9 <= el <= 39.4822041639816

    def test_library_domain_error_maps_to_usage_exit(self, capsys):
        # The quadrature spec rejects the tolerance inside the library; the
        # CLI must turn that into the usage exit code.
        status, _ = run_cli(
            capsys,
            "el-curve", "--family", "binomial", "--n", "10", "--gamma", "0.95",
            "--o", "0.5", "--theta-grid", "0.2:0.8:3", "--rel-tol", "1e-3",
        )
        assert status == 2

    @pytest.mark.parametrize(
        "command, header",
        [
            (("el-curve", "--method", "score"), "theta,el,lower_bound\n"),
            (("lower-bound",), "theta,lower_bound\n"),
        ],
        ids=["el-curve", "lower-bound"],
    )
    def test_poisson_empty_theta_grid_gives_header_only(self, capsys, command, header):
        # No --o: the integration range would come from the empty grid alone.
        status, out = run_cli(
            capsys,
            *command, "--family", "poisson", "--gamma", "0.9", "--theta-grid", "0:1:0",
        )
        assert status == 0
        assert out == header

    def test_lower_bound_command(self, capsys):
        status, out = run_cli(
            capsys,
            "lower-bound", "--family", "normal", "--gamma", "0.95",
            "--sigma", "0.5", "--a", "0", "--b", "1", "--theta-grid", "0:1:5",
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert header == ["theta", "lower_bound"]
        assert len(rows) == 5

    def test_poisson_lower_bound_above_mean_700(self, capsys):
        # Every band node above tau = 700 takes one incomplete gamma, not a
        # sum of omega + 1 masses, so the command takes seconds, not a minute.
        status, out = run_cli(
            capsys,
            "lower-bound", "--family", "poisson", "--gamma", "0.95",
            "--theta-grid", "700:1000:3",
        )
        assert status == 0
        header, rows = parse_csv(out)
        assert [theta for theta, _ in rows] == [700.0, 850.0, 1000.0]
        pinned = [88.154343336773394, 97.139154225008085, 105.36053488252392]
        assert [value for _, value in rows] == pytest.approx(pinned, rel=1e-12)


_FAMILY_ARGS = {
    "binomial": ("--n", "10", "--gamma", "0.95", "--o", "0.5"),
    "poisson": ("--gamma", "0.95", "--o", "3"),
    "normal": ("--gamma", "0.95", "--o", "0.5", "--sigma", "0.3", "--a", "0", "--b", "1"),
}
_COMMAND_ARGS = {
    "membership": ("--tau-grid", "0.2:0.8:3"),
    "coverage": ("--tau-grid", "0.2:0.8:3"),
    "el-curve": ("--theta-grid", "0.2:0.8:3"),
    "lower-bound": ("--theta-grid", "0.2:0.8:3"),
}


def _without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


class TestFamilyTable:
    @pytest.mark.parametrize("command", tuple(_COMMAND_ARGS))
    @pytest.mark.parametrize(
        "family, flag",
        [("binomial", "--n"), ("poisson", "--o"), ("normal", "--sigma")],
    )
    def test_missing_family_flag(self, capsys, family, flag, command):
        if (family, command) == ("poisson", "lower-bound"):
            flag = "--gamma"  # the only family flag the Poisson envelope needs
        argv = (command, "--family", family, *_FAMILY_ARGS[family],
                *_COMMAND_ARGS[command])
        if (family, command) == ("normal", "membership"):
            argv += ("--x-grid", "0:1:3")
        assert run_cli(capsys, *argv)[0] == 0
        status, out = run_cli(capsys, *_without(argv, flag))
        assert status == 2
        assert out == ""

    def test_normal_standard_with_bounds_is_truncated(self, capsys):
        argv = ("el-curve", "--family", "normal", "--gamma", "0.95", "--sigma", "0.3",
                "--a", "0", "--b", "1", "--theta-grid", "0:1:5")
        status, standard = run_cli(capsys, *argv, "--method", "standard")
        assert status == 0
        assert (status, standard) == run_cli(
            capsys, *argv, "--method", "truncated_standard"
        )
        unbounded = _without(_without(argv, "--a"), "--b")
        status, out = run_cli(capsys, *unbounded, "--method", "standard")
        assert (status, out) == (2, "")  # the expected lengths need --a and --b

    def test_lower_bound_ignores_o(self, capsys):
        for family in _FAMILY_ARGS:
            argv = ("lower-bound", "--family", family, *_FAMILY_ARGS[family],
                    *_COMMAND_ARGS["lower-bound"])
            status, out = run_cli(capsys, *argv)
            assert status == 0
            i = argv.index("--o")
            far = {"binomial": "0.99", "poisson": "9000", "normal": "7"}[family]
            assert run_cli(capsys, *argv[:i + 1], far, *argv[i + 2:]) == (0, out)


class TestNonFiniteParameters:
    """Each rejection exits 2, prints nothing and names the parameter."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("el-curve", "--family", "normal", "--gamma", "0.95", "--o", "0.5",
              "--sigma", "inf", "--a", "0", "--b", "1", "--theta-grid", "0:1:3"),
             "sigma"),
            (("el-curve", "--family", "normal", "--gamma", "0.95", "--o", "0.5",
              "--sigma", "0.3", "--a=-inf", "--b", "1", "--theta-grid", "0:1:3"),
             "bounds"),
            (("lower-bound", "--family", "normal", "--gamma", "0.95",
              "--sigma", "0.3", "--a", "0", "--b", "inf", "--theta-grid", "0:1:3"),
             "bounds"),
            (("membership", "--family", "normal", "--gamma", "0.95", "--o", "nan",
              "--sigma", "1", "--tau-grid", "0:1:3", "--x-grid", "0:1:3"),
             "o must"),
            (("coverage", "--family", "normal", "--gamma", "0.95", "--o", "nan",
              "--sigma", "1", "--tau-grid", "0:1:3"),
             "o must"),
            (("coverage", "--family", "poisson", "--gamma", "0.95", "--o", "inf",
              "--tau-grid", "1:5:3"),
             "o must"),
            (("el-curve", "--family", "poisson", "--gamma", "0.95", "--o", "inf",
              "--theta-grid", "1:5:3"),
             "o must"),
            (("el-curve", "--family", "poisson", "--gamma", "0.95", "--o", "3",
              "--tau-max", "inf", "--theta-grid", "1:5:3"),
             "upper=inf"),
            (("membership", "--family", "poisson", "--gamma", "0.95", "--o", "3",
              "--tau-grid", "1:5:3", "--omega-max", "-1"),
             "--omega-max"),
        ],
        ids=[
            "normal-sigma-inf", "normal-a-inf", "normal-b-inf", "membership-o-nan",
            "coverage-o-nan", "poisson-coverage-o-inf", "poisson-el-o-inf",
            "poisson-tau-max-inf", "omega-max-negative",
        ],
    )
    def test_rejected(self, capsys, argv, name):
        status = main(list(argv))
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert name in captured.err


class TestOversizedBinomial:
    """An n past the cap exits 2 when the family is built, before any work."""

    @pytest.mark.parametrize(
        "command, grid",
        [("coverage", "--tau-grid"), ("el-curve", "--theta-grid"),
         ("membership", "--tau-grid")],
    )
    def test_rejected(self, capsys, command, grid):
        status = main([
            command, "--family", "binomial", "--n", "1000000000", "--gamma", "0.95",
            "--o", "0.5", grid, "0.1:0.9:3",
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"n must be an integer in [1, {binomial.MAX_N}]" in captured.err


class TestOversizedInput:
    """A grid or a count past its cap exits 2 before any work.

    The stubs make a missing cap fail at once, where the command would
    otherwise allocate a huge grid or run far past any test timeout.
    """

    @pytest.fixture(autouse=True)
    def refuse_oversized_work(self, monkeypatch):
        linspace = np.linspace

        def capped(start, stop, num, **kwargs):
            assert num <= cli.MAX_GRID_COUNT, f"np.linspace asked for {num} points"
            return linspace(start, stop, num, **kwargs)

        def refuse(*args):
            raise AssertionError("a membership was evaluated")

        monkeypatch.setattr(np, "linspace", capped)
        monkeypatch.setattr(discrete._Membership, "psi_counts", refuse)
        monkeypatch.setattr(poisson.PoissonFamily, "solve_band_edges", refuse)
        monkeypatch.setattr(poisson.ScoreInterval, "endpoints", refuse)
        monkeypatch.setattr(binomial.BinomialFamily, "solve_band_edges", refuse)
        monkeypatch.setattr(binomial.AgrestiCoull, "endpoints", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("membership", "--family", "binomial", "--n", "5", "--o", "0.5",
             "--tau-grid"),
            ("coverage", "--family", "poisson", "--o", "3", "--tau-grid"),
            ("el-curve", "--family", "binomial", "--n", "5", "--o", "0.5",
             "--theta-grid"),
            ("lower-bound", "--family", "poisson", "--theta-grid"),
            ("membership", "--family", "normal", "--sigma", "1", "--o", "0.5",
             "--tau-grid", "0.2:0.8:3", "--x-grid"),
        ],
        ids=["tau-grid", "poisson-tau-grid", "theta-grid", "poisson-theta-grid",
             "x-grid"],
    )
    def test_grid_count_rejected(self, capsys, argv):
        spec = f"0.1:0.9:{cli.MAX_GRID_COUNT + 1}"
        status = main([*argv, spec, "--gamma", "0.95"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"grid {spec!r} has more than {cli.MAX_GRID_COUNT} points" in captured.err

    @pytest.mark.parametrize(
        "family, method, omega_max, cap",
        [
            (("poisson",), "proposed", poisson.MAX_OMEGA + 1, poisson.MAX_OMEGA),
            (("poisson",), "score", 10**8, poisson.MAX_OMEGA),
            (("binomial", "--n", "2000"), "proposed", 2001, 2000),
            (("binomial", "--n", "20"), "agresti_coull", 10**8, 20),
        ],
        ids=["poisson-proposed", "poisson-score", "binomial-proposed",
             "binomial-agresti-coull"],
    )
    def test_omega_max_rejected(self, capsys, family, method, omega_max, cap):
        status = main([
            "membership", "--family", *family, "--method", method, "--gamma", "0.95",
            "--o", "0.3", "--tau-grid", "0.1:0.5:2", "--omega-max", str(omega_max),
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"--omega-max must be at most {cap}, got {omega_max}" in captured.err


class TestMembershipRowCap:
    """A membership grid of more rows than the cap exits 2 before any psi."""

    @pytest.fixture(autouse=True)
    def no_psi(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("a membership was evaluated for an oversized grid")

        for owner in (discrete.Randomized, discrete.Crisp, normal.NormalFamily,
                      normal.TwoSidedInterval):
            monkeypatch.setattr(owner, "psi", fail)
        for owner in (discrete.Randomized, discrete.Crisp):
            monkeypatch.setattr(owner, "psi_column", fail)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (("--family", "normal", "--sigma", "1", "--o", "0.5",
              "--x-grid=-1:1:1001", "--tau-grid=-1:1:1000"), 1001 * 1000),
            (("--family", "normal", "--method", "standard", "--sigma", "1",
              "--x-grid=-1:1:1000", "--tau-grid=-1:1:1001"), 1000 * 1001),
            (("--family", "binomial", "--n", "1000000", "--o", "0.5",
              "--tau-grid", "0.1:0.9:2"), 1000001 * 2),
            (("--family", "binomial", "--n", "1000000", "--method", "agresti_coull",
              "--tau-grid", "0.1:0.9:1000000"), 1000001 * 10**6),
            (("--family", "poisson", "--o", "3", "--omega-max", "10711",
              "--tau-grid", "1:100:100"), 10712 * 100),
        ],
        ids=["normal", "normal-standard", "binomial", "binomial-1e12", "poisson"],
    )
    def test_rows_past_the_cap_refused(self, capsys, argv, rows):
        status = main(["membership", *argv, "--gamma", "0.95"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"membership grid has {rows} rows" in captured.err
        assert f"more than {cli.MAX_GRID_COUNT}" in captured.err


class TestKnapsackCommand:
    def test_fractional_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1,1\n1,2\n"))
        status, out = run_cli(capsys, "knapsack", "-", "--capacity", "1")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "item,weight,value,x,partition"
        assert "0,1,1,0,B" in lines[1]
        assert "1,1,2,1,A" in lines[2]
        assert any(l.startswith("# total_value,2") for l in lines)

    def test_roundtrip_mode(self, capsys, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("weight,value\n3,5\n2,3\n2,3\n")
        status, out = run_cli(
            capsys, "knapsack", str(path), "--capacity", "4", "--mode", "roundtrip"
        )
        assert status == 0
        gap_lines = [l for l in out.splitlines() if l.startswith("# max_roundtrip_gap")]
        assert len(gap_lines) == 1
        assert float(gap_lines[0].split(",")[1]) < 1e-10

    def test_dp_mode(self, capsys, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("1,1\n1,2\n")
        status, out = run_cli(
            capsys, "knapsack", str(path), "--capacity", "1", "--mode", "dp"
        )
        assert status == 0
        assert any(l.startswith("# total_value,2") for l in out.splitlines())

    def test_dp_on_bundled_fixture_matches_enumeration(self, capsys):
        import itertools

        fixture = os.path.join(
            os.path.dirname(__file__), "..", "recipes", "knapsack_12items.csv"
        )
        status, out = run_cli(
            capsys, "knapsack", fixture, "--capacity", "20", "--mode", "dp"
        )
        assert status == 0
        reported = float(
            next(l for l in out.splitlines() if l.startswith("# total_value")).split(",")[1]
        )
        rows = [
            l.split(",") for l in open(fixture).read().splitlines()[1:] if l.strip()
        ]
        weights = [float(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
        best = 0.0
        for mask in itertools.product((0, 1), repeat=12):
            if sum(w * m for w, m in zip(weights, mask)) <= 20:
                best = max(best, sum(v * m for v, m in zip(values, mask)))
        assert reported == pytest.approx(best, abs=1e-9)

    def test_capacity_domain_error_in_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("1,1\n1,2\n")
        status, _ = run_cli(
            capsys, "knapsack", str(path), "--capacity", "5", "--mode", "roundtrip"
        )
        assert status == 2

    def test_non_finite_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("1,2\n3,4\n")
        status, out = run_cli(capsys, "knapsack", str(path), "--capacity", "nan")
        assert status == 2
        assert out == ""
        path.write_text("1,nan\n3,4\n")
        status, out = run_cli(capsys, "knapsack", str(path), "--capacity", "2")
        assert status == 2
        assert out == ""

    def test_malformed_rows(self, capsys, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("1,2,3\n")
        status, _ = run_cli(capsys, "knapsack", str(path), "--capacity", "1")
        assert status == 2


class TestOutputHandling:
    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(tmp_path))
        status, out = run_cli(
            capsys,
            "coverage", "--family", "binomial", "--n", "5", "--gamma", "0.9",
            "--o", "0.3", "--tau-grid", "0.2:0.8:3", "--output", "cov.csv",
        )
        assert status == 0
        assert out == ""
        assert (tmp_path / "cov.csv").exists()

    @pytest.mark.parametrize(
        "target", ["missing/cov.csv", "."], ids=["missing-dir", "directory"]
    )
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        status = main([
            "coverage", "--family", "binomial", "--n", "5", "--gamma", "0.9",
            "--o", "0.3", "--tau-grid", "0.2:0.8:3", "--output", path,
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path!r}")

    @pytest.fixture
    def no_solves(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("computed rows for an output that cannot be written")

        for owner, name in [
            (discrete._Membership, "coverage"),
            (discrete.Randomized, "psi"),
            (discrete.Randomized, "psi_column"),
            (discrete.Randomized, "branch_array"),
            (discrete.Crisp, "psi"),
            (discrete.Crisp, "psi_column"),
            (cli, "solve_fractional"),
            (cli, "solve_01_dp"),
            (cli, "construct_psi_star"),
        ]:
            monkeypatch.setattr(owner, name, fail)

    @pytest.mark.parametrize(
        "target", ["missing/out.csv", "."], ids=["missing-dir", "directory"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("coverage", "--family", "binomial", "--n", "40", "--gamma", "0.9",
             "--o", "0.3", "--tau-grid", "0.2:0.8:3"),
            ("lower-bound", "--family", "poisson", "--gamma", "0.9",
             "--theta-grid", "1:3:3"),
            ("knapsack", "ITEMS", "--capacity", "2", "--mode", "roundtrip"),
        ],
        ids=["coverage", "lower-bound", "knapsack"],
    )
    def test_unwritable_output_refused_before_any_row(
        self, capsys, tmp_path, no_solves, argv, target
    ):
        items = tmp_path / "items.csv"
        items.write_text("1,2\n3,4\n")
        path = str(tmp_path / target)
        argv = [str(items) if a == "ITEMS" else a for a in argv]
        status = main([*argv, "--output", path])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path!r}")

    def test_failed_command_leaves_existing_output_alone(self, capsys, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("kept\n")
        status = main([
            "coverage", "--family", "binomial", "--n", "5", "--gamma", "1.5",
            "--o", "0.3", "--tau-grid", "0.2:0.8:3", "--output", str(path),
        ])
        assert status == 2
        assert path.read_text() == "kept\n"

    def test_repeated_runs_identical(self, capsys):
        argv = (
            "membership", "--family", "poisson", "--gamma", "0.95",
            "--o", "2", "--tau-grid", "0.1:6:37", "--omega-max", "9",
        )
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_output_flags_do_not_leak_into_the_next_command(self, capsys, tmp_path):
        argv = (
            "coverage", "--family", "binomial", "--n", "5", "--gamma", "0.9",
            "--o", "0.3", "--tau-grid", "0.2:0.8:3",
        )
        target = tmp_path / "cov.json"
        status, out = run_cli(capsys, *argv, "--output", str(target), "--format", "json")
        assert (status, out) == (0, "")
        assert json.loads(target.read_text())["columns"] == ["tau", "coverage"]
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert out.startswith("tau,coverage\n")

    def test_numerical_error_exit_code(self, capsys, monkeypatch):
        def boom(tau, fam):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr("fuzzyci.cli.discrete.coverage", boom)
        status, _ = run_cli(
            capsys,
            "coverage", "--family", "binomial", "--n", "5", "--gamma", "0.9",
            "--o", "0.3", "--tau-grid", "0.2:0.8:3",
        )
        assert status == 3


# Equal floats that print apart (0.0, -0.0), floats unequal to themselves
# (the NaNs) and repeats; _NUMBERS adds equal values of other types that
# print apart (1, 1.0, True).
_TRICKY_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0, 0.1, 5e-324, 1e300,
)
_FLOATS = st.one_of(st.sampled_from(_TRICKY_FLOATS), st.floats())
_NUMBERS = st.one_of(
    _FLOATS,
    st.sampled_from((1, True, False, 0, np.float64(2.5), np.float64(-0.0), np.int64(3))),
)
_VALUES = st.one_of(_NUMBERS, st.sampled_from(("A", "B", "")))
_COLUMN_KINDS = st.sampled_from((_FLOATS, _NUMBERS, _VALUES))


@st.composite
def _columns(draw):
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    return [
        draw(st.lists(draw(_COLUMN_KINDS), min_size=rows, max_size=rows))
        for _ in range(width)
    ]


def _emitted(header, columns, fmt, comments):
    args = argparse.Namespace(format=fmt, output=None)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.emit(header, columns, args, comments)
    return out.getvalue()


class TestEmit:
    """Columns in, and the very text that formatting row by row would write."""

    @settings(max_examples=300, deadline=None)
    @given(_columns(), st.sampled_from(((), ("total,1", "gap,0"))))
    def test_text_equals_the_row_by_row_oracle(self, columns, comments):
        header = [f"c{i}" for i in range(len(columns))]
        rows = list(zip(*columns))
        assert _emitted(header, columns, "csv", comments) == csv_text(header, rows, comments)
        payload = {"columns": header, "rows": [list(r) for r in rows]}
        if comments:
            payload["notes"] = list(comments)
        try:
            expected = json.dumps(payload, indent=2) + "\n"
        except TypeError:  # np.int64 is not JSON
            with pytest.raises(TypeError):
                _emitted(header, columns, "json", comments)
        else:
            assert _emitted(header, columns, "json", comments) == expected

    def test_equal_values_that_print_apart(self):
        columns = [
            [0.0, -0.0, 0.0, math.nan, -0.0],
            [-0.0, 0.0, 1.0, 1.0, -math.nan],
            [1.0, 1, True, 1.0, np.float64(1.0)],
        ]
        assert _emitted(("a", "b", "c"), columns, "csv", ()) == (
            "a,b,c\n0,-0,1\n-0,0,1\n0,1,True\nnan,1,1\n-0,nan,1\n"
        )

    def test_every_recipe_writes_the_oracle_csv(self, capsys, tmp_path, monkeypatch):
        # Every emit of the ten figure recipes (30 files and one stdout) and
        # of the three knapsack modes, replayed in-process, against the same
        # columns formatted row by row.
        monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(tmp_path))
        emit, checked = cli.emit, []

        def compared(header, columns, args, comments=()):
            assert len({len(column) for column in columns}) == 1
            emit(header, columns, args, comments)
            path = cli._output_path(args)
            if path is None:
                written = capsys.readouterr().out
            else:
                with open(path, encoding="utf-8") as handle:
                    written = handle.read()
            checked.append(written == csv_text(header, zip(*columns), comments))

        monkeypatch.setattr(cli, "emit", compared)
        recipe_dir = os.path.join(os.path.dirname(__file__), "..", "recipes")
        recipes = sorted(n for n in os.listdir(recipe_dir) if n.startswith("fig"))
        assert len(recipes) == 10
        for name in recipes:
            assert main(["recipe", os.path.join(recipe_dir, name)]) == 0
        items = os.path.join(recipe_dir, "knapsack_12items.csv")
        for mode in ("fractional", "dp", "roundtrip"):
            assert main(["knapsack", items, "--capacity", "20", "--mode", mode]) == 0
        assert len(checked) == 34 and all(checked)


_COVERAGE_RUN = {
    "command": "coverage",
    "args": ["--family", "binomial", "--n", "5", "--gamma", "0.9", "--o", "0.3",
             "--tau-grid", "0.2:0.8:3"],
}


class TestRecipeCommand:
    def test_single_command_recipe(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(
            json.dumps(
                {
                    "description": "toy",
                    "command": "coverage",
                    "args": [
                        "--family", "binomial", "--n", "5", "--gamma", "0.9",
                        "--o", "0.3", "--tau-grid", "0.2:0.8:3",
                    ],
                }
            )
        )
        status, out = run_cli(capsys, "recipe", str(recipe))
        assert status == 0
        assert out.startswith("tau,coverage")

    def test_multi_run_recipe_writes_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(tmp_path))
        recipe = tmp_path / "recipe.json"
        recipe.write_text(
            json.dumps(
                {
                    "runs": [
                        {
                            "command": "coverage",
                            "args": [
                                "--family", "binomial", "--n", "5", "--gamma",
                                "0.9", "--o", "0.3", "--tau-grid", "0.2:0.8:3",
                            ],
                            "output": "a.csv",
                        },
                        {
                            "command": "coverage",
                            "args": [
                                "--family", "binomial", "--n", "5", "--gamma",
                                "0.9", "--o", "0.7", "--tau-grid", "0.2:0.8:3",
                            ],
                            "output": "b.csv",
                        },
                    ]
                }
            )
        )
        status, _ = run_cli(capsys, "recipe", str(recipe))
        assert status == 0
        assert (tmp_path / "a.csv").exists()
        assert (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        "recipe, message",
        [
            ([{"command": "coverage"}], "must be a JSON object"),
            ({"args": ["--family", "binomial"]}, "run 0: command must be one of"),
            ({"command": "recipe", "args": ["self.json"]}, "run 0: command must be one of"),
            ({"runs": {"command": "coverage"}}, "runs must be a list"),
            ({"runs": [_COVERAGE_RUN, "coverage"]}, "run 1: command must be one of"),
            ({"runs": [_COVERAGE_RUN, {"command": "coverage", "args": "--n 5"}]},
             "run 1: args must be a list of strings"),
            ({"command": "coverage", "args": ["--n", 5]},
             "run 0: args must be a list of strings"),
            ({"runs": [_COVERAGE_RUN, {**_COVERAGE_RUN, "output": ["a.csv"]}]},
             "run 1: output must be a string"),
        ],
        ids=["array", "no-command", "replays-itself", "runs-object", "run-not-object",
             "args-string", "args-number", "output-list"],
    )
    def test_malformed_recipe_rejected_before_any_run(
        self, capsys, tmp_path, monkeypatch, recipe, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "self.json").write_text(json.dumps(recipe))
        status = main(["recipe", "self.json"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: recipe 'self.json'")
        assert message in captured.err

    def test_unwritable_run_output_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(tmp_path))
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({**_COVERAGE_RUN, "output": "missing/a.csv"}))
        status = main(["recipe", str(recipe)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert f"cannot write {str(tmp_path / 'missing' / 'a.csv')!r}" in captured.err

    def test_shipped_recipes_are_wellformed(self):
        recipe_dir = os.path.join(os.path.dirname(__file__), "..", "recipes")
        names = sorted(n for n in os.listdir(recipe_dir) if n.endswith(".json"))
        assert len(names) == 10  # one per reproduced figure
        for name in names:
            with open(os.path.join(recipe_dir, name), encoding="utf-8") as handle:
                recipe = json.load(handle)
            assert "description" in recipe or "runs" in recipe
            runs = recipe.get("runs", [recipe])
            for run in runs:
                assert run["command"] in {
                    "membership", "coverage", "el-curve", "lower-bound", "knapsack"
                }


class TestMembershipRecipes:
    """The shipped membership figures against the scalar oracle, row by row."""

    @pytest.mark.parametrize(
        "recipe",
        [
            "fig02_binomial_membership.json",
            "fig03_binomial_comparison.json",
            "fig05_poisson_membership_below.json",
            "fig06_poisson_membership.json",
            "fig07_poisson_comparison.json",
        ],
    )
    def test_rows_match_the_scalar_route(self, capsys, tmp_path, monkeypatch, recipe):
        # Every grid point in the recipe's order, omega-major, and every
        # membership within 1e-14 of the threshold-and-tail route.
        path = os.path.join(os.path.dirname(__file__), "..", "recipes", recipe)
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(tmp_path))
        assert main(["recipe", path]) == 0
        stdout = capsys.readouterr().out
        for run in spec.get("runs", [spec]):
            args = build_parser().parse_args([run["command"], *run["args"]])
            _, fam = cli._family(args, proposed=args.method == "proposed")
            taus = parse_grid(args.tau_grid)
            top = fam.n if args.omega_max is None else args.omega_max
            text = (tmp_path / run["output"]).read_text() if "output" in run else stdout
            lines = text.splitlines()
            assert lines[0] == "tau,omega,psi"
            points = [(w, tau) for w in range(top + 1) for tau in taus]
            assert len(lines) == len(points) + 1
            for line, (w, tau) in zip(lines[1:], points):
                tau_text, omega_text, psi_text = line.split(",")
                assert (tau_text, omega_text) == (f"{tau:.17g}", str(w))
                assert abs(float(psi_text) - scalar_psi(fam, w, tau)) <= 1e-14, line


class TestParserReuse:
    """One parser serves every command of a process, recipes included."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_rel_tol_does_not_leak_into_the_next_command(self, capsys):
        argv = [
            "el-curve", "--family", "binomial", "--n", "4", "--gamma", "0.9",
            "--o", "0.5", "--theta-grid", "0.2:0.8:3",
        ]
        assert main([*argv, "--rel-tol", "1e-3"]) == 2
        assert main(argv) == 0
        capsys.readouterr()

    def test_warm_figure_recipes_equal_cold(self, capsys, tmp_path, monkeypatch):
        # The second pass reads every envelope point from the memos and must
        # write the very bytes the cold pass wrote.
        recipe_dir = os.path.join(os.path.dirname(__file__), "..", "recipes")
        recipes = sorted(
            name for name in os.listdir(recipe_dir)
            if name.startswith("fig") and name.endswith(".json")
        )
        assert len(recipes) == 10
        discrete._memo.cache_clear()
        misses = []
        compute = length.band_masses

        def counted(model, requests, quad):
            # Only lower_bound_curve's batches: discrete binds its own name.
            misses[-1] += len(requests)
            return compute(model, requests, quad)

        monkeypatch.setattr(length, "band_masses", counted)
        outputs = []
        for name in ("cold", "warm"):
            out_dir = tmp_path / name
            out_dir.mkdir()
            monkeypatch.setenv("FUZZYCI_OUTPUT_DIR", str(out_dir))
            misses.append(0)
            for recipe in recipes:
                assert main(["recipe", os.path.join(recipe_dir, recipe)]) == 0
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            outputs.append((files, capsys.readouterr()))
        assert len(outputs[0][0]) == 30
        assert outputs[0][1].out.startswith("tau,omega,psi")
        assert outputs[0] == outputs[1]
        assert misses[0] > 0 and misses[1] == 0


class TestSelftest:
    def test_selftest_passes(self, capsys):
        status, out = run_cli(capsys, "selftest")
        assert status == 0
        assert out.splitlines() == [
            f"PASS  {name}" for name in (
                "beta identity", "binomial coverage", "poisson coverage",
                "constructor equivalence", "knapsack roundtrip", "normal envelope",
                "bernoulli minimax",
            )
        ]
