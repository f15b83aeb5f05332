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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import csv_text, scalar_normal_psi, scalar_psi

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "family",
        [("binomial", "--n", "10", "--o", "0.5"), ("poisson", "--o", "3"),
         ("normal", "--sigma", "1", "--o", "0.5", "--x-grid", "0:1:3")],
        ids=["binomial", "poisson", "normal"],
    )
    @pytest.mark.parametrize(
        "command, header",
        [("membership", ["tau", "omega", "psi"]), ("coverage", ["tau", "coverage"])],
        ids=["membership", "coverage"],
    )
    def test_empty_grid_gives_header_only(self, capsys, command, header, family, fmt):
        if command == "coverage" and family[0] == "normal":
            family = family[:-2]  # coverage takes no --x-grid
        status, out = run_cli(
            capsys, command, "--family", *family, "--gamma", "0.95",
            "--tau-grid", "0:1:0", "--format", fmt,
        )
        assert status == 0
        if fmt == "csv":
            assert out == ",".join(header) + "\n"
        else:
            assert out == json.dumps({"columns": header, "rows": []}, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, expected, observations, taus",
        [
            (("--family", "binomial", "--n", "5", "--gamma", "0.9", "--o", "0.3",
              "--tau-grid", "0.1:0.9:9"),
             lambda: binomial.BinomialFamily(5, 0.3, 0.9), range(6), (0.1, 0.9, 9)),
            (("--family", "binomial", "--n", "12", "--gamma", "0.9", "--method",
              "agresti_coull", "--tau-grid=0.05:0.95:13"),
             lambda: binomial.AgrestiCoull(12, 0.9), range(13), (0.05, 0.95, 13)),
            (("--family", "poisson", "--gamma", "0.9", "--o", "4", "--omega-max", "14",
              "--tau-grid=0.5:12:13"),
             lambda: poisson.PoissonFamily(4.0, 0.9), range(15), (0.5, 12.0, 13)),
            (("--family", "poisson", "--method", "score", "--gamma", "0.95",
              "--tau-grid", "0.5:10:20", "--omega-max", "6"),
             lambda: poisson.ScoreInterval(0.95), range(7), (0.5, 10.0, 20)),
            (("--family", "normal", "--gamma", "0.9", "--sigma", "0.3", "--a=-0.5", "--b=1",
              "--o=0.2", "--x-grid=-1.1:1.6:28", "--tau-grid=-0.8:1.3:15"),
             lambda: normal.NormalFamily(o=0.2, gamma=0.9, sigma=0.3, bounds=(-0.5, 1.0)),
             np.linspace(-1.1, 1.6, 28).tolist(), (-0.8, 1.3, 15)),
            (("--family", "normal", "--method", "standard", "--gamma", "0.9", "--sigma",
              "0.3", "--x-grid=-1.1:1.6:28", "--tau-grid=-0.8:1.3:15"),
             lambda: normal.TwoSidedInterval(0.9, 0.3),
             np.linspace(-1.1, 1.6, 28).tolist(), (-0.8, 1.3, 15)),
            (("--family", "normal", "--method", "truncated_standard", "--gamma", "0.9",
              "--sigma", "0.3", "--a=-0.5", "--b=1", "--x-grid=-1.1:1.6:28",
              "--tau-grid=-0.8:1.3:15"),
             lambda: normal.TwoSidedInterval(0.9, 0.3, bounds=(-0.5, 1.0)),
             np.linspace(-1.1, 1.6, 28).tolist(), (-0.8, 1.3, 15)),
        ],
        ids=["binomial", "agresti_coull", "poisson", "score", "normal", "standard",
             "truncated_standard"],
    )
    def test_every_method_matches_psi(self, capsys, argv, expected, observations, taus, fmt):
        # Every row, omega- or x-major, against the psi of a family built here
        # from the flags' values; a normal row also against the scalar
        # comparisons.  In JSON a count is an int.
        status, out = run_cli(capsys, "membership", *argv, "--format", fmt)
        assert status == 0
        fam = expected()
        taus = np.linspace(*taus).tolist()
        if fmt == "csv":
            header, rows = parse_csv(out)
        else:
            payload = json.loads(out)
            header, rows = payload["columns"], payload["rows"]
            kind = int if isinstance(observations, range) else float
            assert all(type(w) is kind and type(p) is float for _, w, p in rows)
        assert header == ["tau", "omega", "psi"]
        assert [(tau, w) for tau, w, _ in rows] == [(t, w) for w in observations for t in taus]
        for tau, w, psi in rows:
            if isinstance(fam, (normal.NormalFamily, normal.TwoSidedInterval)):
                assert psi == scalar_normal_psi(fam, w, tau), (tau, w)
                assert psi == fam.psi(w, tau), (tau, w)
            else:
                assert psi == fam.psi(int(w), tau), (tau, w)

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

    @pytest.mark.parametrize(
        "method, bounds",
        [("standard", ()), ("truncated_standard", ("--a=-1", "--b=1"))],
        ids=["standard", "truncated_standard"],
    )
    def test_two_sided_gamma_below_the_quantile_floor(self, capsys, method, bounds):
        # Only the one-sided quantile has a floor: the two-sided interval reads
        # the quantile at (1 + gamma) / 2, here 1/2, so z = 0 and psi is 1
        # exactly where tau equals the sample mean.
        status, out = run_cli(
            capsys, "membership", "--family", "normal", "--method", method,
            "--gamma", "1e-310", "--sigma", "1", *bounds, "--tau-grid=-1:1:3",
            "--x-grid=-1:1:3",
        )
        assert status == 0
        rows = parse_csv(out)[1]
        assert len(rows) == 9
        assert all(psi == float(tau == x) for tau, x, psi in rows)

    @pytest.mark.parametrize("method", ["standard", "truncated_standard"])
    def test_two_sided_lower_bound_below_the_quantile_floor(self, capsys, method):
        # The two-sided interval itself takes such a gamma, but its
        # lower-bound column reads the one-sided quantile, which has a floor.
        status = main([
            "el-curve", "--family", "normal", "--method", method, "--gamma", "1e-310",
            "--sigma", "1", "--a=-1", "--b=1", "--theta-grid=-1:1:3",
        ])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error: gamma must lie in [1e-300, 1) for the one-sided normal quantile "
            "that anchored intervals and lower bounds read, got 1e-310\n"
        )

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


_BINOMIAL_60_AT_ONE_HALF = """\
tau,coverage
0.25,0.9500000000000437
0.27500000000000002,0.9500000000000427
0.29999999999999999,0.95000000000004237
0.32500000000000001,0.95000000000004303
0.34999999999999998,0.95000000000004015
0.375,0.95000000000004037
0.40000000000000002,0.95000000000003937
0.42500000000000004,0.95000000000003926
0.45000000000000001,0.95000000000003915
0.47499999999999998,0.95000000000003892
0.5,1
0.52500000000000002,0.95000000000003848
0.55000000000000004,0.95000000000003537
0.57499999999999996,0.95000000000003781
0.60000000000000009,0.95000000000003715
0.625,0.95000000000003726
0.65000000000000002,0.95000000000003637
0.67500000000000004,0.95000000000003626
0.69999999999999996,0.95000000000003604
0.72500000000000009,0.95000000000003681
0.75,0.95000000000003859
"""


@st.composite
def _coverage_cases(draw):
    """``(family, method, n, gamma, o, grid)``: a grid with o as one of its ends."""
    family = draw(st.sampled_from(["binomial", "poisson"]))
    method = draw(st.sampled_from(
        ["proposed", "agresti_coull" if family == "binomial" else "score"]
    ))
    gamma = draw(st.floats(0.5, 0.999))
    if family == "binomial":
        n = draw(st.integers(1, 2000))
        space = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    else:
        n = None
        space = st.floats(0.0, 1e4, exclude_min=True)
    o, other = draw(space), draw(space)
    # linspace keeps both ends exact.
    lo, hi = (o, other) if draw(st.booleans()) else (other, o)
    return family, method, n, gamma, o, f"{lo!r}:{hi!r}:{draw(st.integers(2, 12))}"


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

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("--family", "binomial", "--n", "60", "--gamma", "0.95", "--o", "0.5",
              "--tau-grid", "0.25:0.75:21"), _BINOMIAL_60_AT_ONE_HALF),
            (("--family", "poisson", "--gamma", "0.95", "--o", "10000",
              "--tau-grid", "9990:10000:3"),
             "tau,coverage\n9990,0.94999999999999951\n9995,0.94999999999999951\n10000,1\n"),
            (("--family", "poisson", "--gamma", "0.95", "--o", "9000",
              "--tau-grid", "9000:9000:1"), "tau,coverage\n9000,1\n"),
        ],
        ids=["binomial-60", "poisson-10000", "poisson-9000"],
    )
    def test_prints_one_at_o(self, capsys, argv, expected):
        # Rounding in the log masses lifted each sum at tau = o above 1.
        assert run_cli(capsys, "coverage", *argv) == (0, expected)

    @given(_coverage_cases())
    @example(("binomial", "proposed", 60, 0.95, 0.5, "0.25:0.75:21"))
    @example(("poisson", "proposed", None, 0.95, 10000.0, "9990:10000:3"))
    @example(("poisson", "proposed", None, 0.95, 9000.0, "9000:9000:1"))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, case):
        """Exit 0, no stderr, nan or inf, coverage in [0, 1], proposed off o at gamma.

        Every discrete method, binomial n up to 2000 and Poisson means up to
        1e4, with warnings as errors; the examples printed above 1 at o.
        """
        family, method, n, gamma, o, grid = case
        argv = ["coverage", "--family", family, "--method", method,
                "--gamma", repr(gamma), "--tau-grid", grid]
        if n is not None:
            argv += ["--n", str(n)]
        if method == "proposed":
            argv += ["--o", repr(o)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = main(argv)
        assert (status, err.getvalue()) == (0, "")
        text = out.getvalue()
        assert "nan" not in text and "inf" not in text
        _, rows = parse_csv(text)
        assert o in [tau for tau, _ in rows]
        for tau, cov in rows:
            assert 0.0 <= cov <= 1.0, tau
            if method == "proposed" and tau != o:
                assert abs(cov - gamma) <= 1e-8, tau


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

    @pytest.mark.parametrize("command", ["membership", "el-curve"])
    def test_normal_gamma_down_to_the_quantile_floor(self, capsys, command):
        # The one-sided quantile of gamma exists down to 1e-300; below it the
        # family refuses gamma with exit 2.
        argv = ["--family", "normal", "--gamma", "1e-100", "--sigma", "1",
                "--a=-1", "--b=1", "--o=0"]
        grid = (["--tau-grid=-1:1:3", "--x-grid=0:1:2"] if command == "membership"
                else ["--theta-grid=-1:1:3"])
        for gamma in ("1e-100", "1e-300"):
            argv[3] = gamma
            status, out = run_cli(capsys, command, *argv, *grid)
            assert status == 0
            assert all(math.isfinite(v) for row in parse_csv(out)[1] for v in row)
        argv[3] = "1e-310"
        assert main([command, *argv, *grid]) == 2
        assert "gamma must lie in [1e-300, 1)" in capsys.readouterr().err

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
        # Above tau = 700 each CDF sums its masses from tau - 10 sqrt(tau) up,
        # not from 0, so the command takes a fraction of a second.
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

    def test_poisson_lower_bound_at_the_largest_mean(self, capsys):
        # 1e4 is the largest mean the parser accepts; each CDF at a band node
        # near it sums its masses from count 9000 up.
        status, out = run_cli(
            capsys,
            "lower-bound", "--family", "poisson", "--gamma", "0.95",
            "--theta-grid", "10000:10000:1",
        )
        assert status == 0
        assert parse_csv(out) == (
            ["theta", "lower_bound"], [(10000.0, pytest.approx(333.15231227858794, rel=1e-12))]
        )


# Models of the extreme-gamma commands: family flags, theta grid, --o.
_EXTREME_MODELS = {
    "binomial-1": (("--family", "binomial", "--n", "1"), "0.1:0.9:3", "0.5"),
    "binomial-10": (("--family", "binomial", "--n", "10"), "0.1:0.9:3", "0.5"),
    "binomial-1000": (("--family", "binomial", "--n", "1000"), "0.1:0.9:3", "0.5"),
    "poisson-5": (("--family", "poisson",), "1:9:3", "5"),
}
_EXTREME_GAMMAS = ("1e-310", "1e-300", "1e-20", "1e-9", "0.3", "0.999999", "0.999999999")
# The (gamma, model) pairs whose commands succeed.  The others meet the
# open limits of ROADMAP item 2, a level below the residual tolerance or a
# tail near 1, and may exit 3.
_EXTREME_SUCCEEDS = {
    *(("1e-310", m) for m in ("binomial-1", "poisson-5")),
    *(("1e-300", m) for m in ("binomial-1", "poisson-5")),
    *(("1e-20", m) for m in ("binomial-1", "binomial-10", "binomial-1000")),
    ("1e-9", "binomial-1"),
    *((g, m) for g in ("0.3", "0.999999") for m in _EXTREME_MODELS),
}


@pytest.mark.parametrize("gamma", _EXTREME_GAMMAS)
@pytest.mark.parametrize("model", sorted(_EXTREME_MODELS))
@pytest.mark.parametrize("command", ["el-curve", "lower-bound"])
def test_extreme_gamma_exits_cleanly(capsys, command, model, gamma):
    # Every band edge starts from a closed form at its level.  The start
    # reads the normal quantile of the level clamped into its domain, so a
    # level below 1e-300 or a 1 - gamma that rounds to 1 must neither
    # refuse gamma (exit 2) nor leak a floating-point warning.
    family, grid, o = _EXTREME_MODELS[model]
    argv = [command, *family, "--gamma", gamma, "--theta-grid", grid]
    if command == "el-curve":
        argv += ["--o", o]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(argv)
    captured = capsys.readouterr()
    if (gamma, model) in _EXTREME_SUCCEEDS:
        assert status == 0, captured.err
    assert status in (0, 3), captured.err
    if status == 3:
        assert len(captured.err.splitlines()) == 1, captured.err
    else:
        values = [v for row in parse_csv(captured.out)[1] for v in row]
        assert len(values) == (9 if command == "el-curve" else 6)
        assert all(math.isfinite(v) and v >= 0.0 for v in values)


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
            monkeypatch.setattr(owner, "psi_rows", fail)

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

    def test_skip_rules(self, capsys, tmp_path):
        # Blank lines, comments and any line starting with "weight" in any
        # case are skipped, after stripping; fields may carry spaces.
        path = tmp_path / "items.csv"
        path.write_text("# c\n\n  Weight , Value\nWEIGHTS\n 1 , 2 \n\t#x,1\n3,4\n")
        status, out = run_cli(capsys, "knapsack", str(path), "--capacity", "5")
        assert status == 0
        assert out.splitlines()[1:3] == ["0,1,2,1,A", "1,3,4,1,A"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,3\n", "line 1: expected 'weight,value', got '1,2,3'"),
            ("1;2\n", "line 1: expected 'weight,value', got '1;2'"),
            ("1,2\n3,,4\n", "line 2: expected 'weight,value', got '3,,4'"),
            ("w,1\n", "line 1: malformed numbers in 'w,1'"),
            ("2,1\n1,x\n", "line 2: malformed numbers in '1,x'"),
            (",\n", "line 1: malformed numbers in ','"),
            ("1,2\nWeight,1,2\nwe,1\n", "line 3: malformed numbers in 'we,1'"),
            ("weight\n\n", "no knapsack items found in input"),
        ],
    )
    def test_row_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "items.csv"
        path.write_text(text)
        assert main(["knapsack", str(path), "--capacity", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


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
            (discrete.Randomized, "psi_rows"),
            (discrete.Randomized, "branch_array"),
            (discrete.Crisp, "psi"),
            (discrete.Crisp, "psi_rows"),
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


# Values whose bits differ though some compare equal, or print alike: signed
# zeros, NaNs of either sign and with a payload, and the smallest subnormal.
_ARRAY_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, np.array(0x7FF8000000000001).view(np.float64).item(),
    math.inf, -math.inf, 5e-324, 0.1, 1.0,
)
_ARRAY_INTS = st.one_of(
    st.sampled_from((0, 1, -1, 2**63 - 1, -(2**63))), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def _array_columns(draw):
    """float64 and int64 arrays of heavy repeats, next to list columns."""
    rows = draw(st.integers(0, 40))
    columns = []
    for kind in draw(st.lists(st.sampled_from(("float64", "int64", "list")), min_size=1,
                              max_size=4)):
        if kind == "float64":
            values = st.sampled_from(_ARRAY_FLOATS)
        elif kind == "int64":
            values = _ARRAY_INTS
        else:
            values = st.one_of(_FLOATS, st.sampled_from(("A", "B")))
        column = draw(st.lists(values, min_size=rows, max_size=rows))
        columns.append(column if kind == "list" else np.array(column, dtype=kind))
    return columns


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

    @settings(max_examples=300, deadline=None)
    @given(_array_columns(), st.sampled_from(((), ("total,1",))))
    def test_array_columns_equal_the_row_by_row_oracle(self, columns, comments):
        # Rows of numpy scalars, each formatted on its own, in CSV; in JSON
        # the payload of the arrays' tolist().
        header = [f"c{i}" for i in range(len(columns))]
        csv = _emitted(header, columns, "csv", comments)
        assert csv == csv_text(header, zip(*columns), comments)
        lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        payload = {"columns": header, "rows": [list(r) for r in zip(*lists)]}
        if comments:
            payload["notes"] = list(comments)
        assert _emitted(header, columns, "json", comments) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("rows", [0, 1])
    def test_array_columns_of_length_zero_and_one(self, rows):
        columns = [np.full(rows, -0.0), np.full(rows, 7), ["A"] * rows]
        expected = "a,b,c\n" + "-0,7,A\n" * rows
        assert _emitted(("a", "b", "c"), columns, "csv", ()) == expected
        payload = json.loads(_emitted(("a", "b", "c"), columns, "json", ()))
        assert payload["rows"] == [[-0.0, 7, "A"]] * rows

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
