"""Command-line surface.

Subcommands evaluate memberships, verify coverage, emit expected-length and
lower-bound curves, solve knapsack instances, replay recipe files and run a
quick self-test battery.  All tabular output is CSV (17 significant digits,
dot decimal separator) or JSON, to stdout or to ``--output``; a relative
``--output`` is resolved against ``$FUZZYCI_OUTPUT_DIR`` when that is set.

Exit codes: 0 success, 2 usage/parameter errors, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice
from typing import Callable

import numpy as np

from . import binomial, discrete, normal, poisson
from .core import construct_psi_star
from .knapsack import KnapsackInstance, solve_01_dp, solve_fractional, to_measure_problem
from .length import QuadratureSpec, el_and_lower_bound, el_curve, lower_bound_curve
from .specfun import ConvergenceError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

OUTPUT_DIR_ENV = "FUZZYCI_OUTPUT_DIR"

# The most points a grid may have, about a thousand times the largest recipe
# grid's, and the most rows a membership grid may have, about forty times the
# largest recipe's (fig09: 161 x 161).
MAX_GRID_COUNT = 10**6
# What a recipe run may replay; a recipe itself may not.
_DATA_COMMANDS = ("membership", "coverage", "el-curve", "lower-bound", "knapsack")


class UsageError(ValueError):
    """Invalid flag combination or out-of-domain parameter."""


def _require(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"{args.family} family requires --{flag}")
    return value


def _normal_params(args) -> dict:
    sigma = _require(args, "sigma")
    if (args.a is None) != (args.b is None):
        raise UsageError("provide both --a and --b, or neither")
    if args.method == "truncated_standard" and args.a is None:
        raise UsageError("truncated_standard requires --a and --b")
    return {"sigma": sigma, "bounds": None if args.a is None else (args.a, args.b)}


def _counts(args, fam, taus, cap=math.inf):
    """Counts omega = 0..--omega-max, by default to the support bound.

    Returns them with the function of the tau grid that gives their
    memberships, ``psi_counts``.  An --omega-max above ``cap`` is refused
    before any membership is evaluated, since every count adds a row per
    tau.
    """
    omega_max = args.omega_max
    if omega_max is None:
        omega_max = fam.support_upper(max(taus + [args.o or 1.0]))
    if omega_max < 0:
        raise UsageError(f"--omega-max must be nonnegative, got {omega_max}")
    if omega_max > cap:
        raise UsageError(f"--omega-max must be at most {cap}, got {omega_max}")
    return range(omega_max + 1), partial(fam.psi_counts, omega_max)


def _sample_means(args, fam, taus):
    """The --x-grid sample means, with the function of the tau grid giving their memberships."""
    if args.x_grid is None:
        raise UsageError("normal membership requires --x-grid")
    means = np.array(parse_grid(args.x_grid))
    return means, partial(fam.psi_means, means)


def _poisson_range(args, fam, thetas) -> tuple[float, float]:
    top = args.tau_max
    if top is None:
        # The range must hold every theta and the o of a proposed family.
        top = poisson.default_tau_max(max([*thetas, getattr(fam, "o", 0.0)]))
    return 1e-9, top


def _quadrature(tau_range):
    """Expected lengths from the quadrature engine over tau_range(args, fam, thetas)."""

    def curves(args, fam, thetas):
        quad = QuadratureSpec(*tau_range(args, fam, thetas), rel_tol=args.rel_tol)
        return (
            lambda: el_and_lower_bound(fam, thetas, quad),
            lambda: lower_bound_curve(fam, thetas, quad),
        )

    return curves


def _own_lengths(args, fam, thetas):
    """Expected lengths from the family's own methods, which need bounds."""
    if fam.bounds is None:
        raise UsageError(f"{args.family} {args.command} requires --a and --b")

    def bound():
        return [fam.lower_bound(theta) for theta in thetas]

    return lambda: ([fam.expected_length(theta) for theta in thetas], bound()), bound


@dataclass(frozen=True)
class _Family:
    """How the commands build and evaluate one family from its flags.

    ``proposed`` is the membership anchored at --o; ``comparison`` is the
    method every other name in ``comparisons`` selects, and the one the
    lower-bound command builds, since the envelope needs no o.  Both take
    ``gamma`` and the keywords ``params(args)`` returns.
    ``grid(args, fam, taus)`` returns the observations a membership grid
    ranges over and the function of the tau array that gives all their
    memberships, a row per tau and a column per observation,
    and ``curves(args, fam, thetas)`` returns two functions of no
    arguments: one gives the expected-length and the lower-bound curve as
    a pair, the other the lower-bound curve alone.
    """

    proposed: type
    comparison: type
    comparisons: tuple[str, ...]
    params: Callable[..., dict]
    grid: Callable
    curves: Callable

    @property
    def methods(self) -> tuple[str, ...]:
        return ("proposed", *self.comparisons)

    def build(self, args, proposed: bool):
        params = {"gamma": args.gamma, **self.params(args)}
        if not proposed:
            return self.comparison(**params)
        if args.o is None:
            raise UsageError(f"the proposed {args.family} method requires --o")
        return self.proposed(o=args.o, **params)


_FAMILIES = {
    "binomial": _Family(
        binomial.BinomialFamily, binomial.AgrestiCoull, ("agresti_coull",),
        lambda args: {"n": _require(args, "n")},
        lambda args, fam, taus: _counts(args, fam, taus, fam.n),
        _quadrature(lambda args, fam, thetas: (0.0, 1.0)),
    ),
    "poisson": _Family(
        poisson.PoissonFamily, poisson.ScoreInterval, ("score",),
        lambda args: {},
        lambda args, fam, taus: _counts(args, fam, taus, poisson.MAX_OMEGA),
        _quadrature(_poisson_range),
    ),
    "normal": _Family(
        normal.NormalFamily, normal.TwoSidedInterval,
        ("standard", "truncated_standard"),
        _normal_params, _sample_means, _own_lengths,
    ),
}


def _family(args, proposed: bool):
    """The family object a command evaluates, built from the flags.

    Building it checks every parameter's domain.  It is the proposed
    membership anchored at --o when ``proposed``, else the comparison
    method, which needs no --o.
    """
    entry = _FAMILIES[args.family]
    if args.method not in entry.methods:
        raise UsageError(
            f"method {args.method!r} is not available for family {args.family!r}; "
            f"choose from {entry.methods}"
        )
    return entry, entry.build(args, proposed)


def parse_grid(spec: str) -> list[float]:
    """Inclusive grid 'start:stop:count'; count 0 gives an empty grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"malformed grid {spec!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid endpoints must be finite, got {spec!r}")
    if count < 0:
        raise UsageError(f"grid count must be nonnegative, got {count}")
    if count > MAX_GRID_COUNT:
        raise UsageError(f"grid {spec!r} has more than {MAX_GRID_COUNT} points")
    return [float(v) for v in np.linspace(start, stop, count)]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _output_path(args):
    """``--output`` resolved against ``$FUZZYCI_OUTPUT_DIR``; None for stdout."""
    path = args.output
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if path is not None and out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return path


def _check_output(args):
    """Refuse an output path that is a directory or lies in no directory.

    Runs before a data command computes anything, and creates nothing: a
    failed command leaves an existing file alone.  Other failures, such as
    permissions, surface when :func:`emit` writes.
    """
    path = _output_path(args)
    if path is None:
        return
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write {path!r}: {OSError(code, os.strerror(code), path)}")


def _format_column(values) -> list[str]:
    """The CSV text of each value; an int64 or float64 array formats each bit pattern once.

    An array's values are keyed by their bits, so values that compare equal
    yet print apart (0.0 and -0.0, NaNs of either sign) are formatted apart.
    The keys go through a set and a dict, not a numpy sort: a sort pages in
    numpy code that no other command runs, and its index temporaries raise
    the process's peak memory more than the key list does.  Any other
    column, the short lists included, maps ``_format_value`` over its values.
    """
    if not (isinstance(values, np.ndarray) and values.dtype in (np.float64, np.int64)):
        return list(map(_format_value, values))
    keys = values.view(np.int64).tolist()
    distinct = list(set(keys))
    texts = map(_format_value, np.array(distinct, dtype=np.int64).view(values.dtype).tolist())
    return list(map(dict(zip(distinct, texts)).__getitem__, keys))


def emit(header, columns, args, comments=()):
    """Write equal-length columns as CSV or JSON to stdout or the output path.

    Each column is a sequence, a numpy array or a list; row i holds the i-th
    value of every column.  In CSV an int64 or float64 array formats each
    distinct bit pattern once, every column is formatted before the output
    is opened, and the text is joined and written 512 lines at a time, so
    the text of a whole grid is never held at once.  In JSON an array is
    written as its ``tolist()``.
    """
    if args.format == "csv":
        # Each line is a tuple of cells: the header, a row or a comment.
        lines = chain([header], zip(*map(_format_column, columns)), ([f"# {c}"] for c in comments))
        text = iter(lambda: "\n".join([*map(",".join, islice(lines, 512)), ""]), "")
    else:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        payload = {"columns": list(header), "rows": [list(r) for r in zip(*columns)]}
        if comments:
            payload["notes"] = list(comments)
        text = [json.dumps(payload, indent=2) + "\n"]
    path = _output_path(args)
    if path is None:
        sys.stdout.writelines(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def _parameter_grid(spec: str, name: str, args, fam) -> list[float]:
    grid = parse_grid(spec)
    for value in grid:
        if not fam.tau_lower < value < fam.tau_upper:
            raise UsageError(
                f"{args.family} {name} grid must stay in "
                f"({fam.tau_lower:g}, {fam.tau_upper:g}), got {value}"
            )
    return grid


def cmd_membership(args) -> int:
    entry, fam = _family(args, proposed=args.method == "proposed")
    taus = _parameter_grid(args.tau_grid, "tau", args, fam)
    observations, memberships = entry.grid(args, fam, taus)
    count = len(observations) * len(taus)
    if count > MAX_GRID_COUNT:
        raise UsageError(
            f"membership grid has {count} rows (observations x tau), "
            f"more than {MAX_GRID_COUNT}"
        )
    # A row of memberships per tau; the output rows run omega-major.
    psi = memberships(np.array(taus)).T.ravel()
    columns = (np.tile(taus, len(observations)), np.repeat(observations, len(taus)), psi)
    emit(("tau", "omega", "psi"), columns, args)
    return 0


def cmd_coverage(args) -> int:
    _, fam = _family(args, proposed=args.method == "proposed")
    taus = _parameter_grid(args.tau_grid, "tau", args, fam)
    emit(("tau", "coverage"), (taus, fam.coverage(np.array(taus))), args)
    return 0


def cmd_el_curve(args) -> int:
    entry, fam = _family(args, proposed=args.method == "proposed")
    thetas = _parameter_grid(args.theta_grid, "theta", args, fam)
    curves, _ = entry.curves(args, fam, thetas)
    emit(("theta", "el", "lower_bound"), (thetas, *curves()), args)
    return 0


def cmd_lower_bound(args) -> int:
    entry, fam = _family(args, proposed=False)
    thetas = _parameter_grid(args.theta_grid, "theta", args, fam)
    _, bound = entry.curves(args, fam, thetas)
    emit(("theta", "lower_bound"), (thetas, bound()), args)
    return 0


def _read_knapsack_rows(source: str):
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise UsageError(f"cannot read {source!r}: {exc}") from None
    weights, values = [], []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        # Only a line that starts with w or W can be a header.
        if not text or text[0] == "#" or text[0] in "wW" and text.lower().startswith("weight"):
            continue
        try:
            weight, value = text.split(",")
            weights.append(float(weight))
            values.append(float(value))
        except ValueError:
            if text.count(",") != 1:
                raise UsageError(f"line {lineno}: expected 'weight,value', got {line!r}") from None
            raise UsageError(f"line {lineno}: malformed numbers in {line!r}") from None
    if not weights:
        raise UsageError("no knapsack items found in input")
    return weights, values


def cmd_knapsack(args) -> int:
    weights, values = _read_knapsack_rows(args.input)
    instance = KnapsackInstance(tuple(weights), tuple(values), args.capacity)
    if args.mode == "dp":
        subset, total_value = solve_01_dp(instance)
        chosen = set(subset)
        x = [1.0 if i in chosen else 0.0 for i in range(len(weights))]
        partition = ["A" if i in chosen else "B" for i in range(len(weights))]
        total_weight = math.fsum(weights[i] for i in subset)
    else:
        solution = solve_fractional(instance)
        x, partition = solution.x, solution.partition
        total_weight, total_value = solution.total_weight, solution.total_value
    totals = (f"total_weight,{total_weight:.17g}", f"total_value,{total_value:.17g}")
    # Arrays, so that repeated weights and x are formatted once.
    columns = (np.arange(len(weights)), np.array(weights), values, np.array(x), partition)
    if args.mode != "roundtrip":
        emit(("item", "weight", "value", "x", "partition"), columns, args, comments=totals)
        return 0
    # roundtrip: solve through the measure problem and compare.
    mu, nu, gamma = to_measure_problem(instance)
    membership = construct_psi_star(mu, nu, gamma)
    gap = max(abs(xi - (1.0 - p)) for xi, p in zip(x, membership.psi))
    emit(
        ("item", "weight", "value", "mu", "nu", "psi", "x", "partition"),
        (*columns[:3], mu.mass, nu.mass, membership.psi, *columns[3:]),
        args,
        comments=(f"gamma,{gamma:.17g}", *totals, f"max_roundtrip_gap,{gap:.17g}"),
    )
    return 0


def cmd_recipe(args) -> int:
    """Replay a recipe file: one command, or a list of runs per figure."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            recipe = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read recipe {args.file!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"recipe {args.file!r} is not valid JSON: {exc}") from None
    if not isinstance(recipe, dict):
        raise UsageError(f"recipe {args.file!r} must be a JSON object")
    runs = recipe.get("runs")
    if runs is None:
        runs = [recipe]
    if not isinstance(runs, list):
        raise UsageError(f"recipe {args.file!r}: runs must be a list")
    for i, run in enumerate(runs):
        where = f"recipe {args.file!r}, run {i}"
        if not isinstance(run, dict) or run.get("command") not in _DATA_COMMANDS:
            raise UsageError(f"{where}: command must be one of {_DATA_COMMANDS}")
        extra = run.get("args", [])
        if not (isinstance(extra, list) and all(isinstance(a, str) for a in extra)):
            raise UsageError(f"{where}: args must be a list of strings")
        if not isinstance(run.get("output") or "", str):
            raise UsageError(f"{where}: output must be a string")
    status = 0
    for run in runs:
        argv = [run["command"]] + list(run.get("args", []))
        if run.get("output"):
            argv += ["--output", run["output"]]
        elif args.output is not None:
            argv += ["--output", args.output]
        if args.format is not None:
            argv += ["--format", args.format]
        status = max(status, main(argv))
    return status


def _selftest_checks():
    from .core import DiscreteMeasure
    from .specfun import normal_quantile, reg_inc_beta_array

    yield "beta identity", lambda: abs(
        reg_inc_beta_array(*map(np.array, ([0.6], [2], [1])))[0] - 0.36) < 1e-12

    def _constructed(tau, family):
        # The generic constructor's most powerful test of tau against o: an
        # independent route to the memberships at tau.
        top = max(map(family.support_upper, (tau, family.o)))
        mu, nu = (
            DiscreteMeasure.from_weights(range(top + 1), row.tolist())
            for row in np.exp(family.log_pmf_rows(np.array([tau, family.o]), top))
        )
        return construct_psi_star(mu, nu, family.gamma).psi

    def _coverage(tau, family):
        # The constructor's memberships, summed with the same masses.
        p = np.exp(family.log_pmf_rows(np.array([tau]), family.support_upper(tau))[0])
        constructed = math.fsum((p * _constructed(tau, family)[: len(p)]).tolist())
        cov = discrete.coverage(tau, family)
        return abs(cov - family.gamma) < 1e-8 and abs(cov - constructed) < 1e-11

    fam = binomial.BinomialFamily(10, 0.5, 0.95)
    yield "binomial coverage", lambda: _coverage(0.3, fam)
    pfam = poisson.PoissonFamily(8.0, 0.95)
    yield "poisson coverage", lambda: _coverage(3.0, pfam)
    yield "constructor equivalence", lambda: all(
        abs(fam.psi(w, 0.3) - v) < 1e-9 for w, v in enumerate(_constructed(0.3, fam))
    )

    def _knapsack_roundtrip():
        inst = KnapsackInstance((1.0, 1.0), (1.0, 2.0), 1.0)
        mu, nu, gamma = to_measure_problem(inst)
        res = construct_psi_star(mu, nu, gamma)
        x = solve_fractional(inst).x
        return all(abs(xi - (1 - p)) < 1e-10 for xi, p in zip(x, res.psi))

    yield "knapsack roundtrip", _knapsack_roundtrip

    def _normal_envelope():
        # An independent route to the envelope at theta: the Gaussian mean
        # of the length of the interval anchored at o = theta, clipped to
        # [0, 1], by the trapezoid rule over +-10 standard errors.
        theta, s, gamma = 0.2, 1 / 3, 0.95
        c = normal_quantile(gamma) * s
        x, h = np.linspace(theta - 10.0 * s, theta + 10.0 * s, 200_001, retstep=True)
        hi = np.minimum(1.0, np.maximum(theta, x + c))
        lo = np.maximum(0.0, np.minimum(theta, x - c))
        density = np.exp(-0.5 * ((x - theta) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        f = np.maximum(0.0, hi - lo) * density
        quadrature = h * (f.sum() - 0.5 * (f[0] + f[-1]))
        nfam = normal.TwoSidedInterval(gamma=gamma, sigma=s, bounds=(0.0, 1.0))
        return abs(nfam.lower_bound(theta) - quadrature) < 1e-8

    yield "normal envelope", _normal_envelope

    def _bernoulli_minimax():
        # The whole band route against a closed form: for one Bernoulli
        # trial the family anchored at 1/2 is minimax, and its expected
        # length there, which is also the envelope's, is the minimax value
        # (0.833599375018 at g = 0.95).
        g = 0.95
        minimax = 2 * g - 1 - g * math.log(g) + (1 - g) * math.log(2 * (1 - g))
        bfam = binomial.BinomialFamily(1, 0.5, g)
        quad = QuadratureSpec(0.0, 1.0)
        curves = (el_curve(bfam, [0.5], quad), lower_bound_curve(bfam, [0.5], quad))
        return all(abs(value - minimax) < 1e-10 for (value,) in curves)

    yield "bernoulli minimax", _bernoulli_minimax


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        ok = bool(check())
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def _add_family_options(parser, include_method=True):
    parser.add_argument(
        "--family", required=True, choices=tuple(_FAMILIES)
    )
    if include_method:
        parser.add_argument(
            "--method",
            default="proposed",
            choices=tuple(dict.fromkeys(
                m for entry in _FAMILIES.values() for m in entry.methods
            )),
        )
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--n", type=int, help="binomial trial count")
    parser.add_argument("--o", type=float, help="reference point")
    parser.add_argument("--sigma", type=float, help="normal standard error")
    parser.add_argument("--a", type=float, help="lower parameter bound (normal)")
    parser.add_argument("--b", type=float, help="upper parameter bound (normal)")


def _add_output_options(parser):
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument(
        "--output",
        help=f"output path; relative paths resolve against ${OUTPUT_DIR_ENV}",
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="fuzzyci",
        description="Fuzzy confidence intervals, expected lengths and knapsack duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("membership", help="evaluate a membership on a grid")
    _add_family_options(p)
    p.add_argument("--tau-grid", required=True, help="start:stop:count (inclusive)")
    p.add_argument("--x-grid", help="sample-mean grid for the normal family")
    p.add_argument("--omega-max", type=int, help="largest count (default: the support bound)")
    _add_output_options(p)
    p.set_defaults(handler=cmd_membership)

    p = sub.add_parser("coverage", help="coverage probability over a tau grid")
    _add_family_options(p)
    p.add_argument("--tau-grid", required=True)
    _add_output_options(p)
    p.set_defaults(handler=cmd_coverage)

    p = sub.add_parser("el-curve", help="expected length next to the lower bound")
    _add_family_options(p)
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--tau-max", type=float, help="poisson integration cutoff")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    _add_output_options(p)
    p.set_defaults(handler=cmd_el_curve)

    p = sub.add_parser("lower-bound", help="lower-bound envelope curve")
    _add_family_options(p, include_method=False)
    p.set_defaults(method="proposed")
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    _add_output_options(p)
    p.set_defaults(handler=cmd_lower_bound)

    p = sub.add_parser("knapsack", help="solve a knapsack instance from CSV rows")
    p.add_argument("input", help="CSV file of 'weight,value' rows, or - for stdin")
    p.add_argument("--capacity", type=float, required=True)
    p.add_argument(
        "--mode", default="fractional", choices=("fractional", "dp", "roundtrip")
    )
    _add_output_options(p)
    p.set_defaults(handler=cmd_knapsack)

    p = sub.add_parser("recipe", help="run a JSON recipe file")
    p.add_argument("file")
    _add_output_options(p)
    p.set_defaults(format=None, output=None)
    p.set_defaults(handler=cmd_recipe)

    p = sub.add_parser("selftest", help="quick install check")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command in _DATA_COMMANDS:
            _check_output(args)
        return args.handler(args)
    except ValueError as exc:
        # UsageError plus any domain error raised by the library layer.
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
