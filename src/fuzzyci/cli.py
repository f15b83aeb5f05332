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
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import binomial, discrete, normal, poisson
from .core import construct_psi_star
from .knapsack import KnapsackInstance, solve_01_dp, solve_fractional, to_measure_problem
from .length import QuadratureSpec, el_curve, lower_bound_curve
from .specfun import ConvergenceError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

OUTPUT_DIR_ENV = "FUZZYCI_OUTPUT_DIR"


class UsageError(ValueError):
    """Invalid flag combination or out-of-domain parameter."""


_METHODS = {
    "binomial": ("proposed", "agresti_coull"),
    "poisson": ("proposed", "score"),
    "normal": ("proposed", "standard", "truncated_standard"),
}


def _poisson_range(args, thetas) -> tuple[float, float]:
    top = args.tau_max
    if top is None:
        anchor = max([*thetas, args.o or 0.0])
        top = poisson.default_tau_max(anchor)
    return 1e-9, top


@dataclass(frozen=True)
class _Discrete:
    """How the commands build one discrete family from its flags.

    ``family`` is the proposed membership, anchored at a reference point;
    ``comparison`` is the crisp method any other ``--method`` names.  Both
    take ``gamma`` and the ``flags`` by name.  ``quadrature_range`` gives
    the tau range the expected lengths integrate over.
    """

    family: type
    comparison: type
    flags: tuple[str, ...]
    quadrature_range: Callable[..., tuple[float, float]]

    def membership(self, args, proposed: bool):
        """The family anchored at --o, or the comparison method."""
        params = {"gamma": args.gamma}
        for flag in self.flags:
            if getattr(args, flag) is None:
                raise UsageError(f"{args.family} family requires --{flag}")
            params[flag] = getattr(args, flag)
        if not proposed:
            return self.comparison(**params)
        if args.o is None:
            raise UsageError(f"the proposed {args.family} method requires --o")
        return self.family(o=args.o, **params)

    def quadrature(self, args, thetas) -> QuadratureSpec:
        return QuadratureSpec(*self.quadrature_range(args, thetas), rel_tol=args.rel_tol)


_DISCRETE = {
    "binomial": _Discrete(
        binomial.BinomialFamily, binomial.AgrestiCoull, ("n",),
        lambda args, thetas: (0.0, 1.0),
    ),
    "poisson": _Discrete(
        poisson.PoissonFamily, poisson.ScoreInterval, (), _poisson_range
    ),
}


def _normal_family(args, need_o: bool) -> normal.NormalFamily:
    if args.sigma is None:
        raise UsageError("normal family requires --sigma")
    if (args.a is None) != (args.b is None):
        raise UsageError("provide both --a and --b, or neither")
    if args.method == "truncated_standard" and args.a is None:
        raise UsageError("truncated_standard requires --a and --b")
    bounds = (args.a, args.b) if args.a is not None else None
    o = args.o
    if o is None:
        if need_o:
            raise UsageError("the proposed normal method requires --o")
        # Commands that never evaluate at o (the lower bound is o-free).
        o = 0.5 * (args.a + args.b) if bounds else 0.0
    return normal.NormalFamily(o=o, gamma=args.gamma, sigma=args.sigma, bounds=bounds)


def _family(args, need_o: bool):
    """The family object a command evaluates, built from the flags.

    Building it checks every parameter's domain.  A discrete family is the
    proposed membership anchored at --o when ``need_o``, else the comparison
    method, which needs no --o.
    """
    if args.method not in _METHODS[args.family]:
        raise UsageError(
            f"method {args.method!r} is not available for family {args.family!r}; "
            f"choose from {_METHODS[args.family]}"
        )
    if args.family == "normal":
        return _normal_family(args, need_o)
    return _DISCRETE[args.family].membership(args, need_o)


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
    if count == 0:
        return []
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(columns, rows, args, comments=()):
    """Write rows as CSV or JSON to stdout or the configured output path."""
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        lines.extend(f"# {c}" for c in comments)
        text = "\n".join(lines) + "\n"
    else:
        payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        if comments:
            payload["notes"] = list(comments)
        text = json.dumps(payload, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    path = args.output
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _discrete_grid(spec: str, name: str, args, membership) -> list[float]:
    grid = parse_grid(spec)
    for value in grid:
        if not 0.0 < value < membership.tau_upper:
            raise UsageError(
                f"{args.family} {name} grid must stay in "
                f"(0, {membership.tau_upper:g}), got {value}"
            )
    return grid


def cmd_membership(args) -> int:
    proposed = args.method == "proposed"
    fam = _family(args, need_o=proposed)
    if args.family == "normal":
        taus = parse_grid(args.tau_grid)
        if args.x_grid is None:
            raise UsageError("normal membership requires --x-grid")
        psi = normal.psi_o if proposed else normal.psi_standard
        xs = parse_grid(args.x_grid)
        rows = [(tau, x, psi(x, tau, fam)) for x in xs for tau in taus]
    else:
        taus = _discrete_grid(args.tau_grid, "tau", args, fam)
        omega_max = args.omega_max
        if omega_max is None:
            omega_max = fam.support_upper(max(taus + [args.o or 1.0]))
        rows = [(tau, w, fam.psi(w, tau)) for w in range(omega_max + 1) for tau in taus]
    emit(("tau", "omega", "psi"), rows, args)
    return 0


def cmd_coverage(args) -> int:
    proposed = args.method == "proposed"
    fam = _family(args, need_o=proposed)
    if args.family == "normal":
        taus = parse_grid(args.tau_grid)
        for tau in taus:
            if args.a is not None and not args.a <= tau <= args.b:
                raise UsageError(
                    f"normal tau grid must stay in [{args.a}, {args.b}], got {tau}"
                )
        # Crisp normal intervals have analytic coverage; see README.
        at_o = 2.0 * args.gamma - 1.0 if proposed else args.gamma
        rows = [(tau, at_o if tau == args.o else args.gamma) for tau in taus]
    else:
        taus = _discrete_grid(args.tau_grid, "tau", args, fam)
        rows = [(tau, discrete.coverage(tau, fam)) for tau in taus]
    emit(("tau", "coverage"), rows, args)
    return 0


def cmd_el_curve(args) -> int:
    proposed = args.method == "proposed"
    fam = _family(args, need_o=proposed)
    if args.family == "normal":
        thetas = parse_grid(args.theta_grid)
        if args.a is None:
            raise UsageError("normal el-curve requires --a and --b")
        if args.method == "standard":
            raise UsageError(
                "normal el-curve supports methods 'proposed' and 'truncated_standard'"
            )
        el = normal.el_psi_o_closed if proposed else normal.el_psi_nl_closed
        rows = [
            (theta, el(theta, fam), normal.el_lower_bound(theta, fam))
            for theta in thetas
        ]
    else:
        thetas = _discrete_grid(args.theta_grid, "theta", args, fam)
        quad = _DISCRETE[args.family].quadrature(args, thetas)
        rows = list(zip(
            thetas, el_curve(fam, thetas, quad), lower_bound_curve(fam, thetas, quad)
        ))
    emit(("theta", "el", "lower_bound"), rows, args)
    return 0


def cmd_lower_bound(args) -> int:
    fam = _family(args, need_o=False)
    if args.family == "normal":
        thetas = parse_grid(args.theta_grid)
        if args.a is None:
            raise UsageError("normal lower-bound requires --a and --b")
        rows = [(theta, normal.el_lower_bound(theta, fam)) for theta in thetas]
    else:
        thetas = _discrete_grid(args.theta_grid, "theta", args, fam)
        quad = _DISCRETE[args.family].quadrature(args, thetas)
        rows = list(zip(thetas, lower_bound_curve(fam, thetas, quad)))
    emit(("theta", "lower_bound"), rows, args)
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
        if not text or text.startswith("#") or text.lower().startswith("weight"):
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise UsageError(f"line {lineno}: expected 'weight,value', got {line!r}")
        try:
            weights.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise UsageError(f"line {lineno}: malformed numbers in {line!r}") from None
    if not weights:
        raise UsageError("no knapsack items found in input")
    return weights, values


def cmd_knapsack(args) -> int:
    weights, values = _read_knapsack_rows(args.input)
    try:
        instance = KnapsackInstance(tuple(weights), tuple(values), args.capacity)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.mode == "dp":
        try:
            subset, value = solve_01_dp(instance)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        chosen = set(subset)
        rows = [
            (i, w, v, 1.0 if i in chosen else 0.0, "A" if i in chosen else "B")
            for i, (w, v) in enumerate(zip(weights, values))
        ]
        total_w = math.fsum(weights[i] for i in subset)
        emit(
            ("item", "weight", "value", "x", "partition"),
            rows,
            args,
            comments=(f"total_weight,{total_w:.17g}", f"total_value,{value:.17g}"),
        )
        return 0
    solution = solve_fractional(instance)
    if args.mode == "fractional":
        rows = [
            (i, w, v, x, label)
            for i, (w, v, x, label) in enumerate(
                zip(weights, values, solution.x, solution.partition)
            )
        ]
        emit(
            ("item", "weight", "value", "x", "partition"),
            rows,
            args,
            comments=(
                f"total_weight,{solution.total_weight:.17g}",
                f"total_value,{solution.total_value:.17g}",
            ),
        )
        return 0
    # roundtrip: solve through the measure problem and compare.
    try:
        mu, nu, gamma = to_measure_problem(instance)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    membership = construct_psi_star(mu, nu, gamma)
    gap = max(
        abs(x - (1.0 - p)) for x, p in zip(solution.x, membership.psi)
    )
    rows = [
        (i, w, v, mu.mass[i], nu.mass[i], membership.psi[i], x, label)
        for i, (w, v, x, label) in enumerate(
            zip(weights, values, solution.x, solution.partition)
        )
    ]
    emit(
        ("item", "weight", "value", "mu", "nu", "psi", "x", "partition"),
        rows,
        args,
        comments=(
            f"gamma,{gamma:.17g}",
            f"total_weight,{solution.total_weight:.17g}",
            f"total_value,{solution.total_value:.17g}",
            f"max_roundtrip_gap,{gap:.17g}",
        ),
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
    runs = recipe.get("runs")
    if runs is None:
        runs = [recipe]
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
    from .specfun import binom_pmf, reg_inc_beta

    yield "beta identity", lambda: abs(reg_inc_beta(0.6, 2, 1) - 0.36) < 1e-12

    def _coverage(tau, family):
        # The scalar memberships are an independent route to the same sum.
        scalar = math.fsum(
            math.exp(family.log_pmf(w, tau)) * family.psi(w, tau)
            for w in range(family.support_upper(tau) + 1)
        )
        cov = discrete.coverage(tau, family)
        return abs(cov - family.gamma) < 1e-8 and abs(cov - scalar) < 1e-11

    fam = binomial.BinomialFamily(10, 0.5, 0.95)
    yield "binomial coverage", lambda: _coverage(0.3, fam)
    pfam = poisson.PoissonFamily(8.0, 0.95)
    yield "poisson coverage", lambda: _coverage(3.0, pfam)

    def _constructor_match():
        ids = tuple(range(11))
        from .core import DiscreteMeasure

        mu = DiscreteMeasure(ids, tuple(binom_pmf(w, 10, 0.3) for w in ids))
        nu = DiscreteMeasure(ids, tuple(binom_pmf(w, 10, 0.5) for w in ids))
        res = construct_psi_star(mu, nu, 0.95)
        return all(
            abs(fam.psi(w, 0.3) - res.psi[w]) < 1e-9 for w in ids
        )

    yield "constructor equivalence", _constructor_match

    def _knapsack_roundtrip():
        inst = KnapsackInstance((1.0, 1.0), (1.0, 2.0), 1.0)
        mu, nu, gamma = to_measure_problem(inst)
        res = construct_psi_star(mu, nu, gamma)
        x = solve_fractional(inst).x
        return all(abs(xi - (1 - p)) < 1e-10 for xi, p in zip(x, res.psi))

    yield "knapsack roundtrip", _knapsack_roundtrip

    def _normal_tangency():
        nfam = normal.NormalFamily(o=0.5, gamma=0.95, sigma=1 / 3, bounds=(0.0, 1.0))
        return abs(
            normal.el_psi_o_closed(0.5, nfam) - normal.el_lower_bound(0.5, nfam)
        ) < 1e-9

    yield "normal tangency", _normal_tangency


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
        "--family", required=True, choices=tuple(_METHODS)
    )
    if include_method:
        parser.add_argument(
            "--method",
            default="proposed",
            choices=tuple(dict.fromkeys(m for ms in _METHODS.values() for m in ms)),
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


def build_parser() -> argparse.ArgumentParser:
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
