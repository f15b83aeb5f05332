"""Seeded operation streams for the three benchmark workloads.

An operation (op) is what one user action costs: one figure of
``el-curve``/``lower-bound`` commands, one ``coverage`` sweep, or one CLI
grid.  Each op is a list of ``fuzzyci`` argv lists plus what the output
check needs to know.  The program sees only those argv lists and the input
files written here.

Ops come in cycles.  Every cycle covers the same size ladder per family and
command count, and the seed jitters sizes slightly and draws everything else
(gamma, reference points, grid ends, knapsack items, op order), so any seed
exercises the same input mix while the exact inputs differ.  Every op
draws its own confidence level ``gamma`` (unique within a run), so no op
reuses the threshold cache entries of another: each pays the cold root
solves a fresh CLI process pays.  Everything stays inside today's supported
domain (Poisson means at most 700, finite grids, finite knapsack input); the
known out-of-domain defects are exercised by :mod:`probes` instead.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# Sizes chosen so that a 30 s run completes about 50 or more ops of each
# workload on a 2-core machine, enough for a stable p80.  Op sizes sit on
# fixed ladders with a small jitter: wider jitter moved the run median by
# more than the machine's own noise from one seed to the next.  The
# el_envelope and coverage_sweep cycles have 7 ops of distinct cost, so the
# run's p50 and p80 each fall inside one rung's group of ops, which holds
# one op per cycle, rather than between two rungs.
SIZE_JITTER = 0.03
EL_THETA_POINTS = 8
COVERAGE_TAU_POINTS = 30
# A cold coverage op at gamma 0.99 costs about 1.5 times one at 0.90, so
# coverage_sweep spreads its gammas evenly over the rungs: see CoverageSweep.
GAMMA_STRATA = 7
GRID_TAU_POINTS = 100


@dataclass
class Command:
    """One CLI invocation and the facts its output check needs."""

    argv: list[str]
    kind: str  # "el", "lower_bound", "coverage", "membership", "knapsack"
    rows: int
    gamma: float = 0.0
    method: str = "proposed"
    o: float | None = None
    mode: str = ""  # knapsack mode
    output: str = ""  # CSV path, set when the op gets its index


@dataclass
class Op:
    label: str
    commands: list[Command] = field(default_factory=list)
    index: int = 0


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid(lo: float, hi: float, count: int) -> tuple[str, list[float]]:
    """Grid flag value and the exact points the CLI will build from it."""
    return f"{_fmt(lo)}:{_fmt(hi)}:{count}", [float(v) for v in np.linspace(lo, hi, count)]


def _ladder(rng: random.Random, lo: float, hi: float, k: int, log: bool = False):
    """k evenly spaced sizes from lo to hi, each jittered by up to 3 %."""
    if log:
        steps = [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]
    else:
        steps = [lo + (hi - lo) * i / (k - 1) for i in range(k)]
    return [_jitter(rng, v) for v in steps]


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + SIZE_JITTER * rng.uniform(-1.0, 1.0))


class _Gammas:
    """Confidence levels in [0.90, 0.99], never repeated within a run.

    With a ``stratum``, gamma is drawn from the stratum's band, one of
    ``GAMMA_STRATA`` equal parts of the range.
    """

    def __init__(self):
        self.used = set()

    def draw(self, rng: random.Random, stratum: int | None = None) -> float:
        lo, width = 0.90, 0.09
        if stratum is not None:
            width /= GAMMA_STRATA
            lo += width * (stratum % GAMMA_STRATA)
        while True:
            g = round(rng.uniform(lo, lo + width), 6)
            if g not in self.used:
                self.used.add(g)
                return g


class Workload:
    name = ""
    cycle_len = 0
    # Ops replayed, untraced and traced, by the traced run (whole cycles).
    trace_ops = 0
    # Ops after which peak RSS is read: whole cycles, a little under what
    # the slowest baseline run completed in 30 s.
    rss_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.gammas = _Gammas()
        self.files = 0

    def ops(self):
        """Endless op stream; cycle c is drawn from its own seeded generator."""
        index = 0
        cycle = 0
        while True:
            rng = random.Random(f"{self.name}/{self.seed}/{cycle}")
            for op in self.cycle(rng, cycle):
                op.index = index
                for j, cmd in enumerate(op.commands):
                    cmd.output = os.path.join(self.workdir, f"op{index}_{j}.csv")
                    cmd.argv += ["--output", cmd.output]
                index += 1
                yield op
            cycle += 1

    def cycle(self, rng: random.Random, index: int):
        raise NotImplementedError


class ElEnvelope(Workload):
    """Figures of 2-4 EL/lower-bound commands sharing (family, gamma, theta grid).

    Every command recomputes the envelope on the shared grid: the same
    within-figure reuse fig04 and fig08 have.
    """

    name = "el_envelope"
    cycle_len = 7
    trace_ops = 14
    rss_ops = 8 * 7

    def cycle(self, rng, index):
        # 21 envelope computations for 7 figures: one distinct in three.
        specs = [("binomial", n, k) for n, k in
                 zip(_ladder(rng, 8, 40, 4), (2, 3, 4, 3))]
        specs += [("poisson", top, k) for top, k in
                  zip(_ladder(rng, 4.0, 24.0, 3), (3, 4, 2))]
        rng.shuffle(specs)
        for family, size, k in specs:
            yield self._figure(rng, family, size, k)

    def _figure(self, rng, family, size, k):
        gamma = self.gammas.draw(rng)
        if family == "binomial":
            n = int(round(size))
            base = ["--family", "binomial", "--n", str(n), "--gamma", _fmt(gamma)]
            spec, thetas = _grid(rng.uniform(0.01, 0.05), rng.uniform(0.95, 0.99),
                                 EL_THETA_POINTS)
            comparison = "agresti_coull"
            label = f"binomial n={n} k={k}"
        else:
            base = ["--family", "poisson", "--gamma", _fmt(gamma)]
            spec, thetas = _grid(rng.uniform(0.05, 0.2), size, EL_THETA_POINTS)
            comparison = "score"
            label = f"poisson top={size:.1f} k={k}"
        base += [f"--theta-grid={spec}"]
        # k - 1 proposed curves at distinct grid points, so tangency is
        # checkable, then either the comparison curve or the envelope alone.
        anchors = rng.sample(range(1, EL_THETA_POINTS - 1), k - 1)
        op = Op(label)
        for a in anchors:
            o = thetas[a]
            op.commands.append(Command(
                ["el-curve", *base, "--o", _fmt(o)], "el", EL_THETA_POINTS,
                gamma=gamma, o=o))
        if rng.random() < 0.5:
            op.commands.append(Command(
                ["el-curve", *base, "--method", comparison], "el",
                EL_THETA_POINTS, gamma=gamma, method=comparison))
        else:
            op.commands.append(Command(
                ["lower-bound", *base], "lower_bound", EL_THETA_POINTS,
                gamma=gamma))
        return op


class CoverageSweep(Workload):
    """One proposed-method coverage command per op, each a distinct (n or o, gamma)."""

    name = "coverage_sweep"
    cycle_len = 7
    trace_ops = 14
    rss_ops = 6 * 7

    def cycle(self, rng, index):
        specs = [("binomial", n) for n in _ladder(rng, 200, 1200, 4, log=True)]
        specs += [("poisson", m) for m in _ladder(rng, 20, 400, 3, log=True)]
        # Rung r of cycle c draws gamma from band (r + c) mod 7, so every
        # rung meets every band once in seven cycles, whatever the seed.
        # Gammas drawn from the whole range would make the rung near the
        # run's median cheap in one run and dear in the next.
        specs = [(family, size, rung + index)
                 for rung, (family, size) in enumerate(specs)]
        rng.shuffle(specs)
        for family, size, stratum in specs:
            gamma = self.gammas.draw(rng, stratum)
            if family == "binomial":
                n = int(round(size))
                o = rng.uniform(0.1, 0.9)
                half = min(0.45, 5.0 * math.sqrt(o * (1.0 - o) / n) + 0.05)
                lo, hi = max(0.001, o - half), min(0.999, o + half)
                base = ["--family", "binomial", "--n", str(n)]
                label = f"binomial n={n}"
            else:
                o = size
                lo, hi = 0.5 * o, 1.5 * o + 10.0
                base = ["--family", "poisson"]
                label = f"poisson o={o:.1f}"
            spec, taus = _grid(lo, hi, COVERAGE_TAU_POINTS)
            if rng.random() < 0.5:
                # Half the sweeps hit the reference point itself.
                o = taus[rng.randrange(1, COVERAGE_TAU_POINTS - 1)]
            op = Op(label)
            op.commands.append(Command(
                ["coverage", *base, "--gamma", _fmt(gamma), "--o", _fmt(o),
                 f"--tau-grid={spec}"],
                "coverage", COVERAGE_TAU_POINTS, gamma=gamma, o=o))
            yield op


class CliGrid(Workload):
    """Per-cell CLI work: membership grids, normal closed forms, knapsack, CSV out."""

    name = "cli_grid"
    cycle_len = 16
    trace_ops = 160
    rss_ops = 40 * 16

    def cycle(self, rng, index):
        builders = [
            self._binomial_membership("proposed"),
            self._binomial_membership("agresti_coull"),
            self._poisson_membership("proposed"),
            self._poisson_membership("score"),
            self._normal_membership("proposed"),
            self._normal_membership("standard"),
            self._normal_membership("truncated_standard"),
            self._normal_el("proposed"),
            self._normal_el("truncated_standard"),
            self._comparison_coverage("binomial"),
            self._comparison_coverage("poisson"),
        ]
        builders += [self._knapsack(items) for items in _ladder(rng, 300, 900, 5)]
        rng.shuffle(builders)
        for build in builders:
            yield build(rng)

    def _binomial_membership(self, method):
        def build(rng):
            n = round(_jitter(rng, 40))
            gamma = self.gammas.draw(rng)
            spec, _ = _grid(rng.uniform(0.001, 0.05), rng.uniform(0.95, 0.999),
                            GRID_TAU_POINTS)
            argv = ["membership", "--family", "binomial", "--method", method,
                    "--n", str(n), "--gamma", _fmt(gamma), f"--tau-grid={spec}"]
            if method == "proposed":
                argv += ["--o", _fmt(rng.uniform(0.1, 0.9))]
            return Op(f"membership binomial {method}", [Command(
                argv, "membership", (n + 1) * GRID_TAU_POINTS, gamma=gamma,
                method=method)])
        return build

    def _poisson_membership(self, method):
        def build(rng):
            o = _jitter(rng, 15.0)
            omega_max = int(o + 6.0 * math.sqrt(o) + 10)
            gamma = self.gammas.draw(rng)
            spec, _ = _grid(rng.uniform(0.05, 0.5), 1.5 * o + 10.0, GRID_TAU_POINTS)
            argv = ["membership", "--family", "poisson", "--method", method,
                    "--gamma", _fmt(gamma), f"--tau-grid={spec}",
                    "--omega-max", str(omega_max)]
            if method == "proposed":
                argv += ["--o", _fmt(o)]
            return Op(f"membership poisson {method}", [Command(
                argv, "membership", (omega_max + 1) * GRID_TAU_POINTS,
                gamma=gamma, method=method)])
        return build

    def _normal_bounds(self, rng):
        a = rng.uniform(-1.0, 0.0)
        return a, a + _jitter(rng, 1.0)

    def _normal_membership(self, method):
        def build(rng):
            a, b = self._normal_bounds(rng)
            sigma = _jitter(rng, 0.3)
            gamma = self.gammas.draw(rng)
            xs = 60
            x_spec, _ = _grid(a - 2.0 * sigma, b + 2.0 * sigma, xs)
            t_spec, _ = _grid(a, b, xs)
            argv = ["membership", "--family", "normal", "--method", method,
                    "--gamma", _fmt(gamma), "--sigma", _fmt(sigma),
                    f"--x-grid={x_spec}", f"--tau-grid={t_spec}"]
            if method != "standard":
                argv += [f"--a={_fmt(a)}", f"--b={_fmt(b)}"]
            if method == "proposed":
                argv += [f"--o={_fmt(rng.uniform(a, b))}"]
            return Op(f"membership normal {method}", [Command(
                argv, "membership", xs * xs, gamma=gamma, method=method)])
        return build

    def _normal_el(self, method):
        def build(rng):
            a, b = self._normal_bounds(rng)
            sigma = _jitter(rng, 0.3)
            gamma = self.gammas.draw(rng)
            count = 1000
            spec, thetas = _grid(a, b, count)
            argv = ["el-curve", "--family", "normal", "--method", method,
                    "--gamma", _fmt(gamma), "--sigma", _fmt(sigma),
                    f"--a={_fmt(a)}", f"--b={_fmt(b)}", f"--theta-grid={spec}"]
            o = None
            if method == "proposed":
                o = thetas[rng.randrange(1, count - 1)]
                argv += [f"--o={_fmt(o)}"]
            return Op(f"el-curve normal {method}", [Command(
                argv, "el", count, gamma=gamma, method=method, o=o)])
        return build

    def _comparison_coverage(self, family):
        def build(rng):
            gamma = self.gammas.draw(rng)
            if family == "binomial":
                method = "agresti_coull"
                spec, _ = _grid(0.01, 0.99, GRID_TAU_POINTS)
                extra = ["--n", str(round(_jitter(rng, 250)))]
            else:
                method = "score"
                spec, _ = _grid(0.1, _jitter(rng, 50.0), GRID_TAU_POINTS)
                extra = []
            argv = ["coverage", "--family", family, "--method", method,
                    "--gamma", _fmt(gamma), f"--tau-grid={spec}", *extra]
            return Op(f"coverage {family} {method}", [Command(
                argv, "coverage", GRID_TAU_POINTS, gamma=gamma, method=method)])
        return build

    def _knapsack(self, items):
        def build(rng):
            n = int(round(items))
            self.files += 1
            path = os.path.join(self.workdir, f"knapsack{self.files}.csv")
            weights = [rng.randint(10, 30) for _ in range(n)]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("weight,value\n")
                for w in weights:
                    handle.write(f"{w},{_fmt(rng.uniform(0.1, 10.0))}\n")
            capacity = str(round(_jitter(rng, 350)))
            op = Op(f"knapsack n={n}")
            for mode in ("fractional", "roundtrip", "dp"):
                op.commands.append(Command(
                    ["knapsack", path, "--capacity", capacity, "--mode", mode],
                    "knapsack", n, mode=mode))
            return op
        return build


WORKLOADS = {w.name: w for w in (ElEnvelope, CoverageSweep, CliGrid)}
