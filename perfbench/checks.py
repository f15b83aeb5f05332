"""Output checks, with the acceptance suite's pinned tolerances.

- proposed-method coverage: |c - gamma| <= 1e-8 off the reference point and
  c >= gamma - 1e-8 at it; comparison-method coverage finite and in [0, 1];
- proposed EL curves: EL >= envelope - 1e-9, and |EL - envelope| <= 1e-7 at
  theta = o (o is always a grid point);
- memberships finite and in [0, 1], with the expected row count;
- knapsack round-trip gap <= 1e-10, fractional value >= 0/1 value - 1e-9.

Each check returns a list of problems; an empty list means the output passed.
``Margins`` keeps the worst coverage error and dominance violation seen.
"""

from __future__ import annotations

import csv
import math

COVERAGE_TOL = 1e-8
DOMINANCE_TOL = 1e-9
TANGENCY_TOL = 1e-7
ROUNDTRIP_TOL = 1e-10
RELAXATION_TOL = 1e-9


class Margins:
    def __init__(self):
        self.max_coverage_err = 0.0
        self.max_dominance_violation = None  # None until an EL curve is checked


def read_csv(path: str):
    """Header, numeric-or-text rows, and '# key,value' trailer comments."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    rows, notes = [], {}
    for line in csv.reader(lines[1:]):
        if line and line[0].startswith("# "):
            notes[line[0][2:]] = float(line[1])
        else:
            rows.append(line)
    return header, rows, notes


def _floats(rows, column):
    return [float(r[column]) for r in rows]


def check_command(cmd, header, rows, notes, margins: Margins) -> list[str]:
    problems = []
    if len(rows) != cmd.rows:
        problems.append(f"expected {cmd.rows} rows, got {len(rows)}")
    if cmd.kind == "membership":
        psi = _floats(rows, header.index("psi"))
        if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in psi):
            problems.append("membership outside [0, 1] or not finite")
    elif cmd.kind == "coverage":
        problems += _check_coverage(cmd, rows, margins)
    elif cmd.kind in ("el", "lower_bound"):
        problems += _check_el(cmd, rows, margins)
    elif cmd.kind == "knapsack":
        x = _floats(rows, header.index("x"))
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in x):
            problems.append("knapsack selection outside [0, 1]")
        if cmd.mode == "roundtrip" and not notes["max_roundtrip_gap"] <= ROUNDTRIP_TOL:
            problems.append(f"round-trip gap {notes['max_roundtrip_gap']:.3g}")
    return problems


def _check_coverage(cmd, rows, margins):
    problems = []
    for tau_text, cov_text in rows:
        tau, cov = float(tau_text), float(cov_text)
        if cmd.method != "proposed":
            if not (math.isfinite(cov) and 0.0 <= cov <= 1.0):
                problems.append(f"coverage {cov} at tau={tau} outside [0, 1]")
        elif tau == cmd.o:
            if not cov >= cmd.gamma - COVERAGE_TOL:
                problems.append(f"coverage {cov} below gamma at tau = o")
        else:
            err = abs(cov - cmd.gamma)
            margins.max_coverage_err = max(margins.max_coverage_err, err)
            if not err <= COVERAGE_TOL:
                problems.append(f"|coverage - gamma| = {err:.3g} at tau={tau}")
    return problems


def _check_el(cmd, rows, margins):
    problems = []
    values = [[float(v) for v in r] for r in rows]
    if not all(math.isfinite(v) and v >= 0.0 for r in values for v in r[1:]):
        return ["EL or envelope negative or not finite"]
    if cmd.kind == "lower_bound" or cmd.method != "proposed":
        return problems
    for theta, el, bound in values:
        gap = bound - el
        worst = margins.max_dominance_violation
        margins.max_dominance_violation = gap if worst is None else max(worst, gap)
        if gap > DOMINANCE_TOL:
            problems.append(f"envelope above EL by {gap:.3g} at theta={theta}")
        if theta == cmd.o and not abs(gap) <= TANGENCY_TOL:
            problems.append(f"tangency gap {abs(gap):.3g} at theta = o")
    if cmd.o is not None and cmd.o not in [r[0] for r in values]:
        problems.append("reference point missing from the theta grid")
    return problems


def check_op(op, margins: Margins) -> list[str]:
    """Per-command checks plus the knapsack relaxation bound across modes."""
    problems = []
    totals = {}
    for cmd in op.commands:
        header, rows, notes = read_csv(cmd.output)
        problems += check_command(cmd, header, rows, notes, margins)
        if cmd.kind == "knapsack":
            totals[cmd.mode] = notes["total_value"]
    if "dp" in totals and not totals["fractional"] >= totals["dp"] - RELAXATION_TOL:
        problems.append("fractional value below the 0/1 optimum")
    return problems
