"""Edge probes: known defects at the domain's edges, run once per invocation.

Each probe runs one CLI command in a fresh interpreter, untimed, and reports
1 while the defect still shows and 0 once it is fixed (a correct result, or
a clean usage error with exit 2 or 3 and no leaked warning).  The timed
workloads stay inside the supported domain, so fixing one of these defects
cannot read as a latency change there.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess

_RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); from fuzzyci import cli; "
    "sys.exit(cli.main(sys.argv[2:]))"
)


def _run(python, src, argv, timeout):
    proc = subprocess.run([python, "-I", "-c", _RUN, src, *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def _column(stdout, index):
    rows = [line.split(",") for line in stdout.splitlines()[1:]
            if line and not line.startswith("#")]
    return [float(r[index]) for r in rows]


def _poisson_mean_above_700(rc, out, err):
    # Means above 700 are valid input: fixed means exact coverage 0.95 off o.
    taus, covs = _column(out, 0), _column(out, 1)
    return rc != 0 or any(abs(c - 0.95) > 1e-8 for t, c in zip(taus, covs) if t != 800)


def _knapsack_capacity_nan(rc, out, err):
    return rc == 0 or "nan" in out.lower()


def _normal_coverage_outside_bounds(rc, out, err):
    # Outside [a, b] = [0, 1] the membership is 0, so coverage must be 0.
    if rc != 0:
        return rc not in (2, 3)
    taus, covs = _column(out, 0), _column(out, 1)
    return any(c != 0.0 for t, c in zip(taus, covs) if not 0.0 <= t <= 1.0)


def _nonfinite_grid_endpoint(rc, out, err):
    return rc == 0 or "Warning" in err


def _knapsack_roundtrip_4000_items(rc, out, err):
    # The round-trip identity x = 1 - psi is pinned to 1e-10; at thousands
    # of items with a small capacity it drifts past that.
    gap = [line for line in out.splitlines() if line.startswith("# max_roundtrip_gap,")]
    return rc != 0 or not float(gap[0].split(",")[1]) <= 1e-10


def run_probes(python: str, src: str, workdir: str, timeout: float) -> dict:
    """Probe name -> 1 if the defect shows, else 0."""
    os.makedirs(workdir, exist_ok=True)
    items = os.path.join(workdir, "probe_items.csv")
    with open(items, "w", encoding="utf-8") as handle:
        handle.write("1,2\n3,4\n")
    large = os.path.join(workdir, "probe_4000_items.csv")
    rng = random.Random(4000)
    with open(large, "w", encoding="utf-8") as handle:
        for _ in range(4000):
            handle.write(f"{rng.randint(1, 10)},{rng.uniform(0.1, 10.0)!r}\n")
    probes = {
        "poisson_mean_above_700": (
            ["coverage", "--family", "poisson", "--gamma", "0.95", "--o", "800",
             "--tau-grid", "760:840:3"], _poisson_mean_above_700),
        "knapsack_capacity_nan": (
            ["knapsack", items, "--capacity", "nan"], _knapsack_capacity_nan),
        "normal_coverage_outside_bounds": (
            ["coverage", "--family", "normal", "--gamma", "0.95", "--o", "0.5",
             "--sigma", "0.3", "--a", "0", "--b", "1", "--tau-grid=-0.5:1.5:3"],
            _normal_coverage_outside_bounds),
        "nonfinite_grid_endpoint": (
            ["coverage", "--family", "poisson", "--gamma", "0.95", "--o", "3",
             "--tau-grid", "0.1:inf:2"], _nonfinite_grid_endpoint),
        "knapsack_roundtrip_4000_items": (
            ["knapsack", large, "--capacity", "220", "--mode", "roundtrip"],
            _knapsack_roundtrip_4000_items),
    }
    result = {}
    for name, (argv, judge) in probes.items():
        rc, out, err = _run(python, src, argv, timeout)
        try:
            defect = judge(rc, out, err)
        except (ValueError, IndexError):
            defect = True  # unparseable output on exit 0 is a defect too
        result[name] = int(defect)
    shutil.rmtree(workdir, ignore_errors=True)
    return result
