"""fuzzyci benchmark: one seeded workload per invocation, timed or traced.

    python3 perfbench/run.py --workload el_envelope --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-module metrics of a traced replay next to an untraced replay of the
same ops (their ratio is the tracing overhead).  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it carries details: edge probes, failures, sample counts.
Spans of a traced run go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from probes import run_probes  # noqa: E402
from tracer import CACHES, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up samples taken before and again after the timed phase, so that
# their median spans the run rather than one moment of machine load.
SETUP_SAMPLES = 4
TAIL_PERCENTILE = 80
# Whole-invocation budget: one run must end within 180 s.
BUDGET_S = 170.0

_SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import fuzzyci.cli; fuzzyci.cli.build_parser(); "
    "print(time.perf_counter() - t)"
)


def setup_samples(python: str) -> list[float]:
    """Times to import fuzzyci and build the CLI parser, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([python, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(float(proc.stdout))
    return samples


def run_phase(python, args, tag, timeout, ops=0, traced=False, trace_file=None):
    cmd = [python, "-I", str(HERE / "phase.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--ops", str(ops),
           "--traced", str(int(traced)),
           "--workdir", str(OUT / f"work-{os.getpid()}-{tag}")]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} phase failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def percentile(values, p):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(record, setup_s, cycle_len):
    # Whole cycles only: a trailing partial cycle is a random subset of the
    # size ladder and would move the quantiles from one run to the next.
    ops = record["ops"]
    ops = ops[:len(ops) // cycle_len * cycle_len] or ops
    times = [op[0] for op in ops]
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_tail_s": _metric(percentile(times, TAIL_PERCENTILE), "s"),
        "rows_per_s": _metric(sum(op[1] for op in ops) / sum(times), "rows/s"),
        "peak_rss_mb": _metric(record["peak_rss_mb"], "MB"),
    }


def absent_stats(absent):
    """Stat names all of whose wrapped functions are missing."""
    sources = {}
    for name, module, attr, _ in TARGETS:
        sources.setdefault(name, []).append(f"{module}.{attr}")
    for name, module, attr in CACHES:
        sources[name] = [f"{module}.{attr}"]
    return sorted(n for n, s in sources.items() if all(x in absent for x in s))


def per_layer(untraced, traced, probes):
    t = traced["trace"]
    ops = traced["ops"]
    n = len(ops)
    stats = t["stats"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = _metric(value, unit)

    def calls(name):
        return stats[name][0] / n

    def incl(name):
        return stats[name][1] / n

    def self_s(name):
        return stats[name][2] / n

    for name in ("reg_inc_beta", "inv_reg_inc_beta", "chisq_quantile", "pois_cdf"):
        put(f"specfun.{name}.calls", calls(f"specfun.{name}"), "count/op")
        put(f"specfun.{name}.s", incl(f"specfun.{name}"), "s/op")
    for fam in ("binomial", "poisson"):
        put(f"{fam}.psi_o.calls", calls(f"{fam}.psi_o"), "count/op")
        put(f"{fam}.psi_o.self_s", self_s(f"{fam}.psi_o"), "s/op")
        put(f"{fam}.coverage.calls", calls(f"{fam}.coverage"), "count/op")
        put(f"{fam}.coverage.self_s", self_s(f"{fam}.coverage"), "s/op")
        put(f"{fam}.coverage.first_call_share", t["first_call_share"][fam], "ratio")
        put(f"{fam}.thresholds_hit_ratio", t["thresholds_hit_ratio"][fam] or 0.0, "ratio")
    put("poisson.support_bound.calls", calls("poisson.support_bound"), "count/op")
    put("normal.psi.calls", calls("normal.psi"), "count/op")
    put("normal.el_closed.s", incl("normal.el_closed"), "s/op")

    mass_calls = stats["length.interval_mass"][0]
    op_time = sum(op[0] for op in ops)
    put("length.interval_mass.calls", calls("length.interval_mass"), "count/op")
    put("length.interval_mass.self_s", self_s("length.interval_mass"), "s/op")
    put("length.psi_per_mass", t["psi_in_mass"] / mass_calls if mass_calls else 0.0,
        "count")
    put("length.envelope.s", incl("length.envelope"), "s/op")
    put("length.envelope_share", stats["length.envelope"][1] / op_time, "ratio")
    points = t["envelope_points"]
    put("length.envelope_distinct_ratio",
        t["envelope_distinct"] / points if points else 0.0, "ratio")

    put("core.construct_psi_star.calls", calls("core.construct_psi_star"), "count/op")
    put("core.construct_psi_star.s", incl("core.construct_psi_star"), "s/op")
    put("knapsack.solve_fractional.s", incl("knapsack.solve_fractional"), "s/op")
    put("knapsack.solve_01_dp.s", incl("knapsack.solve_01_dp"), "s/op")

    put("cli.self_s", self_s("cli.main") + incl("cli.emit"), "s/op")
    put("cli.emit.s", incl("cli.emit"), "s/op")
    put("cli.emit.bytes", sum(op[3] for op in ops) / n, "B/op")

    coverage_err = max(untraced["max_coverage_err"], traced["max_coverage_err"])
    dominance = [r["max_dominance_violation"] for r in (untraced, traced)
                 if r["max_dominance_violation"] is not None]
    put("check.max_coverage_err", coverage_err, "abs")
    put("check.max_dominance_violation", max(dominance) if dominance else 0.0, "abs")

    for name, defect in probes.items():
        put(f"probe.{name}", defect, "count")

    matched = min(len(untraced["ops"]), n)
    p50_plain = statistics.median(op[0] for op in untraced["ops"][:matched])
    p50_traced = statistics.median(op[0] for op in ops[:matched])
    put("trace.overhead_ratio", p50_traced / p50_plain, "ratio")
    put("trace.absent", len(t["absent"]), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "fuzzyci" / "cli.py").is_file():
        print(f"error: no fuzzyci sources under {SRC}", file=sys.stderr)
        return 2
    # Cap BLAS/OpenMP pools at the core count; the load is one thread anyway.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    OUT.mkdir(exist_ok=True)
    python = sys.executable

    probes = run_probes(python, str(SRC), str(OUT / f"work-{os.getpid()}-probes"),
                        timeout=60)

    def remaining():
        return BUDGET_S - (perf_counter() - started)

    workload = WORKLOADS[args.workload]
    if args.trace:
        untraced = run_phase(python, args, "untraced", remaining(),
                             ops=workload.trace_ops)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        traced = run_phase(python, args, "traced", remaining(),
                           ops=workload.trace_ops, traced=True, trace_file=trace_file)
        records = [untraced, traced]
        metrics = per_layer(untraced, traced, probes)
    else:
        setup = setup_samples(python)
        records = [run_phase(python, args, "timed", remaining())]
        setup += setup_samples(python)
        metrics = end_to_end(records[0], statistics.median(setup), workload.cycle_len)

    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(1 for r in records for op in r["ops"] if not op[2])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "tail_percentile": TAIL_PERCENTILE,
        "samples": [len(r["ops"]) for r in records],
        "fail_ratio": failed / attempted,
        "failures": [f for r in records for f in r["failures"]],
        "probes": probes,
    }
    if not args.trace:
        # Ops that entered the timing metrics: the whole cycles.
        details["timed_ops"] = len(records[0]["ops"]) // workload.cycle_len * workload.cycle_len
        details["rss_at_op"] = records[0]["rss_at_op"]
    else:
        details["absent"] = records[1]["trace"]["absent"]
        details["absent_stats"] = absent_stats(details["absent"])
        details["spans"] = records[1]["trace"]["spans"]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
