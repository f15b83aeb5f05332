"""One workload phase in a fresh interpreter: run ops, time them, check them.

Run by ``run.py`` as ``python -I phase.py ...``; prints one JSON record on
stdout.  Ops enter through ``fuzzyci.cli.main(argv)`` in-process, one after
another on one thread.  The phase stops after ``--ops`` ops when that is
set, else when ``--seconds`` have passed; it never starts an op after
``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _first_call_shares(tracer) -> dict:
    """Per family: first coverage() call's time over all coverage() time.

    Coverage calls are grouped by the CLI command span that made them; the
    first one in each command pays the cold threshold solves.
    """
    shares = {}
    for family in ("binomial", "poisson"):
        name = f"{family}.coverage"
        first, total, seen = 0.0, 0.0, set()
        for _, span_name, start, end, parent in tracer.spans:
            if span_name != name:
                continue
            if parent not in seen:
                seen.add(parent)
                first += end - start
            total += end - start
        shares[family] = first / total if total else 0.0
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    src = Path(args.root) / "src"
    sys.path[:0] = [str(src), str(HERE)]
    from checks import Margins, check_op
    from workloads import WORKLOADS

    from fuzzyci import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"fuzzyci imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    margins = Margins()
    ops, failures = [], []
    rss_mb = None
    start = perf_counter()
    deadline = start + args.seconds
    try:
        for op in workload.ops():
            if tracer is not None:
                tracer.op = op.index
            err = io.StringIO()
            problems = []
            t0 = perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    codes = [cli.main(list(cmd.argv)) for cmd in op.commands]
                elapsed = perf_counter() - t0
                if any(codes):
                    problems.append(f"exit codes {codes}: {err.getvalue().strip()}")
                else:
                    problems = check_op(op, margins)
            except Exception:
                elapsed = perf_counter() - t0
                problems.append(traceback.format_exc(limit=3))
            out_bytes = 0
            for cmd in op.commands:
                if os.path.exists(cmd.output):
                    out_bytes += os.path.getsize(cmd.output)
                    os.remove(cmd.output)
            rows = 0 if problems else sum(cmd.rows for cmd in op.commands)
            ops.append([elapsed, rows, not problems, out_bytes])
            if problems and len(failures) < 5:
                failures.append(f"op {op.index} ({op.label}): {problems[0]}")
            if len(ops) == workload.rss_ops:
                rss_mb = _peak_rss_mb()
            if args.ops and len(ops) >= args.ops:
                break
            if perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    record = {
        "ops": ops,
        "failures": failures,
        # A run too short to reach rss_ops reads its peak at the end.
        "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
        "rss_at_op": workload.rss_ops if rss_mb is not None else len(ops),
        "max_coverage_err": margins.max_coverage_err,
        "max_dominance_violation": margins.max_dominance_violation,
    }
    if tracer is not None:
        record["trace"] = {
            "stats": {k: [v.calls, v.s, v.self_s] for k, v in tracer.stats.items()},
            "absent": tracer.absent,
            "envelope_points": tracer.envelope_points,
            "envelope_distinct": len(tracer.envelope_keys),
            "psi_in_mass": tracer.psi_in_mass,
            "first_call_share": _first_call_shares(tracer),
            "thresholds_hit_ratio": {
                f: tracer.cache_hit_ratio(f"{f}.thresholds")
                for f in ("binomial", "poisson")
            },
            "spans": len(tracer.spans),
        }
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "t0": start, **record["trace"],
                           "span_columns": ["op", "name", "start", "end", "parent"],
                           "span_rows": tracer.spans}, handle)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
