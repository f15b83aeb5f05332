"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload el_envelope --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one after another, and prints per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to a third of the metric's bound in
``BENCHMARK.json``.  ``--record`` also writes every result line, the
summary and the machine (core count, Python and numpy versions) to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])
    info["wall_s"] = time.perf_counter() - started
    return info, json.loads(lines[-1])


def summarize(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "workloads": {}}
    for workload in workloads:
        details, results = [], []
        for seed in parse_seeds(args.seeds):
            info, result = run_once(workload, seed, args.seconds, args.trace)
            details.append(info)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={info['wall_s']:.1f}s", flush=True)
        summary = summarize(results, bounds)
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  {flag}", flush=True)
        record["workloads"][workload] = {"details": details, "results": results,
                                         "summary": summary}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(),
            "cpu": _cpu_model()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
