"""Per-module tracing from outside the program.

Wrappers replace public functions at every ``fuzzyci`` module attribute that
holds them, because callers look them up there (``binomial.reg_inc_beta`` is
the same object as ``specfun.reg_inc_beta``).  Each wrapped call pushes a
frame on one stack, so a call's self time is its duration minus the time of
the wrapped calls it made.  Layer-entry calls also leave a span (name,
start, end, parent span, op id); the hot leaf calls, about 10^5 per op, are
only counted and timed in aggregate.

A target that no longer exists is recorded as absent, never as an error:
the program may merge or rename modules without touching this file.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MODULES = ("specfun", "core", "knapsack", "binomial", "poisson", "normal",
           "length", "cli")

# (stat name, module, attribute, keeps spans).  Several functions may share
# one stat name; their counts and times add up.
TARGETS = (
    ("cli.main", "cli", "main", True),
    ("cli.emit", "cli", "emit", True),
    ("binomial.coverage", "binomial", "coverage", True),
    ("poisson.coverage", "poisson", "coverage", True),
    ("length.el_curve", "length", "el_curve", True),
    ("length.lower_bound_curve", "length", "lower_bound_curve", True),
    ("length.envelope", "length", "expected_length", True),
    ("core.construct_psi_star", "core", "construct_psi_star", True),
    ("knapsack.solve_fractional", "knapsack", "solve_fractional", True),
    ("knapsack.solve_01_dp", "knapsack", "solve_01_dp", True),
    ("knapsack.to_measure_problem", "knapsack", "to_measure_problem", True),
    ("specfun.reg_inc_beta", "specfun", "reg_inc_beta", False),
    ("specfun.inv_reg_inc_beta", "specfun", "inv_reg_inc_beta", False),
    ("specfun.chisq_quantile", "specfun", "chisq_quantile", False),
    ("specfun.pois_cdf", "specfun", "pois_cdf", False),
    ("binomial.coverage_comparison", "binomial", "agresti_coull_coverage", False),
    ("poisson.coverage_comparison", "poisson", "score_coverage", False),
    ("binomial.psi_o", "binomial", "psi_o", False),
    ("binomial.psi_comparison", "binomial", "agresti_coull_membership", False),
    ("poisson.psi_o", "poisson", "psi_o", False),
    ("poisson.psi_comparison", "poisson", "score_membership", False),
    ("poisson.support_bound", "poisson", "support_bound", False),
    ("normal.psi", "normal", "psi_o", False),
    ("normal.psi", "normal", "psi_standard", False),
    ("normal.el_closed", "normal", "el_psi_o_closed", False),
    ("normal.el_closed", "normal", "el_psi_nl_closed", False),
    ("normal.el_closed", "normal", "el_lower_bound", False),
    ("length.interval_mass", "length", "interval_mass", False),
)

# Membership evaluations, counted inside interval_mass for psi_per_mass.
PSI_STATS = ("binomial.psi_o", "binomial.psi_comparison", "poisson.psi_o",
             "poisson.psi_comparison")

# Private caches read when present: (stat name, module, attribute).
CACHES = (
    ("binomial.thresholds", "binomial", "_thresholds"),
    ("poisson.thresholds", "poisson", "_thresholds"),
)


class Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.absent = []
        self.spans = []  # [op, name, start, end, parent span index]
        self.op = -1
        self._stack = []  # [start, child time] per active wrapped call
        self._span_stack = []
        self.envelope_keys = set()
        self.envelope_points = 0
        self.psi_in_mass = 0
        self._cache_start = {}

    def install(self):
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"fuzzyci.{short}")
            except ImportError:
                continue
        everywhere = [m for m in sys.modules.values()
                      if getattr(m, "__name__", "").startswith("fuzzyci")]
        for name, short, attr, keep_span in TARGETS:
            original = getattr(modules.get(short), attr, None)
            if not callable(original):
                self.absent.append(f"{short}.{attr}")
                continue
            wrapper = self._wrap(name, original, keep_span)
            for module in everywhere:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, short, attr in CACHES:
            cache = getattr(modules.get(short), attr, None)
            if hasattr(cache, "cache_info"):
                info = cache.cache_info()
                self._cache_start[name] = (cache, info.hits, info.misses)
            else:
                self.absent.append(f"{short}.{attr}")

    def cache_hit_ratio(self, name: str):
        """Hits over lookups since install, or None when the cache is absent."""
        if name not in self._cache_start:
            return None
        cache, hits0, misses0 = self._cache_start[name]
        info = cache.cache_info()
        hits, misses = info.hits - hits0, info.misses - misses0
        return hits / (hits + misses) if hits + misses else 0.0

    def _wrap(self, name, fn, keep_span):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        span_stack = self._span_stack
        psi_stats = [self.stats[p] for p in PSI_STATS]
        is_mass = name == "length.interval_mass"
        is_envelope = name == "length.envelope"

        def wrapper(*args, **kwargs):
            if is_envelope:
                # (model label, theta, quadrature spec) names one envelope point.
                label = getattr(args[0], "label", None) if args else None
                self.envelope_keys.add((label, *args[1:], *sorted(kwargs.items())))
                self.envelope_points += 1
            if is_mass:
                psi_before = sum(p.calls for p in psi_stats)
            if keep_span:
                parent = span_stack[-1] if span_stack else None
                span_stack.append(len(spans))
                span = [self.op, name, 0.0, 0.0, parent]
                spans.append(span)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[0]
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    span_stack.pop()
                    span[2], span[3] = frame[0], end
                if is_mass:
                    self.psi_in_mass += sum(p.calls for p in psi_stats) - psi_before

        wrapper.__wrapped__ = fn
        return wrapper
