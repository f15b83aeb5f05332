"""Fractional knapsack solver and its mapping onto the measure problem.

The fractional relaxation admits the classic greedy solution: sort items by
value/weight ratio, take whole items while they fit, then a fraction of the
first group that does not.  Items tied in ratio form a single group and share
the same fraction.  The same selection arises from the optimal-membership
construction in :mod:`fuzzyci.core` applied to the normalized weight and
value measures, via ``x_i = 1 - psi_i``; :func:`to_measure_problem` builds
that correspondence.  A 0/1 dynamic-programming solver is included as a
comparison bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DiscreteMeasure

__all__ = [
    "KnapsackInstance",
    "KnapsackSolution",
    "solve_fractional",
    "solve_01_dp",
    "to_measure_problem",
]

_RATIO_RTOL = 1e-12
_DP_BUDGET = 10**7


@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[float, ...]
    values: tuple[float, ...]
    capacity: float

    def __post_init__(self):
        if len(self.weights) != len(self.values):
            raise ValueError("weights and values must have equal length")
        if len(self.weights) == 0:
            raise ValueError("instance must contain at least one item")
        if not all(map(math.isfinite, (*self.weights, *self.values, self.capacity))):
            raise ValueError("weights, values and capacity must be finite")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("weights must be positive")
        if any(v < 0.0 for v in self.values):
            raise ValueError("values must be nonnegative")
        if self.capacity < 0.0:
            raise ValueError("capacity must be nonnegative")


@dataclass(frozen=True)
class KnapsackSolution:
    """Fractional selection with its Dantzig partition.

    ``partition`` labels each item A (fully taken), B (left out) or C
    (member of the single fractional group).
    """

    x: tuple[float, ...]
    total_value: float
    total_weight: float
    partition: tuple[str, ...]


def _ratio_groups(instance: KnapsackInstance):
    """Indices grouped by value/weight ratio, best ratio first.

    Ratios within relative 1e-12 belong to one group; index order breaks
    ties inside a group.
    """
    ratios = [v / w for v, w in zip(instance.values, instance.weights)]
    order = sorted(range(len(ratios)), key=lambda i: (-ratios[i], i))
    groups: list[list[int]] = []
    for i in order:
        if groups:
            r_head = ratios[groups[-1][0]]
            if abs(ratios[i] - r_head) <= _RATIO_RTOL * max(abs(r_head), abs(ratios[i])):
                groups[-1].append(i)
                continue
        groups.append([i])
    return groups


def solve_fractional(instance: KnapsackInstance) -> KnapsackSolution:
    """Maximize total value over selections x in [0,1]^n within capacity.

    At most one ratio group ends up fractional, and only when the capacity
    is not exactly exhausted by the fully taken items.
    """
    n = len(instance.weights)
    x = [0.0] * n
    labels = ["B"] * n
    remaining = instance.capacity
    for group in _ratio_groups(instance):
        group_weight = math.fsum(instance.weights[i] for i in group)
        if remaining <= 0.0:
            break
        if group_weight <= remaining:
            for i in group:
                x[i] = 1.0
                labels[i] = "A"
            remaining -= group_weight
        else:
            fraction = remaining / group_weight
            for i in group:
                x[i] = fraction
                labels[i] = "C"
            remaining = 0.0
    total_value = math.fsum(v * xi for v, xi in zip(instance.values, x))
    total_weight = math.fsum(w * xi for w, xi in zip(instance.weights, x))
    return KnapsackSolution(
        x=tuple(x),
        total_value=total_value,
        total_weight=total_weight,
        partition=tuple(labels),
    )


def solve_01_dp(instance: KnapsackInstance) -> tuple[tuple[int, ...], float]:
    """Exact 0/1 optimum for integer weights and capacity.

    Returns the selected index set and its value.  Requires
    ``n * capacity <= 10^7`` table cells.
    """
    weights = []
    for w in instance.weights:
        if w != int(w):
            raise ValueError("0/1 solver requires integer weights")
        weights.append(int(w))
    if instance.capacity != int(instance.capacity):
        raise ValueError("0/1 solver requires an integer capacity")
    capacity = int(instance.capacity)
    n = len(weights)
    if n * (capacity + 1) > _DP_BUDGET:
        raise ValueError(
            f"dynamic program needs {n * (capacity + 1)} cells, budget is {_DP_BUDGET}"
        )

    best = [0.0] * (capacity + 1)
    taken = [bytearray(capacity + 1) for _ in range(n)]
    for i in range(n):
        w, v = weights[i], instance.values[i]
        row = taken[i]
        for c in range(capacity, w - 1, -1):
            candidate = best[c - w] + v
            if candidate > best[c]:
                best[c] = candidate
                row[c] = 1
    subset = []
    c = capacity
    for i in range(n - 1, -1, -1):
        if taken[i][c]:
            subset.append(i)
            c -= weights[i]
    subset.reverse()
    return tuple(subset), best[capacity]


def to_measure_problem(
    instance: KnapsackInstance,
) -> tuple[DiscreteMeasure, DiscreteMeasure, float]:
    """Normalize an instance into the equivalent measure problem.

    Weights become the constraint measure, values the objective measure,
    and the coverage level is the weight fraction that must stay out of the
    knapsack.  The optimal membership psi then satisfies ``x_i = 1 - psi_i``
    item-wise against :func:`solve_fractional`.
    """
    total_weight = math.fsum(instance.weights)
    total_value = math.fsum(instance.values)
    if not 0.0 < instance.capacity < total_weight:
        raise ValueError(
            "capacity must lie strictly between 0 and the total weight "
            f"({total_weight}), got {instance.capacity}"
        )
    if total_value <= 0.0:
        raise ValueError("total value must be positive")
    ids = tuple(range(len(instance.weights)))
    mu = DiscreteMeasure.from_weights(ids, instance.weights)
    nu = DiscreteMeasure.from_weights(ids, instance.values)
    gamma = 1.0 - instance.capacity / total_weight
    return mu, nu, gamma
