"""Depth-first subset search engines of the solver.

The skeleton listing serves the solver; the exact searches serve the
low-profit solver and the brute-force oracle.

The engines walk elements in a fixed order (ascending ids, or heaviest first
for the maximum-weight search) and rely on downward closure of the
feasible-set family: once a partial set is infeasible or over budget,
no superset can recover, so the whole branch is pruned.

Each engine's recursive ``walk`` closure refers to itself, so the engine
unbinds it when the search ends.  Otherwise every search would leave a
reference cycle, cursor and buffers included, for the cyclic garbage
collector, and the process's peak memory would follow the collector's
schedule.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .core import BCInstance, CapExceededError


def max_profit_solution_ids(instance: BCInstance) -> frozenset[int]:
    """Exact maximum-profit feasible set within the budget.

    Ties keep the first optimum found in ascending-id, include-first order.
    """
    ids = instance.sorted_ids()
    return _branch_and_bound(instance, ids, [instance.profit_of[i] for i in ids],
                             [instance.cost_of[i] for i in ids], instance.budget)


def max_weight_feasible_ids(instance: BCInstance, weight: Mapping[int, int]) -> frozenset[int]:
    """Exact maximum-weight feasible set, ignoring the budget.

    Only strictly positive weights can help (the family is downward closed),
    so the search is confined to them, heaviest first.  Weights are
    integers; rational multipliers are cleared to a common denominator by
    the caller.
    """
    ids = sorted((i for i in instance.cost_of if weight[i] > 0),
                 key=lambda i: (-weight[i], i))
    return _branch_and_bound(instance, ids, [weight[i] for i in ids], [0] * len(ids), 0)


def _branch_and_bound(instance: BCInstance, ids: list[int], values: list[int],
                      costs: list[int], budget: int) -> frozenset[int]:
    """Maximum-value feasible subset of ``ids`` whose cost fits ``budget``.

    Include/exclude per id in the given order, pruned by suffix-value
    bounds; values are non-negative.  Ties keep the first optimum found in
    include-first order, the empty set when nothing has positive value.
    """
    n = len(ids)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    cursor = instance.constraint.cursor()
    best_ids: list[int] = []
    best_value = 0
    chosen: list[int] = []

    def walk(idx: int, cost: int, value: int) -> None:
        nonlocal best_value, best_ids
        if value > best_value:
            best_value = value
            best_ids = list(chosen)
        if idx == n or value + suffix[idx] <= best_value:
            return
        eid = ids[idx]
        if cost + costs[idx] <= budget and cursor.try_push(eid):
            chosen.append(eid)
            walk(idx + 1, cost + costs[idx], value + values[idx])
            chosen.pop()
            cursor.pop()
        walk(idx + 1, cost, value)

    try:
        walk(0, 0, 0)
    finally:
        del walk
    return frozenset(best_ids)


def feasible_subsets_within_budget(
    instance: BCInstance,
    pool: list[int],
    max_size: int,
    cap: int | None = None,
    keep: Callable[[list[int], int], bool] | None = None,
) -> list[tuple[int, ...]]:
    """All feasible, budget-respecting subsets of ``pool`` up to ``max_size``.

    Returned sorted by (size, ids) so callers can process candidates in
    canonical size-then-lexicographic order.  Raises CapExceededError when
    more than ``cap`` subsets would be collected.

    ``keep(chosen, j)``, when given, is asked after each successful push,
    with ``chosen`` the ids of the grown subset (a list the walk reuses) and
    ``j`` the position of its last id in the sorted pool.  When it answers
    false, that subset and every superset grown from it are left out.
    """
    pool = sorted(pool)
    n = len(pool)
    costs = [instance.cost_of[i] for i in pool]
    cursor = instance.constraint.cursor()
    budget = instance.budget
    out: list[tuple[int, ...]] = [()]
    chosen: list[int] = []

    def walk(idx: int, cost: int) -> None:
        if len(chosen) == max_size:
            return
        for j in range(idx, n):
            nc = cost + costs[j]
            if nc > budget or not cursor.try_push(pool[j]):
                continue
            chosen.append(pool[j])
            if keep is not None and not keep(chosen, j):
                chosen.pop()
                cursor.pop()
                continue
            out.append(tuple(chosen))
            if cap is not None and len(out) > cap:
                raise CapExceededError(
                    f"subset enumeration exceeded the configured cap of {cap}")
            walk(j + 1, nc)
            chosen.pop()
            cursor.pop()

    try:
        if max_size > 0:
            walk(0, 0)
    finally:
        del walk
    out.sort(key=lambda t: (len(t), t))
    return out

