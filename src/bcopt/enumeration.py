"""Depth-first subset search engines of the solver.

The skeleton listing serves the solver; the exact searches serve the
low-profit solver and the brute-force oracle.

The engines walk elements in a fixed order (the caller's for the listing,
ascending ids for the exact search, heaviest first for the maximum-weight
search) and rely on downward closure of the feasible-set family: once a
partial set is infeasible or over budget, no superset can recover, so the
whole branch is pruned.  The maximum-weight search also knows that no
feasible set holds more than :func:`bcopt.constraints.size_cap` elements,
so a branch can gain at most the heaviest values that fit in the slots it
has left.

Each engine's recursive ``walk`` closure refers to itself, so the engine
unbinds it when the search ends.  Otherwise every search would leave a
reference cycle, cursor and buffers included, for the cyclic garbage
collector, and the process's peak memory would follow the collector's
schedule.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .constraints import size_cap
from .core import BCInstance, CapExceededError


def max_profit_solution_ids(instance: BCInstance) -> frozenset[int]:
    """Exact maximum-profit feasible set within the budget.

    Ties keep the first optimum found in ascending-id, include-first order.
    """
    ids = instance.sorted_ids()
    return _branch_and_bound(instance, ids, [instance.profit_of[i] for i in ids],
                             [instance.cost_of[i] for i in ids], instance.budget, len(ids))


def max_weight_feasible_ids(instance: BCInstance, weight: Mapping[int, int]) -> frozenset[int]:
    """Exact maximum-weight feasible set, ignoring the budget.

    Only strictly positive weights can help (the family is downward closed),
    so the search is confined to them, heaviest first, and capped by their
    :func:`~bcopt.constraints.size_cap`.  Weights are integers; rational
    multipliers are cleared to a common denominator by the caller.
    """
    ids = sorted((i for i in instance.cost_of if weight[i] > 0),
                 key=lambda i: (-weight[i], i))
    return _branch_and_bound(instance, ids, [weight[i] for i in ids], [0] * len(ids), 0,
                             size_cap(instance.constraint, ids))


def _branch_and_bound(instance: BCInstance, ids: list[int], values: list[int],
                      costs: list[int], budget: int, cap: int) -> frozenset[int]:
    """Maximum-value feasible subset of ``ids`` whose cost fits ``budget``.

    Include/exclude per id in the given order; values are non-negative.
    Ties keep the first optimum found in include-first order, the empty set
    when nothing has positive value.

    No feasible set may hold more than ``cap`` ids.  When ``values`` do not
    increase, a node at ``idx`` with k ids chosen can gain at most
    ``values[idx:idx + cap - k]``, the heaviest values still open; with
    ``cap = len(ids)`` this is the whole suffix, which bounds any order.
    A node whose bound cannot beat the incumbent is cut.  The incumbent is
    replaced only on a strict gain, so a cut subtree holds no set that would
    have replaced it, and the walk meets the same incumbents in the same
    order as with no cut at all.  In particular every ancestor of the first
    optimum in include-first order has a bound of at least that optimum,
    above the incumbent before it is reached, so it is reached and returned.
    """
    n = len(ids)
    cap = min(cap, n)
    # suffix[i] is the sum of values[i:]; the padding past n makes
    # suffix[idx] - suffix[idx + slots] the sum of the next ``slots`` values.
    suffix = [0] * (n + cap + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    cursor = instance.constraint.cursor()
    best_ids: list[int] = []
    best_value = 0
    chosen: list[int] = []

    def walk(idx: int, cost: int, value: int, slots: int) -> None:
        nonlocal best_value, best_ids
        if value > best_value:
            best_value = value
            best_ids = list(chosen)
        if idx == n or value + suffix[idx] - suffix[idx + slots] <= best_value:
            return
        eid = ids[idx]
        if cost + costs[idx] <= budget and cursor.try_push(eid):
            chosen.append(eid)
            walk(idx + 1, cost + costs[idx], value + values[idx], slots - 1)
            chosen.pop()
            cursor.pop()
        walk(idx + 1, cost, value, slots)

    try:
        walk(0, 0, 0, cap)
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
    """Feasible, budget-respecting subsets of ``pool`` up to ``max_size``.

    The walk takes ``pool`` in the caller's order and lists the subsets in
    depth-first preorder: the empty set first, each subset before those grown
    from it, a subset's ids in pool order.  Raises CapExceededError when more
    than ``cap`` subsets would be listed.

    ``keep(chosen, j)``, when given, is asked of each subset as it is reached,
    with ``chosen`` its ids (a list the walk reuses) and ``j`` the position of
    its last id in ``pool``, -1 for the empty set.  When it answers false,
    that subset and every superset grown from it are left out.
    """
    n = len(pool)
    costs = [instance.cost_of[i] for i in pool]
    cursor = instance.constraint.cursor()
    budget = instance.budget
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(j: int, cost: int) -> None:
        if keep is not None and not keep(chosen, j):
            return
        out.append(tuple(chosen))
        if cap is not None and len(out) > cap:
            raise CapExceededError(f"subset enumeration exceeded the configured cap of {cap}")
        if len(chosen) == max_size:
            return
        for k in range(j + 1, n):
            nc = cost + costs[k]
            if nc > budget or not cursor.try_push(pool[k]):
                continue
            chosen.append(pool[k])
            walk(k, nc)
            chosen.pop()
            cursor.pop()

    try:
        walk(-1, 0)
    finally:
        del walk
    return out
