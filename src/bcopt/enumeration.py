"""Depth-first subset search engines of the solver.

The skeleton listing serves the solver; the exact searches serve the
low-profit solver and the brute-force oracle.

The engines walk elements in a fixed order (the caller's for the listing,
ascending ids for the exact search, heaviest first for the maximum-weight
search) and rely on downward closure of the feasible-set family: once a
partial set is infeasible or over budget, no superset can recover, so the
whole branch is pruned.  Each engine tests whether an id fits with the int
masks of :func:`bcopt.constraints.conflict_masks`, read per search beside
its cost list: an id whose mask meets the chosen ids' ``used`` does not
fit.  For a matching the masks are the edges' vertex bits, numbered once
per matching, and decide alone, so a matching search makes no cursor call;
for an intersection they are zeros and a feasibility cursor decides.  The
maximum-weight search also knows that no feasible set holds more than
:func:`bcopt.constraints.size_cap` elements, so a branch can gain at most
the heaviest values that fit in the slots it has left.  The exact search
can start from a floor and cut against it from the root.  The listing
takes a cap, the caller's bound test and a visitor for each wanted
subset: it leaves out every subtree the test rejects, and after a
rejected child of a parent that is not itself wanted it asks the test
once more for the parent over the later positions, which covers every
later child and its subtree, and on a rejection stops taking the
parent's children.

Each engine's recursive ``walk`` closure refers to itself, so the engine
unbinds it when the search ends.  Otherwise every search would leave a
reference cycle, cursor and buffers included, for the cyclic garbage
collector, and the process's peak memory would follow the collector's
schedule.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .constraints import conflict_masks, size_cap
from .core import BCInstance, CapExceededError


def max_profit_solution_ids(instance: BCInstance, *, floor: int = -1) -> frozenset[int] | None:
    """Exact maximum-profit feasible set within the budget.

    Ties keep the first optimum found in ascending-id, include-first order.
    The search starts from ``floor`` and returns None when no feasible set
    earns more than it; the default -1 asks for the optimum, which earns at
    least 0, so the answer is then never None.
    """
    ids = instance.sorted_ids()
    return _branch_and_bound(instance, ids, [instance.profit_of[i] for i in ids],
                             [instance.cost_of[i] for i in ids], instance.budget, len(ids),
                             floor)


def max_weight_feasible_ids(instance: BCInstance, weight: Mapping[int, int]) -> frozenset[int]:
    """Exact maximum-weight feasible set, ignoring the budget.

    Only strictly positive weights can help (the family is downward closed),
    so the search is confined to them, heaviest first, and capped by their
    :func:`~bcopt.constraints.size_cap`.  Weights are integers; rational
    multipliers are cleared to a common denominator by the caller.
    """
    ids = sorted((i for i in instance.cost_of if weight[i] > 0),
                 key=lambda i: (-weight[i], i))
    # Never None: the empty set beats the floor -1.
    return _branch_and_bound(instance, ids, [weight[i] for i in ids], [0] * len(ids), 0,
                             size_cap(instance.constraint, ids), -1)


def _branch_and_bound(instance: BCInstance, ids: list[int], values: list[int],
                      costs: list[int], budget: int, cap: int,
                      floor: int) -> frozenset[int] | None:
    """Maximum-value feasible subset of ``ids`` whose cost fits ``budget``.

    Include/exclude per id in the given order; values are non-negative.
    Ties keep the first optimum found in include-first order.  The incumbent
    starts at ``floor`` with no set; None means no set is worth more than
    ``floor``.  With ``floor = -1`` the empty set is the first incumbent, so
    the answer is the empty set when nothing has positive value.

    No feasible set may hold more than ``cap`` ids.  When ``values`` do not
    increase, a node at ``idx`` with k ids chosen can gain at most
    ``values[idx:idx + cap - k]``, the heaviest values still open; with
    ``cap = len(ids)`` this is the whole suffix, which bounds any order.
    A node whose bound cannot beat the incumbent is cut.  The incumbent is
    replaced only on a strict gain, so a cut subtree holds no set that would
    have replaced it, and the walk meets the same incumbents in the same
    order as with no cut at all, less those at or below ``floor``.  In
    particular every ancestor of the first optimum in include-first order
    has a bound of at least that optimum, above the incumbent before it is
    reached, so when the optimum beats ``floor`` it is reached and returned.
    """
    n = len(ids)
    cap = min(cap, n)
    # suffix[i] is the sum of values[i:]; the padding past n makes
    # suffix[idx] - suffix[idx + slots] the sum of the next ``slots`` values.
    suffix = [0] * (n + cap + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    masks, start, cursor = conflict_masks(instance.constraint, ids)
    best_ids: list[int] | None = None
    best_value = floor
    chosen: list[int] = []

    def walk(idx: int, cost: int, value: int, slots: int, used: int) -> None:
        nonlocal best_value, best_ids
        if value > best_value:
            best_value = value
            best_ids = list(chosen)
        if idx == n or value + suffix[idx] - suffix[idx + slots] <= best_value:
            return
        eid, m = ids[idx], masks[idx]
        if (cost + costs[idx] <= budget and not m & used
                and (cursor is None or cursor.try_push(eid))):
            chosen.append(eid)
            walk(idx + 1, cost + costs[idx], value + values[idx], slots - 1, used | m)
            chosen.pop()
            if cursor is not None:
                cursor.pop()
        walk(idx + 1, cost, value, slots, used)

    try:
        walk(0, 0, 0, cap, start)
    finally:
        del walk
    return None if best_ids is None else frozenset(best_ids)


def feasible_subsets_within_budget(
    instance: BCInstance,
    pool: list[int],
    max_size: int,
    cap: int,
    promising: Callable[[list[int], int], bool],
    visit: Callable[[list[int]], None],
) -> list[tuple[int, ...]]:
    """Feasible, budget-respecting subsets of ``pool`` up to ``max_size``.

    The walk takes ``pool`` in the caller's order and lists the subsets in
    depth-first preorder: the empty set first, each subset before those grown
    from it, a subset's ids in pool order.  Raises CapExceededError when more
    than ``cap`` subsets would be listed.

    ``promising(chosen, j)`` says whether any subset grown from ``chosen``
    (a list the walk reuses) with ids of ``pool[j + 1:]``, ``chosen`` itself
    included, is still wanted; at the last position it says whether
    ``chosen`` itself is.  The walk asks it of each subset as it is reached,
    with ``j`` the position of its last id, -1 for the empty set; on false,
    that subset and every superset grown from it are left out.  Otherwise
    the subset is listed, and ``visit(chosen)`` is called on it if it is
    itself wanted.  When the walk leaves out the child that adds ``pool[k]``
    to a subset F that is not itself wanted, and ``pool`` goes on past
    ``k``, it asks ``promising`` of F at ``k``, which covers F's later
    children and their subtrees; on false, it stops taking
    F's children.  For an F that is itself wanted that answer was true when
    F was listed, so the walk does not ask.
    """
    n = len(pool)
    costs = [instance.cost_of[i] for i in pool]
    masks, start, cursor = conflict_masks(instance.constraint, pool)
    budget = instance.budget
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(j: int, cost: int, used: int) -> bool:
        if not promising(chosen, j):
            return False
        out.append(tuple(chosen))
        if len(out) > cap:
            raise CapExceededError(f"subset enumeration exceeded the configured cap of {cap}")
        wanted = j == n - 1 or promising(chosen, n - 1)
        if wanted:
            visit(chosen)
        if len(chosen) == max_size:
            return True
        for k in range(j + 1, n):
            nc = cost + costs[k]
            eid, m = pool[k], masks[k]
            if nc > budget or m & used or not (cursor is None or cursor.try_push(eid)):
                continue
            chosen.append(eid)
            kept = walk(k, nc, used | m)
            chosen.pop()
            if cursor is not None:
                cursor.pop()
            if not (kept or wanted or k + 1 == n or promising(chosen, k)):
                break
        return True

    try:
        walk(-1, 0, start)
    finally:
        del walk
    return out
