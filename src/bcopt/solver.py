"""The approximation scheme: enumerate profitable skeletons, extend, keep the best.

``solve`` runs the scheme at eps' = eps/8, which turns its (1 - 8 eps')
guarantee into the advertised (1 - eps).  It walks the feasible subsets F of
the representative set (up to cardinality floor(1/eps')) in one depth-first
pass, solves the residual low-profit instance next to each F, and returns the
most profitable extended solution, on a tie the one whose F has the smaller
(len(F), sorted ids) key.  The solution whose profit alpha estimates the
optimum from below is the first incumbent and loses every tie, so the answer
is never worse than it.  One exact-integer bound keeps most of the work from
being done: the walk leaves out every subtree of skeletons that cannot beat
the incumbent, and skips the residual of a skeleton whose bound at the last
rep index cannot.  On a matching the bound, the walk and every residual
read one table of vertex masks, numbered once per matching.
``solve_detailed`` also returns the run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import BCInstance, Epsilon, Solution, checked_int, preprocess_discard
from .classes import small_profit_pool
from .constraints import MatroidIntersection, conflict_masks, residual_constraint, size_cap
from .enumeration import feasible_subsets_within_budget
from .lagrange import GAMMA, approx_opt, non_profitable_solver
from .repset import rep_set

DEFAULT_SUBSET_CAP = 10**7


@dataclass
class SolveStats:
    """Run metadata surfaced through the CLI and the benchmark harness.

    ``enumerated`` counts the skeletons the walk visited and ``pruned`` those
    whose residual the bound skipped; ``enumerated - pruned`` residuals were
    solved.  ``incumbent_profits`` follows the incumbent, from alpha's
    solution on; a tie won by a smaller skeleton key repeats a profit.
    """

    alpha: int = 0
    gamma: int = GAMMA
    rep_size: int = 0
    enumerated: int = 0
    pruned: int = 0
    incumbent_profits: list[int] = field(default_factory=list)
    ms_total: float = 0.0


def solve(instance: BCInstance, epsilon: Epsilon, *,
          subset_cap: int = DEFAULT_SUBSET_CAP) -> Solution:
    """Public entry point: profit within (1 - eps) of the optimum."""
    return solve_detailed(instance, epsilon, subset_cap=subset_cap)[0]


def solve_detailed(instance: BCInstance, epsilon: Epsilon, *,
                   subset_cap: int = DEFAULT_SUBSET_CAP) -> tuple[Solution, SolveStats]:
    """``solve`` plus its run metadata.

    More than ``subset_cap`` visited skeletons raise
    :class:`~bcopt.core.CapExceededError`.  The other exponential stage, the
    exchange-set search, has a fixed cap of
    :data:`~bcopt.exchange.BRANCH_BUDGET` branches.  alpha is always the
    Lagrangian estimate (declared gamma :data:`~bcopt.lagrange.GAMMA` = 4).

    The winner is stated as a rule, not by visiting order: maximum profit,
    then the smaller key (len(F), sorted ids) of the extension's skeleton F;
    alpha's solution, the first incumbent, loses every tie.  One depth-first
    walk takes the representative set by descending profit, then id, and
    tests each skeleton F, the empty one first, against the incumbent under
    that rule: F's subtree bound (see :class:`SkeletonBound`) decides whether
    F and its subtree are visited, its leaf bound whether its residual is
    solved, and the extension's profit whether it replaces the incumbent.
    At equal value F's key decides; no skeleton grown from F has a smaller
    key, so no prune can change the winner.

    When the walk leaves out F's child at rep index k < leaf, and F's
    residual was skipped, it tests F's bound at k the same way, with F's
    key, and on a failure takes no later child of F.  (Had F's leaf bound
    won, so would the bound at k, which is at least as large.)  That bound
    covers every later child's subtree bound (see :class:`SkeletonBound`),
    and each child's key is larger than F's, so every child it cuts would
    have failed its own test against the same or a better incumbent: the
    visited skeletons, and with them the stats, are those of the walk
    without the cut.
    """
    checked_int(subset_cap, "subset cap")
    epsilon = epsilon.scaled_down(8)  # the scheme's own eps'
    start = time.perf_counter()
    working = preprocess_discard(instance)
    stats = SolveStats()

    best = approx_opt(working)
    alpha = best.total_profit
    rep = rep_set(working, epsilon, alpha=alpha)
    stats.alpha = alpha
    stats.rep_size = rep.size

    pool = small_profit_pool(working, alpha, epsilon)
    rep_ids = sorted(rep.elements, key=lambda i: (-working.profit_of[i], i))
    bound = SkeletonBound(working, pool, rep_ids)
    stats.incumbent_profits = [alpha]
    best_profit, best_key = alpha, (float("inf"),)  # alpha's solution loses every tie

    def can_win(value: int, chosen: list[int]) -> bool:
        if value != best_profit:
            return value > best_profit
        return (len(chosen), tuple(sorted(chosen))) < best_key

    def promising(chosen: list[int], j: int) -> bool:
        return can_win(bound.bound(chosen, j), chosen)

    solved = 0

    def visit(chosen: list[int]) -> None:
        nonlocal best, best_profit, best_key, solved
        solved += 1
        skeleton = frozenset(chosen)
        residual = _build_residual(working, pool, skeleton)
        # The extension must earn more than the floor to win; an exact
        # residual search that finds nothing above it reports None.
        floor = best_profit - working.total_profit(skeleton)
        if (len(chosen), tuple(sorted(chosen))) < best_key:
            floor -= 1
        extension = non_profitable_solver(residual, floor=floor)
        if extension is None:
            return
        combined_ids = skeleton | extension.id_set
        profit = working.total_profit(combined_ids)
        if can_win(profit, chosen):
            best = Solution.build(working, combined_ids)
            best_profit, best_key = profit, (len(chosen), tuple(sorted(chosen)))
            stats.incumbent_profits.append(profit)

    stats.enumerated = len(feasible_subsets_within_budget(
        working, rep_ids, epsilon.inverse_floor(), cap=subset_cap,
        promising=promising, visit=visit))
    stats.pruned = stats.enumerated - solved

    # Re-validate against the original, unpreprocessed instance.
    final = Solution.build(instance, best.element_ids)
    stats.ms_total = (time.perf_counter() - start) * 1000.0
    return final, stats


def _build_residual(instance: BCInstance, pool: frozenset[int],
                    skeleton: frozenset[int]) -> BCInstance:
    remaining = pool - skeleton
    constraint = residual_constraint(instance.constraint, skeleton).restrict(remaining)
    # Edges incident to the skeleton are deleted by the residual matching, so
    # the element list shrinks with the constraint's ground; the dropped
    # elements could never extend the skeleton anyway.
    alive = constraint.element_ids()
    elements = tuple(e for e in instance.elements if e.id in alive)
    return BCInstance(elements, constraint, instance.budget - instance.total_cost(skeleton))


class SkeletonBound:
    """Exact-integer upper bound on the profit a skeleton can lead to.

    ``bound(F, j)`` covers every skeleton grown from F with ids of
    ``rep[j + 1:]``, in the order given, F itself included, each with any extension.  It is
    p(F) + floor(fractional knapsack) with budget B - c(F) over the
    unblocked elements of the small-profit pool and of ``rep[j + 1:]``,
    taken as one set (with the declared gamma = 4 a classed element can
    also be in the pool).  An element is blocked when it is in F or, for a
    matching, when it touches F's vertices.  For a matroid intersection
    every extension S of F has F | S independent in both matroids, so
    |S| <= r - |F| with r = min(r1, r2), its ``size_cap``, found once per
    constraint and shared with the exact searches on it; the bound is then
    the smaller of the knapsack and the r - |F| largest unblocked profits.

    At the leaf index j = len(rep) - 1 only the pool is open, so
    ``bound(F, len(rep) - 1)`` covers F's residual instance, whose elements
    are the unblocked pool: no residual solution can beat it.

    For j < k, with F | {rep[k]} a skeleton, bound(F | {rep[k]}, k) <=
    bound(F, j): forcing rep[k], which is open at j, into F's knapsack is one
    feasible point of F's relaxation, and it also takes one of F's r - |F|
    slots.

    The candidates come in the instance's
    :attr:`~bcopt.core.BCInstance.density_order`, sorted once per instance
    and shared with the Lagrangian search, zero-cost elements moved first;
    each knapsack walks them until the budget runs out.  Blocking is
    one int per call, F's masks or'ed together, which each candidate's mask
    must not meet: for a matching its vertex bits from
    :func:`~bcopt.constraints.conflict_masks`, which also block F's own
    edges (a self-loop, in no skeleton, is blocked through its vertex); for
    an intersection, whose conflict masks are zeros, each element's own bit.
    """

    def __init__(self, instance: BCInstance, pool: frozenset[int], rep):
        cons = instance.constraint
        ids = [e.id for e in instance.elements]
        self._rank = None
        if isinstance(cons, MatroidIntersection):
            self._rank = size_cap(cons, cons.element_ids())
            self._mask = {eid: 1 << k for k, eid in enumerate(ids)}
        else:
            self._mask = dict(zip(ids, conflict_masks(cons, ids)[0]))
        self._cost = instance.cost_of
        self._profit = instance.profit_of
        self._budget = instance.budget
        # An element is open at rep index j < its ``until``: its rep index,
        # or len(rep) for a pool element.
        until = {eid: i for i, eid in enumerate(rep)}
        until.update(dict.fromkeys(pool, len(until)))
        # The instance's density order, zero-cost elements first (the stable
        # sort keeps the rest in it).  The fractional knapsack depends neither
        # on how equal densities tie nor on the order of zero-cost items.
        items = [e for e in instance.density_order if e.id in until and e.profit > 0]
        items.sort(key=lambda e: e.cost > 0)
        self._order = [(e.cost, e.profit, self._mask[e.id], until[e.id]) for e in items]
        if self._rank is not None:
            # Largest profit first; how equal profits tie cannot change a sum.
            self._by_profit = sorted(((p, m, u) for _, p, m, u in self._order),
                                     reverse=True)

    def bound(self, skeleton, j: int) -> int:
        room = self._budget
        gain = 0
        blocked = 0
        for eid in skeleton:
            room -= self._cost[eid]
            gain += self._profit[eid]
            blocked |= self._mask[eid]
        value = self._knapsack(room, blocked, j)
        if self._rank is not None:
            slots = self._rank - len(skeleton)
            top = 0
            for profit, mask, until in self._by_profit:
                if slots <= 0 or top >= value:
                    break
                if j < until and not mask & blocked:
                    top += profit
                    slots -= 1
            value = min(value, top)
        return gain + value

    def _knapsack(self, room: int, blocked: int, j: int) -> int:
        """Floor of the fractional knapsack over the elements open at ``j``."""
        value = 0
        for cost, profit, mask, until in self._order:
            if j >= until or mask & blocked:
                continue
            if cost > room:
                return value + profit * room // cost
            room -= cost
            value += profit
        return value
