"""The approximation scheme: enumerate profitable skeletons, extend, keep the best.

``solve`` runs the scheme at eps' = eps/8, which turns its (1 - 8 eps')
guarantee into the advertised (1 - eps).  It enumerates the feasible subsets
F of the representative set (up to cardinality floor(1/eps')), solves the
residual low-profit instance next to each F, and returns the most profitable
extended solution.  The solution whose profit alpha estimates the optimum
from below is the first incumbent, so the answer is never worse than it.
One exact-integer bound keeps most of the work from being done: the listing
leaves out every subtree of skeletons whose bound is below alpha, and a
listed skeleton whose bound at the last rep index cannot beat the incumbent
is skipped before its residual is built.
``solve_detailed`` also returns the run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    BCInstance, Epsilon, InfeasibleSetError, Solution, is_solution, preprocess_discard, ratio_key,
)
from .classes import small_profit_pool
from .constraints import Matching, MatroidIntersection, residual_constraint, size_cap
from .enumeration import feasible_subsets_within_budget
from .exchange import DEFAULT_BRANCH_BUDGET
from .lagrange import approx_opt, declared_gamma, non_profitable_solver
from .repset import rep_set

DEFAULT_SUBSET_CAP = 10**7


@dataclass(frozen=True)
class SolveConfig:
    """How ``solve`` estimates alpha, and the caps that stop its exponential stages.

    ``alpha_mode`` is ``"lagrangian"`` (the default, declared gamma = 4) or
    ``"exact"`` (brute force, gamma = 2).  More than ``subset_cap`` listed
    skeletons, or more than ``branch_budget`` branches of one exchange-set
    search, raise :class:`~bcopt.core.CapExceededError`.
    """

    alpha_mode: str = "lagrangian"
    subset_cap: int = DEFAULT_SUBSET_CAP
    branch_budget: int = DEFAULT_BRANCH_BUDGET


@dataclass
class SolveStats:
    """Run metadata surfaced through the CLI and the benchmark harness.

    ``enumerated`` counts the listed skeletons and ``pruned`` those of them
    skipped by the bound; ``enumerated - pruned`` residuals were solved.
    ``incumbent_profits`` follows the incumbent, from alpha's solution on.
    """

    alpha: int = 0
    gamma: Fraction = Fraction(2)
    rep_size: int = 0
    enumerated: int = 0
    pruned: int = 0
    incumbent_profits: list[int] = field(default_factory=list)
    ms_total: float = 0.0


def residual_instance(instance: BCInstance, alpha: int, epsilon: Epsilon,
                      skeleton) -> BCInstance:
    """Residual instance of a skeleton F: small-profit pool, contracted constraint.

    Its elements are the small-profit pool minus F, its constraint the
    parent's with F committed, and its budget what F left over.  F must be a
    solution of the parent instance, so that budget is never negative.
    """
    skeleton = frozenset(skeleton)
    if not is_solution(instance, skeleton):
        raise InfeasibleSetError(f"skeleton {sorted(skeleton)} is not a solution")
    pool = small_profit_pool(instance, alpha, epsilon)
    return _build_residual(instance, pool, skeleton)


def solve(instance: BCInstance, epsilon: Epsilon, config: SolveConfig | None = None) -> Solution:
    """Public entry point: profit within (1 - eps) of the optimum."""
    return solve_detailed(instance, epsilon, config)[0]


def solve_detailed(instance: BCInstance, epsilon: Epsilon,
                   config: SolveConfig | None = None) -> tuple[Solution, SolveStats]:
    """``solve`` plus its run metadata.

    The answer is the better of alpha's solution and the best extension,
    the extension on a tie.  The best extension is the one of maximum
    profit; among equal profits, the one whose skeleton F comes first in
    (len(F), F) order.  Skeletons are visited in that order and alpha's
    solution is the first incumbent; an extension replaces the incumbent
    when its profit beats a threshold, max(alpha - 1, 0) at first and then
    the incumbent's own profit.  A skeleton whose bound (see
    :class:`SkeletonBound`) is at most the threshold cannot lead to the
    answer, so it is left out of the listing, with its whole subtree, or
    skipped before its residual is built, without changing the result.
    """
    epsilon = epsilon.scaled_down(8)  # the scheme's own eps'
    config = config or SolveConfig()
    start = time.perf_counter()
    working = preprocess_discard(instance)
    stats = SolveStats(gamma=declared_gamma(config.alpha_mode))

    best = approx_opt(working, mode=config.alpha_mode)
    alpha = best.total_profit
    rep = rep_set(working, epsilon, config.alpha_mode,
                  branch_budget=config.branch_budget, alpha=alpha)
    stats.alpha = alpha
    stats.rep_size = rep.size

    pool = small_profit_pool(working, alpha, epsilon)
    rep_ids = sorted(rep.elements)
    bound = SkeletonBound(working, pool, rep_ids)
    # The listing is complete before the loop starts, so it can leave out
    # only the subtrees that cannot reach alpha.
    candidates = feasible_subsets_within_budget(
        working, rep_ids, epsilon.inverse_floor(), cap=config.subset_cap,
        keep=lambda chosen, j: bound.bound(chosen, j) >= alpha,
    )
    threshold = max(alpha - 1, 0)
    stats.enumerated = len(candidates)
    stats.incumbent_profits = [alpha]
    for skeleton_ids in candidates:
        if bound.bound(skeleton_ids, bound.leaf) <= threshold:
            stats.pruned += 1
            continue
        skeleton = frozenset(skeleton_ids)
        residual = _build_residual(working, pool, skeleton)
        extension = non_profitable_solver(residual)
        combined_ids = skeleton | extension.id_set
        profit = working.total_profit(combined_ids)
        if profit > threshold:
            best, threshold = Solution.build(working, combined_ids), profit
            stats.incumbent_profits.append(profit)

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
    alive = remaining & constraint.element_ids()
    elements = tuple(e for e in instance.elements if e.id in alive)
    return BCInstance(elements, constraint, instance.budget - instance.total_cost(skeleton))


class SkeletonBound:
    """Exact-integer upper bound on the profit a skeleton can lead to.

    ``bound(F, j)`` covers every skeleton grown from F with ids of
    ``rep[j + 1:]``, F itself included, each with any extension.  It is
    p(F) + floor(fractional knapsack) with budget B - c(F) over the
    unblocked elements of the small-profit pool and of ``rep[j + 1:]``,
    taken as one set (with the declared gamma = 4 a classed element can
    also be in the pool).  An element is blocked when it is in F or, for a
    matching, when it touches F's vertices.  For a matroid intersection
    every extension S of F has F | S independent in both matroids, so
    |S| <= r - |F| with r = min(r1, r2), its ``size_cap``; the bound is then
    the smaller of the knapsack and the r - |F| largest unblocked profits.

    At ``leaf = len(rep) - 1`` only the pool is open, so ``bound(F, leaf)``
    covers F's residual instance, whose elements are the unblocked pool:
    no residual solution can beat it.

    The candidates are sorted once by exact density, zero-cost elements
    first; each knapsack walks them until the budget runs out.
    """

    def __init__(self, instance: BCInstance, pool: frozenset[int], rep):
        # An element leaves F's residual pool when it shares a key with F:
        # an endpoint for a matching (which covers F's own edges), else its id.
        cons = instance.constraint
        if isinstance(cons, Matching):
            self._keys = {e.id: cons.edges[e.id] for e in instance.elements}
        else:
            self._keys = {e.id: (e.id, e.id) for e in instance.elements}
        self._cost = instance.cost_of
        self._profit = instance.profit_of
        self._budget = instance.budget
        # An element is open at rep index j < its ``until``: its rep index,
        # or len(rep) for a pool element.
        until = {eid: i for i, eid in enumerate(sorted(rep))}
        self.leaf = len(until) - 1
        until.update(dict.fromkeys(pool, len(until)))
        items = [e for e in instance.elements if e.id in until and e.profit > 0]
        # Densest first; a zero-cost element's (-profit, 0) is minus infinity.
        # The fractional knapsack does not depend on how equal densities tie.
        items.sort(key=lambda e: ratio_key((-e.profit, e.cost, e.id)))
        self._order = [(e.cost, e.profit) + self._keys[e.id] + (until[e.id],) for e in items]
        self._rank = None
        if isinstance(cons, MatroidIntersection):
            self._rank = size_cap(cons, instance.sorted_ids())
            # Largest profit first; how equal profits tie cannot change a sum.
            self._by_profit = sorted(((p, eid, u) for _, p, eid, _, u in self._order),
                                     reverse=True)

    def bound(self, skeleton, j: int) -> int:
        room = self._budget
        gain = 0
        blocked: set[int] = set()
        for eid in skeleton:
            room -= self._cost[eid]
            gain += self._profit[eid]
            blocked.update(self._keys[eid])
        value = self._knapsack(room, blocked, j)
        if self._rank is not None:
            slots = self._rank - len(skeleton)
            top = 0
            for profit, a, until in self._by_profit:
                if slots <= 0 or top >= value:
                    break
                if j < until and a not in blocked:
                    top += profit
                    slots -= 1
            value = min(value, top)
        return gain + value

    def _knapsack(self, room: int, blocked: set[int], j: int) -> int:
        """Floor of the fractional knapsack over the elements open at ``j``."""
        value = 0
        for cost, profit, a, b, until in self._order:
            if j >= until or a in blocked or b in blocked:
                continue
            if cost > room:
                return value + profit * room // cost
            room -= cost
            value += profit
        return value
