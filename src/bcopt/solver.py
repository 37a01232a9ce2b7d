"""The approximation scheme: enumerate profitable skeletons, extend, keep the best.

``solve`` runs the scheme at eps' = eps/8, which turns its (1 - 8 eps')
guarantee into the advertised (1 - eps).  It enumerates the feasible subsets
F of the representative set (up to cardinality floor(1/eps')), solves the
residual low-profit instance next to each F, and returns the most profitable
extended solution.  A skeleton whose fractional-knapsack bound cannot beat
the incumbent is skipped before its residual is built.  ``solve_detailed``
also returns the run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    BCInstance, Epsilon, InfeasibleSetError, Solution, is_solution, preprocess_discard, ratio_key,
)
from .classes import small_profit_pool
from .constraints import Matching, residual_constraint
from .enumeration import feasible_subsets_within_budget
from .exchange import DEFAULT_BRANCH_BUDGET
from .lagrange import approx_opt, declared_gamma, non_profitable_solver
from .repset import rep_set

DEFAULT_SUBSET_CAP = 10**7


@dataclass(frozen=True)
class SolveConfig:
    alpha_mode: str = "lagrangian"
    subset_cap: int = DEFAULT_SUBSET_CAP
    branch_budget: int = DEFAULT_BRANCH_BUDGET


@dataclass
class SolveStats:
    """Run metadata surfaced through the CLI and the benchmark harness.

    ``enumerated`` counts the feasible skeletons; ``pruned`` counts those
    skipped by the residual bound, so ``enumerated - pruned`` residuals were
    solved.
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

    The winner is the extension of maximum profit; among equal profits, the
    one whose skeleton F comes first in (len(F), F) order.  Skeletons are
    visited in that order and the incumbent is replaced only on a strict
    gain, so a skeleton with ub(F) <= incumbent (see :class:`SkeletonBound`)
    can neither win nor tie first and is skipped without changing the result.
    """
    epsilon = epsilon.scaled_down(8)  # the scheme's own eps'
    config = config or SolveConfig()
    start = time.perf_counter()
    working = preprocess_discard(instance)
    stats = SolveStats(gamma=declared_gamma(config.alpha_mode))

    alpha = approx_opt(working, mode=config.alpha_mode)
    rep = rep_set(working, epsilon, config.alpha_mode,
                  branch_budget=config.branch_budget, alpha=alpha)
    stats.alpha = alpha
    stats.rep_size = rep.size

    pool = small_profit_pool(working, alpha, epsilon)
    skeleton_cap = epsilon.inverse_floor()
    candidates = feasible_subsets_within_budget(
        working, sorted(rep.elements), skeleton_cap, cap=config.subset_cap,
    )
    stats.enumerated = len(candidates)
    bound = SkeletonBound(working, pool)

    best = Solution.empty()
    stats.incumbent_profits.append(best.total_profit)
    for skeleton_ids in candidates:
        if bound(skeleton_ids) <= best.total_profit:
            stats.pruned += 1
            continue
        skeleton = frozenset(skeleton_ids)
        residual = _build_residual(working, pool, skeleton)
        extension = non_profitable_solver(residual)
        combined_ids = skeleton | extension.id_set
        profit = working.total_profit(combined_ids)
        if profit > best.total_profit:
            best = Solution.build(working, combined_ids)
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
    """Exact-integer upper bound ub(F) on the profit of a skeleton F plus any extension.

    ub(F) = p(F) + floor(fractional knapsack over the residual pool) with
    budget B - c(F).  The residual pool is the small-profit pool minus F and,
    for a matching, minus every edge touching F's vertices.  It holds every
    element of F's residual instance, so no residual solution can beat the
    bound.  The pool is sorted once by exact density, zero-cost elements
    first; each call walks it until the budget runs out.
    """

    def __init__(self, instance: BCInstance, pool: frozenset[int]):
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
        items = [e for e in instance.elements if e.id in pool and e.profit > 0]
        # Densest first; a zero-cost element's (-profit, 0) is minus infinity.
        # The fractional knapsack does not depend on how equal densities tie.
        items.sort(key=lambda e: ratio_key((-e.profit, e.cost, e.id)))
        self._order = [(e.cost, e.profit) + self._keys[e.id] for e in items]

    def __call__(self, skeleton) -> int:
        room = self._budget
        gain = 0
        blocked: set[int] = set()
        for eid in skeleton:
            room -= self._cost[eid]
            gain += self._profit[eid]
            blocked.update(self._keys[eid])
        for cost, profit, a, b in self._order:
            if a in blocked or b in blocked:
                continue
            if cost > room:
                return gain + profit * room // cost
            room -= cost
            gain += profit
        return gain
