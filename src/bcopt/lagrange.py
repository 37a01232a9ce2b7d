"""Optimum estimation and the low-profit solver, via Lagrangian relaxation.

Two subroutines live here.  ``approx_opt`` estimates the optimal profit from
below (exactly in brute-force mode, within a declared factor gamma in
Lagrangian mode).  ``non_profitable_solver`` produces a feasible,
budget-respecting solution whose profit trails the optimum by at most twice
the largest single profit in the instance; that contract is enforced by the
test suite on every corpus instance small enough to brute force.

The Lagrangian relaxation folds the budget into the objective with a
multiplier lambda: maximize p(S) - lambda * c(S) over constraint-feasible
sets.  Bisection on lambda brackets the transition from over-budget to
affordable inner optima; the bracketing pair is then patched into candidate
solutions.  Exact rationals keep every probe deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import BCError, BCInstance, Solution
from .constraints import Matching, MatroidIntersection
from .enumeration import max_profit_solution_ids, max_weight_feasible_ids

# Exhaustive patching enumerates all component subsets up to this many
# symmetric-difference components; beyond it, a greedy ordering is used.
_MAX_PATCH_COMPONENTS = 16


@dataclass(frozen=True)
class LagrangeConfig:
    """Knobs for the Lagrangian search.

    ``exact_fallback_threshold``: brute force the whole instance at or below
    this element count (0 disables the fallback).  ``inner_exact_guard``:
    element count up to which the inner oracle is exact rather than greedy.
    """

    bisection_cap: int = 64
    exact_fallback_threshold: int = 20
    inner_exact_guard: int = 20
    force_greedy_inner: bool = False

    def __post_init__(self) -> None:
        if self.bisection_cap < 1:
            raise BCError("bisection cap must be at least 1")
        if self.exact_fallback_threshold < 0 or self.inner_exact_guard < 0:
            raise BCError("guard thresholds must be non-negative")


def approx_opt(instance: BCInstance, config: LagrangeConfig | None = None,
               mode: str = "lagrangian") -> int:
    """Lower estimate of the optimal profit; always the profit of some solution.

    ``exact`` mode brute-forces the optimum.  ``lagrangian`` mode returns the
    best candidate the relaxation finds, never above the optimum and, on the
    acceptance corpus, never below a quarter of it (declared gamma = 4).
    """
    if mode == "exact":
        return Solution.build(instance, max_profit_solution_ids(instance)).total_profit
    if mode != "lagrangian":
        raise BCError(f"unknown alpha mode {mode!r}")
    return _best_lagrangian_solution(instance, config or LagrangeConfig()).total_profit


def declared_gamma(mode: str) -> Fraction:
    """Approximation factor guaranteed by each alpha mode (exact counts as 2)."""
    if mode == "exact":
        return Fraction(2)
    if mode == "lagrangian":
        return Fraction(4)
    raise BCError(f"unknown alpha mode {mode!r}")


def non_profitable_solver(instance: BCInstance, config: LagrangeConfig | None = None) -> Solution:
    """A solution with profit at least OPT minus twice the largest profit.

    Small instances are brute-forced outright (the contract then holds with
    equality to OPT).  Larger ones go through the Lagrangian search with
    patching of the bracketing pair.
    """
    config = config or LagrangeConfig()
    if len(instance.elements) <= config.exact_fallback_threshold:
        return Solution.build(instance, max_profit_solution_ids(instance))
    return _best_lagrangian_solution(instance, config)


def inner_max_weight(instance: BCInstance, lam: Fraction,
                     config: LagrangeConfig | None = None) -> frozenset[int]:
    """Inner oracle: a maximum-(p - lambda c) feasible set, budget ignored.

    Exact under the element-count guard, greedy in descending truncated
    weight otherwise.  Weights are cleared to integers with lambda's
    denominator so the search never touches fractions.
    """
    config = config or LagrangeConfig()
    den = lam.denominator
    weight = {
        e.id: e.profit * den - lam.numerator * e.cost
        for e in instance.elements
    }
    exact = (not config.force_greedy_inner) and len(instance.elements) <= config.inner_exact_guard
    if exact:
        return max_weight_feasible_ids(instance, weight)
    cursor = instance.constraint.cursor()
    chosen: list[int] = []
    for eid in sorted(weight, key=lambda i: (-weight[i], i)):
        if weight[eid] <= 0:
            break
        if cursor.try_push(eid):
            chosen.append(eid)
    return frozenset(chosen)


def _best_lagrangian_solution(instance: BCInstance, config: LagrangeConfig) -> Solution:
    pool = _candidate_pool(instance, config)
    best: Solution = Solution.empty()
    for ids in pool:
        cand = Solution.build(instance, ids)
        if cand.total_profit > best.total_profit or (
            cand.total_profit == best.total_profit and cand.element_ids < best.element_ids
        ):
            best = cand
    return best


def _candidate_pool(instance: BCInstance, config: LagrangeConfig) -> list[frozenset[int]]:
    """Budget-feasible candidates, in a deterministic order."""
    budget = instance.budget
    cost = instance.cost_of
    pool: list[frozenset[int]] = [frozenset()]

    def offer(ids: Iterable[int]) -> bool:
        s = frozenset(ids)
        if sum(cost[i] for i in s) <= budget:
            pool.append(s)
            return True
        return False

    # Feasible affordable singletons and a profit-density greedy fill.  A
    # residual constraint may reject a singleton its skeleton spans.
    for e in sorted(instance.elements, key=lambda e: e.id):
        if instance.constraint.is_feasible((e.id,)):
            offer((e.id,))
    cursor = instance.constraint.cursor()
    fill: list[int] = []
    spent = 0
    by_density = sorted(
        instance.elements,
        key=lambda e: (-Fraction(e.profit, e.cost) if e.cost else Fraction(-e.profit - 1), e.id),
    )
    for e in by_density:
        if spent + e.cost <= budget and cursor.try_push(e.id):
            fill.append(e.id)
            spent += e.cost
    offer(fill)

    # Bisection on lambda.  At lambda = 0 the inner optimum ignores cost; if
    # it is affordable it is optimal outright.  At the upper end, one above
    # the largest profit, only zero-cost elements carry positive weight, so
    # the optimum is affordable.  s_minus stays affordable and s_plus over
    # budget throughout, so the bracket never closes early.
    lo = Fraction(0)
    s_lo = inner_max_weight(instance, lo, config)
    if offer(s_lo):
        return pool
    s_plus = s_lo
    hi = Fraction(max(e.profit for e in instance.elements) + 1)
    s_minus = inner_max_weight(instance, hi, config)
    offer(s_minus)
    for _ in range(config.bisection_cap):
        mid = (lo + hi) / 2
        s_mid = inner_max_weight(instance, mid, config)
        if offer(s_mid):
            hi, s_minus = mid, s_mid
        else:
            lo, s_plus = mid, s_mid
    pool.extend(_patched(instance, s_minus, s_plus))
    return pool


def _patched(instance: BCInstance, s_minus: frozenset[int],
             s_plus: frozenset[int]) -> list[frozenset[int]]:
    """Blend the bracketing pair into further budget-feasible candidates."""
    cons = instance.constraint
    budget = instance.budget
    cost = instance.cost_of
    out: list[frozenset[int]] = []
    if isinstance(cons, Matching):
        components = _symmetric_difference_components(cons, s_minus, s_plus)
        if len(components) <= _MAX_PATCH_COMPONENTS:
            subsets = range(1 << len(components))
        else:
            # Greedy prefix order by profit gain per unit of extra cost.
            components = sorted(
                components,
                key=lambda comp: _component_priority(instance, comp, s_minus),
            )
            subsets = ((1 << k) - 1 for k in range(1, len(components) + 1))
        for mask in subsets:
            swapped = set(s_minus)
            for k, comp in enumerate(components):
                if mask >> k & 1:
                    swapped.symmetric_difference_update(comp)
            if sum(cost[i] for i in swapped) <= budget:
                out.append(frozenset(swapped))
    elif isinstance(cons, MatroidIntersection):
        # Shrink the over-budget side: drop the worst profit-per-cost element
        # until affordable, pooling every affordable intermediate.
        current = set(s_plus)
        while current and sum(cost[i] for i in current) > budget:
            victim = min(
                current,
                key=lambda i: (Fraction(instance.profit_of[i], cost[i]) if cost[i] else Fraction(2**127), i),
            )
            current.discard(victim)
        if current:
            out.append(frozenset(current))
        # And grow the affordable side from the other bracket greedily.
        cursor = cons.cursor()
        grown = []
        spent = 0
        for eid in sorted(s_minus):
            if cursor.try_push(eid):
                grown.append(eid)
                spent += cost[eid]
        for eid in sorted(s_plus - s_minus,
                          key=lambda i: (-instance.profit_of[i], i)):
            if spent + cost[eid] <= budget and cursor.try_push(eid):
                grown.append(eid)
                spent += cost[eid]
        out.append(frozenset(grown))
    return out


def _symmetric_difference_components(graph: Matching, a: frozenset[int],
                                     b: frozenset[int]) -> list[frozenset[int]]:
    """Connected components (paths/cycles) of the edge set a ^ b."""
    edges = sorted(a ^ b)
    by_vertex: dict[int, list[int]] = {}
    for eid in edges:
        u, v = graph.edges[eid]
        by_vertex.setdefault(u, []).append(eid)
        by_vertex.setdefault(v, []).append(eid)
    seen: set[int] = set()
    components: list[frozenset[int]] = []
    for start in edges:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        frontier = [start]
        while frontier:
            eid = frontier.pop()
            for vertex in graph.edges[eid]:
                for nxt in by_vertex[vertex]:
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.add(nxt)
                        frontier.append(nxt)
        components.append(frozenset(comp))
    return components


def _component_priority(instance: BCInstance, comp: frozenset[int],
                        s_minus: frozenset[int]) -> tuple:
    gain = sum(instance.profit_of[i] for i in comp - s_minus) - sum(
        instance.profit_of[i] for i in comp & s_minus
    )
    extra = sum(instance.cost_of[i] for i in comp - s_minus) - sum(
        instance.cost_of[i] for i in comp & s_minus
    )
    density = Fraction(gain, extra) if extra > 0 else Fraction(gain + 1, 1) * 10**6
    return (-density, min(comp))
