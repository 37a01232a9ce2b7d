"""Optimum estimation and the low-profit solver, via Lagrangian relaxation.

Two subroutines live here.  ``approx_opt`` returns a solution whose profit
estimates the optimal profit from below (exactly in brute-force mode, within
a declared factor gamma in Lagrangian mode).  ``non_profitable_solver``
produces a feasible, budget-respecting solution whose profit trails the
optimum by at most twice the largest single profit in the instance; that
contract is enforced by the test suite on every corpus instance small enough
to brute force.

The Lagrangian relaxation folds the budget into the objective with a
multiplier lambda: maximize p(S) - lambda * c(S) over constraint-feasible
sets.  Bisection on lambda brackets the transition from over-budget to
affordable inner optima; the bracketing pair is then patched into candidate
solutions.  The bracket starts at the integers 0 and P + 1 (P the largest
profit) and is halved at every step, so each probe's lambda is a dyadic
rational k / 2^j: the search keeps integer numerators over a doubling
denominator and builds each probe's exact ``Fraction`` from them, with no
rational arithmetic in the loop.  Profit densities are compared by integer
cross-multiplication.

The bisection stops at breakpoint resolution: the inner optimum changes only
at rationals of bounded denominator D, and once the bracket is too narrow to
hold two of them, deeper probes could only return the bracketing pair again
(the argument is in ``_candidate_pool``).  D is the largest cost for the
greedy inner oracle; for the exact one it also shrinks with the bracket's
cost range.  A search that bisects makes at most
2 + ((P + 1) * D^2).bit_length() inner probes, D as it is at the start,
whatever the size of the numbers: on the benchmark's low-profit workload, 16.

A residual of at most ``EXACT_LIMIT`` elements is brute-forced outright, and
the optimum estimate's inner oracle is exact at those sizes.  Above it the
inner oracle is greedy: it pushes the positive-weight ids in descending
weight (ties by id) through a fresh feasibility cursor, so its result
depends only on that order, not on the weights.  Each search keeps one cache
from order to result, and its lambda probes run the push loop only once per
distinct order.
"""

from __future__ import annotations

from fractions import Fraction

from .core import BCError, BCInstance, Element, Solution, ratio_key
from .constraints import Matching, MatroidIntersection
from .enumeration import max_profit_solution_ids, max_weight_feasible_ids

# Exhaustive patching enumerates all component subsets up to this many
# symmetric-difference components; beyond it, a greedy ordering is used.
_MAX_PATCH_COMPONENTS = 16

# Element count at or below which a residual is brute-forced and the inner
# oracle is exact; above it the inner oracle is greedy.
EXACT_LIMIT = 20


def approx_opt(instance: BCInstance, mode: str = "lagrangian") -> Solution:
    """A solution whose profit, alpha, estimates the optimal profit from below.

    ``exact`` mode brute-forces an optimum.  ``lagrangian`` mode returns the
    best candidate the relaxation finds, whose profit is never above the
    optimum and, on the acceptance corpus, never below a quarter of it
    (declared gamma = 4).
    """
    if mode == "exact":
        return Solution.build(instance, max_profit_solution_ids(instance))
    if mode != "lagrangian":
        raise BCError(f"unknown alpha mode {mode!r}")
    return lagrangian_solution(instance)


def declared_gamma(mode: str) -> Fraction:
    """Approximation factor guaranteed by each alpha mode (exact counts as 2)."""
    if mode == "exact":
        return Fraction(2)
    if mode == "lagrangian":
        return Fraction(4)
    raise BCError(f"unknown alpha mode {mode!r}")


def non_profitable_solver(instance: BCInstance) -> Solution:
    """A solution with profit at least OPT minus twice the largest profit.

    Instances of at most ``EXACT_LIMIT`` elements are brute-forced outright
    (the contract then holds with equality to OPT).  Larger ones go through
    the Lagrangian search with patching of the bracketing pair.
    """
    if len(instance.elements) <= EXACT_LIMIT:
        return Solution.build(instance, max_profit_solution_ids(instance))
    return lagrangian_solution(instance)


def inner_max_weight(instance: BCInstance, lam: Fraction, *,
                     _orders: _GreedyOrders | None = None) -> frozenset[int]:
    """Inner oracle: a maximum-(p - lambda c) feasible set, budget ignored.

    Exact up to ``EXACT_LIMIT`` elements, greedy in descending truncated
    weight above it.  Weights are cleared to integers with lambda's
    denominator so the search never touches fractions.  ``_orders`` is the
    calling search's greedy cache; without it the greedy result is computed
    afresh.
    """
    num, den = lam.numerator, lam.denominator
    if len(instance.elements) <= EXACT_LIMIT:
        weight = {e.id: e.profit * den - num * e.cost for e in instance.elements}
        return max_weight_feasible_ids(instance, weight)
    orders = _orders if _orders is not None else _GreedyOrders(instance)
    weight = [p * den - num * c for p, c in zip(orders.profits, orders.costs)]
    # Descending weight; the stable sort keeps ascending ids on ties.
    order = tuple(sorted([k for k, w in enumerate(weight) if w > 0],
                         key=weight.__getitem__, reverse=True))
    chosen = orders.sets.get(order)
    if chosen is None:
        ids = orders.ids
        cursor = instance.constraint.cursor()
        kept = [k for k in order if cursor.try_push(ids[k])]
        chosen = frozenset([ids[k] for k in kept])
        orders.sets[order] = chosen
        orders.spent[chosen] = sum([orders.costs[k] for k in kept])
    return chosen


class _GreedyOrders:
    """One search's greedy inner optima, keyed by positive-weight order.

    The order is a tuple of positions in the id-ordered ``ids``, ``costs``
    and ``profits`` lists, which are built once per search.  ``spent`` maps
    each cached set to its cost, so a probe that repeats a set is not
    re-summed.
    """

    __slots__ = ("ids", "costs", "profits", "sets", "spent")

    def __init__(self, instance: BCInstance) -> None:
        elements = sorted(instance.elements, key=lambda e: e.id)
        self.ids = [e.id for e in elements]
        self.costs = [e.cost for e in elements]
        self.profits = [e.profit for e in elements]
        self.sets: dict[tuple[int, ...], frozenset[int]] = {}
        self.spent: dict[frozenset[int], int] = {}


def lagrangian_solution(instance: BCInstance) -> Solution:
    """The Lagrangian search's best candidate, at every size.

    This is ``non_profitable_solver`` without its brute-force path.  The
    winner is the candidate of maximum profit; among equal profits, the one
    with the smaller sorted ids.  Candidates are compared by their profit
    sums alone, and only the winner is built: ``Solution.build`` re-checks
    its feasibility and budget.  The losers are never checked at run time;
    the test suite checks that every candidate is feasible and affordable.
    """
    profit = instance.profit_of
    # The pool starts with the empty set, whose ids () no other set undercuts.
    best_profit, best_ids = 0, ()
    # Duplicates cannot change the winner, so each distinct set is compared once.
    for ids in dict.fromkeys(_candidate_pool(instance)):
        total = sum(map(profit.__getitem__, ids))
        if total < best_profit:
            continue
        key = tuple(sorted(ids))
        if total > best_profit or key < best_ids:
            best_profit, best_ids = total, key
    return Solution.build(instance, best_ids)


def _candidate_pool(instance: BCInstance) -> list[frozenset[int]]:
    """Budget-feasible candidates, in a deterministic order.

    The bisection stops once its bracket can hold only one breakpoint of the
    inner oracle, so a search that bisects makes at most
    ((P + 1) * D^2).bit_length() steps (P and D below, D as it is before the
    first step), and two inner-oracle probes more.  Its pool then holds the
    same distinct sets, and hands ``_patched`` the same pair, as a search
    that bisects to any greater depth:

    - The oracle's result is piecewise constant in lambda; its breakpoints
      are the lambda where it changes.  The greedy one (above
      ``EXACT_LIMIT`` elements) changes only where two weights p - lambda c
      cross or one crosses zero, at a rational whose denominator is at most
      the largest cost.  The exact one breaks ties among equally heavy sets
      by the same weight order, so it changes at those points, or where the
      family of optimal sets changes.
    - The exact optimum's cost does not increase with lambda: for
      lambda < mu, with A optimal at lambda and B at mu, adding
      p(A) - lambda c(A) >= p(B) - lambda c(B) and
      p(B) - mu c(B) >= p(A) - mu c(A) gives (mu - lambda)(c(A) - c(B)) >= 0.
      So a set optimal anywhere inside the bracket costs between c(s_minus)
      and c(s_plus).  Where the family changes at a point of the bracket, two
      sets of different costs are optimal there: each is optimal on a side of
      the point inside the bracket, or is the set of an end.  The point is
      where their weights cross, at (p(A) - p(B)) / (c(A) - c(B)), so its
      denominator is at most c(s_plus) - c(s_minus).
    - Call D the largest cost for the greedy oracle, and the larger of the
      largest cost and c(s_plus) - c(s_minus) for the exact one, taken anew
      after every probe; it bounds the denominator of every breakpoint in
      the bracket.  It is at least 1 once the search bisects, since the
      lambda = 0 optimum costs something, and it never grows, since the
      bracket's cost range only narrows.
    - Two distinct such breakpoints are at least 1/D^2 apart.  The bracket
      [lo / den, hi / den] has width (hi - lo) / den, so once
      (hi - lo) * D^2 < den it holds exactly one breakpoint: its two ends
      return different sets.
    - hi - lo stays P + 1 (P the largest profit) and den is 2^t after t
      steps.  Every later probe is an odd multiple of (P + 1) / 2^s for some
      s > t, whose reduced denominator is at least 2^s / (P + 1) > D^2 >= D.
      So no later probe lands on the breakpoint: a breakpoint's dyadic depth
      is at most log2((P + 1) * D), and the search is already deeper than
      that.
    - So every skipped probe lies in the open piece of one bracket end and
      would return that end's set, ``s_plus`` or ``s_minus``, again (for the
      greedy oracle, through an order already cached): it would add only
      duplicates to the pool and leave the pair unchanged.
    """
    budget = instance.budget
    cost = instance.cost_of
    pool: list[frozenset[int]] = [frozenset()]
    orders = _GreedyOrders(instance)

    def offer(s: frozenset[int], spent: int | None = None) -> int:
        """Pool ``s`` if it is affordable; return its cost, ``spent`` when known."""
        if spent is None:
            spent = orders.spent.get(s)
            if spent is None:
                spent = sum(map(cost.__getitem__, s))
        if spent <= budget:
            pool.append(s)
        return spent

    # Feasible affordable singletons and a profit-density greedy fill.  A
    # residual constraint may reject a singleton its skeleton spans.  Each
    # singleton is popped again, so the fill starts from an empty cursor.
    cursor = instance.constraint.cursor()
    for e in sorted(instance.elements, key=lambda e: e.id):
        if cursor.try_push(e.id):
            cursor.pop()
            offer(frozenset((e.id,)), e.cost)
    fill: list[int] = []
    spent = 0
    for e in sorted(instance.elements, key=_density_key):
        if spent + e.cost <= budget and cursor.try_push(e.id):
            fill.append(e.id)
            spent += e.cost
    offer(frozenset(fill), spent)

    # Bisection on lambda, all probes sharing one greedy cache.  At lambda = 0
    # the inner optimum ignores cost; if it is affordable it is optimal
    # outright.  At the upper end, one above the largest profit, only
    # zero-cost elements carry positive weight, so the optimum is affordable.
    # s_minus stays affordable and s_plus over budget throughout, so the
    # bracket never closes early.
    s_plus = inner_max_weight(instance, Fraction(0), _orders=orders)
    c_plus = offer(s_plus)
    if c_plus <= budget:
        return pool
    # The bracket is [lo / den, hi / den]; each halving doubles den.
    lo, hi, den = 0, max(e.profit for e in instance.elements) + 1, 1
    s_minus = inner_max_weight(instance, Fraction(hi), _orders=orders)
    c_minus = offer(s_minus)
    # Breakpoint denominators are at most d (see the docstring): the largest
    # cost, and on the exact path also the bracket's cost range.  hi - lo
    # stays P + 1 and den doubles, so the loop ends after at most
    # ((P + 1) * d * d).bit_length() steps, d as it is before the first.
    exact = len(instance.elements) <= EXACT_LIMIT
    largest = max(orders.costs)
    while True:
        d = max(largest, c_plus - c_minus) if exact else largest
        if (hi - lo) * d * d < den:
            break
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        s_mid = inner_max_weight(instance, Fraction(mid, den), _orders=orders)
        c_mid = offer(s_mid)
        if c_mid <= budget:
            hi, s_minus, c_minus = mid, s_mid, c_mid
        else:
            lo, s_plus, c_plus = mid, s_mid, c_mid
    pool.extend(_patched(instance, s_minus, s_plus))
    return pool


def _density_key(e: Element):
    """Greedy fill order: profit per cost descending, then id.

    A zero-cost element counts as density profit + 1.
    """
    return ratio_key((-e.profit, e.cost, e.id) if e.cost else (-e.profit - 1, 1, e.id))


def _patched(instance: BCInstance, s_minus: frozenset[int],
             s_plus: frozenset[int]) -> list[frozenset[int]]:
    """Blend the bracketing pair into further budget-feasible candidates."""
    cons = instance.constraint
    budget = instance.budget
    cost = instance.cost_of
    profit = instance.profit_of
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
        # Shrink the over-budget side until affordable: drop elements by
        # ascending profit per cost, zero-cost ones last, ties by id.
        victims = sorted(s_plus, key=lambda i: ratio_key(
            (profit[i], cost[i], i) if cost[i] else (1, 0, i)))
        spent = sum(cost[i] for i in s_plus)
        k = 0
        while k < len(victims) and spent > budget:
            spent -= cost[victims[k]]
            k += 1
        if k < len(victims):
            out.append(frozenset(victims[k:]))
        # And grow the affordable side from the other bracket greedily.
        cursor = cons.cursor()
        grown = []
        spent = 0
        for eid in sorted(s_minus):
            if cursor.try_push(eid):
                grown.append(eid)
                spent += cost[eid]
        for eid in sorted(s_plus - s_minus, key=lambda i: (-profit[i], i)):
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
