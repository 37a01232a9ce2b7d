"""Optimum estimation and the low-profit solver, via Lagrangian relaxation.

Two subroutines live here.  ``approx_opt`` returns a solution whose profit
estimates the optimal profit from below, within the declared factor
``GAMMA``.  ``non_profitable_solver`` produces a feasible, budget-respecting
solution whose profit trails the optimum by at most twice the largest single
profit in the instance; that contract is enforced by the test suite on every
corpus instance small enough to brute force.

The Lagrangian relaxation folds the budget into the objective with a
multiplier lambda: maximize p(S) - lambda * c(S) over constraint-feasible
sets.  The search brackets the transition from over-budget to affordable
inner optima between lambda = 0 and P + 1 (P the largest profit); the
bracketing pair is then patched into candidate solutions.  Profit densities
are compared by integer cross-multiplication.

Above ``EXACT_LIMIT`` elements the inner oracle is greedy and the search
bisects.  Each probe's lambda is a dyadic rational k / 2^j: the search keeps
integer numerators over a doubling denominator and hands the oracle each
probe's (numerator, denominator) pair unreduced, with no rational arithmetic
in the loop.  It stops at breakpoint resolution: the greedy optimum changes
only at rationals whose denominator is at most the largest cost D, and once
the bracket is too narrow to hold two of them, deeper probes could only
return the bracketing pair again.  A search that bisects makes
2 + ((P + 1) * D^2).bit_length() inner probes, whatever the size of the
numbers: on the benchmark's low-profit workload, 16.

At most ``EXACT_LIMIT`` elements the inner oracle is exact, and the search
walks the breakpoints of its upper envelope instead (Megiddo, *Combinatorial
optimization with rational objective functions*, 1979): it probes where the
bracket ends' lines cross until the envelope on the bracket is just those
two lines.  Its two ends are then the pair to patch: both weigh the
envelope's value at that last crossing, lambda*, one is affordable and the
other over budget.  Both searches pool every affordable probe, the final
affordable end included.  A search that gets past lambda = 0 makes
4-8 probes on the benchmark's uniform workloads, where bisection made
21-24.  The arguments are in ``_candidate_pool``.

A residual of at most ``EXACT_LIMIT`` elements is brute-forced outright.
Above it the greedy inner oracle pushes the positive-weight ids in
descending weight (ties by id), keeping each that fits beside those kept
before it, so its result depends only on that order, not on the weights.
It weighs only those ids: p - lambda c is positive exactly on the zero-cost
elements with p > 0 and on a prefix of the priced ones in descending
density, whose end it finds by bisection.  Each search keeps one cache from
order to result, which it passes to every lambda probe, so its probes run
the push loop only once per distinct order.  That loop, the candidate
pool's density fill and the patching of an intersection pair are one
greedy growth, ``_GreedyOrders.grow``, whose fit test is the search's
:func:`bcopt.constraints.conflict_masks`: on a matching the int vertex
masks, numbered once per matching, decide alone (and split a patched pair
into components), otherwise a feasibility cursor does, a fresh one for
each growth but the fill, which reuses the singleton scan's.  The fill and
the priced prefix read the instance's
:attr:`~bcopt.core.BCInstance.density_order`, sorted once per instance and
shared with the solver's skeleton bound.  Of the singletons, the pool
offers only the best feasible affordable one, the only one that can win.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .core import BCInstance, Solution, ratio_key
from .constraints import IntersectionCursor, Matching, conflict_masks
from .enumeration import max_profit_solution_ids, max_weight_feasible_ids

# Exhaustive patching enumerates all component subsets up to this many
# symmetric-difference components; beyond it, a greedy ordering is used.
_MAX_PATCH_COMPONENTS = 16

# Element count at or below which a residual is brute-forced and the inner
# oracle is exact; above it the inner oracle is greedy.
EXACT_LIMIT = 20

# The factor alpha = approx_opt(...).total_profit is declared to be within:
# OPT / GAMMA <= alpha <= OPT, checked on the acceptance corpus.
GAMMA = 4


def non_profitable_solver(instance: BCInstance, *, floor: int = -1) -> Solution | None:
    """A solution with profit at least OPT minus twice the largest profit.

    Instances of at most ``EXACT_LIMIT`` elements are brute-forced outright
    (the contract then holds with equality to OPT), from ``floor``: the
    answer is None ("cannot win") when no solution earns more than
    ``floor``, and never None at the default -1.  Larger ones go through
    the Lagrangian search with patching of the bracketing pair, whose answer
    is no optimum, so it ignores ``floor``.
    """
    if len(instance.elements) <= EXACT_LIMIT:
        ids = max_profit_solution_ids(instance, floor=floor)
        return None if ids is None else Solution.build(instance, ids)
    return approx_opt(instance)


def inner_max_weight(instance: BCInstance, num: int, den: int, *,
                     orders: _GreedyOrders) -> frozenset[int]:
    """Inner oracle: a maximum-(p - lambda c) feasible set, budget ignored.

    lambda = num / den with ``den > 0``, not necessarily in lowest terms.
    Exact up to ``EXACT_LIMIT`` elements, greedy in descending truncated
    weight above it.  Both weigh the integers p den - num c, lambda's
    weights scaled by den, so the search never touches fractions and no
    answer depends on the scale.  ``orders`` is the calling search's greedy
    cache; the greedy oracle reads and fills it.
    """
    if len(instance.elements) <= EXACT_LIMIT:
        weight = {e.id: e.profit * den - num * e.cost for e in instance.elements}
        return max_weight_feasible_ids(instance, weight)
    order = orders.positive_order(num, den)
    chosen = orders.sets.get(order)
    if chosen is None:
        kept, spent = orders.grow(order)
        chosen = frozenset([orders.ids[k] for k in kept])
        orders.sets[order] = chosen
        orders.spent[chosen] = spent
    return chosen


class _GreedyOrders:
    """One search's elements by position, its greedy growth and its inner optima.

    A position indexes the id-ordered ``ids``, ``costs`` and ``profits``.
    ``by_density`` lists the positions in the instance's
    :attr:`~bcopt.core.BCInstance.density_order`, the fill's order;
    ``priced`` is its subsequence of positive costs, and ``free`` the
    zero-cost positions of positive profit, ascending.  ``masks``, ``start``
    and ``cursor`` are the ids' :func:`~bcopt.constraints.conflict_masks`,
    the fit test of :meth:`grow`.  ``sets`` maps each positive-weight order
    the inner oracle has met to its set and ``spent`` each set to its cost,
    so a repeated order runs no push loop and its set is not re-summed.
    """

    __slots__ = ("ids", "costs", "profits", "by_density", "priced", "free", "constraint",
                 "masks", "start", "cursor", "sets", "spent")

    def __init__(self, instance: BCInstance) -> None:
        elements = sorted(instance.elements, key=lambda e: e.id)
        self.ids = [e.id for e in elements]
        self.costs = costs = [e.cost for e in elements]
        self.profits = profits = [e.profit for e in elements]
        position = {eid: k for k, eid in enumerate(self.ids)}
        self.by_density = [position[e.id] for e in instance.density_order]
        self.priced = [k for k in self.by_density if costs[k]]
        self.free = [k for k, (c, p) in enumerate(zip(costs, profits)) if not c and p]
        self.constraint = instance.constraint
        self.masks, self.start, self.cursor = conflict_masks(self.constraint, self.ids)
        self.sets: dict[tuple[int, ...], frozenset[int]] = {}
        self.spent: dict[frozenset[int], int] = {}

    def positive_order(self, num: int, den: int) -> tuple[int, ...]:
        """The positions of positive weight p den - num c, heaviest first.

        They are the ``free`` positions and, in descending density, the
        priced ones before the first whose density is at most num / den;
        only those are weighed.  Equal weights keep ascending positions, so
        ascending ids.
        """
        profits, costs, priced = self.profits, self.costs, self.priced
        cut = bisect_left(priced, True, key=lambda k: profits[k] * den <= num * costs[k])
        weight = {k: profits[k] * den - num * costs[k] for k in sorted(self.free + priced[:cut])}
        return tuple(sorted(weight, key=weight.__getitem__, reverse=True))

    def grow(self, positions: Iterable[int], room: int | None = None,
             cursor: IntersectionCursor | None = None) -> tuple[list[int], int]:
        """The greedy growth: the kept ``positions`` and their cost.

        Each position is kept iff it fits beside those kept before it and,
        with a ``room``, the kept cost stays within it.  On a matching the
        masks decide fit alone; otherwise ``cursor`` does, an empty cursor
        of the constraint, or a fresh one when None.
        """
        costs = self.costs
        if room is None:
            room = sum(costs)
        kept: list[int] = []
        spent = 0
        if self.cursor is None:
            masks, used = self.masks, self.start
            for k in positions:
                m = masks[k]
                if not m & used and spent + costs[k] <= room:
                    used |= m
                    kept.append(k)
                    spent += costs[k]
        else:
            ids = self.ids
            push = (cursor if cursor is not None else self.constraint.cursor()).try_push
            for k in positions:
                if spent + costs[k] <= room and push(ids[k]):
                    kept.append(k)
                    spent += costs[k]
        return kept, spent


def approx_opt(instance: BCInstance) -> Solution:
    """The Lagrangian search's best candidate, at every size.

    Its profit, alpha, estimates the optimal profit from below: it is never
    above the optimum and, on the acceptance corpus, never below
    OPT / ``GAMMA``.  This is ``non_profitable_solver`` without its
    brute-force path.  The winner is the candidate of maximum profit; among
    equal profits, the one with the smaller sorted ids.  So the pool offers
    one singleton, the best feasible affordable one: any other singleton
    loses to it.  Candidates are compared by their profit sums alone, and
    only the winner is built: ``Solution.build`` re-checks its feasibility
    and budget.  The losers are never checked at run time; the test suite
    checks that every candidate is feasible and affordable.
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

    Both searches start from the bracket [0, P + 1], P the largest profit,
    and hand ``_patched`` a pair ``(s_minus, s_plus)`` of inner optima,
    ``s_minus`` affordable and ``s_plus`` over budget.

    The greedy search (above ``EXACT_LIMIT`` elements) bisects until its
    pair is the one bisecting to any greater depth would end with:

    - The greedy optimum is piecewise constant in lambda and changes only
      where two weights p - lambda c cross or one crosses zero, at a
      rational whose denominator is at most the largest cost D.  Two
      distinct such breakpoints are at least 1/D^2 apart.
    - The bracket [lo / den, hi / den] has width (hi - lo) / den, so once
      (hi - lo) * D^2 < den it holds exactly one breakpoint: its two ends
      return different sets.  D is at least 1 once the search bisects,
      since the lambda = 0 optimum costs something.
    - hi - lo stays P + 1 and den is 2^t after t steps.  Every later probe
      is an odd multiple of (P + 1) / 2^s for some s > t, whose reduced
      denominator is at least 2^s / (P + 1) > D^2 >= D.  So no later probe
      lands on the breakpoint: a breakpoint's dyadic depth is at most
      log2((P + 1) * D), and the search is already deeper than that.
    - So every skipped probe lies in the open piece of one bracket end and
      would return that end's set again, through an order already cached:
      it would add only duplicates to the pool and leave the pair
      unchanged.  The search makes ((P + 1) * D^2).bit_length() steps and
      two probes more.

    The exact search walks the breakpoints of the upper envelope
    f(lambda) = max p(S) - lambda c(S) over feasible S, which is convex and
    piecewise linear:

    - The exact optimum's cost does not increase with lambda: for
      lambda < mu, with A optimal at lambda and B at mu, adding
      p(A) - lambda c(A) >= p(B) - lambda c(B) and
      p(B) - mu c(B) >= p(A) - mu c(A) gives (mu - lambda)(c(A) - c(B)) >= 0.
    - Each end's set is optimal at its end.  The walk probes where the two
      ends' lines cross.  If the probe's set weighs no more there than they
      do, f is the larger of the two lines on the whole bracket (it is
      convex, at least both, and meets them at three points), so that
      crossing, lambda*, is the bracket's one breakpoint of f, where the
      optimum's cost passes the budget.  Otherwise the probe's set is
      optimal there and heavier than both lines, so its cost lies strictly
      between the ends' costs, and it replaces the end on its budget side.
      The walk thus makes at most c(s_plus) - c(s_minus) probes, with the
      opening probes' costs: one per envelope piece between them and one to
      stop.  The crossing lies in the bracket, so it is 0 only while
      ``s_plus`` is still the lambda = 0 probe; the walk then stops on that
      probe's set without asking the oracle again.
    - The walk's ends are the pair: both weigh f(lambda*), so both are
      optimal at lambda*, ``s_minus`` is affordable and ``s_plus`` over
      budget.
    - As in the bisection, every affordable probe is pooled, the final
      ``s_minus`` with them.  The stopping probe is optimal at lambda* too
      but is not an end: where three or more sets tie there, an affordable
      one can earn more than ``s_minus``.  The patching needs only the
      pair; the pool keeps that probe as a candidate of its own.
    """
    budget = instance.budget
    cost = instance.cost_of
    profit = instance.profit_of
    pool: list[frozenset[int]] = [frozenset()]
    greedy = len(instance.elements) > EXACT_LIMIT
    # The fit test serves both paths; only the greedy oracle fills the cache.
    orders = _GreedyOrders(instance)
    cached_cost = orders.spent

    def offer(s: frozenset[int], spent: int | None = None) -> int:
        """Pool ``s`` if it is affordable; return its cost, ``spent`` when known."""
        if spent is None:
            spent = cached_cost.get(s)
            if spent is None:
                spent = sum(map(cost.__getitem__, s))
        if spent <= budget:
            pool.append(s)
        return spent

    # The best feasible affordable singleton and a profit-density greedy
    # fill.  approx_opt takes the maximum profit, then the smaller ids, so
    # no other singleton can win: the scan offers the first, by descending
    # profit and then id, that is affordable and fits.  A residual
    # constraint may reject a singleton its skeleton spans; on a matching
    # only a self-loop, whose mask meets the start.  A cursor pops the
    # singleton again, so the fill grows through it, empty.
    ids, costs, masks, used, cursor = (orders.ids, orders.costs, orders.masks, orders.start,
                                       orders.cursor)
    for k in sorted(range(len(ids)), key=orders.profits.__getitem__, reverse=True):
        if costs[k] <= budget and not masks[k] & used and (
                cursor is None or cursor.try_push(ids[k])):
            if cursor is not None:
                cursor.pop()
            pool.append(frozenset((ids[k],)))
            break
    fill, spent = orders.grow(orders.by_density, budget, cursor)
    offer(frozenset([ids[k] for k in fill]), spent)

    # The two opening probes; on the greedy path they share one cache with
    # every later probe.
    # At lambda = 0 the inner optimum ignores cost; if it is affordable it
    # is optimal outright.  At P + 1, one above the largest profit, only
    # zero-cost elements carry positive weight, so the optimum is
    # affordable.  s_minus stays affordable and s_plus over budget
    # throughout, so the bracket never closes early.
    s_plus = inner_max_weight(instance, 0, 1, orders=orders)
    c_plus = offer(s_plus)
    if c_plus <= budget:
        return pool
    top = max(e.profit for e in instance.elements) + 1
    s_minus = inner_max_weight(instance, top, 1, orders=orders)
    c_minus = offer(s_minus)

    if greedy:
        # Bisection.  The bracket is [lo / den, hi / den]; each halving
        # doubles den while hi - lo stays P + 1.  Breakpoint denominators are
        # at most the largest cost d, so the loop ends after
        # ((P + 1) * d * d).bit_length() steps.
        lo, hi, den = 0, top, 1
        d = max(orders.costs)
        while top * d * d >= den:
            mid = lo + hi
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            s_mid = inner_max_weight(instance, mid, den, orders=orders)
            if offer(s_mid) <= budget:
                hi, s_minus = mid, s_mid
            else:
                lo, s_plus = mid, s_mid
        pool.extend(_patched(instance, s_minus, s_plus, orders))
        return pool

    # The breakpoint walk: probe where the two ends' lines cross, until the
    # probe's set is no heavier there than they are.  The ends are then the
    # pair; every affordable probe is pooled, the final s_minus among them.
    p_plus = sum(map(profit.__getitem__, s_plus))
    p_minus = sum(map(profit.__getitem__, s_minus))
    while True:
        num, den = p_plus - p_minus, c_plus - c_minus
        # The crossing lies at or right of where s_plus is optimal, so it is
        # 0 only while s_plus is the opening probe, which answers lambda = 0.
        s = inner_max_weight(instance, num, den, orders=orders) if num else s_plus
        c = offer(s)
        p = sum(map(profit.__getitem__, s))
        if (p - p_plus) * den <= (c - c_plus) * num:
            break
        if c <= budget:
            s_minus, c_minus, p_minus = s, c, p
        else:
            s_plus, c_plus, p_plus = s, c, p
    pool.extend(_patched(instance, s_minus, s_plus, orders))
    return pool


def _patched(instance: BCInstance, s_minus: frozenset[int], s_plus: frozenset[int],
             orders: _GreedyOrders) -> list[frozenset[int]]:
    """Blend the bracketing pair into budget-feasible candidates; ``orders`` is the search's."""
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
    else:
        # Shrink the over-budget side until affordable: drop elements by
        # ascending profit per cost, zero-cost ones last, ties by id.
        victims = sorted(s_plus, key=lambda i: ratio_key(profit[i], cost[i], i)
                         if cost[i] else ratio_key(1, 0, i))
        spent = sum(cost[i] for i in s_plus)
        k = 0
        while k < len(victims) and spent > budget:
            spent -= cost[victims[k]]
            k += 1
        if k < len(victims):
            out.append(frozenset(victims[k:]))
        # And grow the affordable side from the other bracket greedily.  Any
        # part of s_minus fits the budget, so the room binds only on the rest.
        ids, profits = orders.ids, orders.profits
        rest = [k for k, i in enumerate(ids) if i in s_plus and i not in s_minus]
        grown, _ = orders.grow([k for k, i in enumerate(ids) if i in s_minus]
                               + sorted(rest, key=lambda k: (-profits[k], k)), budget)
        out.append(frozenset([ids[k] for k in grown]))
    return out


def _symmetric_difference_components(graph: Matching, a: frozenset[int],
                                     b: frozenset[int]) -> list[frozenset[int]]:
    """Connected components (paths/cycles) of a ^ b, by smallest id; a and b are
    matchings, so no self-loop's bit 0 joins two edges of a component."""
    ids = sorted(a ^ b)
    parts: list[tuple[int, list[int]]] = []  # (vertex mask, ids) per component so far
    for eid, mask in zip(ids, conflict_masks(graph, ids)[0]):
        members, rest = [eid], []
        for part in parts:
            # Components share no vertex, so a grown mask meets no other part.
            if part[0] & mask:
                mask |= part[0]
                members += part[1]
            else:
                rest.append(part)
        parts = rest + [(mask, members)]
    return sorted((frozenset(comp) for _, comp in parts), key=min)


def _component_priority(instance: BCInstance, comp: frozenset[int],
                        s_minus: frozenset[int]):
    """Gain per extra cost descending, then smallest id; an extra cost of at
    most 0 counts as density (gain + 1) * 10^6."""
    gain = extra = 0
    for i in comp:
        sign = -1 if i in s_minus else 1
        gain += sign * instance.profit_of[i]
        extra += sign * instance.cost_of[i]
    first = min(comp)
    if extra > 0:
        return ratio_key(-gain, extra, first)
    return ratio_key(-(gain + 1) * 10**6, 1, first)
