"""Exchange-set construction per profit class.

For matching constraints the exchange set is a union of bounded greedy
matchings drawn from the class.  For matroid-intersection constraints the
two matroids play asymmetric roles: the first gates which elements may
extend a branch, the second supplies minimum-cost bases of truncated
restrictions, and the recursion over those bases accumulates the exchange
set.

The defining guarantee (any bounded feasible set can swap a class element it
holds for a cheaper-or-equal one inside the exchange set) is checked
exhaustively on small instances by :mod:`bcopt.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import BCError, BCInstance, CapExceededError
from .classes import ClassLayout, class_partition, q_of
from .constraints import Matching, MatroidIntersection
from .matroids import MatroidOracle, RestrictedTruncatedMatroid, min_cost_basis

# The recursion over minimum bases is exponential in the worst case; fail
# loudly instead of hanging.
DEFAULT_BRANCH_BUDGET = 10**6


@dataclass(frozen=True)
class ExchangeSet:
    """Per-class exchange set: class index plus the selected element ids."""

    class_index: int
    elements: frozenset[int]


def greedy_min_cost_matching(edge_ids: Iterable[int], graph: Matching,
                             cost: dict[int, int], limit: int) -> frozenset[int]:
    """Greedy matching over ``edge_ids``: ascending (cost, id), stop at ``limit``.

    Adds an edge iff it is vertex-disjoint from the edges already chosen.
    """
    if limit < 0:
        raise BCError("limit must be non-negative")
    chosen: list[int] = []
    used: set[int] = set()
    for eid in sorted(edge_ids, key=lambda e: (cost[e], e)):
        if len(chosen) >= limit:
            break
        u, v = graph.edges[eid]
        if u == v or u in used or v in used:
            continue
        used.add(u)
        used.add(v)
        chosen.append(eid)
    return frozenset(chosen)


def exset_matching(instance: BCInstance, layout: ClassLayout, r: int,
                   class_ids: frozenset[int] | None = None) -> ExchangeSet:
    """Exchange set for class r of a matching instance.

    With q = q(eps), repeatedly extracts greedy matchings of size at most
    N = 3q from the remaining class edges, for at most k = 6q rounds, and
    returns their union.  The pool usually empties long before the round cap
    at small scale.  Hard postconditions: each round yields at most N edges
    and the union has at most k * N = 18 * q^2 elements.
    """
    graph = instance.constraint
    if not isinstance(graph, Matching):
        raise BCError("exset_matching requires a matching constraint")
    if class_ids is None:
        class_ids = class_partition(instance, layout).get(r, frozenset())
    q = q_of(layout.epsilon)
    per_round = 3 * q
    rounds = 6 * q
    pool = set(class_ids)
    union: set[int] = set()
    done = 0
    while pool and done < rounds:
        matched = greedy_min_cost_matching(pool, graph, instance.cost_of, per_round)
        assert len(matched) <= per_round
        if not matched:
            break
        union |= matched
        pool -= matched
        done += 1
    assert len(union) <= 18 * q * q, "exchange-set size bound violated"
    return ExchangeSet(r, frozenset(union))


def exset_matroid_intersection(instance: BCInstance, layout: ClassLayout, r: int,
                               class_ids: frozenset[int] | None = None, *,
                               branch_budget: int = DEFAULT_BRANCH_BUDGET) -> ExchangeSet:
    """Exchange set for class r of a matroid-intersection instance.

    Starting from the empty branch, each branch S collects the minimum-cost
    basis B_S of the second matroid restricted to the first-matroid extension
    candidates of S (truncated at q), then recurses on S + b for every b in
    B_S.  A branch is expanded once regardless of discovery order: expansion
    depends only on the branch as a set, so deduplication leaves the union
    unchanged while avoiding factorial re-exploration.
    """
    cons = instance.constraint
    if not isinstance(cons, MatroidIntersection):
        raise BCError("exset_matroid_intersection requires a matroid-intersection constraint")
    if class_ids is None:
        class_ids = class_partition(instance, layout).get(r, frozenset())
    q = q_of(layout.epsilon)
    union: set[int] = set()
    _extend_chain(frozenset(), class_ids, cons.oracle1, cons.oracle2, instance.cost_of, q,
                  union, seen={frozenset()}, budget=[branch_budget, branch_budget])
    return ExchangeSet(r, frozenset(union))


def _extend_chain(current: frozenset[int], class_ids: frozenset[int], gate: MatroidOracle,
                  basis_src: MatroidOracle, cost: dict[int, int], q: int,
                  union: set[int], seen: set[frozenset[int]], budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise CapExceededError(
            f"exchange-set recursion exceeded its branch budget of {budget[1]} nodes"
        )
    assert len(current) <= q + 1, "branch grew past q(eps) + 1"
    if len(current) > q:
        return
    candidates = frozenset(
        e for e in class_ids - current if gate.is_independent(current | {e})
    )
    basis = min_cost_basis(RestrictedTruncatedMatroid(basis_src, candidates, q), cost)
    union |= basis
    for b in sorted(basis):
        grown = current | {b}
        if grown not in seen:
            seen.add(grown)
            _extend_chain(grown, class_ids, gate, basis_src, cost, q, union, seen, budget)
