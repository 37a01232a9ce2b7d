"""Exchange-set construction per profit class.

For matching constraints the exchange set is a union of bounded greedy
matchings drawn from the class: at most 6q rounds of at most 3q edges each,
q = q(eps).  Each round takes at least one edge that is not a self-loop
while one is left, so a class of at most 6q edges comes back whole, less
its self-loops.  For matroid-intersection constraints the two matroids play
asymmetric roles: the first gates which elements may extend a branch, the
second supplies minimum-cost bases of truncated restrictions, and the search
over those bases accumulates the exchange set; a one-element class {e} comes
back whole iff {e} is feasible.  Both grow their greedy sets through the
constraints' cursors with :func:`bcopt.matroids.greedy_min_cost`.

The defining guarantee (any bounded feasible set can swap a class element it
holds for a cheaper-or-equal one inside the exchange set) is checked
exhaustively on small instances by :mod:`bcopt.oracle`.
"""

from __future__ import annotations

from .core import BCError, BCInstance, CapExceededError
from .classes import ClassLayout, q_of
from .constraints import Matching, MatroidIntersection
from .matroids import greedy_min_cost

# The search over minimum bases is exponential in the worst case; fail
# loudly instead of hanging.
BRANCH_BUDGET = 10**6


def exset_matching(instance: BCInstance, layout: ClassLayout,
                   class_ids: frozenset[int]) -> frozenset[int]:
    """Exchange set of one profit class, the ids ``class_ids``, of a matching instance.

    With q = q(eps), repeatedly extracts greedy matchings of size at most
    N = 3q from the remaining class edges, for at most k = 6q rounds, and
    returns their union.  Hard postconditions: each round yields at most N
    edges and the union has at most k * N = 18 * q^2 elements.

    A round keeps the first edge it meets that is not a self-loop, so while
    one is left every round takes at least one.  A class of at most k edges
    is therefore used up by the rounds, less its self-loops, which no
    matching holds.
    """
    graph = instance.constraint
    if not isinstance(graph, Matching):
        raise BCError("exset_matching requires a matching constraint")
    q = q_of(layout.epsilon)
    pool = set(class_ids)
    union: set[int] = set()
    for _ in range(6 * q):
        matched = greedy_min_cost(graph.cursor(), pool, instance.cost_of, 3 * q)
        if not matched:
            break
        union |= matched
        pool -= matched
    assert len(union) <= 18 * q * q, "exchange-set size bound violated"
    return frozenset(union)


def exset_matroid_intersection(instance: BCInstance, layout: ClassLayout,
                               class_ids: frozenset[int]) -> frozenset[int]:
    """Exchange set of one profit class, the ids ``class_ids``, of an intersection instance.

    Starting from the empty branch, each branch S of at most q elements
    collects the minimum-cost basis B_S of the second matroid, restricted to
    the first-matroid extension candidates of S and truncated at q, and
    branches on S + b for every b in B_S.  B_S depends only on S as a set,
    so the branches reached, their number and the union of their bases do
    not depend on the order in which branches are expanded; each is expanded
    once.  B_S is empty when S holds the whole class or has no candidate,
    so such a branch is left before any cursor is built in the first case,
    and before the second matroid's cursor and sort in the other; it still
    counts against the budget.  The (``BRANCH_BUDGET`` + 1)-th branch raises
    :class:`CapExceededError`.
    """
    cons = instance.constraint
    if not isinstance(cons, MatroidIntersection):
        raise BCError("exset_matroid_intersection requires a matroid-intersection constraint")
    q = q_of(layout.epsilon)
    union: set[int] = set()
    seen: set[frozenset[int]] = {frozenset()}
    work = [frozenset()]
    expanded = 0
    while work:
        branch = work.pop()
        expanded += 1
        if expanded > BRANCH_BUDGET:
            raise CapExceededError(
                f"exchange-set search exceeded its branch budget of {BRANCH_BUDGET} branches"
            )
        rest = class_ids - branch
        if len(branch) > q or not rest:
            continue
        gate = cons.oracle1.cursor()
        for e in branch:  # independent in the first matroid by construction
            gate.try_push(e)
        candidates = []
        for e in rest:
            if gate.try_push(e):
                gate.pop()
                candidates.append(e)
        if not candidates:
            continue
        basis = greedy_min_cost(cons.oracle2.cursor(), candidates, instance.cost_of, q)
        union |= basis
        for b in basis:
            grown = branch | {b}
            if grown not in seen:
                seen.add(grown)
                work.append(grown)
    return frozenset(union)
