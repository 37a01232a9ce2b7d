"""Exact brute-force solver and exhaustive definitional verifiers.

The solvers and verifiers are exponential and guarded by instance size.  These
routines, and the constructions the verifiers rest on (bounded feasibility,
substitutions drawn from a representative set, weak-exchange extensions),
are the ground truth that ``bcopt verify`` and the test suite measure the
real algorithms against; the solver path never calls them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import BCError, BCInstance, Epsilon, GuardExceededError, InfeasibleSetError, Solution
from .classes import ClassLayout, class_partition, q_of
from .constraints import Constraint, Matching
from .enumeration import max_profit_solution_ids
from .lagrange import approx_opt
from .matroids import MatroidOracle

DEFAULT_GUARD = 24


@dataclass(frozen=True)
class VerificationReport:
    property_name: str
    passed: bool
    counterexample: dict | None = None
    # |H|, on a passing replacement report: a pass over an empty H checks nothing.
    profitable: int | None = None

    def __post_init__(self) -> None:
        assert (self.counterexample is not None) == (not self.passed)


def _check_guard(instance: BCInstance, guard: int) -> None:
    if len(instance.elements) > guard:
        raise GuardExceededError(
            f"instance has {len(instance.elements)} elements, above the guard of {guard}"
        )


def iter_feasible_sets(instance: BCInstance, max_size: int | None = None) -> Iterator[frozenset[int]]:
    """Yield every feasible set (budget ignored), smallest-id-first DFS order."""
    ids = instance.sorted_ids()
    n = len(ids)
    limit = n if max_size is None else min(max_size, n)
    cursor = instance.constraint.cursor()
    chosen: list[int] = []

    def walk(idx: int) -> Iterator[frozenset[int]]:
        yield frozenset(chosen)
        if len(chosen) == limit:
            return
        for j in range(idx, n):
            if cursor.try_push(ids[j]):
                chosen.append(ids[j])
                yield from walk(j + 1)
                chosen.pop()
                cursor.pop()

    try:
        yield from walk(0)
    finally:
        del walk  # the closure refers to itself; unbind it to free the cursor


def is_bounded_feasible(constraint: Constraint, subset: Iterable[int], q: int) -> bool:
    """Feasible and of cardinality at most q."""
    if q < 0:
        raise BCError("q must be non-negative")
    s = frozenset(subset)
    return len(s) <= q and constraint.is_feasible(s)


# The factor an exact estimate is known within: alpha = OPT is at least
# OPT / 2, the tightest gamma a ClassLayout takes.
EXACT_GAMMA = 2


def brute_force_opt(instance: BCInstance, guard: int = DEFAULT_GUARD) -> Solution:
    """Exact optimum by pruned subset enumeration; canonical tie-break."""
    _check_guard(instance, guard)
    return Solution.build(instance, max_profit_solution_ids(instance))


def profitable_set(instance: BCInstance, epsilon: Epsilon,
                   guard: int = DEFAULT_GUARD) -> frozenset[int]:
    """Elements with p(e) strictly above eps * OPT, with OPT exact."""
    return _above(instance, epsilon, brute_force_opt(instance, guard).total_profit)


def _above(instance: BCInstance, epsilon: Epsilon, opt: int) -> frozenset[int]:
    """Elements with p(e) strictly above eps * ``opt``."""
    num, den = epsilon.numerator, epsilon.denominator
    return frozenset(e.id for e in instance.elements if e.profit * den > num * opt)


def verify_exchange_set(instance: BCInstance, layout: ClassLayout, r: int,
                        x_ids: Iterable[int], guard: int = DEFAULT_GUARD) -> VerificationReport:
    """Exhaustively check the defining swap property of an exchange set.

    For every bounded feasible set holding a class element outside X there
    must be a cheaper-or-equal class element inside X whose swap stays
    bounded feasible.  Reports the first missing swap as a counterexample.
    """
    _check_guard(instance, guard)
    name = f"exchange-set r={r}"
    x_ids = frozenset(x_ids)
    class_ids = class_partition(instance, layout).get(r, frozenset())
    outside = class_ids - x_ids
    if not outside:
        return VerificationReport(name, True)
    q = q_of(layout.epsilon)
    inside = sorted(class_ids & x_ids)
    cost = instance.cost_of
    cons = instance.constraint
    for delta in iter_feasible_sets(instance, max_size=min(q, len(instance.elements))):
        for a in sorted(delta & outside):
            reduced = delta - {a}
            found = False
            for b in inside:
                if b in delta or cost[b] > cost[a]:
                    continue
                if is_bounded_feasible(cons, reduced | {b}, q):
                    found = True
                    break
            if not found:
                return VerificationReport(
                    name, False,
                    {"delta": sorted(delta), "a": a, "x": sorted(x_ids)},
                )
    return VerificationReport(name, True)


def verify_replacement(instance: BCInstance, epsilon: Epsilon, s_ids: Iterable[int],
                       z_ids: Iterable[int], h: frozenset[int]) -> VerificationReport:
    """Check the four replacement properties of Z for a bounded feasible S,
    given H = :func:`profitable_set`, which a caller checking many S finds once."""
    s_ids, z_ids = frozenset(s_ids), frozenset(z_ids)
    q = q_of(epsilon)
    cons = instance.constraint
    if not is_bounded_feasible(cons, s_ids, q):
        raise InfeasibleSetError("S must be bounded feasible")
    merged = (s_ids - h) | z_ids
    checks = {
        "merged bounded feasible": is_bounded_feasible(cons, merged, q),
        "cost": instance.total_cost(z_ids) <= instance.total_cost(s_ids & h),
        "profit": instance.total_profit(merged) * epsilon.denominator
        >= (epsilon.denominator - epsilon.numerator) * instance.total_profit(s_ids),
        "cardinality": len(z_ids) <= len(s_ids & h),
    }
    failing = [naming for naming, ok in checks.items() if not ok]
    if failing:
        return VerificationReport(
            "replacement", False,
            {"s": sorted(s_ids), "z": sorted(z_ids), "failed": failing},
        )
    return VerificationReport("replacement", True)


def verify_representative(instance: BCInstance, epsilon: Epsilon, r_ids: Iterable[int],
                          opt: int, guard: int = DEFAULT_GUARD) -> VerificationReport:
    """Search for a solution whose profitable part lives inside R.

    ``opt`` is the instance's optimal profit, which a caller that built R
    from it has already found.  Passes iff some solution S with S & H
    inside R reaches (1 - 4 eps) OPT.  The search is a brute force over the
    instance restricted to elements allowed next to R (everything except
    profitable elements outside R).
    """
    _check_guard(instance, guard)
    r_ids = frozenset(r_ids)
    threshold = 1 - 4 * epsilon.fraction
    if opt == 0:
        return VerificationReport("representative-set", True)
    h = _above(instance, epsilon, opt)
    allowed = instance.ids - (h - r_ids)
    restricted = BCInstance(
        tuple(e for e in instance.elements if e.id in allowed),
        instance.constraint.restrict(allowed),
        instance.budget,
    )
    reachable = brute_force_opt(restricted, guard).total_profit
    if reachable >= threshold * opt:
        return VerificationReport("representative-set", True)
    return VerificationReport(
        "representative-set", False,
        {"r": sorted(r_ids), "opt": opt, "best_inside": reachable,
         "threshold": str(threshold)},
    )


def find_substitution(instance: BCInstance, layout: ClassLayout, g_ids: Iterable[int],
                      r_ids: Iterable[int], h: frozenset[int],
                      guard: int = DEFAULT_GUARD) -> frozenset[int] | None:
    """Exhaustively search R for a substitution of the bounded feasible set G.

    A substitution swaps the profitable part of G, its elements in
    H = :func:`profitable_set`, class-for-class: same per-class counts, no
    more cost, disjoint from the non-profitable part, and the blend stays
    bounded feasible.  A caller checking many G finds H once.  Returns one
    substitution drawn from R, or None if none exists.
    """
    _check_guard(instance, guard)
    g_ids, r_ids = frozenset(g_ids), frozenset(r_ids)
    q = q_of(layout.epsilon)
    partition = class_partition(instance, layout)
    keep = g_ids - h
    classed_profitable = [
        (r, sorted(ids & g_ids & h), sorted((ids & r_ids) - keep))
        for r, ids in sorted(partition.items())
    ]
    pools = []
    for _, in_g, candidates in classed_profitable:
        if len(candidates) < len(in_g):
            return None
        pools.append(list(itertools.combinations(candidates, len(in_g))))
    target_cost = instance.total_cost(g_ids & h)
    cons = instance.constraint
    for combo in itertools.product(*pools):
        z = frozenset(itertools.chain.from_iterable(combo))
        if instance.total_cost(z) > target_cost:
            continue
        if is_bounded_feasible(cons, keep | z, q):
            return z
    return None


def check_matroid_axioms(oracle: MatroidOracle, guard: int = 12) -> VerificationReport:
    """Exhaustively verify the three matroid axioms on a small ground set."""
    ground = sorted(oracle.ground_ids)
    if len(ground) > guard:
        raise GuardExceededError(
            f"ground set has {len(ground)} elements, above the guard of {guard}"
        )
    if not oracle.is_independent(frozenset()):
        return VerificationReport("matroid-axioms", False, {"axiom": "empty set dependent"})
    independents = [
        frozenset(c)
        for size in range(len(ground) + 1)
        for c in itertools.combinations(ground, size)
        if oracle.is_independent(c)
    ]
    independent_set = set(independents)
    for a in independents:
        for e in a:
            if a - {e} not in independent_set:
                return VerificationReport(
                    "matroid-axioms", False,
                    {"axiom": "hereditary", "set": sorted(a), "drop": e},
                )
    for a in independents:
        for b in independents:
            if len(a) > len(b):
                if not any(b | {e} in independent_set for e in a - b):
                    return VerificationReport(
                        "matroid-axioms", False,
                        {"axiom": "exchange", "a": sorted(a), "b": sorted(b)},
                    )
    return VerificationReport("matroid-axioms", True)


def matroid_extend(oracle: MatroidOracle, target: frozenset[int], base: frozenset[int]) -> frozenset[int]:
    """Grow ``base`` from ``target`` up to |target| elements, staying independent.

    Returns D, a subset of target - base with |D| = max(|target| - |base|, 0)
    and base | D independent.  Repeated application of the matroid exchange
    property; candidates are taken in ascending id order.
    """
    current = set(base)
    added: set[int] = set()
    while len(current) < len(target):
        for eid in sorted(target - current):
            if oracle.is_independent(current | {eid}):
                current.add(eid)
                added.add(eid)
                break
        else:
            raise BCError("exchange property violated: no extension found "
                          "(is the oracle really a matroid?)")
    return frozenset(added)


def weak_exchange_extend(constraint: Constraint, a_set: Iterable[int],
                         b_set: Iterable[int]) -> frozenset[int]:
    """Extend feasible B with D from A - B, |D| = max(|A| - 2|B|, 0), keeping B | D feasible.

    Both matchings and matroid intersections admit this weaker form of the
    matroid exchange property.  For a matching the extension keeps the edges
    of A that avoid every vertex of B; for an intersection it intersects the
    two single-matroid extensions.  The result is trimmed to exactly the
    mandated size in ascending id order.
    """
    a_set, b_set = frozenset(a_set), frozenset(b_set)
    if not constraint.is_feasible(a_set):
        raise InfeasibleSetError("A is not feasible")
    if not constraint.is_feasible(b_set):
        raise InfeasibleSetError("B is not feasible")
    target = max(len(a_set) - 2 * len(b_set), 0)
    if target == 0:
        return frozenset()
    if isinstance(constraint, Matching):
        blocked = {v for eid in b_set for v in constraint.edges[eid]}
        pool = sorted(eid for eid in a_set - b_set
                      if not (constraint.edges[eid][0] in blocked or constraint.edges[eid][1] in blocked))
    else:
        d1 = matroid_extend(constraint.oracle1, a_set, b_set)
        d2 = matroid_extend(constraint.oracle2, a_set, b_set)
        pool = sorted(d1 & d2)
    if len(pool) < target:
        raise BCError("weak exchange produced too few candidates "
                      "(constraint violates the exchange property)")
    return frozenset(pool[:target])


def verify_weak_exchange(instance: BCInstance, seed: int = 0, trials: int = 200,
                         guard: int = 12) -> VerificationReport:
    """Random feasible pairs (A, B): the extension has the mandated size."""
    _check_guard(instance, guard)
    rng = random.Random(seed)
    ids = instance.sorted_ids()
    cons = instance.constraint

    def random_feasible() -> frozenset[int]:
        chosen: set[int] = set()
        for eid in rng.sample(ids, len(ids)):
            if rng.random() < 0.6 and cons.is_feasible(chosen | {eid}):
                chosen.add(eid)
        return frozenset(chosen)

    for _ in range(trials):
        a, b = random_feasible(), random_feasible()
        d = weak_exchange_extend(cons, a, b)
        want = max(len(a) - 2 * len(b), 0)
        if len(d) != want or not d <= a - b or not cons.is_feasible(b | d):
            return VerificationReport(
                "weak-exchange", False,
                {"a": sorted(a), "b": sorted(b), "d": sorted(d), "want_size": want},
            )
    return VerificationReport("weak-exchange", True)


def verify_npsolver(instance: BCInstance, guard: int = DEFAULT_GUARD) -> VerificationReport:
    """Low-profit contract of the Lagrangian search, at every size:
    ``approx_opt``'s profit >= OPT - 2 * max single profit.

    ``non_profitable_solver`` is ``approx_opt`` above ``EXACT_LIMIT``
    elements and the brute force at or below it, where a check could not fail.
    """
    _check_guard(instance, guard)
    got = approx_opt(instance)
    opt = brute_force_opt(instance, guard).total_profit
    bound = opt - 2 * max((e.profit for e in instance.elements), default=0)
    if got.total_profit >= bound:
        return VerificationReport("npsolver-contract", True)
    return VerificationReport(
        "npsolver-contract", False,
        {"profit": got.total_profit, "opt": opt, "bound": bound},
    )
