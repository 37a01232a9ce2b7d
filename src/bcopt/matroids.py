"""Matroid oracles: concrete families, derived matroids and exchange helpers.

A matroid is exposed through a single independence predicate.  Everything the
rest of the package needs (greedy minimum-cost bases, truncated restrictions)
is built on top of that one test, so user-supplied matroids only have to
implement :meth:`MatroidOracle.is_independent`.  Axiom verification and
exchange witnesses are test utilities (see :mod:`bcopt.oracle`), not runtime
guards; production oracles are trusted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .core import BCError, InfeasibleSetError, UnknownElementError


class MatroidOracle:
    """Base class: a ground set plus an independence predicate.

    Subclasses implement :meth:`_independent` over frozensets that are
    already known to lie inside the ground set.  Oracles are immutable and
    the predicate must be pure.
    """

    ground_ids: frozenset[int]

    def __init__(self, ground_ids: Iterable[int]):
        self.ground_ids = frozenset(ground_ids)

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        if not s <= self.ground_ids:
            raise UnknownElementError(sorted(s - self.ground_ids)[0])
        return self._independent(s)

    def _independent(self, subset: frozenset[int]) -> bool:
        raise NotImplementedError


class UniformMatroid(MatroidOracle):
    """Independent iff the subset has at most ``rank`` elements."""

    def __init__(self, ground_ids: Iterable[int], rank: int):
        if rank < 0:
            raise BCError(f"rank must be non-negative, got {rank}")
        super().__init__(ground_ids)
        self.rank = rank

    def _independent(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.rank


class PartitionMatroid(MatroidOracle):
    """Per-block cardinality caps over disjoint blocks.

    Elements outside every block are unconstrained (a free direct summand).
    """

    def __init__(self, ground_ids: Iterable[int], blocks: Iterable[Iterable[int]],
                 capacities: Iterable[int]):
        super().__init__(ground_ids)
        self.blocks = tuple(frozenset(b) for b in blocks)
        self.capacities = tuple(capacities)
        if len(self.blocks) != len(self.capacities):
            raise BCError("one capacity per block required")
        if any(c < 0 for c in self.capacities):
            raise BCError("capacities must be non-negative")
        self._block_of: dict[int, int] = {}
        for idx, block in enumerate(self.blocks):
            if not block <= self.ground_ids:
                raise BCError("block contains ids outside the ground set")
            for e in block:
                if e in self._block_of:
                    raise BCError(f"blocks are not disjoint at id {e}")
                self._block_of[e] = idx

    def _independent(self, subset: frozenset[int]) -> bool:
        counts = [0] * len(self.blocks)
        for e in subset:
            idx = self._block_of.get(e)
            if idx is not None:
                counts[idx] += 1
                if counts[idx] > self.capacities[idx]:
                    return False
        return True


class GraphicMatroid(MatroidOracle):
    """Edges of a graph; independent iff the edge set is acyclic.

    A self-loop edge is a one-element circuit, i.e. dependent on its own.
    """

    def __init__(self, vertex_count: int, edges: Mapping[int, tuple[int, int]]):
        super().__init__(edges)
        self.vertex_count = vertex_count
        self.edges = {eid: (int(u), int(v)) for eid, (u, v) in edges.items()}
        for eid, (u, v) in self.edges.items():
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise BCError(f"edge {eid} endpoints out of range")

    def _independent(self, subset: frozenset[int]) -> bool:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for eid in subset:
            u, v = self.edges[eid]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


class RestrictedTruncatedMatroid(MatroidOracle):
    """Base matroid restricted to a universe and truncated at a cap.

    Independent sets are exactly the subsets of the universe that are
    independent in the base matroid and have at most ``cap`` elements.
    """

    def __init__(self, base: MatroidOracle, universe: Iterable[int], cap: int):
        if cap < 0:
            raise BCError(f"cap must be non-negative, got {cap}")
        self.base = base
        self.cap = cap
        super().__init__(frozenset(universe) & base.ground_ids)

    def _independent(self, subset: frozenset[int]) -> bool:
        if len(subset) > self.cap:
            return False
        return self.base.is_independent(subset)


class LambdaMatroid(MatroidOracle):
    """Oracle defined by an arbitrary predicate; used for derived matroids."""

    def __init__(self, ground_ids: Iterable[int], predicate: Callable[[frozenset[int]], bool]):
        super().__init__(ground_ids)
        self._predicate = predicate

    def _independent(self, subset: frozenset[int]) -> bool:
        return self._predicate(subset)


def min_cost_basis(oracle: MatroidOracle, cost: Mapping[int, int] | Callable[[int], int]) -> frozenset[int]:
    """Greedy minimum-cost basis, scanning in ascending (cost, id) order.

    The scan order makes the output canonical; any minimum basis would do for
    correctness, but a fixed one keeps every downstream construction
    reproducible.
    """
    cost_fn = cost.__getitem__ if isinstance(cost, Mapping) else cost
    basis: set[int] = set()
    for eid in sorted(oracle.ground_ids, key=lambda e: (cost_fn(e), e)):
        if oracle.is_independent(basis | {eid}):
            basis.add(eid)
    return frozenset(basis)


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


def weak_exchange_extend(constraint, a_set: Iterable[int], b_set: Iterable[int]) -> frozenset[int]:
    """Extend feasible B with D from A - B, |D| = max(|A| - 2|B|, 0), keeping B | D feasible.

    Both matchings and matroid intersections admit this weaker form of the
    matroid exchange property.  For a matching the extension keeps the edges
    of A that avoid every vertex of B; for an intersection it intersects the
    two single-matroid extensions.  The result is trimmed to exactly the
    mandated size in ascending id order.
    """
    from .constraints import Matching, MatroidIntersection

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
    elif isinstance(constraint, MatroidIntersection):
        d1 = matroid_extend(constraint.oracle1, a_set, b_set)
        d2 = matroid_extend(constraint.oracle2, a_set, b_set)
        pool = sorted(d1 & d2)
    else:
        raise BCError(f"unsupported constraint type {type(constraint).__name__}")
    if len(pool) < target:
        raise BCError("weak exchange produced too few candidates "
                      "(constraint violates the exchange property)")
    return frozenset(pool[:target])
