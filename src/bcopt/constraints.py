"""Constraint types: graph matchings and two-matroid intersections.

Both feasible-set families are downward closed, which the solver relies on
for pruning.  Residual constraints fix a feasible skeleton F and describe
what may still be added next to it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import BCError, UnknownElementError
from .matroids import MatroidOracle


class Constraint:
    """Common interface of the two constraint kinds."""

    def element_ids(self) -> frozenset[int]:
        raise NotImplementedError

    def is_feasible(self, subset: Iterable[int]) -> bool:
        raise NotImplementedError

    def validate(self, element_ids: set[int]) -> list[str]:
        """Structural problems relative to an instance's element ids."""
        raise NotImplementedError

    def restrict(self, keep: Iterable[int]) -> "Constraint":
        """The same constraint on the sub-ground-set ``keep``."""
        raise NotImplementedError

    def cursor(self) -> "FeasibilityCursor":
        raise NotImplementedError


class Matching(Constraint):
    """Elements are edges of a graph; feasible sets are vertex-disjoint edge sets."""

    def __init__(self, vertex_count: int, edges: Mapping[int, tuple[int, int]]):
        if vertex_count < 0:
            raise BCError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        self.edges = {int(eid): (int(u), int(v)) for eid, (u, v) in edges.items()}

    def element_ids(self) -> frozenset[int]:
        return frozenset(self.edges)

    def is_feasible(self, subset: Iterable[int]) -> bool:
        used: set[int] = set()
        for eid in subset:
            if eid not in self.edges:
                raise UnknownElementError(eid)
            u, v = self.edges[eid]
            if u in used or v in used or u == v:
                return False
            used.add(u)
            used.add(v)
        return True

    def validate(self, element_ids: set[int]) -> list[str]:
        problems = []
        for eid, (u, v) in sorted(self.edges.items()):
            if eid not in element_ids:
                problems.append(f"dangling id {eid}: constraint edge has no element")
            if u == v:
                problems.append(f"self-loop at edge {eid}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                problems.append(f"edge {eid} endpoint out of range")
        for eid in sorted(element_ids - set(self.edges)):
            problems.append(f"element {eid} has no edge in the matching constraint")
        return problems

    def restrict(self, keep: Iterable[int]) -> "Matching":
        keep = set(keep)
        return Matching(self.vertex_count, {e: uv for e, uv in self.edges.items() if e in keep})

    def cursor(self) -> "MatchingCursor":
        return MatchingCursor(self)


class MatroidIntersection(Constraint):
    """Feasible sets are the common independent sets of two matroid oracles."""

    def __init__(self, oracle1: MatroidOracle, oracle2: MatroidOracle):
        self.oracle1 = oracle1
        self.oracle2 = oracle2

    def element_ids(self) -> frozenset[int]:
        return self.oracle1.ground_ids | self.oracle2.ground_ids

    def is_feasible(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.oracle1.is_independent(s) and self.oracle2.is_independent(s)

    def validate(self, element_ids: set[int]) -> list[str]:
        problems = []
        if self.oracle1.ground_ids != self.oracle2.ground_ids:
            problems.append("matroid oracles have different ground sets")
        for eid in sorted(self.element_ids() - element_ids):
            problems.append(f"dangling id {eid}: oracle ground id has no element")
        for eid in sorted(element_ids - (self.oracle1.ground_ids & self.oracle2.ground_ids)):
            problems.append(f"element {eid} missing from an oracle ground set")
        return problems

    def restrict(self, keep: Iterable[int]) -> "MatroidIntersection":
        keep = frozenset(keep)
        return MatroidIntersection(self.oracle1.restrict(keep), self.oracle2.restrict(keep))

    def cursor(self) -> "IntersectionCursor":
        return IntersectionCursor(self)


def residual_constraint(constraint: Constraint, fixed: Iterable[int]) -> Constraint:
    """The constraint left after committing to the feasible set ``fixed``.

    Feasible sets of the result are exactly the A disjoint from ``fixed``
    with A | fixed feasible in the original constraint.  For a matching this
    deletes the fixed edges and everything touching their endpoints; for an
    intersection each oracle is contracted by the fixed set.  ``fixed`` must
    be feasible, and is not re-tested here: the solver lists only feasible
    skeletons, and :func:`bcopt.solver.residual_instance` checks its input.
    """
    fixed = frozenset(fixed)
    if isinstance(constraint, Matching):
        blocked = {v for eid in fixed for v in constraint.edges[eid]}
        surviving = {
            eid: uv
            for eid, uv in constraint.edges.items()
            if eid not in fixed and uv[0] not in blocked and uv[1] not in blocked
        }
        return Matching(constraint.vertex_count, surviving)
    if isinstance(constraint, MatroidIntersection):
        return MatroidIntersection(constraint.oracle1.contract(fixed),
                                   constraint.oracle2.contract(fixed))
    raise BCError(f"unsupported constraint type {type(constraint).__name__}")


class FeasibilityCursor:
    """Incremental feasibility state for depth-first subset search.

    ``try_push`` adds an element iff the grown set stays feasible; ``pop``
    undoes the most recent successful push.
    """

    def try_push(self, eid: int) -> bool:
        raise NotImplementedError

    def pop(self) -> None:
        raise NotImplementedError


class MatchingCursor(FeasibilityCursor):
    def __init__(self, matching: Matching):
        self._edges = matching.edges
        self._used: set[int] = set()
        self._stack: list[tuple[int, int]] = []

    def try_push(self, eid: int) -> bool:
        try:
            u, v = self._edges[eid]
        except KeyError:
            raise UnknownElementError(eid) from None
        if u == v or u in self._used or v in self._used:
            return False
        self._used.add(u)
        self._used.add(v)
        self._stack.append((u, v))
        return True

    def pop(self) -> None:
        u, v = self._stack.pop()
        self._used.discard(u)
        self._used.discard(v)


class IntersectionCursor(FeasibilityCursor):
    """Pushes into one cursor per matroid; an element joins iff both accept it."""

    def __init__(self, intersection: MatroidIntersection):
        self._c1 = intersection.oracle1.cursor()
        self._c2 = intersection.oracle2.cursor()

    def try_push(self, eid: int) -> bool:
        if not self._c1.try_push(eid):
            return False
        try:
            if self._c2.try_push(eid):
                return True
        except UnknownElementError:
            self._c1.pop()
            raise
        self._c1.pop()
        return False

    def pop(self) -> None:
        self._c1.pop()
        self._c2.pop()
