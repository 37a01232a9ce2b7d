"""Constraint types: graph matchings and two-matroid intersections.

Both feasible-set families are downward closed, which the solver relies on
for pruning.  Residual constraints fix a feasible skeleton F and describe
what may still be added next to it.

Constructors refuse a broken structure with
:class:`~bcopt.core.InvalidParameterError`: an endpoint outside the vertex
range, or two oracles over different ground sets.  A self-loop is legal.
A matching's restriction and residual keep some of its edges, which its
constructor has already checked, so they are built without the re-check.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .core import BCError, InvalidParameterError, UnknownElementError, checked_edges, checked_int
from .matroids import MatroidOracle


class Constraint:
    """Common interface of the two constraint kinds."""

    def element_ids(self) -> frozenset[int]:
        raise NotImplementedError

    def is_feasible(self, subset: Iterable[int]) -> bool:
        raise NotImplementedError

    def restrict(self, keep: Iterable[int]) -> "Constraint":
        """The same constraint on the sub-ground-set ``keep``."""
        raise NotImplementedError

    def cursor(self) -> "FeasibilityCursor":
        raise NotImplementedError


class Matching(Constraint):
    """Elements are edges of a graph; feasible sets are vertex-disjoint edge sets.

    Edges are checked, never converted, by :func:`~bcopt.core.checked_edges`.
    A self-loop is an edge no feasible set holds.
    """

    def __init__(self, vertex_count: int, edges: Mapping[int, tuple[int, int]]):
        self.vertex_count = checked_int(vertex_count, "vertex count")
        self.edges = checked_edges(self.vertex_count, edges)

    @classmethod
    def _of_checked(cls, vertex_count: int, edges: dict[int, tuple[int, int]]) -> "Matching":
        """A matching on ``edges`` drawn from a constructed matching's, not re-checked.

        The constructor owns the edge rule; this shares it by taking only
        edges that have passed it.  A subset of valid edges on the same
        vertex count is valid, so a solver that builds one residual per
        skeleton does not pay for the check again.
        """
        graph = cls.__new__(cls)
        graph.vertex_count = vertex_count
        graph.edges = edges
        return graph

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

    def restrict(self, keep: Iterable[int]) -> "Matching":
        keep = set(keep)
        return Matching._of_checked(self.vertex_count,
                                    {e: uv for e, uv in self.edges.items() if e in keep})

    def cursor(self) -> "MatchingCursor":
        return MatchingCursor(self)


class MatroidIntersection(Constraint):
    """Feasible sets are the common independent sets of two matroid oracles.

    Both oracles must have the same ground set.
    """

    def __init__(self, oracle1: MatroidOracle, oracle2: MatroidOracle):
        if oracle1.ground_ids != oracle2.ground_ids:
            raise InvalidParameterError(
                "matroid oracles have different ground sets: "
                f"{sorted(oracle1.ground_ids ^ oracle2.ground_ids)} in only one")
        self.oracle1 = oracle1
        self.oracle2 = oracle2

    def element_ids(self) -> frozenset[int]:
        return self.oracle1.ground_ids

    def is_feasible(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.oracle1.is_independent(s) and self.oracle2.is_independent(s)

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
        return Matching._of_checked(constraint.vertex_count, surviving)
    if isinstance(constraint, MatroidIntersection):
        return MatroidIntersection(constraint.oracle1.contract(fixed),
                                   constraint.oracle2.contract(fixed))
    raise BCError(f"unsupported constraint type {type(constraint).__name__}")


def size_cap(constraint: Constraint, ids: Iterable[int]) -> int:
    """An upper bound on the size of every feasible subset of ``ids``.

    For a matching it is floor(|V| / 2), V the endpoints of the edges
    ``ids``: a matching covers two vertices per edge.  For an intersection
    it is min(r1, r2), the ranks of ``ids`` in the two matroids, each found
    by pushing ``ids`` into a fresh matroid cursor; any order gives the rank.
    This is the cardinality row of Caprara, Kellerer, Pferschy and Pisinger
    (EJOR 2000).  Other constraints get the trivial bound |ids|.  An id
    outside the constraint raises :class:`UnknownElementError`, as a cursor
    push would.
    """
    ids = list(ids)
    if isinstance(constraint, Matching):
        edges = constraint.edges
        try:
            return len({v for eid in ids for v in edges[eid]}) // 2
        except KeyError as exc:
            raise UnknownElementError(exc.args[0]) from None
    if isinstance(constraint, MatroidIntersection):
        return min(sum(map(oracle.cursor().try_push, ids))
                   for oracle in (constraint.oracle1, constraint.oracle2))
    return len(ids)


def conflict_masks(constraint: Constraint, ids: Sequence[int]
                   ) -> tuple[list[int], int, "FeasibilityCursor | None"]:
    """One search's int mask per id of ``ids``, its starting ``used``, and its cursor.

    A search grows a set S of ``ids`` and keeps ``used``, the start or'ed
    with the masks of S; an id whose mask meets ``used`` cannot join S.  For
    a :class:`Matching` an edge's mask holds its endpoints' bits, so it meets
    ``used`` exactly when S covers an endpoint, and the masks decide alone:
    the cursor is None.  A self-loop's mask also holds bit 0, which the
    start already holds, so it never joins.  For any other constraint the
    mask is the id's own bit, its position in ``ids``, which never meets
    ``used`` in a search that takes each position once; a fresh cursor
    decides.  Bits are numbered per call, so masks of two calls do not mix.
    An unknown id raises :class:`UnknownElementError`: for a matching here,
    otherwise when the cursor meets it.
    """
    if isinstance(constraint, Matching):
        edges = constraint.edges
        bit: dict[int, int] = {}
        masks = []
        for eid in ids:
            try:
                u, v = edges[eid]
            except KeyError:
                raise UnknownElementError(eid) from None
            if u not in bit:
                bit[u] = 2 << len(bit)
            if v not in bit:
                bit[v] = 2 << len(bit)
            masks.append(bit[u] | bit[v] if u != v else bit[u] | 1)
        return masks, 1, None
    return [1 << k for k in range(len(ids))], 0, constraint.cursor()


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
        # Both cursors share one ground set, so an unknown id raises in the first.
        if not self._c1.try_push(eid):
            return False
        if self._c2.try_push(eid):
            return True
        self._c1.pop()
        return False

    def pop(self) -> None:
        self._c1.pop()
        self._c2.pop()
