"""Constraint types: graph matchings and two-matroid intersections.

Both feasible-set families are downward closed, which the solver relies on
for pruning.  Residual constraints fix a feasible skeleton F and describe
what may still be added next to it.

They are the only two kinds: :class:`~bcopt.core.BCInstance` refuses any
other constraint, so every reader here branches on these two alone.
Constructors refuse a broken structure with
:class:`~bcopt.core.InvalidParameterError`: an endpoint outside the vertex
range, an oracle that is not a :class:`~bcopt.matroids.MatroidOracle`, or
two oracles over different ground sets.  A self-loop is legal.
A matching's restriction and residual keep some of its edges, which its
constructor has already checked, so they are built without the re-check,
and they share its vertex numbering: one table of edge masks per matching,
which every reader of a conflict reads through :func:`conflict_masks`.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

from .core import InvalidParameterError, UnknownElementError, checked_edges, checked_int
from .matroids import MatroidOracle


class Matching:
    """Elements are edges of a graph; feasible sets are vertex-disjoint edge sets.

    Edges are checked, never converted, by :func:`~bcopt.core.checked_edges`.
    A self-loop is an edge no feasible set holds.
    """

    def __init__(self, vertex_count: int, edges: Mapping[int, tuple[int, int]]):
        self.vertex_count = checked_int(vertex_count, "vertex count")
        self.edges = checked_edges(self.vertex_count, edges)

    @cached_property
    def _masks(self) -> dict[int, int]:
        """Each edge id's int mask: its endpoints' bits, from bit 1 on, and
        bit 0 for a self-loop.  Built on first use, so a matching that
        nothing searches costs no more to construct."""
        bit: dict[int, int] = {}
        masks = {}
        for eid, (u, v) in self.edges.items():
            mu = bit.setdefault(u, 2 << len(bit))
            masks[eid] = mu | bit.setdefault(v, 2 << len(bit)) if u != v else mu | 1
        return masks

    def _of_checked(self, edges: dict[int, tuple[int, int]]) -> "Matching":
        """A matching on some of this one's ``edges``, not re-checked.

        The constructor owns the edge rule; this shares it by taking only
        edges that have passed it.  A subset of valid edges on the same
        vertex count is valid, so a solver that builds one residual per
        skeleton does not pay for the check again.  It shares the mask table.
        """
        graph = Matching.__new__(Matching)
        graph.vertex_count = self.vertex_count
        graph.edges = edges
        graph._masks = self._masks
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
        return self._of_checked({e: uv for e, uv in self.edges.items() if e in keep})

    def cursor(self) -> "MatchingCursor":
        return MatchingCursor(self)


class MatroidIntersection:
    """Feasible sets are the common independent sets of two matroid oracles.

    Both oracles must be :class:`~bcopt.matroids.MatroidOracle` instances
    with the same ground set.
    """

    def __init__(self, oracle1: MatroidOracle, oracle2: MatroidOracle):
        for oracle in (oracle1, oracle2):
            if not isinstance(oracle, MatroidOracle):
                raise InvalidParameterError(
                    f"a matroid oracle must be a MatroidOracle, got {type(oracle).__name__}")
        if oracle1.ground_ids != oracle2.ground_ids:
            raise InvalidParameterError(
                "matroid oracles have different ground sets: "
                f"{sorted(oracle1.ground_ids ^ oracle2.ground_ids)} in only one")
        self.oracle1 = oracle1
        self.oracle2 = oracle2

    def element_ids(self) -> frozenset[int]:
        return self.oracle1.ground_ids

    @cached_property
    def _rank(self) -> int:
        """min(r1, r2), the two matroids' ranks of the ground set, found once
        per constraint by pushing it into a fresh cursor of each; any order
        gives the rank."""
        ids = sorted(self.oracle1.ground_ids)
        return min(sum(map(oracle.cursor().try_push, ids))
                   for oracle in (self.oracle1, self.oracle2))

    def is_feasible(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.oracle1.is_independent(s) and self.oracle2.is_independent(s)

    def restrict(self, keep: Iterable[int]) -> "MatroidIntersection":
        keep = frozenset(keep)
        return MatroidIntersection(self.oracle1.restrict(keep), self.oracle2.restrict(keep))

    def cursor(self) -> "IntersectionCursor":
        return IntersectionCursor(self)


# The two kinds, for annotations; BCInstance accepts nothing else.
Constraint = Matching | MatroidIntersection


def residual_constraint(constraint: Constraint, fixed: Iterable[int]) -> Constraint:
    """The constraint left after committing to the feasible set ``fixed``.

    Feasible sets of the result are exactly the A disjoint from ``fixed``
    with A | fixed feasible in the original constraint.  For a matching this
    keeps the edges whose masks, their endpoints, miss the fixed edges'; for an
    intersection each oracle is contracted by the fixed set.  ``fixed`` must
    be feasible, and is not re-tested here: the solver lists only feasible
    skeletons.
    An unknown id raises :class:`UnknownElementError`.
    """
    fixed = frozenset(fixed)
    if isinstance(constraint, Matching):
        blocked = reduce(or_, conflict_masks(constraint, fixed)[0], 0)
        masks = constraint._masks
        return constraint._of_checked(
            {eid: uv for eid, uv in constraint.edges.items() if not masks[eid] & blocked})
    return MatroidIntersection(constraint.oracle1.contract(fixed),
                               constraint.oracle2.contract(fixed))


def size_cap(constraint: Constraint, ids: Iterable[int]) -> int:
    """An upper bound on the size of every feasible subset of ``ids``.

    For a matching it is floor(|V| / 2), V the endpoints of the edges
    ``ids``: a matching covers two vertices per edge.  For an intersection
    it is min(r1, r2), the ranks of the whole ground set in the two
    matroids, which bound the ranks of ``ids``; it is found once per
    constraint object, so every search on one residual shares it.  This is
    the cardinality row of Caprara, Kellerer, Pferschy and Pisinger (EJOR
    2000).  An id outside the constraint raises :class:`UnknownElementError`.
    """
    ids = list(ids)
    if isinstance(constraint, Matching):
        # Bit 0 marks a self-loop, not a vertex.
        return (reduce(or_, conflict_masks(constraint, ids)[0], 0) >> 1).bit_count() // 2
    ground = constraint.oracle1.ground_ids
    for eid in ids:
        if eid not in ground:
            raise UnknownElementError(eid)
    return constraint._rank


def conflict_masks(constraint: Constraint, ids: Sequence[int]
                   ) -> tuple[list[int], int, IntersectionCursor | None]:
    """One search's int mask per id of ``ids``, its starting ``used``, and its cursor.

    A search grows a set S of ``ids`` and keeps ``used``, the start or'ed
    with the masks of S; an id whose mask meets ``used`` cannot join S.  For
    a :class:`Matching` the masks are read from its table, numbered once per
    matching: an edge's mask holds its endpoints' bits, so it meets ``used``
    exactly when S covers an endpoint, and the masks decide alone: the
    cursor is None.  A self-loop's mask also holds bit 0, which the start
    already holds, so it never joins.  An intersection knows no pairwise
    conflict: its masks are zeros, and a fresh cursor decides alone.  An
    unknown id raises :class:`UnknownElementError`: for a matching here,
    otherwise when the cursor meets it.
    """
    if isinstance(constraint, Matching):
        edges = constraint.edges
        for eid in ids:
            if eid not in edges:
                raise UnknownElementError(eid)
        return list(map(constraint._masks.__getitem__, ids)), 1, None
    return [0] * len(ids), 0, constraint.cursor()


class MatchingCursor:
    """Incremental feasibility state of a matching for depth-first subset search.

    ``try_push`` adds an edge iff the grown set stays a matching; ``pop``
    undoes the most recent successful push.
    """

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


class IntersectionCursor:
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
