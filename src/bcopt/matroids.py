"""Matroid oracles: concrete families, minors, cursors and minimum-cost bases.

A matroid is exposed through a single independence predicate.  Everything the
rest of the package needs (cursors, greedy minimum-cost bases, restrictions
and contractions) is built on top of that one test, so a user-supplied
matroid only has to implement :meth:`MatroidOracle._independent`.

Searches grow and shrink one set an element at a time through a cursor
(:meth:`MatroidOracle.cursor`): ``try_push(e)`` adds ``e`` iff the grown set
stays independent, and ``pop`` undoes the last successful push.  No id may be
pushed while it is in the cursor's set.  The default cursor re-tests the whole
grown set with ``_independent``.  Overriding ``cursor()`` is optional and only
saves time; its answers must agree with ``_independent``.  The built-in
families keep counters (uniform, partition) or a forest with undo (graphic).
:func:`greedy_min_cost` grows minimum-cost bases, truncated ones included,
through a cursor.

Restrictions and contractions are one explicit minor, :class:`MatroidMinor`,
over the original matroid; a minor of a minor re-targets that same base.
Axiom verification, exchange witnesses and exchange extensions are analysis
utilities (see :mod:`bcopt.oracle`), not runtime guards; production oracles
are trusted.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import InvalidParameterError, UnknownElementError, checked_edges, checked_int


class MatroidOracle:
    """Base class: a ground set plus an independence predicate.

    Subclasses implement :meth:`_independent` over frozensets that are
    already known to lie inside the ground set.  Oracles are immutable and
    the predicate must be pure.  :meth:`cursor` may be overridden with an
    incremental test that agrees with :meth:`_independent`.
    """

    ground_ids: frozenset[int]

    def __init__(self, ground_ids: Iterable[int]):
        self.ground_ids = frozenset(ground_ids)

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        _check_ground(s, self.ground_ids)
        return self._independent(s)

    def _independent(self, subset: frozenset[int]) -> bool:
        raise NotImplementedError

    def cursor(self) -> "MatroidCursor":
        """An empty incremental independence test over this ground set."""
        return MatroidCursor(self)

    def restrict(self, keep: Iterable[int]) -> "MatroidMinor":
        """This matroid on the ground ids that are also in ``keep``."""
        return MatroidMinor(self, frozenset(), self.ground_ids & frozenset(keep))

    def contract(self, fixed: Iterable[int]) -> "MatroidMinor":
        """This matroid with the ground ids ``fixed`` committed.

        A subset S of the rest is independent iff S | fixed is independent
        here.  Every id of ``fixed`` must be in the ground set.
        """
        fixed = frozenset(fixed)
        _check_ground(fixed, self.ground_ids)
        return MatroidMinor(self, fixed, self.ground_ids - fixed)


def _check_ground(subset: frozenset[int], ground: frozenset[int]) -> None:
    if not subset <= ground:
        raise UnknownElementError(sorted(subset - ground)[0])


class MatroidCursor:
    """Incremental independence state; this generic one re-tests the grown set.

    ``try_push(e)`` adds ``e`` iff the current set plus ``e`` is independent
    and says whether it did; an id outside the ground set raises
    :class:`UnknownElementError`.  ``pop`` undoes the most recent successful
    push.  No id may be pushed while it is in the current set.  Subclasses
    for the built-in families answer from counters or a forest instead.
    """

    def __init__(self, oracle: MatroidOracle):
        self._oracle = oracle
        self._current: list[int] = []

    def try_push(self, eid: int) -> bool:
        if not self._oracle.is_independent((*self._current, eid)):
            return False
        self._current.append(eid)
        return True

    def pop(self) -> None:
        self._current.pop()


class MatroidMinor(MatroidOracle):
    """``base`` with ``fixed`` contracted, restricted to ``ground_ids``.

    A subset S of ``ground_ids`` is independent iff S | fixed is independent
    in ``base``.  ``fixed`` and ``ground_ids`` are disjoint subsets of the
    base ground set.  A minor of a minor is built over the inner minor's
    base, with both fixed sets, so minors never nest.
    """

    def __init__(self, base: MatroidOracle, fixed: Iterable[int], ground_ids: Iterable[int]):
        super().__init__(ground_ids)
        self.fixed = frozenset(fixed)
        if isinstance(base, MatroidMinor):
            self.fixed |= base.fixed
            base = base.base
        self.base = base

    def _independent(self, subset: frozenset[int]) -> bool:
        return self.base._independent(subset | self.fixed)

    def cursor(self) -> "MatroidCursor":
        return _MinorCursor(self)


class _MinorCursor(MatroidCursor):
    """The base matroid's cursor with the minor's fixed ids pushed in advance.

    If ``fixed`` is dependent, no set of the minor is independent, so every
    push is refused.
    """

    def __init__(self, minor: MatroidMinor):
        self._ground = minor.ground_ids
        self._cursor = minor.base.cursor()
        self._live = all(self._cursor.try_push(e) for e in minor.fixed)

    def try_push(self, eid: int) -> bool:
        if eid not in self._ground:
            raise UnknownElementError(eid)
        return self._live and self._cursor.try_push(eid)

    def pop(self) -> None:
        self._cursor.pop()


class UniformMatroid(MatroidOracle):
    """Independent iff the subset has at most ``rank`` elements.

    ``rank`` is checked, never converted, by :func:`~bcopt.core.checked_int`.
    """

    def __init__(self, ground_ids: Iterable[int], rank: int):
        super().__init__(ground_ids)
        self.rank = checked_int(rank, "rank")

    def _independent(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.rank

    def cursor(self) -> "MatroidCursor":
        return _UniformCursor(self)


class _UniformCursor(MatroidCursor):
    """Room left under the rank."""

    def __init__(self, matroid: UniformMatroid):
        self._ground = matroid.ground_ids
        self._room = matroid.rank

    def try_push(self, eid: int) -> bool:
        if eid not in self._ground:
            raise UnknownElementError(eid)
        if self._room == 0:
            return False
        self._room -= 1
        return True

    def pop(self) -> None:
        self._room += 1


class PartitionMatroid(MatroidOracle):
    """Per-block cardinality caps over disjoint blocks.

    Elements outside every block are unconstrained (a free direct summand).
    Block ids and capacities are integers (:func:`~bcopt.core.checked_int`).
    The blocks are disjoint subsets of the ground set with one capacity each;
    anything else raises :class:`~bcopt.core.InvalidParameterError`.
    """

    def __init__(self, ground_ids: Iterable[int], blocks: Iterable[Iterable[int]],
                 capacities: Iterable[int]):
        super().__init__(ground_ids)
        self.blocks = tuple(frozenset(checked_int(e, "block id") for e in b) for b in blocks)
        self.capacities = tuple(checked_int(c, "capacity") for c in capacities)
        if len(self.blocks) != len(self.capacities):
            raise InvalidParameterError(
                f"one capacity per block required: {len(self.blocks)} blocks, "
                f"{len(self.capacities)} capacities")
        self._block_of: dict[int, int] = {}
        for idx, block in enumerate(self.blocks):
            if not block <= self.ground_ids:
                raise InvalidParameterError(
                    f"block ids {sorted(block - self.ground_ids)} are outside the ground set")
            for e in block:
                if e in self._block_of:
                    raise InvalidParameterError(f"blocks are not disjoint at id {e}")
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

    def cursor(self) -> "MatroidCursor":
        return _PartitionCursor(self)


class _PartitionCursor(MatroidCursor):
    """Room left per block; elements outside every block always fit."""

    def __init__(self, matroid: PartitionMatroid):
        self._ground = matroid.ground_ids
        self._block_of = matroid._block_of
        self._room = list(matroid.capacities)
        self._pushed: list[int | None] = []  # block of each push

    def try_push(self, eid: int) -> bool:
        if eid not in self._ground:
            raise UnknownElementError(eid)
        idx = self._block_of.get(eid)
        if idx is not None:
            if self._room[idx] == 0:
                return False
            self._room[idx] -= 1
        self._pushed.append(idx)
        return True

    def pop(self) -> None:
        idx = self._pushed.pop()
        if idx is not None:
            self._room[idx] += 1


class GraphicMatroid(MatroidOracle):
    """Edges of a graph; independent iff the edge set is acyclic.

    A self-loop edge is a one-element circuit, i.e. dependent on its own.
    Edges are checked, never converted, by :func:`~bcopt.core.checked_edges`.
    """

    def __init__(self, vertex_count: int, edges: Mapping[int, tuple[int, int]]):
        super().__init__(edges)
        self.vertex_count = checked_int(vertex_count, "vertex count")
        self.edges = checked_edges(self.vertex_count, edges)

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

    def cursor(self) -> "MatroidCursor":
        return _ForestCursor(self)


class _ForestCursor(MatroidCursor):
    """Union-find with undo: union by size and no path compression.

    A root has no ``parent`` entry; each push records the root it hung under
    another, so ``pop`` detaches it again.
    """

    def __init__(self, matroid: GraphicMatroid):
        self._edges = matroid.edges  # keyed by the ground ids
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}
        self._hung: list[int] = []

    def try_push(self, eid: int) -> bool:
        try:
            u, v = self._edges[eid]
        except KeyError:
            raise UnknownElementError(eid) from None
        parent = self._parent
        while u in parent:
            u = parent[u]
        while v in parent:
            v = parent[v]
        if u == v:
            return False
        size = self._size
        su, sv = size.get(u, 1), size.get(v, 1)
        if su > sv:
            u, v = v, u
        parent[u] = v
        size[v] = su + sv
        self._hung.append(u)
        return True

    def pop(self) -> None:
        u = self._hung.pop()
        v = self._parent.pop(u)
        self._size[v] -= self._size.get(u, 1)


def greedy_min_cost(cursor, ids: Iterable[int], cost: Mapping[int, int],
                    limit: int) -> frozenset[int]:
    """The ids of ``ids`` that ``cursor`` accepts, pushed in ascending (cost, id) order.

    ``cursor`` is any object with ``try_push`` (a matroid or feasibility
    cursor); it is left holding the kept ids.  The scan stops once ``limit``
    ids are kept.  Over a matroid's ground set this is a minimum-cost basis
    of the matroid truncated at rank ``limit``; with ``limit = len(ids)``,
    Edmonds' greedy minimum-cost basis.  The scan order makes the output
    canonical: any minimum basis would do for correctness, but a fixed one
    keeps every downstream construction reproducible.
    """
    kept: list[int] = []
    for eid in sorted(ids, key=lambda e: (cost[e], e)):
        if len(kept) >= limit:
            break
        if cursor.try_push(eid):
            kept.append(eid)
    return frozenset(kept)
