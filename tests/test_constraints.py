import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings

import bcopt.constraints
from bcopt.core import UnknownElementError
from bcopt.constraints import (
    Matching, MatroidIntersection, conflict_masks, residual_constraint, size_cap,
)
from bcopt.core import BCInstance, Element
from bcopt.enumeration import max_weight_feasible_ids
from bcopt.matroids import PartitionMatroid, UniformMatroid
from bcopt.oracle import is_bounded_feasible, iter_feasible_sets
from bcopt.solver import SkeletonBound

from conftest import CountingCursors, random_matroid, tiny_instances


def all_subsets(ids):
    ids = sorted(ids)
    for size in range(len(ids) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ids, size))


class TestFeasibility:
    def test_empty_set_feasible_for_both_kinds(self):
        assert Matching(2, {0: (0, 1)}).is_feasible(())
        ids = frozenset({0})
        assert MatroidIntersection(UniformMatroid(ids, 1), UniformMatroid(ids, 1)).is_feasible(())

    def test_path_edges_share_a_vertex(self):
        path = Matching(3, {0: (0, 1), 1: (1, 2)})
        assert not path.is_feasible((0, 1))

    def test_rank_two_three_intersection(self):
        ids = frozenset({0, 1, 2})
        cons = MatroidIntersection(UniformMatroid(ids, 2), UniformMatroid(ids, 3))
        assert not cons.is_feasible((0, 1, 2))
        assert cons.is_feasible((0, 1))

    def test_unknown_id(self):
        with pytest.raises(UnknownElementError):
            Matching(2, {0: (0, 1)}).is_feasible((9,))
        with pytest.raises(UnknownElementError):
            Matching(2, {0: (0, 1)}).cursor().try_push(9)


class TestBoundedFeasibility:
    def test_empty_at_q_zero(self):
        assert is_bounded_feasible(Matching(2, {0: (0, 1)}), (), 0)

    def test_cardinality_cap(self):
        m = Matching(4, {0: (0, 1), 1: (2, 3)})
        assert not is_bounded_feasible(m, (0, 1), 1)
        assert is_bounded_feasible(m, (0, 1), 2)

    def test_infeasible_within_cap(self):
        m = Matching(3, {0: (0, 1), 1: (1, 2)})
        assert not is_bounded_feasible(m, (0, 1), 5)


class TestResidual:
    def test_empty_skeleton_is_identity(self):
        m = Matching(4, {0: (0, 1), 1: (2, 3)})
        residual = residual_constraint(m, ())
        for s in all_subsets({0, 1}):
            assert residual.is_feasible(s) == m.is_feasible(s)

    def test_path_middle_edge_empties_the_ground(self):
        # path v0-v1-v2-v3: committing to the middle edge kills both others
        path = Matching(4, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        residual = residual_constraint(path, {1})
        assert residual.element_ids() == frozenset()

    def test_uniform_ranks_drop_by_committed_size(self):
        ids = frozenset(range(4))
        cons = MatroidIntersection(UniformMatroid(ids, 2), UniformMatroid(ids, 2))
        residual = residual_constraint(cons, {0})
        rest = ids - {0}
        expected = MatroidIntersection(UniformMatroid(rest, 1), UniformMatroid(rest, 1))
        for s in all_subsets(rest):
            assert residual.is_feasible(s) == expected.is_feasible(s)

    @pytest.mark.parametrize("seed", range(10))
    def test_soundness_and_completeness_exhaustive(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 8)
        ids = frozenset(range(n))
        if seed % 2 == 0:
            vertices = rng.randint(2, n + 3)
            edges = {
                i: (rng.randrange(vertices), rng.randrange(vertices)) for i in ids
            }
            cons = Matching(vertices, edges)
        else:
            cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
        feasible = [s for s in all_subsets(ids) if cons.is_feasible(s)]
        for f in feasible:
            residual = residual_constraint(cons, f)
            ground = residual.element_ids()
            # soundness: residual-feasible extensions stay feasible jointly
            for t in all_subsets(ground):
                if residual.is_feasible(t):
                    assert cons.is_feasible(t | f)
            # completeness: any feasible superset shows up in the residual
            for s in feasible:
                if s >= f:
                    assert (s - f) <= ground
                    assert residual.is_feasible(s - f)

    def test_downward_closure_exhaustive(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(0, 7)
            ids = frozenset(range(n))
            cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
            for s in all_subsets(ids):
                if cons.is_feasible(s):
                    for e in s:
                        assert cons.is_feasible(s - {e})


def refuse_the_check(*args):
    raise AssertionError("checked_edges called on a derived matching")


class TestDerivedMatchingsAreNotRechecked:
    """A restriction or residual of a matching keeps edges its constructor
    checked, so it is built without ``checked_edges``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_same_matching_as_the_public_constructor(self, seed):
        rng = random.Random(seed)
        vertices = rng.randint(1, 9)
        edges = {i: (rng.randrange(vertices), rng.randrange(vertices))
                 for i in rng.sample(range(40), rng.randint(0, 12))}
        m = Matching(vertices, edges)
        keep = {i for i in edges if rng.random() < 0.6}
        fixed = next((frozenset([i]) for i in edges if edges[i][0] != edges[i][1]), frozenset())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bcopt.constraints, "checked_edges", refuse_the_check)
            derived = [m.restrict(keep), residual_constraint(m, fixed)]
        blocked = {v for i in fixed for v in edges[i]}
        expected = [
            Matching(vertices, {i: uv for i, uv in edges.items() if i in keep}),
            Matching(vertices, {i: uv for i, uv in edges.items()
                                if i not in fixed and not blocked & set(uv)}),
        ]
        for got, want in zip(derived, expected):
            assert type(got) is Matching
            assert (got.vertex_count, got.edges) == (want.vertex_count, want.edges)
            assert list(got.edges) == list(want.edges)


def counting_table_builds(monkeypatch):
    """The matchings whose mask table is built, one entry per build."""
    builds = []
    build = Matching._masks.func

    def counted(self):
        builds.append(self)
        return build(self)

    table = functools.cached_property(counted)
    table.__set_name__(Matching, "_masks")
    monkeypatch.setattr(Matching, "_masks", table)
    return builds


class TestOneMaskTablePerMatching:
    """A matching numbers its vertices once; its restrictions and residuals
    read the same table."""

    @pytest.mark.parametrize("seed", range(10))
    def test_derived_matchings_share_the_parent_table(self, seed, monkeypatch):
        builds = counting_table_builds(monkeypatch)
        rng = random.Random(seed)
        vertices = rng.randint(1, 9)
        edges = {i: (rng.randrange(vertices), rng.randrange(vertices))
                 for i in rng.sample(range(40), rng.randint(0, 12))}
        m = Matching(vertices, edges)
        keep = {i for i in edges if rng.random() < 0.6}
        fixed = next((frozenset([i]) for i in edges if edges[i][0] != edges[i][1]), frozenset())
        residual = residual_constraint(m, fixed)
        for derived in (m.restrict(keep), residual, residual.restrict(keep)):
            ids = sorted(derived.edges)
            rng.shuffle(ids)
            assert conflict_masks(derived, ids) == (conflict_masks(m, ids)[0], 1, None)
            assert size_cap(derived, ids) == size_cap(m, ids)
        assert builds == [m]

    def test_a_matching_nothing_searches_builds_no_table(self, monkeypatch):
        builds = counting_table_builds(monkeypatch)
        Matching(3, {0: (0, 1), 1: (1, 2)}).is_feasible({0})
        assert builds == []

    def test_self_loops_in_the_size_cap_and_the_residual(self):
        m = Matching(4, {0: (0, 1), 1: (1, 1), 2: (2, 3), 3: (3, 3)})
        # A self-loop covers one vertex.
        assert [size_cap(m, ids) for ids in ([1], [0, 1], [1, 3], [0, 1, 2, 3])] == [0, 1, 1, 2]
        assert residual_constraint(m, ()).edges == m.edges
        assert residual_constraint(m, {2}).edges == {0: (0, 1), 1: (1, 1)}
        assert residual_constraint(m, {0}).edges == {2: (2, 3), 3: (3, 3)}

    def test_unknown_ids_are_refused(self):
        m = Matching(4, {0: (0, 1), 1: (1, 1), 2: (2, 3)})
        with pytest.raises(UnknownElementError):
            size_cap(m, [0, 9])
        with pytest.raises(UnknownElementError):
            residual_constraint(m, {9})
        # The residual shares a table that still knows edge 0.
        residual = residual_constraint(m, {0})
        for read in (size_cap, residual_constraint, conflict_masks):
            with pytest.raises(UnknownElementError):
                read(residual, [0])

    # The set-based rules the masks replace, on self-loops and a far vertex.
    @given(inst=tiny_instances())
    @settings(max_examples=200, deadline=None)
    def test_masks_agree_with_the_vertex_sets(self, inst):
        m = inst.constraint
        assume(isinstance(m, Matching))
        ids = inst.sorted_ids()
        assert size_cap(m, ids) == len({v for i in ids for v in m.edges[i]}) // 2
        for fixed in iter_feasible_sets(inst):
            blocked = {v for i in fixed for v in m.edges[i]}
            assert residual_constraint(m, fixed).edges == {
                i: uv for i, uv in m.edges.items() if i not in fixed and not blocked & set(uv)}


class TestOneRankPerIntersection:
    def counted_intersection(self):
        ids = frozenset(range(6))
        o1 = CountingCursors(UniformMatroid(ids, 4))
        o2 = CountingCursors(PartitionMatroid(ids, [frozenset({0, 1, 2}), frozenset({3, 4, 5})],
                                              [1, 2]))
        return MatroidIntersection(o1, o2), o1, o2

    def test_the_rank_of_the_ground_set_is_found_once(self):
        cons, o1, o2 = self.counted_intersection()
        # min(r1, r2) = min(4, 1 + 2) of the ground set, also for a subset.
        assert [size_cap(cons, ids) for ids in ([0, 3], [], range(6), [5])] == [3] * 4
        assert (o1.cursors, o2.cursors) == (1, 1)
        # A restriction or a residual is a new constraint with its own rank.
        assert size_cap(cons.restrict({0, 1, 3}), [0]) == 2
        assert size_cap(residual_constraint(cons, {3}), [0]) == 2

    def test_the_skeleton_bound_and_the_exact_search_share_it(self):
        cons, o1, o2 = self.counted_intersection()
        inst = BCInstance(tuple(Element(i, 1, i + 1) for i in range(6)), cons, 4)
        SkeletonBound(inst, inst.ids, [])
        assert (o1.cursors, o2.cursors) == (1, 1)
        # The search builds one intersection cursor and no second rank.
        assert max_weight_feasible_ids(inst, inst.profit_of) == {2, 4, 5}
        assert (o1.cursors, o2.cursors) == (2, 2)

    def test_unknown_ids_are_refused(self):
        cons, _, _ = self.counted_intersection()
        with pytest.raises(UnknownElementError):
            size_cap(cons, [0, 9])
        with pytest.raises(UnknownElementError):
            size_cap(residual_constraint(cons, {3}), [3])
