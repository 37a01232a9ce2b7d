import itertools
import random

import pytest

from bcopt.core import UnknownElementError
from bcopt.constraints import Matching, MatroidIntersection, residual_constraint
from bcopt.matroids import UniformMatroid
from bcopt.oracle import is_bounded_feasible

from conftest import random_matroid


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

    def test_intersection_cursor_unchanged_by_an_id_one_oracle_lacks(self):
        cons = MatroidIntersection(UniformMatroid({0, 1}, 1), UniformMatroid({1}, 1))
        cursor = cons.cursor()
        with pytest.raises(UnknownElementError):
            cursor.try_push(0)
        # The first oracle's push of 0 was undone, so its rank is still free.
        assert cursor.try_push(1)


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
