import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import bcopt
from bcopt.core import InfeasibleSetError, UnknownElementError
from bcopt.constraints import Matching, MatroidIntersection
from bcopt.matroids import (
    GraphicMatroid,
    MatroidMinor,
    PartitionMatroid,
    UniformMatroid,
    greedy_min_cost,
)
from bcopt.oracle import (
    check_matroid_axioms,
    matroid_extend,
    weak_exchange_extend,
)

from conftest import BareOracle, exchange_witness, random_matroid


def brute_subsets(ids):
    ids = sorted(ids)
    for size in range(len(ids) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ids, size))


class TestFamilies:
    def test_uniform_rank_cap(self):
        m = UniformMatroid({1, 2, 3}, 2)
        assert not m.is_independent({1, 2, 3})
        assert m.is_independent(())

    def test_unknown_ground_id(self):
        with pytest.raises(UnknownElementError):
            UniformMatroid({1}, 1).is_independent({2})

    def test_graphic_triangle_cycle(self):
        m = GraphicMatroid(3, {0: (0, 1), 1: (1, 2), 2: (2, 0)})
        assert not m.is_independent({0, 1, 2})
        assert m.is_independent({0, 1})

    def test_graphic_self_loop_is_dependent(self):
        m = GraphicMatroid(2, {0: (1, 1)})
        assert not m.is_independent({0})

    def test_partition_caps(self):
        m = PartitionMatroid({1, 2, 3}, [{1, 2}], [1])
        assert m.is_independent({1, 3})
        assert not m.is_independent({1, 2})

    @pytest.mark.parametrize("seed", range(12))
    def test_axioms_exhaustively(self, seed):
        rng = random.Random(seed)
        ids = frozenset(range(rng.randint(0, 7)))
        report = check_matroid_axioms(random_matroid(rng, ids), guard=12)
        assert report.passed, report.counterexample


def random_subset(rng, ids, p):
    return frozenset(i for i in ids if rng.random() < p)


def random_minor(rng, base, kind):
    """``base`` itself, or a restriction, contraction or restriction of a contraction."""
    if kind == "restrict":
        return base.restrict(random_subset(rng, base.ground_ids, 0.7))
    if kind == "contract":
        return base.contract(random_subset(rng, base.ground_ids, 0.3))
    if kind == "restrict-contract":
        contracted = base.contract(random_subset(rng, base.ground_ids, 0.3))
        return contracted.restrict(random_subset(rng, contracted.ground_ids, 0.7))
    return base


class TestCursors:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        bare=st.booleans(),
        kind=st.sampled_from(["none", "restrict", "contract", "restrict-contract"]),
        ops=st.lists(st.integers(0, 10**6), max_size=40),
    )
    def test_cursor_agrees_with_is_independent(self, seed, bare, kind, ops):
        rng = random.Random(seed)
        base = random_matroid(rng, frozenset(range(rng.randint(0, 8))))
        m = random_minor(rng, BareOracle(base) if bare else base, kind)
        outside = sorted((base.ground_ids - m.ground_ids) | {-1, 99})
        cursor = m.cursor()
        current: list[int] = []

        def check_every_push():
            # Each accepted probe is popped again, so the state is unchanged.
            for e in sorted(m.ground_ids - set(current)):
                expected = m.is_independent([*current, e])
                assert cursor.try_push(e) == expected
                if expected:
                    cursor.pop()

        for op in ops:
            absent = sorted(m.ground_ids - set(current))
            if op % 4 == 0 and current:
                cursor.pop()
                current.pop()
                check_every_push()
            elif op % 4 == 1:
                with pytest.raises(UnknownElementError):
                    cursor.try_push(outside[op % len(outside)])
            elif absent:
                e = absent[op % len(absent)]
                accepted = cursor.try_push(e)
                assert accepted == m.is_independent([*current, e])
                if accepted:
                    current.append(e)
        check_every_push()

    def test_minors_of_minors_share_one_base(self):
        base = GraphicMatroid(4, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)})
        minor = base.contract({0}).restrict({1, 2, 3}).contract({1}).restrict({2, 3})
        assert isinstance(minor, MatroidMinor)
        assert minor.base is base
        assert minor.fixed == {0, 1} and minor.ground_ids == {2, 3}
        assert minor.is_independent({2}) and not minor.is_independent({2, 3})

    def test_contracting_an_unknown_id_raises(self):
        with pytest.raises(UnknownElementError):
            UniformMatroid({0, 1}, 1).restrict({0}).contract({1})

    def test_dependent_contraction_refuses_every_push(self):
        cursor = UniformMatroid({0, 1, 2}, 1).contract({0, 1}).cursor()
        assert not cursor.try_push(2)
        with pytest.raises(UnknownElementError):
            cursor.try_push(0)


class TestMinCostBasis:
    def test_uniform_greedy_is_forced(self):
        m = UniformMatroid({0, 1, 2}, 2)
        assert greedy_min_cost(m.cursor(), m.ground_ids, {0: 1, 1: 2, 2: 3}, 3) == {0, 1}

    def test_empty_ground(self):
        m = UniformMatroid((), 0)
        assert greedy_min_cost(m.cursor(), m.ground_ids, {}, 0) == frozenset()

    def test_triangle_spanning_tree(self):
        m = GraphicMatroid(3, {0: (0, 1), 1: (1, 2), 2: (2, 0)})
        assert greedy_min_cost(m.cursor(), m.ground_ids, {0: 1, 1: 2, 2: 3}, 3) == {0, 1}

    def test_min_basis_blocking_property(self):
        # For every non-basis element, the cheaper part of the basis blocks it.
        rng = random.Random(7)
        for _ in range(50):
            ids = frozenset(range(rng.randint(1, 7)))
            m = random_matroid(rng, ids)
            cost = {i: rng.randint(0, 9) for i in ids}
            basis = greedy_min_cost(m.cursor(), m.ground_ids, cost, len(ids))
            for a in ids - basis:
                if not m.is_independent({a}):
                    continue
                blocker = {e for e in basis if cost[e] <= cost[a]}
                assert not m.is_independent(blocker | {a})


class TestMatroidExtendAndWitness:
    def test_extend_reaches_target_size(self):
        rng = random.Random(11)
        for _ in range(60):
            ids = frozenset(range(rng.randint(0, 7)))
            m = random_matroid(rng, ids)
            indep = [s for s in brute_subsets(ids) if m.is_independent(s)]
            a = rng.choice(indep)
            b = rng.choice(indep)
            d = matroid_extend(m, a, b)
            assert len(d) == max(len(a) - len(b), 0)
            assert d <= a - b
            assert m.is_independent(b | d)

    def test_witness_example(self):
        m = UniformMatroid({1, 2}, 1)
        assert exchange_witness(m, frozenset({1}), frozenset({2}), 1) == 2


class TestWeakExchange:
    def test_weak_exchange_extend_is_not_a_top_level_name(self):
        # verify --property weak-exchange reaches it in bcopt.oracle.
        assert "weak_exchange_extend" not in bcopt.__all__
        assert not hasattr(bcopt, "weak_exchange_extend")
        assert bcopt.oracle.weak_exchange_extend is weak_exchange_extend

    def test_empty_b_returns_all_of_a(self):
        inst_edges = {0: (0, 1), 1: (2, 3), 2: (4, 5)}
        cons = Matching(6, inst_edges)
        d = weak_exchange_extend(cons, {0, 1, 2}, ())
        assert d == {0, 1, 2}

    def test_small_a_gives_empty(self):
        cons = Matching(6, {0: (0, 1), 1: (2, 3)})
        assert weak_exchange_extend(cons, {0, 1}, {0}) == frozenset()

    def test_matching_example_three_disjoint_vs_one_touching(self):
        # A = three pairwise-disjoint edges, B = one edge touching one of them.
        edges = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (1, 6)}
        cons = Matching(7, edges)
        a, b = frozenset({0, 1, 2}), frozenset({3})
        d = weak_exchange_extend(cons, a, b)
        # frozen via brute force over subsets of A \ B of size 1:
        # edge 0 touches vertex 1 = blocked; edges 1 and 2 are free; the
        # canonical pick is the smallest id.
        assert d == {1}
        assert cons.is_feasible(b | d)

    def test_infeasible_inputs_raise(self):
        cons = Matching(3, {0: (0, 1), 1: (1, 2)})
        with pytest.raises(InfeasibleSetError):
            weak_exchange_extend(cons, {0, 1}, ())
        with pytest.raises(InfeasibleSetError):
            weak_exchange_extend(cons, (), {0, 1})

    def test_intersection_brute_force_cross_check(self):
        rng = random.Random(5)
        for _ in range(40):
            ids = frozenset(range(rng.randint(0, 6)))
            cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
            feas = [s for s in brute_subsets(ids) if cons.is_feasible(s)]
            a, b = rng.choice(feas), rng.choice(feas)
            d = weak_exchange_extend(cons, a, b)
            assert len(d) == max(len(a) - 2 * len(b), 0)
            assert d <= a - b
            assert cons.is_feasible(b | d)
