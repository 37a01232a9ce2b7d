import random

import pytest

from bcopt.core import BCError, BCInstance, CapExceededError, Epsilon
from bcopt.classes import ClassLayout, class_partition, q_of
from bcopt.constraints import Matching, MatroidIntersection
from bcopt.exchange import exset_matching, exset_matroid_intersection
from bcopt.matroids import (
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    greedy_min_cost,
)
from bcopt.oracle import extension_candidates, is_semi_shift, is_shift, verify_exchange_set

from conftest import BareOracle, make_elements, random_matroid


def matching_instance(edges, costs, profits, budget=10**9):
    n = 1 + max((v for uv in edges.values() for v in uv), default=0)
    return BCInstance(make_elements(costs, profits), Matching(n, edges), budget)


def intersection_instance(o1, o2, costs, profits, budget=10**9):
    return BCInstance(make_elements(costs, profits), MatroidIntersection(o1, o2), budget)


class TestGreedyMatching:
    def test_limit_zero(self):
        g = Matching(4, {0: (0, 1)})
        assert greedy_min_cost(g.cursor(), {0}, {0: 1}, 0) == frozenset()

    def test_path_trace(self):
        # path v0-v1-v2-v3 with costs 1, 0, 2: the middle edge wins and
        # knocks out both neighbours.
        g = Matching(4, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        got = greedy_min_cost(g.cursor(), {0, 1, 2}, {0: 1, 1: 0, 2: 2}, 3)
        assert got == {1}

    def test_triangle_keeps_cheapest_only(self):
        g = Matching(3, {0: (0, 1), 1: (1, 2), 2: (2, 0)})
        got = greedy_min_cost(g.cursor(), {0, 1, 2}, {0: 1, 1: 2, 2: 3}, 2)
        assert got == {0}

    def test_ties_break_by_id(self):
        g = Matching(4, {0: (0, 1), 1: (0, 2), 2: (0, 3)})
        got = greedy_min_cost(g.cursor(), {0, 1, 2}, {0: 5, 1: 5, 2: 5}, 2)
        assert got == {0}


class TestExsetMatching:
    def test_empty_class(self):
        inst = matching_instance({0: (0, 1)}, [1], [10])
        layout = ClassLayout(Epsilon(1, 3), alpha=10)
        assert exset_matching(inst, layout, frozenset()) == frozenset()

    def test_small_class_is_taken_whole(self):
        # pairwise-disjoint edges, far fewer than 18 q^2: pool exhausts
        edges = {i: (2 * i, 2 * i + 1) for i in range(5)}
        inst = matching_instance(edges, [1] * 5, [10] * 5)
        layout = ClassLayout(Epsilon(1, 3), alpha=10)
        ex = exset_matching(inst, layout, frozenset(range(5)))
        assert ex == frozenset(range(5))

    def test_star_removes_one_edge_per_round(self):
        # K_{1,5}: all edges share the hub, so every greedy round grabs one.
        edges = {i: (0, i + 1) for i in range(5)}
        inst = matching_instance(edges, [1, 2, 3, 4, 5], [10] * 5)
        eps = Epsilon(1, 3)
        layout = ClassLayout(eps, alpha=10)
        ex = exset_matching(inst, layout, frozenset(range(5)))
        assert ex == frozenset(range(5))
        report = verify_exchange_set(inst, layout, 1, ex)
        assert report.passed

    def test_wrong_constraint_type(self):
        ids = frozenset({0})
        inst = intersection_instance(UniformMatroid(ids, 1), UniformMatroid(ids, 1), [1], [1])
        layout = ClassLayout(Epsilon(1, 3), alpha=1)
        with pytest.raises(BCError):
            exset_matching(inst, layout, frozenset({0}))

    def test_size_caps_hold_on_random_instances(self):
        rng = random.Random(0)
        eps = Epsilon(1, 3)
        q = q_of(eps)
        for _ in range(20):
            n = rng.randint(1, 10)
            vertices = rng.randint(2, 6)
            edges = {
                i: tuple(rng.sample(range(vertices), 2)) for i in range(n)
            }
            inst = matching_instance(edges, [rng.randint(1, 9) for _ in range(n)],
                                     [rng.randint(1, 99) for _ in range(n)])
            alpha = max(e.profit for e in inst.elements)
            layout = ClassLayout(eps, alpha)
            for r, ids in class_partition(inst, layout).items():
                ex = exset_matching(inst, layout, ids)
                assert len(ex) <= 18 * q * q
                assert ex <= ids


class TestExtensionCandidates:
    def test_free_oracle_admits_whole_class(self):
        o1 = UniformMatroid(range(4), 4)
        assert extension_candidates(set(), {0, 1, 2, 3}, o1) == {0, 1, 2, 3}

    def test_saturated_rank_blocks_everything(self):
        o1 = UniformMatroid(range(4), 2)
        assert extension_candidates({0, 1}, {2, 3}, o1) == frozenset()

    def test_partition_block_saturation(self):
        o1 = PartitionMatroid(range(4), [{0, 1}, {2, 3}], [1, 1])
        got = extension_candidates({0}, {1, 2, 3}, o1)
        assert got == {2, 3}


class TestExsetMatroidIntersection:
    def test_empty_class(self):
        ids = frozenset({0})
        inst = intersection_instance(UniformMatroid(ids, 1), UniformMatroid(ids, 1), [1], [9])
        layout = ClassLayout(Epsilon(1, 3), alpha=9)
        assert exset_matroid_intersection(inst, layout, frozenset()) == frozenset()

    def test_single_feasible_element(self):
        ids = frozenset({0})
        inst = intersection_instance(UniformMatroid(ids, 1), UniformMatroid(ids, 1), [1], [9])
        layout = ClassLayout(Epsilon(1, 3), alpha=9)
        ex = exset_matroid_intersection(inst, layout, frozenset({0}))
        assert ex == {0}

    def test_two_partition_matroids_verified(self):
        ids = frozenset(range(6))
        o1 = PartitionMatroid(ids, [{0, 1, 2}, {3, 4, 5}], [1, 2])
        o2 = PartitionMatroid(ids, [{0, 3}, {1, 4}, {2, 5}], [1, 1, 1])
        inst = intersection_instance(o1, o2, [1, 2, 3, 4, 5, 6], [50] * 6)
        eps = Epsilon(1, 3)
        layout = ClassLayout(eps, alpha=50)
        partition = class_partition(inst, layout)
        (r,) = partition
        ex = exset_matroid_intersection(inst, layout, partition[r])
        report = verify_exchange_set(inst, layout, r, ex)
        assert report.passed, report.counterexample

    def test_wrong_constraint_type(self):
        inst = matching_instance({0: (0, 1)}, [1], [9])
        layout = ClassLayout(Epsilon(1, 3), alpha=9)
        with pytest.raises(BCError):
            exset_matroid_intersection(inst, layout, frozenset({0}))

    def test_branch_budget_overflow_raises(self):
        ids = frozenset(range(8))
        inst = intersection_instance(UniformMatroid(ids, 8), UniformMatroid(ids, 8),
                                     [1] * 8, [10] * 8)
        layout = ClassLayout(Epsilon(1, 3), alpha=10)
        with pytest.raises(CapExceededError):
            exset_matroid_intersection(inst, layout, ids, branch_budget=5)

    def test_deterministic_across_runs(self):
        rng = random.Random(4)
        ids = frozenset(range(7))
        o1, o2 = random_matroid(rng, ids), random_matroid(rng, ids)
        inst = intersection_instance(o1, o2, [rng.randint(1, 9) for _ in ids],
                                     [60] * 7)
        layout = ClassLayout(Epsilon(1, 3), alpha=60)
        partition = class_partition(inst, layout)
        for r, cls in partition.items():
            a = exset_matroid_intersection(inst, layout, cls)
            b = exset_matroid_intersection(inst, layout, cls)
            assert a == b

    def test_recursion_is_bounded_by_class_size(self):
        # branches grow strictly inside the class, so the visited-set count
        # never exceeds 2^|class|; with budget exactly that, no overflow.
        ids = frozenset(range(6))
        inst = intersection_instance(UniformMatroid(ids, 6), UniformMatroid(ids, 6),
                                     [1] * 6, [10] * 6)
        layout = ClassLayout(Epsilon(1, 3), alpha=10)
        ex = exset_matroid_intersection(inst, layout, ids, branch_budget=2**6)
        assert ex == ids


def reference_exchange_set(instance, layout, class_ids):
    """The matroid-intersection exchange set and its branch count, built by
    recursion with whole-set independence tests.

    Each branch's truncated basis is the greedy minimum-cost basis of the
    second matroid on the branch's extension candidates, with a candidate
    admitted only while fewer than q are kept.
    """
    cons = instance.constraint
    cost = instance.cost_of
    q = q_of(layout.epsilon)
    union, seen = set(), {frozenset()}

    def extend(current):
        if len(current) > q:
            return
        candidates = [e for e in class_ids - current
                      if cons.oracle1.is_independent(current | {e})]
        basis = set()
        for e in sorted(candidates, key=lambda e: (cost[e], e)):
            if len(basis) < q and cons.oracle2.is_independent(basis | {e}):
                basis.add(e)
        union.update(basis)
        for b in sorted(basis):
            grown = current | {b}
            if grown not in seen:
                seen.add(grown)
                extend(grown)

    extend(frozenset())
    return frozenset(union), len(seen)


class TestAgainstRecursiveReference:
    def assert_matches_reference(self, inst, layout, class_ids):
        want, branches = reference_exchange_set(inst, layout, class_ids)
        assert exset_matroid_intersection(inst, layout, class_ids,
                                          branch_budget=branches) == want
        with pytest.raises(CapExceededError):
            exset_matroid_intersection(inst, layout, class_ids, branch_budget=branches - 1)

    def test_random_intersections(self):
        rng = random.Random(909)
        for _ in range(150):
            ids = frozenset(range(rng.randint(0, 8)))
            # BareOracle runs the generic cursor that re-tests the grown set.
            o1, o2 = (random_matroid(rng, ids) for _ in range(2))
            if rng.random() < 0.5:
                o1 = BareOracle(o1)
            if rng.random() < 0.5:
                o2 = BareOracle(o2)
            inst = intersection_instance(o1, o2, [rng.randint(0, 9) for _ in ids],
                                         [10] * len(ids))
            eps = rng.choice([Epsilon(1, 3), Epsilon(2, 5), Epsilon(49, 100)])
            layout = ClassLayout(eps, alpha=10)
            class_ids = frozenset(i for i in ids if rng.random() < 0.8)
            self.assert_matches_reference(inst, layout, class_ids)

    def test_truncation_at_q(self):
        # q(49/100) = 9.  The class has 11 elements and the second matroid
        # (a bare path, so acyclic) keeps them all independent, so every
        # branch's greedy basis stops at q before running out of candidates.
        ids = frozenset(range(11))
        o1 = PartitionMatroid(ids, [frozenset(range(6)), frozenset(range(6, 11))], [5, 5])
        o2 = BareOracle(GraphicMatroid(12, {i: (i, i + 1) for i in ids}))
        rng = random.Random(11)
        inst = intersection_instance(o1, o2, [rng.randint(0, 9) for _ in ids], [10] * 11)
        layout = ClassLayout(Epsilon(49, 100), alpha=10)
        q = q_of(layout.epsilon)
        assert q == 9
        assert len(greedy_min_cost(o2.cursor(), o2.ground_ids, inst.cost_of)) == 11
        assert len(greedy_min_cost(o1.cursor(), o1.ground_ids, inst.cost_of)) == 10 > q
        self.assert_matches_reference(inst, layout, ids)


class TestDefinitionalSweep:
    """Randomized cross-check of both constructors against the exhaustive
    swap-property verifier, including under-estimated alpha (widened layout)."""

    def test_constructors_survive_random_instances_and_alphas(self):
        from fractions import Fraction

        from bcopt.core import BCInstance, Element, preprocess_discard
        from bcopt.oracle import brute_force_opt

        rng = random.Random(424242)
        checks = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            costs = [rng.randint(0, 9) for _ in range(n)]
            profits = [rng.choice([1, 5, 10, 11, 40, 50, 99, 100]) for _ in range(n)]
            elements = tuple(Element(i, costs[i], profits[i]) for i in range(n))
            if rng.random() < 0.5:
                vertices = rng.randint(2, max(2, n + 1))
                cons = Matching(vertices, {
                    i: (rng.randrange(vertices), rng.randrange(vertices)) for i in range(n)
                })
            else:
                ids = frozenset(range(n))
                cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
            inst = preprocess_discard(
                BCInstance(elements, cons, rng.randint(0, sum(costs))))
            if not inst.elements:
                continue
            opt = brute_force_opt(inst).total_profit
            if opt == 0:
                continue
            eps = rng.choice([Epsilon(1, 3), Epsilon(1, 4), Epsilon(2, 5)])
            alpha = rng.randint((opt + 3) // 4, opt)
            layout = ClassLayout(eps, alpha, Fraction(4))
            is_matching = isinstance(inst.constraint, Matching)
            for r, ids in class_partition(inst, layout).items():
                if is_matching:
                    ex = exset_matching(inst, layout, ids)
                else:
                    ex = exset_matroid_intersection(inst, layout, ids)
                report = verify_exchange_set(inst, layout, r, ex)
                assert report.passed, report.counterexample
                checks += 1
        assert checks > 50


class TestShiftPredicates:
    def _instance(self):
        ids = frozenset(range(4))
        o1 = UniformMatroid(ids, 2)
        o2 = PartitionMatroid(ids, [{0, 1}, {2, 3}], [1, 1])
        return intersection_instance(o1, o2, [3, 2, 5, 4], [1, 1, 1, 1])

    def test_shift_requires_cost_not_above(self):
        inst = self._instance()
        # delta {0, 2}; swap 0 -> 1 is cheaper and keeps both matroids
        assert is_shift(inst, {0, 2}, a=0, b=1, q=3)
        # swap 1 -> 0 raises cost
        assert not is_shift(inst, {1, 2}, a=1, b=0, q=3)

    def test_semi_shift_needs_first_matroid_to_break(self):
        inst = self._instance()
        # delta {0, 2}: 0 -> 1 keeps matroid one, so it is not a semi-shift
        assert not is_semi_shift(inst, {0, 2}, a=0, b=1, q=3)

    def test_semi_shift_detected(self):
        ids = frozenset(range(3))
        o1 = PartitionMatroid(ids, [{1, 2}], [1])
        o2 = UniformMatroid(ids, 3)
        inst = intersection_instance(o1, o2, [2, 2, 1], [1, 1, 1])
        # delta {0, 1}: swapping 0 -> 2 keeps matroid two but breaks matroid
        # one ({1, 2} saturates the block), at equal-or-lower cost.
        assert is_semi_shift(inst, {0, 1}, a=0, b=2, q=3)
        assert not is_shift(inst, {0, 1}, a=0, b=2, q=3)

    def test_precondition_violations(self):
        inst = self._instance()
        with pytest.raises(BCError):
            is_shift(inst, {0, 2}, a=1, b=3, q=3)  # a not in delta
        with pytest.raises(BCError):
            is_shift(inst, {0, 2}, a=0, b=2, q=3)  # b inside delta
        with pytest.raises(BCError):
            is_shift(inst, {0, 1}, a=0, b=2, q=3)  # delta infeasible in o2
