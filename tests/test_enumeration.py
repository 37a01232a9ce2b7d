import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from bcopt.cli import generate_instance
from bcopt.constraints import (
    IntersectionCursor,
    Matching,
    MatroidIntersection,
    conflict_masks,
    residual_constraint,
    size_cap,
)
from bcopt.core import BCInstance, UnknownElementError
from bcopt.enumeration import (
    feasible_subsets_within_budget,
    max_profit_solution_ids,
    max_weight_feasible_ids,
)
from bcopt.matroids import UniformMatroid
from bcopt.oracle import iter_feasible_sets

from conftest import BareOracle, every_subset, path_matching, tiny_instances


SEARCHES = {
    "max_profit": max_profit_solution_ids,
    "max_weight": lambda inst: max_weight_feasible_ids(inst, inst.profit_of),
    "subsets": lambda inst: feasible_subsets_within_budget(inst, inst.sorted_ids(), 3,
                                                           **every_subset(inst.ids)),
    "iter": lambda inst: list(iter_feasible_sets(inst, 3)),
}


KINDS = {
    "matching": lambda: path_matching(6, profits=[3, 1, 4, 1, 5, 9], budget=4),
    "intersection": lambda: generate_instance(4, 8, "matroid-intersection"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_state_is_freed_without_the_cycle_collector(name, kind):
    # A walk closure left bound after the search would be a reference cycle
    # holding the search's cursor and masks, which only the collector frees.
    # A matching search opens no cursor, so count what the collector finds.
    inst = KINDS[kind]()
    gc.collect()
    gc.disable()
    try:
        SEARCHES[name](inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def suffix_only_max_weight_feasible_ids(instance, weight):
    """The maximum-weight search before the cardinality cap, kept as a reference.

    A verbatim copy of the engine that pruned by the sum of all remaining
    values alone.
    """
    ids = sorted((i for i in instance.cost_of if weight[i] > 0),
                 key=lambda i: (-weight[i], i))
    return _suffix_only_branch_and_bound(instance, ids, [weight[i] for i in ids],
                                         [0] * len(ids), 0)


def _suffix_only_branch_and_bound(instance, ids, values, costs, budget):
    n = len(ids)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    cursor = instance.constraint.cursor()
    best_ids: list[int] = []
    best_value = 0
    chosen: list[int] = []

    def walk(idx: int, cost: int, value: int) -> None:
        nonlocal best_value, best_ids
        if value > best_value:
            best_value = value
            best_ids = list(chosen)
        if idx == n or value + suffix[idx] <= best_value:
            return
        eid = ids[idx]
        if cost + costs[idx] <= budget and cursor.try_push(eid):
            chosen.append(eid)
            walk(idx + 1, cost + costs[idx], value + values[idx])
            chosen.pop()
            cursor.pop()
        walk(idx + 1, cost, value)

    try:
        walk(0, 0, 0)
    finally:
        del walk
    return frozenset(best_ids)


def seeded_instance(seed, size, kind, minor, bare):
    """A generated instance, optionally on a seeded minor of its constraint.

    The minor commits a random feasible set (``residual_constraint``
    contracts an intersection and deletes a matching's touching edges) and
    keeps a random part of the rest (``restrict``).  ``bare`` wraps an
    intersection's oracles in :class:`BareOracle`, so its cursors are the
    generic ones.
    """
    inst = generate_instance(seed, size, kind)
    cons = inst.constraint
    if minor:
        rng = random.Random(seed)
        order = inst.sorted_ids()
        rng.shuffle(order)
        cursor = cons.cursor()
        fixed = [eid for eid in order[:rng.randint(0, size)] if cursor.try_push(eid)]
        keep = [eid for eid in order if eid not in fixed and rng.random() < 0.8]
        cons = residual_constraint(cons, fixed).restrict(keep)
    if bare and isinstance(cons, MatroidIntersection):
        cons = MatroidIntersection(BareOracle(cons.oracle1), BareOracle(cons.oracle2))
    alive = cons.element_ids()
    return BCInstance(tuple(e for e in inst.elements if e.id in alive), cons, inst.budget)


instance_args = dict(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["matching", "matroid-intersection"]),
    minor=st.booleans(),
    bare=st.booleans(),
)


class TestCardinalityCap:
    # Weights from -3 to 6 make ties, zeros and negative weights common.
    @given(size=st.integers(0, 20), weights=st.lists(st.integers(-3, 6), min_size=20,
                                                     max_size=20), **instance_args)
    @settings(max_examples=300, deadline=None)
    def test_capped_search_matches_the_suffix_only_search(self, seed, size, kind, minor,
                                                          bare, weights):
        inst = seeded_instance(seed, size, kind, minor, bare)
        weight = {e.id: weights[e.id] for e in inst.elements}
        assert max_weight_feasible_ids(inst, weight) == \
            suffix_only_max_weight_feasible_ids(inst, weight)

    @given(size=st.integers(0, 12), **instance_args)
    @settings(max_examples=200, deadline=None)
    def test_size_cap_bounds_every_feasible_set(self, seed, size, kind, minor, bare):
        inst = seeded_instance(seed, size, kind, minor, bare)
        cap = size_cap(inst.constraint, inst.sorted_ids())
        assert cap >= max(map(len, iter_feasible_sets(inst)))
        if isinstance(inst.constraint, MatroidIntersection):
            # The rank of M_k is the largest feasible set of M_k meet M_k.
            ranks = [max(map(len, iter_feasible_sets(
                BCInstance(inst.elements, MatroidIntersection(o, o), inst.budget))))
                for o in (inst.constraint.oracle1, inst.constraint.oracle2)]
            assert cap == min(ranks)

    def test_cap_cuts_most_of_the_search(self, monkeypatch):
        # Both searches return the same set; with the rank cap in force the
        # capped one makes a fraction of the pushes.  A cap that fell back
        # to the number of ids would make as many.
        inst = generate_instance(0, 20, "matroid-intersection")
        assert size_cap(inst.constraint, inst.sorted_ids()) < 20
        pushes = [0]
        original = IntersectionCursor.try_push

        def counting(self, eid):
            pushes[0] += 1
            return original(self, eid)

        monkeypatch.setattr(IntersectionCursor, "try_push", counting)
        reference = suffix_only_max_weight_feasible_ids(inst, inst.profit_of)
        reference_pushes, pushes[0] = pushes[0], 0
        assert max_weight_feasible_ids(inst, inst.profit_of) == reference
        assert 2 * pushes[0] < reference_pushes


class TestConflictMasks:
    # The exact search tests fit by masks; the reference asks a cursor.
    @given(inst=tiny_instances(), floor=st.integers(-1, 12))
    @settings(max_examples=300, deadline=None)
    def test_exact_search_matches_the_cursor_reference(self, inst, floor):
        ids = inst.sorted_ids()
        reference = _suffix_only_branch_and_bound(
            inst, ids, [inst.profit_of[i] for i in ids], [inst.cost_of[i] for i in ids],
            inst.budget)
        assert max_profit_solution_ids(inst) == reference
        beaten = inst.total_profit(reference) > floor
        assert max_profit_solution_ids(inst, floor=floor) == (reference if beaten else None)
        assert max_weight_feasible_ids(inst, inst.profit_of) == \
            suffix_only_max_weight_feasible_ids(inst, inst.profit_of)

    def test_a_self_loop_never_joins_and_decides_without_a_cursor(self):
        matching = Matching(3, {0: (0, 1), 1: (2, 2), 2: (1, 2)})
        masks, used, cursor = conflict_masks(matching, [0, 1, 2])
        assert cursor is None
        assert masks[1] & used
        assert not masks[0] & used and not masks[2] & used
        assert masks[0] & masks[2] and not masks[0] & masks[1]

    def test_an_intersection_has_zero_masks_and_a_cursor(self):
        ids = frozenset(range(3))
        masks, used, cursor = conflict_masks(
            MatroidIntersection(UniformMatroid(ids, 1), UniformMatroid(ids, 3)), [2, 0, 1])
        assert (masks, used) == ([0, 0, 0], 0)
        assert cursor.try_push(2) and not cursor.try_push(0)

    def test_an_unknown_edge_is_refused(self):
        with pytest.raises(UnknownElementError):
            conflict_masks(Matching(2, {0: (0, 1)}), [0, 5])


class TestSkeletonListing:
    @given(size=st.integers(0, 10), max_size=st.integers(0, 4),
           pool_mask=st.integers(0, 2**10 - 1), shuffle=st.integers(0, 10**6),
           **instance_args)
    @settings(max_examples=200, deadline=None)
    def test_shuffled_pool_lists_each_feasible_subset_once_in_preorder(
            self, seed, size, kind, minor, bare, max_size, pool_mask, shuffle):
        inst = seeded_instance(seed, size, kind, minor, bare)
        pool = [i for i in inst.sorted_ids() if pool_mask >> i & 1]
        random.Random(shuffle).shuffle(pool)
        listed = feasible_subsets_within_budget(inst, pool, max_size, **every_subset(pool))
        expected = {s for s in iter_feasible_sets(inst, max_size)
                    if s <= set(pool) and inst.total_cost(s) <= inst.budget}
        assert len(listed) == len(expected)
        assert set(map(frozenset, listed)) == expected
        # Depth-first preorder in pool order: a subset's ids follow the pool,
        # and the subset it was grown from is listed before it.
        position = {eid: k for k, eid in enumerate(pool)}
        seen = set()
        for subset in listed:
            assert [position[e] for e in subset] == sorted(position[e] for e in subset)
            assert subset[:-1] in seen or subset == ()
            seen.add(subset)
