import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import bcopt.lagrange
from bcopt.core import BCInstance, Element, Solution, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.constraints import Matching, MatroidIntersection, residual_constraint
from bcopt.enumeration import max_weight_feasible_ids
from bcopt.lagrange import (
    EXACT_LIMIT,
    _MAX_PATCH_COMPONENTS,
    _GreedyOrders,
    _candidate_pool,
    _component_priority,
    _patched,
    _symmetric_difference_components,
    GAMMA,
    approx_opt,
    inner_max_weight,
    non_profitable_solver,
)
from bcopt.matroids import PartitionMatroid, UniformMatroid
from bcopt.oracle import brute_force_opt, iter_feasible_sets

from conftest import free_constraint, free_instance, pool_residual, tiny_instances


# Bisection depth of the reference search; every search of these tests
# resolves its breakpoints well before it.
FULL_DEPTH = 64


def exact_limit(limit):
    """The exactness limit patched to ``limit``; at 0 every search is greedy."""
    return mock.patch.object(bcopt.lagrange, "EXACT_LIMIT", limit)


def large_instances():
    """20 instances of 40-60 elements, where the default search is greedy.

    Their budgets are a fifth of the total cost, so every search bisects.
    """
    return [generate_instance(6000 + seed, 40 + 2 * seed, kind, budget_percent=20)
            for seed in range(10) for kind in ("matching", "matroid-intersection")]


# sha256 of "{k} {ids}" per line for ``non_profitable_solver`` on the k-th of
# ``large_instances()``, recorded before the Lagrangian search lost its
# configuration.  These searches are greedy, which the main corpus never
# reaches.  A change that moves any id must update it on purpose.
LARGE_INSTANCES_IDS_SHA256 = "495537ffa6b8b0872ee02f70f688cfcb431328ee65246c02936ee8663b3d7ef9"


def patched_matchings():
    """(seed, instance) for the seeded 60-element matchings whose bracketing
    pair differs in at least two components, so ``_patched`` blends them.

    Costs and profits in [1, 9] and a budget of a tenth of the total cost
    make such pairs common; 60 of the 150 seeds give one.
    """
    kept = []
    for seed in range(150):
        inst = generate_instance(9000 + seed, 60, "matching", cost_range=(1, 9),
                                 profit_range=(1, 9), budget_percent=10)
        _, pairs = searched_pool_and_pair(inst)
        if pairs and len(_symmetric_difference_components(inst.constraint, *pairs[0])) >= 2:
            kept.append((seed, inst))
    return kept


# sha256 of "{seed} {ids}" per line for ``non_profitable_solver`` on
# ``patched_matchings()``.  Some winners there come from a component subset
# that is not a greedy prefix, so the digest moves if the exhaustive blend of
# up to ``_MAX_PATCH_COMPONENTS`` components stops running.
PATCHED_MATCHINGS_IDS_SHA256 = "9af4640201da0fefdf893c3ec0643dd6481c72922efa7548efc3f88c73fc72f8"


def tie_heavy_instances(count, sizes, base):
    """``count`` seeded instances of each kind, of ``sizes[seed % len(sizes)]``
    elements: costs and profits in [0, 3] make ties, zero costs and zero
    profits common, and budgets of 10-60% of the total cost make about half
    the searches go past lambda = 0."""
    return [generate_instance(base + seed, sizes[seed % len(sizes)], kind, cost_range=(0, 3),
                              profit_range=(0, 3), budget_percent=10 + 7 * seed % 51)
            for seed in range(count) for kind in ("matching", "matroid-intersection")]


# sha256 of "{k} {ids}" per line for ``approx_opt`` on the k-th of
# ``tie_heavy_instances(100, range(1, 21), 7000)``, whose searches are all
# exact, recorded once the breakpoint walk pooled every affordable probe
# (instance 195 then rose from alpha 15 to 16).  A change that moves any id
# must update it on purpose.
EXACT_PATH_ALPHA_IDS_SHA256 = "340fbd7af79e057b1c8576f5bf6f2ab96c45bd07d2cd285597bc97c6a117c33d"


class TestApproxOpt:
    def test_empty_instance(self):
        assert approx_opt(free_instance([], [])).total_profit == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_lagrangian_within_declared_factor(self, seed):
        kind = "matching" if seed % 2 == 0 else "matroid-intersection"
        inst = preprocess_discard(generate_instance(seed, 6 + seed % 7, kind))
        opt = brute_force_opt(inst).total_profit
        alpha = approx_opt(inst).total_profit
        assert alpha <= opt
        assert GAMMA * alpha >= opt

    def test_ids_on_tie_heavy_instances_are_pinned(self):
        instances = tie_heavy_instances(100, range(1, 21), 7000)
        assert max(len(inst.elements) for inst in instances) <= EXACT_LIMIT
        lines = [f"{k} {list(approx_opt(inst).element_ids)}"
                 for k, inst in enumerate(instances)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_PATH_ALPHA_IDS_SHA256

    def test_contract_on_tie_heavy_instances(self):
        # Ties make the walk's stopping probe and its ends differ; alpha
        # still meets both contracts against the brute-force optimum.
        for inst in tie_heavy_instances(200, range(6, 15), 7500):
            inst = preprocess_discard(inst)
            opt = brute_force_opt(inst).total_profit
            alpha = approx_opt(inst).total_profit
            max_p = max((e.profit for e in inst.elements), default=0)
            assert alpha >= opt - 2 * max_p
            assert alpha <= opt <= GAMMA * alpha


class TestNonProfitableSolver:
    def test_empty_after_preprocess(self):
        inst = preprocess_discard(free_instance([99, 99], [5, 5], budget=10))
        sol = non_profitable_solver(inst)
        assert sol.total_profit == 0

    def test_contract_vacuous_when_one_element_dominates(self):
        inst = free_instance([1, 1], [100, 1], budget=1)
        sol = approx_opt(inst)
        opt = brute_force_opt(inst).total_profit
        assert sol.total_profit >= opt - 2 * 100

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_matching_instances(self, seed):
        inst = preprocess_discard(generate_instance(3000 + seed, 12, "matching"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for solver in (non_profitable_solver, approx_opt):
            sol = solver(inst)
            assert sol.total_profit >= opt - 2 * max_p

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_intersection_instances(self, seed):
        inst = preprocess_discard(
            generate_instance(4000 + seed, 12, "matroid-intersection"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for solver in (non_profitable_solver, approx_opt):
            sol = solver(inst)
            assert sol.total_profit >= opt - 2 * max_p

    def test_singleton_spanned_by_the_skeleton_is_not_offered(self):
        # Partition block {0, 1} of capacity 1, contracted by {0}: the
        # 21-element residual goes down the Lagrangian path, where the
        # singleton {1} is affordable but infeasible.
        ids = frozenset(range(22))
        elements = tuple(Element(i, 1, 1) for i in range(22))
        parent = MatroidIntersection(PartitionMatroid(ids, [{0, 1}], [1]),
                                     UniformMatroid(ids, 22))
        residual = BCInstance(elements[1:], residual_constraint(parent, {0}), 21)
        sol = non_profitable_solver(residual)
        assert 1 not in sol.element_ids
        assert sol.total_profit == 20

    def test_a_floor_never_beaten_reports_cannot_win(self, npsolver_corpus):
        # Brute-forced residuals start from the floor: at the optimum's
        # profit nothing beats it, so the answer is None ("cannot win");
        # one below, the answer is the optimum the default search returns.
        for name, inst in npsolver_corpus:
            best = non_profitable_solver(inst)
            assert non_profitable_solver(inst, floor=best.total_profit) is None, name
            assert non_profitable_solver(inst, floor=best.total_profit - 1) == best, name

    def test_the_lagrangian_path_ignores_the_floor(self):
        # Above EXACT_LIMIT elements the answer is no optimum, so a floor
        # proves nothing and the search answers as without one.
        inst = preprocess_discard(generate_instance(11, 30, "matching"))
        assert len(inst.elements) > EXACT_LIMIT
        assert non_profitable_solver(inst, floor=10**9) == approx_opt(inst)

    def test_ids_on_large_instances_are_pinned(self):
        lines = [f"{k} {non_profitable_solver(inst).element_ids}"
                 for k, inst in enumerate(large_instances())]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LARGE_INSTANCES_IDS_SHA256

    def test_ids_on_patched_matchings_are_pinned(self):
        corpus = patched_matchings()
        assert len(corpus) == 60
        lines = [f"{seed} {non_profitable_solver(inst).element_ids}" for seed, inst in corpus]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PATCHED_MATCHINGS_IDS_SHA256

    def test_output_is_always_a_solution(self):
        inst = preprocess_discard(generate_instance(42, 10, "matching"))
        sol = approx_opt(inst)
        assert sol.total_cost <= inst.budget
        assert inst.constraint.is_feasible(sol.element_ids)


class TestInnerOracle:
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 10),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        top=st.integers(1, 100),
        lams=st.lists(st.builds(Fraction, st.integers(0, 100), st.integers(1, 64)),
                      min_size=2, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_cost_monotone_in_lambda_when_exact(self, seed, size, kind, top, lams):
        # What the exact search's breakpoint walk relies on.  Ranges from 0,
        # often small, make ties and zero costs common.
        inst = generate_instance(seed, size, kind, cost_range=(0, top), profit_range=(0, top))
        orders = _GreedyOrders(inst)
        costs = [inst.total_cost(inner_max_weight(inst, lam.numerator, lam.denominator,
                                                  orders=orders))
                 for lam in sorted(lams)]
        assert costs == sorted(costs, reverse=True)

    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(1, 20),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        top=st.integers(1, 20),
        num=st.integers(0, 40),
        den=st.integers(1, 12),
        k=st.integers(2, 5),
        greedy=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_an_unreduced_lambda_gives_the_reduced_answer(self, seed, size, kind, top, num,
                                                           den, k, greedy):
        # The exact oracle (at most 20 elements) and the greedy one weigh
        # p den - num c; scaling the pair scales every weight.  Ranges from 0
        # make ties and zero costs common.
        inst = generate_instance(seed, size, kind, cost_range=(0, top), profit_range=(0, top))
        with exact_limit(0 if greedy else EXACT_LIMIT):
            orders = _GreedyOrders(inst)
            got = inner_max_weight(inst, k * num, k * den, orders=orders)
            assert got == inner_max_weight(inst, num, den, orders=_GreedyOrders(inst))
            if greedy:
                # Both pairs meet one order: the second is a cache hit.
                assert inner_max_weight(inst, num, den, orders=orders) is got
                assert len(orders.sets) == 1

    def test_greedy_mode_returns_feasible_set(self):
        inst = preprocess_discard(generate_instance(77, 10, "matching"))
        with exact_limit(0):
            ids = inner_max_weight(inst, 1, 2, orders=_GreedyOrders(inst))
        assert inst.constraint.is_feasible(ids)


    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(0)])
    def test_an_uncached_greedy_probe_builds_one_cursor(self, monkeypatch, lam):
        # 40 elements, above the exact limit: the probe grows through one
        # fresh cursor, and a repeated probe is answered from the cache.
        inst = generate_instance(2, 40, "matroid-intersection", budget_percent=20)
        orders = _GreedyOrders(inst)
        built = []
        original = MatroidIntersection.cursor

        def counting_cursor(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(MatroidIntersection, "cursor", counting_cursor)
        num, den = lam.numerator, lam.denominator
        got = inner_max_weight(inst, num, den, orders=orders)
        assert len(built) == 1
        assert inner_max_weight(inst, num, den, orders=orders) is got and len(built) == 1
        monkeypatch.undo()
        assert got == reference_greedy_inner(inst, lam)


# --- reference: the greedy oracle and candidate search without the order cache


def reference_greedy_inner(instance, lam):
    den = lam.denominator
    weight = {
        e.id: e.profit * den - lam.numerator * e.cost
        for e in instance.elements
    }
    cursor = instance.constraint.cursor()
    chosen = []
    for eid in sorted(weight, key=lambda i: (-weight[i], i)):
        if weight[eid] <= 0:
            break
        if cursor.try_push(eid):
            chosen.append(eid)
    return frozenset(chosen)


def reference_candidate_pool(instance, depth, inner=reference_greedy_inner, pairs=None,
                             every_singleton=False):
    """The search bisected ``depth`` times: all 2 + ``depth`` probes, every time.

    ``inner(instance, lam)`` answers each probe; ``pairs``, when given,
    receives the bracketing pair handed to ``_patched``.  The pool offers
    the best feasible affordable singleton (maximum profit, then smaller
    id) or, with ``every_singleton``, each feasible affordable singleton
    by ascending id, as the search did before it offered only the best.
    """
    budget = instance.budget
    cost = instance.cost_of
    pool = [frozenset()]

    def offer(ids):
        s = frozenset(ids)
        if sum(cost[i] for i in s) <= budget:
            pool.append(s)
            return True
        return False

    by_id = sorted(instance.elements, key=lambda e: e.id)
    singletons = by_id if every_singleton else sorted(by_id, key=lambda e: -e.profit)
    for e in singletons:
        if instance.constraint.is_feasible((e.id,)) and offer((e.id,)):
            if not every_singleton:
                break
    cursor = instance.constraint.cursor()
    fill = []
    spent = 0
    by_density = sorted(
        instance.elements,
        key=lambda e: (-Fraction(e.profit, e.cost) if e.cost else Fraction(-e.profit - 1), e.id),
    )
    for e in by_density:
        if spent + e.cost <= budget and cursor.try_push(e.id):
            fill.append(e.id)
            spent += e.cost
    offer(fill)

    lo = Fraction(0)
    s_lo = inner(instance, lo)
    if offer(s_lo):
        return pool
    s_plus = s_lo
    hi = Fraction(max(e.profit for e in instance.elements) + 1)
    s_minus = inner(instance, hi)
    offer(s_minus)
    for _ in range(depth):
        mid = (lo + hi) / 2
        s_mid = inner(instance, mid)
        if offer(s_mid):
            hi, s_minus = mid, s_mid
        else:
            lo, s_plus = mid, s_mid
    if pairs is not None:
        pairs.append((s_minus, s_plus))
    pool.extend(_patched(instance, s_minus, s_plus, _GreedyOrders(instance)))
    return pool


def reference_greedy_solver_ids(instance):
    best = Solution((), 0, 0)
    for ids in reference_candidate_pool(instance, FULL_DEPTH):
        cand = Solution.build(instance, ids)
        if cand.total_profit > best.total_profit or (
            cand.total_profit == best.total_profit and cand.element_ids < best.element_ids
        ):
            best = cand
    return best.element_ids


def greedy_order(instance, lam):
    """The positive-weight ids in the order the greedy oracle pushes them."""
    weight = {e.id: e.profit * lam.denominator - lam.numerator * e.cost
              for e in instance.elements}
    return tuple(sorted((i for i in weight if weight[i] > 0),
                        key=lambda i: (-weight[i], i)))


class TestGreedyOrderCache:
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 30),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        top=st.integers(1, 100),
        lams=st.lists(st.tuples(st.integers(0, 120), st.integers(1, 6)),
                      min_size=1, max_size=25),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_equals_uncached(self, seed, size, kind, top, lams):
        # Small value ranges make weight ties, and orders sharing a set, common.
        inst = generate_instance(seed, size, kind, cost_range=(1, top), profit_range=(1, top))
        orders = _GreedyOrders(inst)
        with exact_limit(0):
            for num, den in lams:
                cached = inner_max_weight(inst, num, den, orders=orders)
                assert cached == inner_max_weight(inst, num, den, orders=_GreedyOrders(inst))
                assert cached == reference_greedy_inner(inst, Fraction(num, den))

    @pytest.mark.parametrize("kind, constraint_type, budget_percent", [
        ("matching", Matching, None), ("matroid-intersection", MatroidIntersection, 20)])
    def test_search_runs_the_push_loop_once_per_distinct_order(self, monkeypatch, kind,
                                                               constraint_type, budget_percent):
        # 40 elements, so the greedy oracle serves every probe; the lambda = 0
        # optimum is over budget, so the search bisects.
        inst = generate_instance(2, 40, kind, budget_percent=budget_percent)
        original_inner = bcopt.lagrange.inner_max_weight
        original_cursor = constraint_type.cursor
        probes = []
        loops = []
        cursors = []
        every_cursor = []
        inside = []

        def recording_inner(instance, num, den, **kwargs):
            probes.append(greedy_order(instance, Fraction(num, den)))
            inside.append(True)
            try:
                return original_inner(instance, num, den, **kwargs)
            finally:
                inside.pop()

        # A push loop ends by storing its set under its order, once per loop.
        class RecordingSets(dict):
            def __setitem__(self, order, chosen):
                loops.append(probes[-1])
                super().__setitem__(order, chosen)

        class RecordingOrders(_GreedyOrders):
            __slots__ = ()

            def __init__(self, instance):
                super().__init__(instance)
                self.sets = RecordingSets()

        def counting_cursor(self):
            every_cursor.append(self)
            if inside:
                cursors.append(probes[-1])
            return original_cursor(self)

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", recording_inner)
        monkeypatch.setattr(bcopt.lagrange, "_GreedyOrders", RecordingOrders)
        monkeypatch.setattr(constraint_type, "cursor", counting_cursor)
        non_profitable_solver(inst)
        # A matching's push loop tests fit by vertex masks; an intersection's
        # opens one cursor per loop.
        assert cursors == ([] if constraint_type is Matching else loops)
        # Beside the loops' cursors, the search builds one that the
        # singleton scan and the fill share and one for the patching grow: 14 on
        # this intersection, as many as before the growths were one routine.
        if constraint_type is Matching:
            assert every_cursor == []
        else:
            assert len(every_cursor) == len(loops) + 2 <= 14
        # The search stops once (P + 1) * D^2 < 2^steps, D the largest cost.
        largest_profit = max(e.profit for e in inst.elements)
        resolution = (largest_profit + 1) * max(e.cost for e in inst.elements) ** 2
        assert len(probes) == 2 + resolution.bit_length()
        assert loops == list(dict.fromkeys(probes))
        # The probes skipped past that point would only have repeated orders.
        full_depth = []

        def recording_reference(instance, lam):
            full_depth.append(greedy_order(instance, lam))
            return reference_greedy_inner(instance, lam)

        reference_candidate_pool(inst, FULL_DEPTH, recording_reference)
        assert len(full_depth) == 2 + FULL_DEPTH
        assert loops == list(dict.fromkeys(full_depth))
        assert len(loops) < len(full_depth) // 2

    @given(inst=tiny_instances())
    @settings(max_examples=300, deadline=None)
    def test_forced_greedy_pool_matches_the_cursor_reference(self, inst):
        # Self-loops, a far vertex and sparse ids: the singleton scan, the
        # fill and every probe's push loop test fit by masks on a matching,
        # and the reference by whole-set feasibility and cursors.
        with exact_limit(0):
            pool = list(dict.fromkeys(_candidate_pool(inst)))
        assert pool == list(dict.fromkeys(reference_candidate_pool(inst, FULL_DEPTH)))

    @given(inst=tiny_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_singleton_keeps_the_winner_of_every_singleton(self, inst, data):
        # Zero costs, zero profits and self-loops come with the tiny
        # instances.  Half the draws take the residual of a skeleton, where
        # a singleton the skeleton spans is feasible in the instance but
        # not in the residual.
        if data.draw(st.booleans()):
            skeletons = [f for f in iter_feasible_sets(inst) if inst.total_cost(f) <= inst.budget]
            inst = pool_residual(inst, inst.ids, data.draw(st.sampled_from(skeletons)))
        every = reference_candidate_pool(inst, FULL_DEPTH, every_singleton=True)
        with exact_limit(0):
            assert approx_opt(inst).element_ids == pool_winner(inst, every)

    def test_a_spanned_best_singleton_gives_way_to_the_next(self):
        # Partition block {0, 1} of capacity 1, contracted by {0}: in the
        # residual, element 1 earns most but cannot stand alone, so the
        # pool's one singleton is element 3, the most profitable after it.
        ids = frozenset(range(5))
        parent = MatroidIntersection(PartitionMatroid(ids, [{0, 1}], [1]), UniformMatroid(ids, 2))
        elements = (Element(1, 1, 9), Element(2, 1, 5), Element(3, 1, 7), Element(4, 1, 7))
        inst = BCInstance(elements, residual_constraint(parent, {0}), 1)
        with exact_limit(0):
            pool = _candidate_pool(inst)
            alpha = approx_opt(inst)
        # The singleton comes right after the empty set, before the fill.
        assert pool[:2] == [frozenset(), frozenset({3})]
        assert frozenset({1}) not in pool
        assert alpha.element_ids == (3,)
        assert alpha.element_ids == pool_winner(
            inst, reference_candidate_pool(inst, FULL_DEPTH, every_singleton=True))

    def test_forced_greedy_search_matches_the_uncached_reference_on_the_corpus(self, main_corpus):
        with exact_limit(0):
            for name, inst in main_corpus:
                got = non_profitable_solver(inst).element_ids
                assert got == reference_greedy_solver_ids(inst), name

    def test_default_search_matches_the_uncached_reference_on_large_instances(self):
        for inst in large_instances():
            assert len(inst.elements) > EXACT_LIMIT
            got = non_profitable_solver(inst).element_ids
            assert got == reference_greedy_solver_ids(inst)


def searched_pool_and_pair(inst):
    """``_candidate_pool``'s distinct candidates and the pair it patches."""
    pairs = []

    def recording_patched(instance, s_minus, s_plus, orders):
        pairs.append((s_minus, s_plus))
        return _patched(instance, s_minus, s_plus, orders)

    with mock.patch.object(bcopt.lagrange, "_patched", recording_patched):
        pool = _candidate_pool(inst)
    return list(dict.fromkeys(pool)), pairs


def pool_winner(inst, pool):
    """``approx_opt``'s rule over ``pool``: maximum profit, then smaller ids."""
    best = max(map(inst.total_profit, pool))
    return min(tuple(sorted(ids)) for ids in pool if inst.total_profit(ids) == best)


def full_depth_pool_and_pair(inst, depth=FULL_DEPTH):
    """The same for a search that probes all 2 + ``depth`` dyadic lambda."""
    pairs = []
    orders = _GreedyOrders(inst)
    pool = reference_candidate_pool(
        inst, depth,
        lambda instance, lam: inner_max_weight(instance, lam.numerator, lam.denominator,
                                               orders=orders),
        pairs)
    return list(dict.fromkeys(pool)), pairs


def assert_walk_pair(inst, pool, pairs):
    """The exact walk's contract on its pair: both ends weigh the inner
    optimum where their lines cross, at some lambda* >= 0; ``s_minus`` is
    feasible, affordable and pooled, and ``s_plus`` is over budget."""
    [(s_minus, s_plus)] = pairs
    c_minus, c_plus = inst.total_cost(s_minus), inst.total_cost(s_plus)
    assert c_minus <= inst.budget < c_plus
    lam = Fraction(inst.total_profit(s_plus) - inst.total_profit(s_minus), c_plus - c_minus)
    assert lam >= 0
    weight = {e.id: e.profit * lam.denominator - lam.numerator * e.cost
              for e in inst.elements}
    best = sum(weight[i] for i in max_weight_feasible_ids(inst, weight))
    assert sum(weight[i] for i in s_minus) == sum(weight[i] for i in s_plus) == best
    assert inst.constraint.is_feasible(s_minus) and inst.constraint.is_feasible(s_plus)
    assert s_minus in pool


class TestPositiveWeightOrder:
    # Ranges from 0 make zero costs, zero profits and equal densities
    # common; every density of the instance is also tried as lambda.
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 30),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        top=st.integers(1, 6),
        lams=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 12)), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_density_prefix_matches_weighing_every_element(self, seed, size, kind, top,
                                                                lams):
        inst = generate_instance(seed, size, kind, cost_range=(0, top), profit_range=(0, top))
        orders = _GreedyOrders(inst)
        on_density = [(e.profit, e.cost) for e in inst.elements if e.cost]
        for num, den in lams + on_density:
            weight = [p * den - num * c for p, c in zip(orders.profits, orders.costs)]
            expected = sorted([k for k, w in enumerate(weight) if w > 0],
                              key=weight.__getitem__, reverse=True)
            assert orders.positive_order(num, den) == tuple(expected), (num, den)


class TestBreakpointStop:
    # Costs and profits from 0 make ties, zero costs and dyadic breakpoints
    # common; budgets from 0 make most searches bisect.
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 20),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        top=st.integers(1, 9),
        percent=st.integers(0, 100),
        greedy=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_search_matches_the_full_depth_search(self, seed, size, kind, top, percent, greedy):
        inst = generate_instance(seed, size, kind, cost_range=(0, top),
                                 profit_range=(0, top), budget_percent=percent)
        # The default search is exact at these sizes.
        with exact_limit(0 if greedy else EXACT_LIMIT):
            pool, pairs = searched_pool_and_pair(inst)
            full_pool, full_pairs = full_depth_pool_and_pair(inst)
        if greedy:
            assert pairs == full_pairs
            assert pool == full_pool
            return
        # The exact search walks the breakpoints; it patches a pair exactly
        # when the lambda = 0 optimum is over budget, and its pair keeps the
        # walk's contract.
        assert len(pairs) == len(full_pairs)
        if pairs:
            assert_walk_pair(inst, pool, pairs)

    def test_greedy_stop_separates_two_close_zero_crossings(self):
        # Edges 0 and 1 turn non-positive at lambda = 8/39 and 7/34, 1/1326
        # apart.  The greedy optimum is {0, 1, 2}, over budget, below them,
        # {1, 2} between them and {2} above them.  A guard one step too
        # loose stops with s_minus = {2}.
        inst = BCInstance(
            (Element(0, 39, 8), Element(1, 34, 7), Element(2, 0, 9)),
            Matching(6, {0: (0, 1), 1: (2, 3), 2: (4, 5)}), 36)
        with exact_limit(0):
            pool, pairs = searched_pool_and_pair(inst)
            assert pairs == [(frozenset({1, 2}), frozenset({0, 1, 2}))]
            assert (pool, pairs) == full_depth_pool_and_pair(inst)

    def test_walk_replaces_the_affordable_end_twice(self):
        # Edges 0, 1, 2 form a path and edge 3 stands apart.  The walk
        # replaces the affordable end twice, the empty set by {1} and {1} by
        # {1, 3}, and stops where {1, 3} crosses the over-budget {0, 2, 3},
        # at lambda = 12/17.
        inst = BCInstance(
            (Element(0, 9, 11), Element(1, 1, 10), Element(2, 9, 11), Element(3, 7, 5)),
            Matching(6, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (4, 5)}), 8)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset({1, 3}), frozenset({0, 2, 3}))]
        assert_walk_pair(inst, pool, pairs)

    def test_walk_stops_on_the_empty_set(self):
        # Edges 0 and 1 share vertex 0, and the budget, 3, affords neither.
        # The walk's first crossing, 10/9, returns the over-budget {1}, which
        # replaces {0}; the next, 9/4, returns the empty set, whose weight 0
        # equals the lines of {1} and the empty set there, so the walk stops
        # and pairs the empty set with {1}.
        inst = BCInstance((Element(0, 9, 10), Element(1, 4, 9)),
                          Matching(3, {0: (0, 1), 1: (0, 2)}), 3)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset(), frozenset({1}))]
        assert_walk_pair(inst, pool, pairs)

    def test_walk_keeps_the_probe_at_zero(self):
        # The walk's ends cost 2 and 1 at equal profit, so they cross at
        # lambda = 0: the pair keeps the lambda = 0 optimum.
        inst = generate_instance(8, 14, "matroid-intersection", cost_range=(0, 1),
                                 profit_range=(0, 1), budget_percent=12)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset({0, 7, 11}), frozenset({0, 6, 7}))]
        assert_walk_pair(inst, pool, pairs)

    def test_walk_answers_a_zero_crossing_from_the_opening_probe(self, monkeypatch):
        # After the probe at 1/2 the ends earn the same, so they cross at
        # lambda = 0, where the opening probe already holds the answer: the
        # walk stops there without probing 0 again.
        inst = generate_instance(8, 14, "matroid-intersection", cost_range=(0, 1),
                                 profit_range=(0, 1), budget_percent=12)
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def counting_inner(instance, num, den, **kwargs):
            probes.append(Fraction(num, den))
            return original_inner(instance, num, den, **kwargs)

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", counting_inner)
        alpha = approx_opt(inst)
        assert probes == [0, 2, Fraction(1, 2)]
        assert alpha.element_ids == (0, 2, 3, 7, 11) and alpha.total_profit == 3

    def test_walk_pairs_its_ends_not_the_optimum_past_the_next_breakpoint(self):
        # The walk ends with {0, 1, 2, 3, 5} (cost 4, profit 9) and
        # {0, 2, 3, 5} (cost 3, profit 8), which cross at lambda = 1.  The
        # affordable {3, 5, 6} (cost 1) takes over only at 4/3, so it is
        # no end of the pair.
        inst = generate_instance(351123, 7, "matching", cost_range=(0, 2),
                                 profit_range=(0, 2), budget_percent=67)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset({0, 2, 3, 5}), frozenset({0, 1, 2, 3, 5}))]
        assert_walk_pair(inst, pool, pairs)

    def test_walk_pools_every_affordable_probe(self, monkeypatch):
        # The walk's first crossing, 4/5, returns the affordable
        # {3, 5, 6, 13, 18} (cost 10, profit 17), which becomes the
        # affordable end; the crossing 5/7 returns {3, 5, 6, 8, 16} (cost 21,
        # profit 25), which replaces it.  The walk stops at 5/7 again, between
        # {3, 5, 6, 8, 16} and the over-budget {3, 6, 8, 16, 17} (cost 28,
        # profit 30); the budget is 23.  Every probe is pooled exactly when
        # it is affordable, the one the walk gave up included, as in the
        # bisection; alpha is the final affordable end.
        inst = generate_instance(85133, 19, "matroid-intersection", cost_range=(0, 8),
                                 profit_range=(0, 8), budget_percent=26)
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def recording_inner(instance, num, den, **kwargs):
            probes.append(original_inner(instance, num, den, **kwargs))
            return probes[-1]

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", recording_inner)
        pool, pairs = searched_pool_and_pair(inst)
        monkeypatch.undo()
        end = frozenset({3, 5, 6, 8, 16})
        assert pairs == [(end, frozenset({3, 6, 8, 16, 17}))]
        assert_walk_pair(inst, pool, pairs)
        # The two opening probes, then the walk's.
        walked = probes[2:]
        assert [s for s in walked if s in pool] == [frozenset({3, 5, 6, 13, 18}), end, end]
        for s in probes:
            assert (s in pool) == (inst.total_cost(s) <= inst.budget), sorted(s)
        alpha = approx_opt(inst)
        assert alpha.element_ids == (3, 5, 6, 8, 16) and alpha.total_profit == 25

    def test_walk_pools_an_affordable_stopping_probe(self, monkeypatch):
        # The walk stops at lambda* = 1/2 on {0, 2, 5, 6, 8}, which is not an
        # end of the pair but ties with both ends there, costs the budget, 4,
        # and earns 14, the optimum; the final affordable end earns 12.
        inst = generate_instance(285402, 15, "matroid-intersection", cost_range=(0, 3),
                                 profit_range=(0, 3), budget_percent=31)
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def recording_inner(instance, num, den, **kwargs):
            probes.append((Fraction(num, den), original_inner(instance, num, den, **kwargs)))
            return probes[-1][1]

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", recording_inner)
        pool, pairs = searched_pool_and_pair(inst)
        monkeypatch.undo()
        assert_walk_pair(inst, pool, pairs)
        stop_lam, stop = probes[-1]
        best = frozenset({0, 2, 5, 6, 8})
        assert stop_lam == Fraction(1, 2) and stop == best and best not in pairs[0]
        assert inst.total_cost(best) == inst.budget == 4 and best in pool
        assert inst.total_profit(pairs[0][0]) == 12
        alpha = approx_opt(inst)
        assert alpha.element_ids == (0, 2, 5, 6, 8) and alpha.total_profit == 14
        assert alpha.total_profit == brute_force_opt(inst).total_profit

    def test_walk_makes_fewer_probes_than_the_bisection(self, monkeypatch):
        # 17 edges, the benchmark's matching size: bisection takes at least
        # 2 + ((P + 1) * d^2).bit_length() = 22 probes, d the largest cost.
        inst = generate_instance(0, 17, "matching")
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def counting_inner(instance, num, den, **kwargs):
            probes.append(Fraction(num, den))
            return original_inner(instance, num, den, **kwargs)

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", counting_inner)
        pool, pairs = searched_pool_and_pair(inst)
        resolution = (max(e.profit for e in inst.elements) + 1) * max(
            e.cost for e in inst.elements) ** 2
        assert len(probes) == 6 < 2 + resolution.bit_length() == 22
        assert_walk_pair(inst, pool, pairs)

    def test_bisection_runs_past_64_steps_on_large_numbers(self, monkeypatch):
        # 30 edges, so the search is greedy, with costs and profits near 2^40:
        # the breakpoints are about 2^-80 apart, so resolving them takes
        # ((P + 1) * D^2).bit_length() = 122 steps, D the largest cost.
        inst = generate_instance(7, 30, "matching", cost_range=(2**39, 2**40),
                                 profit_range=(2**39, 2**40), budget_percent=20)
        assert len(inst.elements) > EXACT_LIMIT
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def counting_inner(instance, num, den, **kwargs):
            probes.append(Fraction(num, den))
            return original_inner(instance, num, den, **kwargs)

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", counting_inner)
        pool, pairs = searched_pool_and_pair(inst)
        resolution = (max(e.profit for e in inst.elements) + 1) * max(
            e.cost for e in inst.elements) ** 2
        assert len(probes) == 2 + resolution.bit_length() == 122
        assert (pool, pairs) == full_depth_pool_and_pair(inst, resolution.bit_length() + 40)
        assert_every_candidate_is_a_solution(inst)


class TestPatchedMatching:
    def test_many_components_are_blended_as_greedy_prefixes(self):
        # 18 disjoint paths 3i - 3i+1 - 3i+2: s_minus holds each path's first
        # edge 2i, s_plus its second edge 2i+1, so the pair differs in 18
        # two-edge components, more than are blended exhaustively.
        paths = 18
        rng = random.Random(18)
        edges, elements = {}, []
        for i in range(paths):
            edges[2 * i] = (3 * i, 3 * i + 1)
            edges[2 * i + 1] = (3 * i + 1, 3 * i + 2)
            elements.append(Element(2 * i, rng.randint(1, 5), rng.randint(1, 9)))
            elements.append(Element(2 * i + 1, rng.randint(1, 20), rng.randint(1, 30)))
        s_minus = frozenset(range(0, 2 * paths, 2))
        s_plus = frozenset(range(1, 2 * paths, 2))
        cost = {e.id: e.cost for e in elements}
        budget = sum(map(cost.get, s_minus)) + 40
        inst = BCInstance(tuple(elements), Matching(3 * paths, edges), budget)
        components = _symmetric_difference_components(inst.constraint, s_minus, s_plus)
        assert len(components) == paths > _MAX_PATCH_COMPONENTS

        ordered = sorted(components, key=lambda c: reference_component_priority(inst, c, s_minus))
        assert ordered != components  # the priority order is not the id order
        prefixes, swapped = [], set(s_minus)
        for comp in ordered:
            swapped ^= comp
            prefixes.append(frozenset(swapped))
        affordable = [p for p in prefixes if inst.total_cost(p) <= budget]
        assert 0 < len(affordable) < len(prefixes)

        got = _patched(inst, s_minus, s_plus, _GreedyOrders(inst))
        assert got == affordable
        assert all(inst.total_cost(ids) <= budget for ids in got)

    @given(costs=st.lists(st.integers(0, 6), min_size=1, max_size=24),
           profits=st.lists(st.integers(0, 9), min_size=24, max_size=24),
           cuts=st.sets(st.integers(1, 23)), minus=st.integers(0, 2**24 - 1))
    @settings(max_examples=300, deadline=None)
    def test_the_priority_orders_components_as_the_fraction_reference(
            self, costs, profits, cuts, minus):
        # Components of consecutive ids, each element in s_minus or not, so
        # the extra cost and the gain take every sign, zero included.
        inst = free_instance(costs, profits[:len(costs)])
        bounds = [0, *sorted(c for c in cuts if c < len(costs)), len(costs)]
        components = [frozenset(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        s_minus = frozenset(i for i in range(len(costs)) if minus >> i & 1)
        assert sorted(components, key=lambda c: _component_priority(inst, c, s_minus)) == \
            sorted(components, key=lambda c: reference_component_priority(inst, c, s_minus))


def reference_component_priority(instance, comp, s_minus):
    """The Fraction-keyed priority ``_component_priority`` replaces."""
    gain = sum(instance.profit_of[i] for i in comp - s_minus) - sum(
        instance.profit_of[i] for i in comp & s_minus)
    extra = sum(instance.cost_of[i] for i in comp - s_minus) - sum(
        instance.cost_of[i] for i in comp & s_minus)
    density = Fraction(gain, extra) if extra > 0 else Fraction(gain + 1, 1) * 10**6
    return (-density, min(comp))


def reference_components(graph, a, b):
    """The breadth-first components of a ^ b that the mask merge replaces."""
    edges = sorted(a ^ b)
    by_vertex = {}
    for eid in edges:
        for vertex in graph.edges[eid]:
            by_vertex.setdefault(vertex, []).append(eid)
    seen, components = set(), []
    for start in edges:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        seen.add(start)
        while frontier:
            for vertex in graph.edges[frontier.pop()]:
                for nxt in by_vertex[vertex]:
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.add(nxt)
                        frontier.append(nxt)
        components.append(frozenset(comp))
    return components


class TestSymmetricDifferenceComponents:
    def test_the_bracketing_pairs_match_the_breadth_first_reference(self):
        for seed, inst in patched_matchings():
            _, pairs = searched_pool_and_pair(inst)
            for a, b in pairs:
                assert _symmetric_difference_components(inst.constraint, a, b) == \
                    reference_components(inst.constraint, a, b), seed

    # Self-loops and a far vertex shape the table; the pair is two matchings.
    @given(inst=tiny_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tiny_matchings_match_the_breadth_first_reference(self, inst, data):
        assume(isinstance(inst.constraint, Matching))
        matchings = list(iter_feasible_sets(inst))
        a, b = data.draw(st.sampled_from(matchings)), data.draw(st.sampled_from(matchings))
        assert _symmetric_difference_components(inst.constraint, a, b) == \
            reference_components(inst.constraint, a, b)


def assert_every_candidate_is_a_solution(inst):
    for ids in _candidate_pool(inst):
        assert inst.constraint.is_feasible(ids), sorted(ids)
        assert inst.total_cost(ids) <= inst.budget, sorted(ids)


class TestCandidatePool:
    # Only the winner is built, and so checked, at run time.
    def test_every_candidate_is_a_solution_on_the_corpus(self, main_corpus):
        with exact_limit(0):
            for name, inst in main_corpus:
                assert_every_candidate_is_a_solution(inst)

    def test_every_candidate_is_a_solution_on_large_instances(self):
        for inst in large_instances():
            assert_every_candidate_is_a_solution(inst)


# --- reference: the Fraction-keyed density orders the integer comparisons replace


def reference_density_key(e):
    return (-Fraction(e.profit, e.cost) if e.cost else Fraction(-e.profit - 1), e.id)


def reference_trimmed(instance, s_plus):
    cost = instance.cost_of
    current = set(s_plus)
    while current and sum(cost[i] for i in current) > instance.budget:
        victim = min(
            current,
            key=lambda i: (Fraction(instance.profit_of[i], cost[i]) if cost[i] else Fraction(2**127), i),
        )
        current.discard(victim)
    return [frozenset(current)] if current else []


class TestExactDensityOrder:
    # Small ranges make equal densities and zero costs common.
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=30),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_fill_order_matches_the_fraction_key(self, pairs, rng):
        elements = [Element(i, c, p) for i, (c, p) in enumerate(pairs)]
        rng.shuffle(elements)
        inst = BCInstance(tuple(elements), free_constraint(range(len(elements))), 0)
        assert list(inst.density_order) == sorted(elements, key=reference_density_key)

    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 14),
        top=st.integers(1, 6),
        picks=st.lists(st.integers(0, 13), max_size=14),
    )
    @settings(max_examples=200, deadline=None)
    def test_intersection_trim_matches_the_fraction_key(self, seed, size, top, picks):
        inst = generate_instance(seed, size, "matroid-intersection",
                                 cost_range=(0, top), profit_range=(0, top))
        s_plus = frozenset(i for i in picks if i < size)
        # The last candidate grows the affordable side; the rest is the trim.
        got = _patched(inst, frozenset(), s_plus, _GreedyOrders(inst))
        assert got[:-1] == reference_trimmed(inst, s_plus)


# --- reference: greedy growth by whole-set feasibility, and the patching grow
# as it was written before it became a ``_GreedyOrders.grow`` call


def reference_grow(instance, positions, room):
    """Push each position of the id-ordered elements in turn; keep it iff the
    kept ids plus its id are feasible and, with a ``room``, their cost fits."""
    elements = sorted(instance.elements, key=lambda e: e.id)
    kept, spent = [], 0
    for k in positions:
        ids = [elements[j].id for j in kept] + [elements[k].id]
        if instance.constraint.is_feasible(ids) and (
                room is None or spent + elements[k].cost <= room):
            kept.append(k)
            spent += elements[k].cost
    return kept, spent


def reference_grown(instance, s_minus, s_plus):
    cons = instance.constraint
    budget = instance.budget
    cost = instance.cost_of
    profit = instance.profit_of
    cursor = cons.cursor()
    grown = []
    spent = 0
    for eid in sorted(s_minus):
        if cursor.try_push(eid):
            grown.append(eid)
            spent += cost[eid]
    for eid in sorted(s_plus - s_minus, key=lambda i: (-profit[i], i)):
        if spent + cost[eid] <= budget and cursor.try_push(eid):
            grown.append(eid)
            spent += cost[eid]
    return frozenset(grown)


class TestGreedyGrowth:
    @given(inst=tiny_instances(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_grow_matches_the_feasibility_reference(self, inst, data):
        # Self-loops, zero costs, budget 0 and a far vertex; each position
        # at most once, as in every growth of a search.
        n = len(inst.elements)
        positions = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        room = data.draw(st.none() | st.integers(0, inst.budget))
        expected = reference_grow(inst, positions, room)
        assert _GreedyOrders(inst).grow(positions, room) == expected
        # The fill grows through the search's own cursor, still empty.
        orders = _GreedyOrders(inst)
        assert orders.grow(positions, room, orders.cursor) == expected

    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(0, 14),
        top=st.integers(1, 6),
        minus=st.lists(st.integers(0, 13), max_size=14),
        plus=st.lists(st.integers(0, 13), max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_intersection_grow_matches_the_former_loop(self, seed, size, top, minus, plus):
        inst = generate_instance(seed, size, "matroid-intersection",
                                 cost_range=(0, top), profit_range=(0, top))
        # s_minus is affordable, as the search's always is; s_plus may not be.
        s_minus = set()
        for i in minus:
            if i < size and inst.total_cost(s_minus | {i}) <= inst.budget:
                s_minus.add(i)
        s_minus, s_plus = frozenset(s_minus), frozenset(i for i in plus if i < size)
        got = _patched(inst, s_minus, s_plus, _GreedyOrders(inst))
        assert got[-1] == reference_grown(inst, s_minus, s_plus)
