import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bcopt.lagrange
from bcopt.core import BCError, BCInstance, Element, Solution, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.constraints import Matching, MatroidIntersection, residual_constraint
from bcopt.lagrange import (
    EXACT_LIMIT,
    _MAX_PATCH_COMPONENTS,
    _GreedyOrders,
    _candidate_pool,
    _component_priority,
    _density_key,
    _patched,
    _symmetric_difference_components,
    approx_opt,
    declared_gamma,
    inner_max_weight,
    lagrangian_solution,
    non_profitable_solver,
)
from bcopt.matroids import PartitionMatroid, UniformMatroid
from bcopt.oracle import brute_force_opt

from conftest import free_instance


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


class TestApproxOpt:
    def test_empty_instance(self):
        inst = free_instance([], [])
        assert approx_opt(inst, mode="exact").total_profit == 0
        assert approx_opt(inst, mode="lagrangian").total_profit == 0

    def test_single_element_exact(self):
        inst = free_instance([3], [7], budget=5)
        assert approx_opt(inst, mode="exact").total_profit == 7

    def test_knapsack_like_exact(self):
        # profits = costs = {6, 5, 5}, budget 10: the pair of fives wins
        inst = free_instance([6, 5, 5], budget=10)
        assert approx_opt(inst, mode="exact").total_profit == 10

    def test_unknown_mode(self):
        with pytest.raises(BCError):
            approx_opt(free_instance([1]), mode="bogus")

    def test_declared_gamma(self):
        assert declared_gamma("exact") == 2
        assert declared_gamma("lagrangian") == 4

    @pytest.mark.parametrize("seed", range(20))
    def test_lagrangian_within_declared_factor(self, seed):
        kind = "matching" if seed % 2 == 0 else "matroid-intersection"
        inst = preprocess_discard(generate_instance(seed, 6 + seed % 7, kind))
        opt = brute_force_opt(inst).total_profit
        alpha = approx_opt(inst, mode="lagrangian").total_profit
        assert alpha <= opt
        assert 4 * alpha >= opt


class TestNonProfitableSolver:
    def test_empty_after_preprocess(self):
        inst = preprocess_discard(free_instance([99, 99], [5, 5], budget=10))
        sol = non_profitable_solver(inst)
        assert sol.total_profit == 0

    def test_contract_vacuous_when_one_element_dominates(self):
        inst = free_instance([1, 1], [100, 1], budget=1)
        sol = lagrangian_solution(inst)
        opt = brute_force_opt(inst).total_profit
        assert sol.total_profit >= opt - 2 * 100

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_matching_instances(self, seed):
        inst = preprocess_discard(generate_instance(3000 + seed, 12, "matching"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for solver in (non_profitable_solver, lagrangian_solution):
            sol = solver(inst)
            assert sol.total_profit >= opt - 2 * max_p

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_intersection_instances(self, seed):
        inst = preprocess_discard(
            generate_instance(4000 + seed, 12, "matroid-intersection"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for solver in (non_profitable_solver, lagrangian_solution):
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
        sol = lagrangian_solution(inst)
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
        # What lets the exact search shrink its breakpoint bound with the
        # bracket.  Ranges from 0, often small, make ties and zero costs common.
        inst = generate_instance(seed, size, kind, cost_range=(0, top), profit_range=(0, top))
        costs = [inst.total_cost(inner_max_weight(inst, lam)) for lam in sorted(lams)]
        assert costs == sorted(costs, reverse=True)

    def test_greedy_mode_returns_feasible_set(self):
        inst = preprocess_discard(generate_instance(77, 10, "matching"))
        with exact_limit(0):
            ids = inner_max_weight(inst, Fraction(1, 2))
        assert inst.constraint.is_feasible(ids)


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


def reference_candidate_pool(instance, depth, inner=reference_greedy_inner, pairs=None):
    """The search bisected ``depth`` times: all 2 + ``depth`` probes, every time.

    ``inner(instance, lam)`` answers each probe; ``pairs``, when given,
    receives the bracketing pair handed to ``_patched``.
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

    for e in sorted(instance.elements, key=lambda e: e.id):
        if instance.constraint.is_feasible((e.id,)):
            offer((e.id,))
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
    pool.extend(_patched(instance, s_minus, s_plus))
    return pool


def reference_greedy_solver_ids(instance):
    best = Solution.empty()
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
        lams=st.lists(
            st.builds(Fraction, st.integers(0, 120), st.integers(1, 6)),
            min_size=1, max_size=25,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_equals_uncached(self, seed, size, kind, top, lams):
        # Small value ranges make weight ties, and orders sharing a set, common.
        inst = generate_instance(seed, size, kind, cost_range=(1, top), profit_range=(1, top))
        orders = _GreedyOrders(inst)
        with exact_limit(0):
            for lam in lams:
                cached = inner_max_weight(inst, lam, _orders=orders)
                assert cached == inner_max_weight(inst, lam)
                assert cached == reference_greedy_inner(inst, lam)

    def test_search_runs_the_push_loop_once_per_distinct_order(self, monkeypatch):
        # 40 edges, so the greedy oracle serves every probe; the lambda = 0
        # optimum is over budget, so the search bisects.
        inst = generate_instance(2, 40, "matching")
        original_inner = bcopt.lagrange.inner_max_weight
        original_cursor = Matching.cursor
        probes = []
        loops = []
        inside = []

        def recording_inner(instance, lam, **kwargs):
            probes.append(greedy_order(instance, lam))
            inside.append(True)
            try:
                return original_inner(instance, lam, **kwargs)
            finally:
                inside.pop()

        def counting_cursor(self):
            if inside:
                loops.append(probes[-1])
            return original_cursor(self)

        monkeypatch.setattr(bcopt.lagrange, "inner_max_weight", recording_inner)
        monkeypatch.setattr(Matching, "cursor", counting_cursor)
        non_profitable_solver(inst)
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

    def recording_patched(instance, s_minus, s_plus):
        pairs.append((s_minus, s_plus))
        return _patched(instance, s_minus, s_plus)

    with mock.patch.object(bcopt.lagrange, "_patched", recording_patched):
        pool = _candidate_pool(inst)
    return list(dict.fromkeys(pool)), pairs


def full_depth_pool_and_pair(inst, depth=FULL_DEPTH):
    """The same for a search that probes all 2 + ``depth`` dyadic lambda."""
    pairs = []
    pool = reference_candidate_pool(inst, depth, inner_max_weight, pairs)
    return list(dict.fromkeys(pool)), pairs


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
            assert searched_pool_and_pair(inst) == full_depth_pool_and_pair(inst)

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

    def test_exact_stop_separates_a_crossing_beyond_the_largest_cost(self):
        # Edges 0, 1, 2 form a path and edge 3 stands apart.  The exact
        # optimum {0, 2, 3} gives way to the affordable {1, 3} at
        # lambda = 12/17, and edge 3 turns non-positive at 5/7, 1/119 later.
        # 17 is above the largest cost, 9, so the guard needs the sum of the
        # size_cap = 3 largest costs, 25: with the largest cost it stops with
        # s_minus = {1}.
        inst = BCInstance(
            (Element(0, 9, 11), Element(1, 1, 10), Element(2, 9, 11), Element(3, 7, 5)),
            Matching(6, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (4, 5)}), 8)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset({1, 3}), frozenset({0, 2, 3}))]
        assert (pool, pairs) == full_depth_pool_and_pair(inst)

    def test_exact_stop_separates_a_crossing_at_a_whole_set_cost(self):
        # Edges 0 and 1 share vertex 0, so size_cap is 1 and D is the largest
        # cost, 9.  The exact optimum {0} gives way to {1} at lambda = 1/5,
        # and {1} to the empty set at 9/4.  The budget, 3, affords neither
        # edge, so 9/4 is the separating crossing: its denominator is the
        # whole cost of {1}.  A D that leaves out one cost, the sum of the
        # size_cap - 1 = 0 largest, never bisects and pairs the empty set
        # with {0}.
        inst = BCInstance((Element(0, 9, 10), Element(1, 4, 9)),
                          Matching(3, {0: (0, 1), 1: (0, 2)}), 3)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset(), frozenset({1}))]
        assert (pool, pairs) == full_depth_pool_and_pair(inst)

    def test_exact_stop_separates_a_tie_break_flip_past_the_bracket_costs(self):
        # Edges 0, 3, 1, 2 form the cycle 0-1-2-3-0, whose perfect matchings
        # {0, 1} and {2, 3} tie at every lambda: each costs 4 and is worth 7.
        # The exact oracle takes the one holding the heavier of edges 3 and 0,
        # which cross at lambda = 3/4.  The stand-alone edge 4 turns
        # non-positive at 2/3, where the over-budget {2, 3, 4} gives way.
        # The bracket's cost range is then 7 - 4 = 3, below the crossing's
        # denominator 4: a D without the largest-cost floor stops with the
        # bracket [21/32, 49/64], which holds both points, and s_minus = {0, 1}.
        inst = BCInstance(
            (Element(0, 0, 3), Element(1, 4, 4), Element(2, 0, 1), Element(3, 4, 6),
             Element(4, 3, 2)),
            Matching(6, {0: (0, 1), 1: (2, 3), 2: (3, 0), 3: (1, 2), 4: (4, 5)}), 6)
        pool, pairs = searched_pool_and_pair(inst)
        assert pairs == [(frozenset({2, 3}), frozenset({2, 3, 4}))]
        assert (pool, pairs) == full_depth_pool_and_pair(inst)

    def test_bisection_runs_past_64_steps_on_large_numbers(self, monkeypatch):
        # 30 edges, so the search is greedy, with costs and profits near 2^40:
        # the breakpoints are about 2^-80 apart, so resolving them takes
        # ((P + 1) * D^2).bit_length() = 122 steps, D the largest cost.
        inst = generate_instance(7, 30, "matching", cost_range=(2**39, 2**40),
                                 profit_range=(2**39, 2**40), budget_percent=20)
        assert len(inst.elements) > EXACT_LIMIT
        probes = []
        original_inner = bcopt.lagrange.inner_max_weight

        def counting_inner(instance, lam, **kwargs):
            probes.append(lam)
            return original_inner(instance, lam, **kwargs)

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

        ordered = sorted(components, key=lambda c: _component_priority(inst, c, s_minus))
        assert ordered != components  # the priority order is not the id order
        prefixes, swapped = [], set(s_minus)
        for comp in ordered:
            swapped ^= comp
            prefixes.append(frozenset(swapped))
        affordable = [p for p in prefixes if inst.total_cost(p) <= budget]
        assert 0 < len(affordable) < len(prefixes)

        got = _patched(inst, s_minus, s_plus)
        assert got == affordable
        assert all(inst.total_cost(ids) <= budget for ids in got)


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
        assert sorted(elements, key=_density_key) == sorted(elements, key=reference_density_key)

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
        assert _patched(inst, frozenset(), s_plus)[:-1] == reference_trimmed(inst, s_plus)
