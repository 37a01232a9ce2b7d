import pytest
from hypothesis import given, settings, strategies as st

import bcopt.solver
from bcopt.core import (
    CapExceededError,
    Epsilon,
    InfeasibleSetError,
    preprocess_discard,
)
from bcopt.classes import small_profit_pool
from bcopt.cli import generate_instance
from bcopt.enumeration import feasible_subsets_within_budget
from bcopt.lagrange import approx_opt, non_profitable_solver
from bcopt.oracle import brute_force_opt
from bcopt.repset import rep_set
from bcopt.solver import (
    SkeletonBound,
    SolveConfig,
    eptas,
    eptas_detailed,
    residual_instance,
    solve,
    solve_detailed,
)

from conftest import free_instance, path_matching


class TestResidualInstance:
    def test_empty_skeleton_keeps_pool_and_budget(self):
        inst = free_instance([1, 2, 3], [1, 1, 1], budget=6)
        res = residual_instance(inst, alpha=2, epsilon=Epsilon(1, 4), skeleton=())
        # E(alpha) = {p <= 2 * (1/4) * 2 = 1} = everything here
        assert res.instance.ids == {0, 1, 2}
        assert res.budget == 6

    def test_matched_edge_excludes_neighbours(self):
        inst = path_matching(3, costs=[1, 1, 1], profits=[1, 1, 1], budget=3)
        res = residual_instance(inst, alpha=10, epsilon=Epsilon(1, 4), skeleton={0})
        # edge 1 shares vertex 1 with the skeleton; edge 2 survives
        assert res.instance.ids == {2}
        assert res.budget == 2

    def test_small_alpha_empties_the_pool(self):
        inst = free_instance([1, 1], [10, 20], budget=5)
        res = residual_instance(inst, alpha=1, epsilon=Epsilon(1, 4), skeleton=())
        assert res.instance.ids == frozenset()

    def test_non_solution_skeleton_raises(self):
        inst = path_matching(2, budget=10)
        with pytest.raises(InfeasibleSetError):
            residual_instance(inst, 5, Epsilon(1, 4), {0, 1})


class TestEptas:
    def test_empty_instance(self):
        sol = eptas(free_instance([], []), Epsilon(1, 4))
        assert sol.total_profit == 0
        assert sol.element_ids == ()

    def test_opt_zero_returns_empty(self):
        inst = free_instance([1, 1], [0, 0], budget=5)
        sol = eptas(inst, Epsilon(1, 4))
        assert sol.element_ids == ()

    def test_knapsack_like_reaches_opt(self):
        inst = free_instance([6, 5, 5], budget=10)
        sol = eptas(inst, Epsilon(1, 10))
        assert sol.total_profit == 10

    def test_incumbent_is_monotone(self):
        inst = generate_instance(5, 10, "matching")
        _, stats = eptas_detailed(inst, Epsilon(1, 6))
        profits = stats.incumbent_profits
        assert profits == sorted(profits)

    def test_subset_cap_overflow_raises(self):
        inst = generate_instance(6, 12, "matroid-intersection")
        with pytest.raises(CapExceededError):
            eptas_detailed(inst, Epsilon(1, 6), SolveConfig(subset_cap=3))


class TestSolve:
    def test_epsilon_is_rescaled_by_eight(self):
        inst = free_instance([1], [1], budget=1)
        _, stats = solve_detailed(inst, Epsilon(2, 5))
        # internal parameter 1/20 gives a skeleton cardinality cap of 20
        assert stats.enumerated >= 1  # smoke: ran the rescaled scheme

    def test_profit_never_exceeds_opt(self, opt_cache):
        for seed in (2, 9, 14):
            inst = generate_instance(seed, 10, "matching")
            sol = solve(inst, Epsilon(1, 4))
            assert sol.total_profit <= opt_cache(inst)

    @pytest.mark.parametrize("kind", ["matching", "matroid-intersection"])
    def test_guarantee_on_random_instances(self, kind):
        eps = Epsilon(1, 4)
        for seed in range(8):
            inst = generate_instance(6000 + seed, 9, kind)
            sol = solve(inst, eps)
            opt = brute_force_opt(inst).total_profit
            assert 4 * sol.total_profit >= 3 * opt  # (1 - 1/4) OPT, exact integers

    def test_output_is_validated_against_original_instance(self):
        inst = generate_instance(77, 11, "matching")
        sol = solve(inst, Epsilon(1, 4))
        assert inst.constraint.is_feasible(sol.element_ids)
        assert sol.total_cost <= inst.budget

    def test_deterministic_across_repeats_and_threads(self):
        inst = generate_instance(31, 12, "matroid-intersection")
        eps = Epsilon(1, 4)
        runs = [
            solve_detailed(inst, eps, SolveConfig(threads=t))[0]
            for t in (1, 1, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_exact_alpha_mode(self):
        inst = generate_instance(55, 10, "matching")
        sol, stats = solve_detailed(inst, Epsilon(1, 4), SolveConfig(alpha_mode="exact"))
        assert stats.gamma == 2
        assert stats.alpha == brute_force_opt(preprocess_discard(inst)).total_profit
        assert sol.total_cost <= inst.budget


def unpruned_solve_ids(instance, epsilon):
    """``solve`` without the skeleton bound: every skeleton's residual is solved."""
    epsilon = epsilon.scaled_down(8)
    working = preprocess_discard(instance)
    alpha = approx_opt(working)
    rep = rep_set(working, epsilon, alpha=alpha)
    best_ids, best_profit = frozenset(), 0
    for skeleton in feasible_subsets_within_budget(
            working, sorted(rep.elements), epsilon.inverse_floor()):
        residual = residual_instance(working, alpha, epsilon, skeleton)
        ids = frozenset(skeleton) | non_profitable_solver(residual.instance).id_set
        if working.total_profit(ids) > best_profit:
            best_ids, best_profit = ids, working.total_profit(ids)
    return tuple(sorted(best_ids))


class TestSkeletonBound:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(3, 9),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        alpha=st.integers(1, 400),
        eps=st.sampled_from([Epsilon(1, 4), Epsilon(1, 10), Epsilon(2, 5)]),
        pick=st.integers(0, 10**6),
    )
    def test_bound_covers_the_best_residual_extension(self, seed, size, kind, alpha, eps, pick):
        inst = preprocess_discard(generate_instance(seed, size, kind))
        skeletons = feasible_subsets_within_budget(inst, inst.sorted_ids(), 3)
        skeleton = skeletons[pick % len(skeletons)]
        pool = small_profit_pool(inst, alpha, eps)
        residual = residual_instance(inst, alpha, eps, skeleton)
        best = inst.total_profit(skeleton) + brute_force_opt(residual.instance).total_profit
        assert SkeletonBound(inst, pool)(skeleton) >= best

    def test_bound_is_the_fractional_knapsack_value(self):
        # Path 0-1-2-3-4; the pool {0, 1, 2} has densities 3, 2 and 3/2.
        inst = path_matching(4, costs=[2, 2, 2, 1], profits=[6, 4, 3, 1], budget=5)
        bound = SkeletonBound(inst, frozenset({0, 1, 2}))
        # Edges 0 and 1 share vertex 1, but the bound ignores the constraint
        # within the pool; one unit of budget is left for half of edge 2.
        assert bound(()) == 6 + 4 + 3 // 2
        # Edge 2 touches the skeleton edge 3 at vertex 3 and leaves the pool.
        assert bound((3,)) == 1 + 6 + 4

    def test_pruned_plus_residual_solves_is_enumerated(self, monkeypatch):
        solves = []

        def counting(instance, config=None):
            solves.append(instance)
            return non_profitable_solver(instance, config)

        monkeypatch.setattr(bcopt.solver, "non_profitable_solver", counting)
        for seed, kind in ((5, "matching"), (31, "matroid-intersection")):
            solves.clear()
            _, stats = solve_detailed(generate_instance(seed, 12, kind), Epsilon(1, 4))
            assert stats.pruned > 0
            assert stats.pruned + len(solves) == stats.enumerated

    def test_solve_matches_the_unpruned_loop_on_the_acceptance_corpus(self, main_corpus):
        for eps in (Epsilon(1, 10), Epsilon(1, 4)):
            for name, inst in main_corpus:
                assert solve(inst, eps).element_ids == unpruned_solve_ids(inst, eps), name
