import random
from fractions import Fraction

import pytest

from bcopt.core import BCError, BCInstance, Element, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.constraints import MatroidIntersection, residual_constraint
from bcopt.lagrange import (
    LagrangeConfig,
    approx_opt,
    declared_gamma,
    inner_max_weight,
    non_profitable_solver,
)
from bcopt.matroids import PartitionMatroid, UniformMatroid
from bcopt.oracle import brute_force_opt

from conftest import free_instance


HEURISTIC = LagrangeConfig(exact_fallback_threshold=0)


class TestApproxOpt:
    def test_empty_instance(self):
        inst = free_instance([], [])
        assert approx_opt(inst, mode="exact") == 0
        assert approx_opt(inst, mode="lagrangian") == 0

    def test_single_element_exact(self):
        inst = free_instance([3], [7], budget=5)
        assert approx_opt(inst, mode="exact") == 7

    def test_knapsack_like_exact(self):
        # profits = costs = {6, 5, 5}, budget 10: the pair of fives wins
        inst = free_instance([6, 5, 5], budget=10)
        assert approx_opt(inst, mode="exact") == 10

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
        alpha = approx_opt(inst, mode="lagrangian")
        assert alpha <= opt
        assert 4 * alpha >= opt


class TestNonProfitableSolver:
    def test_empty_after_preprocess(self):
        inst = preprocess_discard(free_instance([99, 99], [5, 5], budget=10))
        sol = non_profitable_solver(inst)
        assert sol.total_profit == 0

    def test_contract_vacuous_when_one_element_dominates(self):
        inst = free_instance([1, 1], [100, 1], budget=1)
        sol = non_profitable_solver(inst, HEURISTIC)
        opt = brute_force_opt(inst).total_profit
        assert sol.total_profit >= opt - 2 * 100

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_matching_instances(self, seed):
        inst = preprocess_discard(generate_instance(3000 + seed, 12, "matching"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for config in (None, HEURISTIC):
            sol = non_profitable_solver(inst, config)
            assert sol.total_profit >= opt - 2 * max_p

    @pytest.mark.parametrize("seed", range(15))
    def test_contract_on_random_intersection_instances(self, seed):
        inst = preprocess_discard(
            generate_instance(4000 + seed, 12, "matroid-intersection"))
        opt = brute_force_opt(inst).total_profit
        max_p = max(e.profit for e in inst.elements)
        for config in (None, HEURISTIC):
            sol = non_profitable_solver(inst, config)
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

    def test_output_is_always_a_solution(self):
        inst = preprocess_discard(generate_instance(42, 10, "matching"))
        sol = non_profitable_solver(inst, HEURISTIC)
        assert sol.total_cost <= inst.budget
        assert inst.constraint.is_feasible(sol.element_ids)


class TestInnerOracle:
    def test_cost_monotone_in_lambda_when_exact(self):
        rng = random.Random(1)
        for trial in range(10):
            kind = "matching" if trial % 2 == 0 else "matroid-intersection"
            inst = preprocess_discard(generate_instance(5000 + trial, 9, kind))
            lams = sorted(Fraction(rng.randint(0, 400), rng.randint(1, 8)) for _ in range(6))
            costs = [
                inst.total_cost(inner_max_weight(inst, lam)) for lam in lams
            ]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_greedy_mode_returns_feasible_set(self):
        inst = preprocess_discard(generate_instance(77, 10, "matching"))
        config = LagrangeConfig(force_greedy_inner=True)
        ids = inner_max_weight(inst, Fraction(1, 2), config)
        assert inst.constraint.is_feasible(ids)
