import pytest

from bcopt.core import Epsilon, GuardExceededError, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.classes import ClassLayout, class_partition
from bcopt.exchange import exset_matching
from bcopt.oracle import (
    brute_force_opt,
    check_matroid_axioms,
    find_substitution,
    iter_feasible_sets,
    profitable_set,
    verify_exchange_set,
    verify_npsolver,
    verify_replacement,
    verify_representative,
    verify_weak_exchange,
)
from bcopt.matroids import UniformMatroid
from bcopt.repset import rep_set

from conftest import free_instance, path_matching, triangle_matching


class TestBruteForce:
    def test_empty(self):
        assert brute_force_opt(free_instance([], [])).total_profit == 0

    def test_single_element(self):
        sol = brute_force_opt(free_instance([2], [9], budget=3))
        assert sol.element_ids == (0,)

    def test_knapsack_like(self):
        assert brute_force_opt(free_instance([6, 5, 5], budget=10)).total_profit == 10

    def test_guard(self):
        inst = free_instance([1] * 25, [1] * 25, budget=30)
        with pytest.raises(GuardExceededError):
            brute_force_opt(inst)
        brute_force_opt(inst, guard=25)

    def test_matching_against_exhaustive_scan(self):
        import itertools

        inst = triangle_matching(costs=(2, 3, 4), profits=(5, 7, 9), budget=6)
        best = 0
        for size in range(4):
            for ids in itertools.combinations(range(3), size):
                if inst.constraint.is_feasible(ids) and inst.total_cost(ids) <= 6:
                    best = max(best, inst.total_profit(ids))
        assert brute_force_opt(inst).total_profit == best


class TestProfitableSet:
    def test_opt_zero_keeps_positive_profits(self):
        inst = free_instance([5, 5], [3, 0], budget=1)  # nothing affordable
        assert profitable_set(inst, Epsilon(1, 4)) == {0}

    def test_threshold_above_max_profit(self):
        # OPT = 40, eps * OPT = 19.6 > 10 = max profit
        inst = free_instance([1, 1, 1, 1], [10, 10, 10, 10], budget=5)
        assert profitable_set(inst, Epsilon(49, 100)) == frozenset()

    def test_strict_inequality_at_boundary(self):
        inst = free_instance([1, 1, 1, 1], [25, 25, 25, 25], budget=4)
        # OPT = 100, eps = 1/4: p = 25 is not strictly above 25
        assert profitable_set(inst, Epsilon(1, 4)) == frozenset()


class TestVerifyExchangeSet:
    def _setup(self):
        inst = path_matching(4, costs=[1, 2, 3, 4], profits=[50, 50, 50, 50], budget=10)
        layout = ClassLayout(Epsilon(1, 3), alpha=50)
        partition = class_partition(inst, layout)
        (r,) = partition
        return inst, layout, r, partition[r]

    def test_full_class_passes(self):
        inst, layout, r, cls = self._setup()
        assert verify_exchange_set(inst, layout, r, cls).passed

    def test_empty_x_fails_with_counterexample(self):
        inst, layout, r, cls = self._setup()
        report = verify_exchange_set(inst, layout, r, frozenset())
        assert not report.passed
        assert report.counterexample is not None
        assert report.counterexample["a"] in cls

    def test_constructor_output_is_the_oracle_case(self):
        inst, layout, r, cls = self._setup()
        ex = exset_matching(inst, layout, cls)
        assert verify_exchange_set(inst, layout, r, ex).passed


class TestVerifyReplacement:
    def test_profitable_part_is_a_replacement(self):
        inst = preprocess_discard(generate_instance(12, 8, "matching"))
        eps = Epsilon(1, 4)
        h = profitable_set(inst, eps)
        for s in iter_feasible_sets(inst, max_size=4):
            report = verify_replacement(inst, eps, s, s & h)
            assert report.passed, report.counterexample

    def test_empty_replacement_fails_when_profit_is_needed(self):
        inst = free_instance([1, 1], [100, 100], budget=5)
        eps = Epsilon(1, 4)
        report = verify_replacement(inst, eps, {0, 1}, ())
        assert not report.passed
        assert "profit" in report.counterexample["failed"]

    def test_oversized_replacement_fails_cardinality(self):
        inst = free_instance([1, 1, 1], [100, 100, 1], budget=5)
        eps = Epsilon(1, 4)
        report = verify_replacement(inst, eps, {0}, {1, 2})
        assert not report.passed
        assert "cardinality" in report.counterexample["failed"]


class TestVerifyRepresentative:
    def test_whole_ground_set_passes(self):
        inst = preprocess_discard(generate_instance(3, 9, "matching"))
        assert verify_representative(inst, Epsilon(1, 4), inst.ids).passed

    def test_opt_zero_vacuous(self):
        inst = free_instance([1], [0], budget=5)
        assert verify_representative(inst, Epsilon(1, 4), frozenset()).passed

    def test_rep_set_output_passes(self):
        inst = preprocess_discard(generate_instance(23, 10, "matroid-intersection"))
        eps = Epsilon(1, 4)
        rep = rep_set(inst, eps, alpha_mode="exact")
        assert verify_representative(inst, eps, rep.elements).passed

    def test_empty_r_fails_when_high_profit_is_essential(self):
        inst = free_instance([1, 1], [100, 1], budget=5)
        report = verify_representative(inst, Epsilon(1, 8), frozenset())
        assert not report.passed


class TestSubstitution:
    def test_substitution_found_inside_rep_set(self):
        inst = preprocess_discard(generate_instance(37, 8, "matching"))
        eps = Epsilon(1, 4)
        rep = rep_set(inst, eps, alpha_mode="exact")
        layout = rep.layout
        budget_checked = 0
        for g in iter_feasible_sets(inst, max_size=3):
            z = find_substitution(inst, eps, layout, g, rep.elements)
            assert z is not None, f"no substitution for {sorted(g)}"
            budget_checked += 1
        assert budget_checked > 1

    def test_every_bounded_feasible_set_has_a_substitute_in_r(self):
        import random

        rng = random.Random(8)
        searches = 0
        for trial in range(25):
            kind = "matching" if trial % 2 == 0 else "matroid-intersection"
            inst = preprocess_discard(
                generate_instance(7000 + trial, rng.randint(4, 8), kind))
            if not inst.elements:
                continue
            eps = rng.choice([Epsilon(1, 4), Epsilon(1, 8)])
            mode = rng.choice(["exact", "lagrangian"])
            rep = rep_set(inst, eps, alpha_mode=mode)
            if rep.layout is None:
                continue
            for g in iter_feasible_sets(inst, max_size=4):
                z = find_substitution(inst, eps, rep.layout, g, rep.elements)
                assert z is not None, (trial, mode, sorted(g))
                searches += 1
        assert searches > 100


class TestOtherVerifiers:
    def test_axioms_on_uniform(self):
        assert check_matroid_axioms(UniformMatroid(range(5), 2)).passed

    def test_weak_exchange_random(self):
        inst = generate_instance(41, 8, "matroid-intersection")
        assert verify_weak_exchange(inst, seed=1, trials=60).passed

    def test_npsolver_contract_verifier(self):
        inst = preprocess_discard(generate_instance(52, 10, "matching"))
        assert verify_npsolver(inst).passed
        assert verify_npsolver(inst, force_heuristic=True).passed

    def test_guard_errors(self):
        inst = free_instance([1] * 30, [1] * 30, budget=5)
        with pytest.raises(GuardExceededError):
            profitable_set(inst, Epsilon(1, 4))
        with pytest.raises(GuardExceededError):
            verify_weak_exchange(inst)
