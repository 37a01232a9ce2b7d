import itertools
from fractions import Fraction

import pytest

from bcopt.core import (
    BCInstance,
    Element,
    Epsilon,
    InvalidParameterError,
    Solution,
    UnknownElementError,
    is_solution,
    preprocess_discard,
    validate_instance,
)
from bcopt.constraints import Matching

from conftest import free_constraint, free_instance, triangle_matching


class TestElement:
    def test_rejects_negative_values(self):
        with pytest.raises(InvalidParameterError):
            Element(0, -1, 5)
        with pytest.raises(InvalidParameterError):
            Element(0, 1, -5)
        with pytest.raises(InvalidParameterError):
            Element(-1, 1, 5)

    def test_rejects_values_beyond_64_bits(self):
        for args in ((0, 2**63, 0), (0, 0, 2**63), (2**63, 0, 0)):
            with pytest.raises(InvalidParameterError):
                Element(*args)
        Element(2**63 - 1, 2**63 - 1, 2**63 - 1)

    def test_zero_values_permitted(self):
        Element(0, 0, 0)

    @pytest.mark.parametrize("value", [1.0, True, Fraction(1), "1"])
    def test_rejects_non_integer_values(self, value):
        for args in ((value, 1, 1), (0, value, 1), (0, 1, value)):
            with pytest.raises(InvalidParameterError):
                Element(*args)


class TestEpsilon:
    def test_normalizes_to_lowest_terms(self):
        eps = Epsilon(2, 40)
        assert (eps.numerator, eps.denominator) == (1, 20)

    @pytest.mark.parametrize("num,den", [(1, 2), (1, 1), (3, 4), (0, 5), (-1, 3)])
    def test_rejects_out_of_range(self, num, den):
        with pytest.raises(InvalidParameterError):
            Epsilon(num, den)

    def test_parse(self):
        assert Epsilon.parse("1/4") == Epsilon(1, 4)
        assert Epsilon.parse(" 2/10 ") == Epsilon(1, 5)
        with pytest.raises(InvalidParameterError):
            Epsilon.parse("1/1")
        # A well-formed epsilon out of range is reported as out of range.
        with pytest.raises(InvalidParameterError, match="0 < epsilon < 1/2"):
            Epsilon.parse("1/2")
        for text in ("1", "0", "bogus", "1/4/2", "1.5/4"):
            with pytest.raises(InvalidParameterError, match="cannot parse"):
                Epsilon.parse(text)

    def test_scaled_down(self):
        assert Epsilon(2, 5).scaled_down(8) == Epsilon(1, 20)

    def test_inverse_floor(self):
        assert Epsilon(1, 4).inverse_floor() == 4
        assert Epsilon(2, 5).inverse_floor() == 2

    @pytest.mark.parametrize("num,den", [(0.1, 1), (1, 4.0), (True, 3), (1, Fraction(4)), ("1", 4)])
    def test_rejects_non_integer_terms(self, num, den):
        with pytest.raises(InvalidParameterError):
            Epsilon(num, den)


class TestBCInstance:
    @pytest.mark.parametrize("budget", [6.5, 6.0, True, Fraction(6), "6"])
    def test_rejects_non_integer_budget(self, budget):
        with pytest.raises(InvalidParameterError):
            BCInstance((Element(0, 1, 1),), free_constraint((0,)), budget)

    def test_rejects_out_of_range_budget(self):
        for budget in (-1, 2**63):
            with pytest.raises(InvalidParameterError):
                BCInstance((), free_constraint(()), budget)


class TestValidateInstance:
    def test_empty_instance_is_ok(self):
        inst = BCInstance((), free_constraint(()), 0)
        assert validate_instance(inst).ok

    def test_dangling_constraint_reference(self):
        inst = BCInstance(
            (Element(0, 1, 1),), Matching(4, {0: (0, 1), 7: (2, 3)}), 5
        )
        report = validate_instance(inst)
        assert any("dangling id 7" in v for v in report.violations)

    def test_duplicate_ids(self):
        # Refused at construction, whatever the order: solving such an
        # instance would depend on which of the two id-0 elements comes first.
        for elements in ((Element(0, 100, 1), Element(0, 1, 1), Element(1, 5, 1)),
                         (Element(0, 1, 1), Element(0, 100, 1), Element(1, 5, 1))):
            with pytest.raises(InvalidParameterError, match=r"duplicate element ids \[0\]"):
                BCInstance(elements, free_constraint((0, 1)), 50)
        with pytest.raises(InvalidParameterError, match=r"duplicate element ids \[3\]"):
            BCInstance((Element(3, 1, 1), Element(3, 2, 2)), Matching(4, {3: (0, 1)}), 5)

    def test_self_loop_is_flagged(self):
        inst = BCInstance((Element(0, 1, 1),), Matching(3, {0: (1, 1)}), 5)
        report = validate_instance(inst)
        assert any("self-loop" in v for v in report.violations)


class TestPreprocessDiscard:
    def test_removes_over_budget_element(self):
        inst = free_instance([9, 2], budget=5)
        out = preprocess_discard(inst)
        assert sorted(out.cost_of) == [1]

    def test_identity_when_everything_fits(self):
        inst = free_instance([3, 4, 5], budget=5)
        assert preprocess_discard(inst) is inst

    def test_removes_infeasible_singleton(self):
        # A self-loop edge is infeasible on its own.
        inst = BCInstance(
            (Element(0, 1, 1), Element(1, 1, 1)),
            Matching(3, {0: (0, 0), 1: (1, 2)}),
            5,
        )
        out = preprocess_discard(inst)
        assert sorted(out.cost_of) == [1]


class TestIsSolution:
    def test_empty_set_always_qualifies(self):
        assert is_solution(free_instance([5], budget=0), ())
        assert is_solution(triangle_matching(budget=0), ())

    def test_budget_violation(self):
        inst = free_instance([6, 6], budget=10)
        assert not is_solution(inst, (0, 1))
        assert is_solution(inst, (0,))

    def test_adjacent_edges_rejected(self):
        assert not is_solution(triangle_matching(), (0, 1))
        assert is_solution(triangle_matching(), (0,))

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownElementError):
            is_solution(free_instance([1]), (42,))

    def test_every_subset_of_a_solution_is_a_solution(self):
        inst = triangle_matching(costs=(2, 3, 4), budget=6)
        for size in range(4):
            for ids in itertools.combinations(range(3), size):
                if is_solution(inst, ids):
                    for k in range(len(ids) + 1):
                        for sub in itertools.combinations(ids, k):
                            assert is_solution(inst, sub)


class TestSolution:
    def test_totals_are_cached_exactly(self):
        big = 2**40
        inst = free_instance([big] * 30, [big] * 30, budget=big * 30)
        sol = Solution.build(inst, range(30))
        assert sol.total_cost == 30 * big
        assert sol.total_profit == 30 * big

    def test_build_enforces_budget_and_feasibility(self):
        inst = triangle_matching(budget=1)
        with pytest.raises(Exception):
            Solution.build(inst, (0, 1))
        with pytest.raises(Exception):
            Solution.build(triangle_matching(costs=(5, 5, 5), budget=1), (0,))
