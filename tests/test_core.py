import itertools
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings, strategies as st

from bcopt.core import (
    BCInstance,
    Element,
    Epsilon,
    InvalidParameterError,
    Solution,
    UnknownElementError,
    is_solution,
    preprocess_discard,
    ratio_key,
)
from bcopt.constraints import Matching, MatroidIntersection
from bcopt.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid

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

    def test_empty_instance_builds(self):
        assert BCInstance((), free_constraint(()), 0).ids == frozenset()

    def test_duplicate_ids(self):
        # Refused at construction, whatever the order: solving such an
        # instance would depend on which of the two id-0 elements comes first.
        for elements in ((Element(0, 100, 1), Element(0, 1, 1), Element(1, 5, 1)),
                         (Element(0, 1, 1), Element(0, 100, 1), Element(1, 5, 1))):
            with pytest.raises(InvalidParameterError, match=r"duplicate element ids \[0\]"):
                BCInstance(elements, free_constraint((0, 1)), 50)
        with pytest.raises(InvalidParameterError, match=r"duplicate element ids \[3\]"):
            BCInstance((Element(3, 1, 1), Element(3, 2, 2)), Matching(4, {3: (0, 1)}), 5)

    def test_self_loop_is_a_legal_edge(self):
        inst = BCInstance((Element(0, 1, 1),), Matching(3, {0: (1, 1)}), 5)
        assert not is_solution(inst, (0,))


# Every number argument of the six constructors that take one, as a function
# of that number; 2 builds each of them.
NUMBER_ARGUMENTS = {
    "Element id": lambda v: Element(v, 1, 1),
    "Element cost": lambda v: Element(0, v, 1),
    "Element profit": lambda v: Element(0, 1, v),
    "BCInstance budget": lambda v: BCInstance((), free_constraint(()), v),
    "Matching vertex count": lambda v: Matching(v, {0: (0, 1)}),
    "Matching edge id": lambda v: Matching(3, {v: (0, 1)}),
    "Matching endpoint": lambda v: Matching(3, {0: (0, v)}),
    "GraphicMatroid vertex count": lambda v: GraphicMatroid(v, {0: (0, 1)}),
    "GraphicMatroid edge id": lambda v: GraphicMatroid(3, {v: (0, 1)}),
    "GraphicMatroid endpoint": lambda v: GraphicMatroid(3, {0: (v, 1)}),
    "UniformMatroid rank": lambda v: UniformMatroid(range(3), v),
    "PartitionMatroid block id": lambda v: PartitionMatroid(range(3), [[0, v]], [1]),
    "PartitionMatroid capacity": lambda v: PartitionMatroid(range(3), [[0, 1]], [v]),
}


class TestIntegerRule:
    @pytest.mark.parametrize("argument", sorted(NUMBER_ARGUMENTS))
    def test_an_integer_builds(self, argument):
        NUMBER_ARGUMENTS[argument](2)

    @pytest.mark.parametrize("argument", sorted(NUMBER_ARGUMENTS))
    @pytest.mark.parametrize("value,message", [
        (True, "must be an integer"), (1.5, "must be an integer"), ("1", "must be an integer"),
        (-1, "must be non-negative"), (2**63, "exceeds 64-bit range"),
    ])
    def test_every_number_argument_is_checked(self, argument, value, message):
        with pytest.raises(InvalidParameterError, match=message):
            NUMBER_ARGUMENTS[argument](value)

    @pytest.mark.parametrize("build", [
        lambda: UniformMatroid(range(3), 1.5),
        lambda: PartitionMatroid(range(3), [[0, 1, 2]], [1.5]),
    ])
    def test_fractional_rank_or_capacity_builds_no_matroid(self, build):
        # Built, such a matroid's cursor would take 3 pushes while
        # is_independent({0, 1}) is False, and solve would fail inside
        # approx_opt with InfeasibleSetError.
        with pytest.raises(InvalidParameterError, match="must be an integer, got 1.5"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Matching(3, {0: (1.9, 2)}),
        lambda: Matching(3, {0: (1.9, 2.2), "1": ("0", "1")}),
        lambda: GraphicMatroid(3, {0: (0.5, 1)}),
    ])
    def test_float_endpoints_are_refused_not_truncated(self, build):
        # Truncation would silently read the second as {0: (1, 2), 1: (0, 1)}.
        with pytest.raises(InvalidParameterError, match="edge (id|endpoint) must be an integer"):
            build()


class FreeSets:
    """A hand-written third constraint kind: every subset of its ids is feasible."""

    def __init__(self, ids):
        self.ids = frozenset(ids)

    def element_ids(self):
        return self.ids

    def is_feasible(self, subset):
        return set(subset) <= self.ids


# One structural fault per row, each refused by the constructor that owns it
# (duplicate ids: TestBCInstance.test_duplicate_ids).
STRUCTURAL_FAULTS = {
    "Matching endpoint out of range": (
        lambda: Matching(3, {0: (0, 1), 1: (1, 3)}), "edge 1 endpoint out of range"),
    "GraphicMatroid endpoint out of range": (
        lambda: GraphicMatroid(3, {0: (3, 1)}), "edge 0 endpoint out of range"),
    "PartitionMatroid capacity count": (
        lambda: PartitionMatroid(range(3), [[0], [1]], [1]), "one capacity per block"),
    "PartitionMatroid block outside the ground set": (
        lambda: PartitionMatroid(range(3), [[0, 5]], [1]), r"block ids \[5\] are outside"),
    "PartitionMatroid overlapping blocks": (
        lambda: PartitionMatroid(range(3), [[0, 1], [1, 2]], [1, 1]), "not disjoint at id 1"),
    "MatroidIntersection ground sets differ": (
        lambda: MatroidIntersection(UniformMatroid({0, 1}, 1), UniformMatroid({1}, 1)),
        r"different ground sets: \[0\]"),
    "BCInstance dangling edge": (
        lambda: BCInstance((Element(0, 1, 1),), Matching(4, {0: (0, 1), 7: (2, 3)}), 5),
        r"ids \[7\] have no element"),
    "BCInstance element with no edge": (
        lambda: BCInstance((Element(0, 1, 1), Element(1, 1, 1)), Matching(4, {0: (0, 1)}), 5),
        r"elements \[1\] are not in the constraint"),
    "BCInstance dangling oracle id": (
        lambda: BCInstance((Element(0, 1, 1),), free_constraint((0, 1)), 5),
        r"ids \[1\] have no element"),
    "BCInstance element missing from the oracles": (
        lambda: BCInstance((Element(0, 1, 1), Element(2, 1, 1)), free_constraint((0,)), 5),
        r"elements \[2\] are not in the constraint"),
    "BCInstance matroid as the constraint": (
        lambda: BCInstance((Element(0, 1, 1),), UniformMatroid({0}, 1), 5),
        "must be a Matching or a MatroidIntersection, got UniformMatroid"),
    "BCInstance no constraint": (
        lambda: BCInstance((), None, 5),
        "must be a Matching or a MatroidIntersection, got NoneType"),
    "BCInstance third constraint kind": (
        lambda: BCInstance((Element(0, 1, 1),), FreeSets({0}), 5),
        "must be a Matching or a MatroidIntersection, got FreeSets"),
    "MatroidIntersection matching as an oracle": (
        lambda: MatroidIntersection(UniformMatroid({0}, 1), Matching(2, {0: (0, 1)})),
        "must be a MatroidOracle, got Matching"),
}


class TestStructuralRules:
    @pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
    def test_every_fault_is_refused_by_its_constructor(self, fault):
        build, message = STRUCTURAL_FAULTS[fault]
        with pytest.raises(InvalidParameterError, match=message):
            build()

    def test_a_dangling_id_never_reaches_solve(self):
        # Accepted, this instance would fail inside preprocess_discard with
        # a bare UnknownElementError: 5.
        with pytest.raises(InvalidParameterError, match="endpoint out of range"):
            BCInstance((Element(0, 1, 5), Element(5, 1, 3)),
                       Matching(4, {0: (0, 1), 7: (2, 9)}), 2)
        with pytest.raises(InvalidParameterError, match=r"ids \[7\] have no element, "
                                                        r"elements \[5\] are not"):
            BCInstance((Element(0, 1, 5), Element(5, 1, 3)),
                       Matching(10, {0: (0, 1), 7: (2, 9)}), 2)


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


def cross_multiplied(a, b):
    """num/den ascending, then id, by integer cross-multiplication; den == 0
    stands for an infinity of num's sign."""
    return a[0] * b[1] - b[0] * a[1] or a[2] - b[2]


CHECKED = st.integers(0, 2**63 - 1)


@st.composite
def ratio_lists(draw):
    """(num, den, id) triples: values from 0 to 2^63 - 1, num of either sign,
    den == 0 (whose infinities share one sign) and equal ratios included."""
    infinity_sign = draw(st.sampled_from([-1, 1]))
    triples = []
    for _ in range(draw(st.integers(1, 8))):
        num, den = draw(CHECKED), draw(st.one_of(st.just(0), st.integers(1, 3), CHECKED))
        if triples and draw(st.booleans()):
            # A multiple of an earlier ratio, within the checked range.
            num, den = triples[draw(st.integers(0, len(triples) - 1))][:2]
            k = draw(st.integers(1, max(1, (2**63 - 1) // max(abs(num), den, 1))))
            num, den = num * k, den * k
        elif den:
            num *= draw(st.sampled_from([-1, 1]))
        else:
            assume(num)
            num *= infinity_sign
        triples.append((num, den, draw(CHECKED)))
    return triples


class TestRatioKey:
    @given(triples=ratio_lists())
    @settings(max_examples=500, deadline=None)
    def test_int_key_orders_as_cross_multiplication(self, triples):
        keys = [ratio_key(*t) for t in triples]
        for a, ka in zip(triples, keys):
            for b, kb in zip(triples, keys):
                diff = cross_multiplied(a, b)
                assert (ka > kb) - (ka < kb) == (diff > 0) - (diff < 0), (a, b)
        assert sorted(triples, key=lambda t: ratio_key(*t)) == \
            sorted(triples, key=cmp_to_key(cross_multiplied))

    def test_close_ratios_with_large_denominators(self):
        # Neighbours near 2^63 that differ by 1 / (d (d - 1)) < 2^-125; the ids
        # favour the other order, so only an exact ratio order passes.
        d = 2**63 - 1
        assert ratio_key(d - 2, d - 1, 1) < ratio_key(d - 1, d, 0)
        assert ratio_key(-(d - 1), d, 1) < ratio_key(-(d - 2), d - 1, 0)
        # Equal ratios tie by id; infinities lie beyond large finite ratios.
        assert ratio_key(6, 4, 5) < ratio_key(3, 2, 6) < ratio_key(1, 0, 0)
        assert ratio_key(-1, 0, 9) < ratio_key(-(2**127), 1, 0)
        assert ratio_key(1, 0, 0) > ratio_key(2**127, 1, 2**63 - 1)
