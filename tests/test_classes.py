from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bcopt.core import MAX_VALUE, Element, Epsilon, InvalidParameterError
from bcopt.classes import (
    ClassLayout,
    _class_bounds,
    class_index,
    class_partition,
    classed,
    q_of,
    small_profit_pool,
)

from conftest import free_instance, scanned_class_bounds


class TestQOf:
    @pytest.mark.parametrize("eps,expected", [
        (Epsilon(1, 2 + 1), 27),   # 1/3 -> 3^3
        (Epsilon(1, 4), 256),      # 4^4
        (Epsilon(1, 5), 3125),     # 5^5
    ])
    def test_integer_inverse(self, eps, expected):
        assert q_of(eps) == expected

    def test_non_integer_inverse_is_conservative(self):
        # 1/eps = 5/2; exact value (5/2)^(5/2) ~ 9.88, conservative (5/2)^3
        assert q_of(Epsilon(2, 5)) == 16

    def test_reduction_applies_first(self):
        assert q_of(Epsilon(2, 8)) == q_of(Epsilon(1, 4))

    def test_a_repeated_call_is_a_cache_hit(self):
        q_of.cache_clear()
        pinned = {Epsilon(1, 3): 27, Epsilon(1, 4): 256, Epsilon(1, 5): 3125, Epsilon(2, 5): 16}
        for _ in range(2):
            assert {eps: q_of(eps) for eps in pinned} == pinned
        # Epsilon(2, 8) is stored as 1/4, so it hits 1/4's entry.
        assert q_of(Epsilon(2, 8)) == 256
        assert q_of.cache_info().hits == len(pinned) + 1
        assert q_of.cache_info().misses == len(pinned)


class TestClassLayout:
    def test_range_at_gamma_two(self):
        # eps = 1/3: boundaries (2/3)^r; the top class ends at 1 and the
        # range stops as soon as the power drops below eps/2 = 1/6.
        layout = ClassLayout(Epsilon(1, 3), alpha=50)
        assert layout.r_lo == 1
        assert (Fraction(2, 3) ** layout.r_hi) < Fraction(1, 6) <= (Fraction(2, 3) ** (layout.r_hi - 1))

    def test_class_count_bound_at_gamma_two(self):
        for den in (3, 4, 5, 8, 10, 16):
            eps = Epsilon(1, den)
            layout = ClassLayout(eps, alpha=123)
            assert layout.class_count <= 3 * den * den

    def test_gamma_four_widens_both_ends(self):
        eps = Epsilon(1, 4)
        narrow = ClassLayout(eps, alpha=100, gamma=Fraction(2))
        wide = ClassLayout(eps, alpha=100, gamma=Fraction(4))
        assert wide.r_lo < narrow.r_lo
        assert wide.r_hi >= narrow.r_hi

    @pytest.mark.parametrize("eps", [Epsilon(1, 32), Epsilon(1, 80), Epsilon(3, 7)])
    @pytest.mark.parametrize("gamma", [Fraction(2), Fraction(4)])
    def test_cached_bounds_equal_a_fresh_computation(self, eps, gamma):
        r_lo, r_hi, expected = scanned_class_bounds(eps, gamma)
        _class_bounds.cache_clear()
        layouts = [ClassLayout(eps, alpha, gamma) for alpha in (1, 7, 1, 10**6)]
        assert _class_bounds.cache_info().hits == 3
        for layout in layouts:
            assert (layout.r_lo, layout.r_hi) == (r_lo, r_hi)
            # The cached entry that class_index reads: exact numerators and
            # denominators, and the floats that only locate.
            bounds = layout._bounds
            assert bounds.nums == tuple(b.numerator for b in expected)
            assert bounds.dens == tuple(b.denominator for b in expected)
            assert bounds.located == tuple(-float(b) for b in expected)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            ClassLayout(Epsilon(1, 4), alpha=0)
        with pytest.raises(InvalidParameterError):
            ClassLayout(Epsilon(1, 4), alpha=5, gamma=Fraction(1))


class TestClassIndex:
    def test_ratio_one_is_class_one(self):
        layout = ClassLayout(Epsilon(49, 100), alpha=50)
        # ratio 1 belongs to class 1: ((51/100)^1, 1]
        assert class_index(Element(0, 0, 100), layout) == 1

    def test_spec_trace_with_eps_one_third(self):
        # alpha = 50: ratio p/100. Class r covers ((2/3)^r, (2/3)^(r-1)].
        layout = ClassLayout(Epsilon(1, 3), alpha=50)
        assert class_index(Element(0, 0, 100), layout) == 1      # ratio 1
        assert class_index(Element(0, 0, 60), layout) == 2       # 3/5 in (4/9, 2/3]
        assert class_index(Element(0, 0, 1), layout) is None     # below the floor

    def test_exact_boundary_is_closed_above_open_below(self):
        layout = ClassLayout(Epsilon(1, 4), alpha=8)
        # ratio p/16; (3/4)^1 = 3/4: p = 12 sits exactly on the lower boundary
        # of class 1, so it belongs to class 2 (half-open intervals).
        assert class_index(Element(0, 0, 16), layout) == 1
        assert class_index(Element(0, 0, 12), layout) == 2


class TestClassPartition:
    def test_equal_profits_single_class(self):
        inst = free_instance([1, 1, 1], [70, 70, 70], budget=10)
        layout = ClassLayout(Epsilon(1, 4), alpha=70)
        partition = class_partition(inst, layout)
        assert len(partition) == 1
        (ids,) = partition.values()
        assert ids == {0, 1, 2}

    def test_empty_instance(self):
        inst = free_instance([], [], budget=0)
        layout = ClassLayout(Epsilon(1, 4), alpha=5)
        assert class_partition(inst, layout) == {}

    def test_derived_three_profit_example(self):
        # profits 100, 40, 10 with alpha = 50, eps = 1/3 (gamma = 2):
        # ratios 1, 2/5, 1/10; classes from applying class_index per element.
        inst = free_instance([1, 1, 1], [100, 40, 10], budget=10)
        layout = ClassLayout(Epsilon(1, 3), alpha=50)
        partition = class_partition(inst, layout)
        expected = {}
        for e in inst.elements:
            r = class_index(e, layout)
            if r is not None:
                expected.setdefault(r, set()).add(e.id)
        assert {r: set(v) for r, v in partition.items()} == expected
        assert 0 in {i for ids in partition.values() for i in ids}
        assert 2 not in {i for ids in partition.values() for i in ids}

    def test_partition_is_disjoint(self):
        inst = free_instance([1] * 8, [3, 9, 27, 81, 12, 50, 77, 100], budget=10)
        layout = ClassLayout(Epsilon(1, 5), alpha=60)
        partition = class_partition(inst, layout)
        seen = set()
        for ids in partition.values():
            assert not (ids & seen)
            seen |= ids


class TestSmallProfitPool:
    def test_threshold_is_inclusive(self):
        # threshold 2 * eps * alpha = 50: a profit of exactly 50 stays in
        inst = free_instance([1, 1], [50, 51], budget=10)
        pool = small_profit_pool(inst, alpha=100, epsilon=Epsilon(1, 4))
        assert pool == {0}

    def test_exact_rational_threshold(self):
        # alpha = 1, eps = 1/4: threshold 1/2; integer profits >= 1 all excluded
        inst = free_instance([1, 1], [1, 2], budget=10)
        assert small_profit_pool(inst, 1, Epsilon(1, 4)) == frozenset()

    def test_pool_and_complement_partition_everything(self):
        inst = free_instance([1] * 6, [5, 10, 20, 40, 80, 160], budget=10)
        eps = Epsilon(1, 3)
        pool = small_profit_pool(inst, 30, eps)
        above = {e.id for e in inst.elements if e.profit * 3 > 2 * 30}
        assert pool | above == inst.ids
        assert not (pool & above)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=30),
    den=st.integers(min_value=3, max_value=100),
    alpha=st.integers(min_value=1, max_value=10**6),
    profit=st.integers(min_value=0, max_value=10**7),
)
def test_membership_unique_within_coverage(num, den, alpha, profit):
    """Any ratio inside the covered interval lands in exactly one class."""
    if 2 * num >= den:
        den = 2 * num + 1
    eps = Epsilon(num, den)
    layout = ClassLayout(eps, alpha, Fraction(4))
    element = Element(0, 0, profit)
    ratio = Fraction(profit, 2 * alpha)
    r = class_index(element, layout)
    r_lo, r_hi, _ = scanned_class_bounds(eps, Fraction(4))
    base = eps.one_minus
    covered = base**r_hi < ratio <= base**(r_lo - 1)
    assert (r is not None) == covered
    if r is not None:
        assert base**r < ratio <= base**(r - 1)
        for other in (r - 1, r + 1):
            if r_lo <= other <= r_hi:
                assert not (base**other < ratio <= base**(other - 1))


def _class_index_reference(element, layout):
    """The class by a linear scan over the exact ``Fraction`` intervals."""
    ratio = Fraction(element.profit, 2 * layout.alpha)
    r_lo, _, bounds = scanned_class_bounds(layout.epsilon, layout.gamma)
    # Class r is (bounds[k], bounds[k - 1]] with k = r - r_lo + 1.
    for k in range(1, len(bounds)):
        if bounds[k] < ratio <= bounds[k - 1]:
            return r_lo - 1 + k
    return None


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=30),
    den=st.integers(min_value=3, max_value=100),
    gamma=st.sampled_from([Fraction(2), Fraction(4), Fraction(9, 2)]),
    k=st.integers(min_value=0, max_value=10**6),
    scale=st.integers(min_value=1, max_value=50),
    alpha=st.integers(min_value=1, max_value=10**6),
    profit=st.integers(min_value=0, max_value=10**7),
)
def test_class_index_matches_a_fraction_reference(num, den, gamma, k, scale, alpha, profit):
    """The integer bisection agrees with exact ``Fraction`` comparisons,
    on every boundary and one step either side of it."""
    if 2 * num >= den:
        den = 2 * num + 1
    eps = Epsilon(num, den)
    layout = ClassLayout(eps, alpha, gamma)
    assert class_index(Element(0, 0, profit), layout) == _class_index_reference(
        Element(0, 0, profit), layout)
    # alpha chosen so that p / (2 alpha) hits the boundary b exactly at
    # p = 2 b.num * scale; b = 1 is always a boundary whose p fits an element.
    fitting = [b for b in scanned_class_bounds(eps, gamma)[2]
               if 2 * b.numerator * scale < MAX_VALUE]
    b = fitting[k % len(fitting)]
    on_boundary = ClassLayout(eps, b.denominator * scale, gamma)
    for p in (2 * b.numerator * scale + step for step in (-1, 0, 1)):
        assert class_index(Element(0, 0, p), on_boundary) == _class_index_reference(
            Element(0, 0, p), on_boundary)


def _class_index_by_fraction_bisect(element, layout):
    """The class by a key-function bisection over the ``Fraction`` boundaries,
    each step decided by integer cross-multiplication, with no float."""
    p, two_alpha = element.profit, 2 * layout.alpha
    r_lo, _, bounds = scanned_class_bounds(layout.epsilon, layout.gamma)

    def below(b: Fraction) -> bool:  # b < p / (2 alpha), by integer cross-multiplication
        return p * b.denominator > two_alpha * b.numerator

    # Most elements of a solve sit under the last boundary, in no class.
    if not below(bounds[-1]):
        return None
    # The first boundary strictly below the ratio, over the decreasing list.
    k = bisect_left(bounds, True, key=below)
    return None if k == 0 else r_lo - 1 + k


LOCATOR_EPSILONS = [Epsilon(1, 4), Epsilon(1, 10), Epsilon(1, 32), Epsilon(1, 80), Epsilon(3, 7)]


@settings(max_examples=400, deadline=None)
@given(
    eps=st.sampled_from(LOCATOR_EPSILONS),
    gamma=st.sampled_from([Fraction(2), Fraction(4)]),
    alpha=st.integers(min_value=1, max_value=MAX_VALUE),
    profit=st.integers(min_value=0, max_value=MAX_VALUE),
    scale=st.integers(min_value=0, max_value=62),
)
def test_float_located_class_index_equals_the_fraction_bisect(eps, gamma, alpha, profit, scale):
    """Floats only locate: the class is the one the exact bisection gives, for
    profits and estimates of every magnitude up to 2^63 - 1."""
    layout = ClassLayout(eps, max(1, alpha >> scale), gamma)
    for p in (profit, profit >> scale):
        element = Element(0, 0, p)
        assert class_index(element, layout) == _class_index_by_fraction_bisect(element, layout)


@pytest.mark.parametrize("gamma", [Fraction(2), Fraction(4)])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 10**6 + 1, 2**50 + 3, 2**53 - 1])
def test_class_index_on_and_beside_exact_boundaries(gamma, m):
    """eps = 1/4: p = 3^k m over 2 alpha = 4^k m is the boundary (3/4)^k, a
    ratio whose float is inexact for k >= 1; one unit either side moves it
    off the boundary.  For m near 2^53 the unit is below float resolution,
    so the float locator lands on the wrong side and the integers decide."""
    eps = Epsilon(1, 4)
    for k in range(1, 16):
        if 4**k * m // 2 > MAX_VALUE or 3**k * m + 1 > MAX_VALUE:
            continue
        layout = ClassLayout(eps, 4**k * m // 2, gamma)
        for p in (3**k * m - 1, 3**k * m, 3**k * m + 1):
            element = Element(0, 0, p)
            got = class_index(element, layout)
            assert got == _class_index_by_fraction_bisect(element, layout)
            assert got == _class_index_reference(element, layout)
        # On the boundary (3/4)^k the ratio closes class k from above when
        # class k + 1 exists: half-open intervals ((3/4)^r, (3/4)^(r-1)].
        on = class_index(Element(0, 0, 3**k * m), layout)
        assert on == (k + 1 if k + 1 <= layout.r_hi else None)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.sampled_from(LOCATOR_EPSILONS + [Epsilon(1, 3), Epsilon(1, 32 * 8)]),
    gamma=st.sampled_from([Fraction(2), Fraction(4), Fraction(9, 2)]),
    alpha=st.integers(min_value=1, max_value=10**6),
    profits=st.lists(st.integers(min_value=0, max_value=10**7), max_size=12),
    scale=st.integers(min_value=1, max_value=50),
)
def test_classed_keeps_the_elements_with_a_class(eps, gamma, alpha, profits, scale):
    """``classed`` is the elements whose ``class_index`` is not None, in
    instance order, also exactly on and one unit beside the outer boundaries."""
    layout = ClassLayout(eps, alpha, gamma)
    inst = free_instance([0] * len(profits), profits)
    assert classed(inst, layout) == [e for e in inst.elements
                                     if class_index(e, layout) is not None]
    bounds = scanned_class_bounds(eps, gamma)[2]
    for b in (bounds[0], bounds[-1]):
        if 2 * b.numerator * scale + 1 > MAX_VALUE:
            continue
        on_boundary = ClassLayout(eps, b.denominator * scale, gamma)
        inst = free_instance([0] * 3, [2 * b.numerator * scale + step for step in (-1, 0, 1)])
        assert classed(inst, on_boundary) == [e for e in inst.elements
                                              if class_index(e, on_boundary) is not None]
