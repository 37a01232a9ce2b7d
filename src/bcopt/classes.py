"""Profit classes: everything derived from epsilon and the optimum estimate.

Elements whose profit is large relative to the estimate ``alpha`` are binned
into geometric classes; two elements of the same class have profits within a
factor (1 - epsilon) of each other.  The interval boundaries are powers of
(1 - epsilon), computed as exact fractions, so membership at a boundary is
decided exactly.  They depend on epsilon and gamma only, so they are cached
per (epsilon, gamma) pair and shared by every layout, as integer tuples of
their numerators and denominators and as floats.  Floats only locate a class:
``class_index`` starts at the float bisection's answer and decides
membership by integer cross-multiplication, moving off it if rounding put
it on the wrong side of a boundary.

The class-index range is parameterized by the estimator quality ``gamma``
(alpha is guaranteed to be within [OPT/gamma, OPT]).  With gamma = 2 the
range is [1, floor(log_{1-eps}(eps/2)) + 1] and the class count is at most
3/eps^2; larger gamma widens the range at both ends so that every profitable
element still lands in exactly one class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import BCInstance, Element, Epsilon, InvalidParameterError


@lru_cache(maxsize=64)
def q_of(epsilon: Epsilon) -> int:
    """Cardinality cap q(eps) = ceil(eps^(-1/eps)), cached like the class bounds.

    Exact when 1/eps is an integer.  Otherwise the exponent is rounded up
    first, which can only enlarge the result; q appears solely as an upper
    cap (set sizes, recursion depth), so over-approximation is sound.  At
    the solver's eps' = eps/8 < 1/16 it exceeds 16^17, so the caps on a
    matching class never bind there (see :mod:`bcopt.exchange`).
    """
    num, den = epsilon.numerator, epsilon.denominator
    if num == 1:
        return den**den
    exponent = -(-den // num)  # ceil(1/eps)
    power_num = den**exponent
    power_den = num**exponent
    return -(-power_num // power_den)  # ceil


class _Bounds(NamedTuple):
    """A layout's index range and boundaries; none of them depends on alpha."""

    r_lo: int
    r_hi: int
    # The numerators and denominators of the boundaries
    # b_k = (1 - eps)^(r_lo - 1 + k), strictly decreasing in k, which decide
    # membership.
    nums: tuple[int, ...]
    dens: tuple[int, ...]
    # The boundaries negated, as floats: ascending, for a C-level bisection
    # that only locates where the integer test starts.
    located: tuple[float, ...]


@lru_cache(maxsize=64)
def _class_bounds(epsilon: Epsilon, gamma: Fraction) -> _Bounds:
    """The :class:`_Bounds` of a layout for ``epsilon`` and ``gamma``."""
    eps = epsilon.fraction
    base = epsilon.one_minus

    # r_hi = floor(log_{1-eps}(eps/gamma)) + 1: smallest exponent whose
    # power drops strictly below eps/gamma.
    low_target = eps / gamma
    power = Fraction(1)
    r_hi = 0
    while power >= low_target:
        r_hi += 1
        power *= base

    # r_lo = 1 - ceil(log_{1/(1-eps)}(gamma/2)): widen upward until the
    # class ceiling reaches gamma/2.  With gamma = 2 this is exactly 1.
    high_target = gamma / 2
    power = Fraction(1)
    widen = 0
    while power < high_target:
        widen += 1
        power /= base
    r_lo = 1 - widen

    bounds = []
    power = base ** (r_lo - 1)
    for _ in range(r_lo - 1, r_hi + 1):
        bounds.append(power)
        power *= base
    return _Bounds(r_lo, r_hi, tuple(b.numerator for b in bounds),
                   tuple(b.denominator for b in bounds), tuple(-float(b) for b in bounds))


@dataclass(frozen=True)
class ClassLayout:
    """Index range and exact boundaries of the profit classes for one (eps, alpha)."""

    epsilon: Epsilon
    alpha: int
    gamma: Fraction = Fraction(2)
    r_lo: int = field(init=False)
    r_hi: int = field(init=False)
    # The cached entry of _class_bounds, which class_index reads.
    _bounds: _Bounds = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise InvalidParameterError("alpha must be positive")
        if self.gamma < 2:
            raise InvalidParameterError("gamma must be at least 2")
        bounds = _class_bounds(self.epsilon, self.gamma)
        object.__setattr__(self, "r_lo", bounds.r_lo)
        object.__setattr__(self, "r_hi", bounds.r_hi)
        object.__setattr__(self, "_bounds", bounds)

        if self.gamma == 2:
            # class count <= 3 / eps^2, exact integer comparison
            n, d = self.epsilon.numerator, self.epsilon.denominator
            assert self.class_count * n * n <= 3 * d * d, "class-count bound violated"

    @property
    def class_count(self) -> int:
        return self.r_hi - self.r_lo + 1


def class_index(element: Element, layout: ClassLayout) -> int | None:
    """The unique class r with p(e) / (2 alpha) in ((1-eps)^r, (1-eps)^(r-1)], or None.

    The class is given by k, the first boundary strictly below the ratio.
    A bisection over the float boundaries guesses k; the integer test
    b_k < p / (2 alpha), p * den_k > 2 alpha * num_k, then moves the guess
    until it holds at k and fails at k - 1.  Rounding can only misplace the
    guess, never the answer.
    """
    p, two_alpha = element.profit, 2 * layout.alpha
    bounds = layout._bounds
    nums, dens = bounds.nums, bounds.dens
    last = len(nums)
    k = bisect_right(bounds.located, -p / two_alpha)
    while k < last and p * dens[k] <= two_alpha * nums[k]:
        k += 1
    while k and p * dens[k - 1] > two_alpha * nums[k - 1]:
        k -= 1
    # k == last: under the last boundary, where most elements of a solve
    # sit; k == 0: above the first.
    return None if k == 0 or k == last else layout.r_lo - 1 + k


def classed(instance: BCInstance, layout: ClassLayout) -> list[Element]:
    """The elements that lie in some class, in instance order.

    They are those whose :func:`class_index` is not None: p / (2 alpha) in
    (b_last, b_0], the outer boundaries, decided by the same two integer
    cross-multiplications, with no class located.
    """
    bounds = layout._bounds
    two_alpha = 2 * layout.alpha
    top, top_den = two_alpha * bounds.nums[0], bounds.dens[0]
    low, low_den = two_alpha * bounds.nums[-1], bounds.dens[-1]
    return [e for e in instance.elements
            if e.profit * low_den > low and e.profit * top_den <= top]


def class_partition(instance: BCInstance, layout: ClassLayout) -> dict[int, frozenset[int]]:
    """Pairwise-disjoint profit classes, keyed by class index.

    Only non-empty classes are materialized; the full index range lives on
    the layout.  Elements whose ratio falls outside every interval are simply
    absent (they can still enter solutions through the residual stage).
    """
    buckets: dict[int, set[int]] = {}
    for e in instance.elements:
        r = class_index(e, layout)
        if r is not None:
            buckets.setdefault(r, set()).add(e.id)
    return {r: frozenset(ids) for r, ids in buckets.items()}


def small_profit_pool(instance: BCInstance, alpha: int, epsilon: Epsilon) -> frozenset[int]:
    """Elements with p(e) <= 2 * eps * alpha; the pool the residual stage may use."""
    if alpha < 0:
        raise InvalidParameterError("alpha must be non-negative")
    num, den = epsilon.numerator, epsilon.denominator
    return frozenset(e.id for e in instance.elements if e.profit * den <= 2 * num * alpha)
