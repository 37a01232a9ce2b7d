"""Domain types and the solution predicate shared by every other module.

Costs, profits and budgets are non-negative integers; the error parameter is
an exact rational in (0, 1/2).  All arithmetic on these values is exact, so
boundary comparisons (class membership, profit thresholds) never suffer from
floating-point drift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, TYPE_CHECKING

if TYPE_CHECKING:
    from .constraints import Constraint

# Values must fit a signed 64-bit integer so serialized instances stay
# portable; Python itself never overflows.
MAX_VALUE = 2**63 - 1


def _compare_ratios(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    return a[0] * b[1] - b[0] * a[1] or a[2] - b[2]


# Sort key for (num, den, id) triples: num/den ascending, then id ascending,
# decided by integer cross-multiplication.  den is non-negative; den == 0
# with num != 0 stands for an infinity of num's sign, and all infinities in
# one sort must share that sign.
ratio_key = cmp_to_key(_compare_ratios)


class BCError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(BCError, ValueError):
    """A parameter is outside its documented domain (e.g. epsilon >= 1/2)."""


class UnknownElementError(BCError, KeyError):
    """An element id does not exist in the instance or ground set."""


class InfeasibleSetError(BCError):
    """A set that a precondition requires to be feasible is not."""


class CapExceededError(BCError):
    """A work cap (visited skeletons, exchange-set branches) was exceeded."""


class GuardExceededError(BCError):
    """An exhaustive verifier was invoked above its instance-size guard."""


@dataclass(frozen=True)
class Element:
    """A selectable item with an integer cost and an integer profit."""

    id: int
    cost: int
    profit: int

    def __post_init__(self) -> None:
        # ``type(...) is int`` refuses bool, float and Fraction alike, and is
        # the cheapest test for a constructor that runs once per element.
        if type(self.id) is not int:
            raise InvalidParameterError(f"element id must be an integer, got {self.id!r}")
        if self.id < 0:
            raise InvalidParameterError(f"element id must be non-negative, got {self.id}")
        if self.id > MAX_VALUE:
            raise InvalidParameterError(f"element id exceeds 64-bit range: {self.id}")
        for name, value in (("cost", self.cost), ("profit", self.profit)):
            if type(value) is not int:
                raise InvalidParameterError(f"element {name} must be an integer, got {value!r}")
            if value < 0:
                raise InvalidParameterError(f"element {name} must be non-negative, got {value}")
            if value > MAX_VALUE:
                raise InvalidParameterError(f"element {name} exceeds 64-bit range: {value}")


@dataclass(frozen=True)
class Epsilon:
    """Exact rational error parameter, restricted to 0 < value < 1/2.

    Stored in lowest terms.  Powers of (1 - epsilon) derived from it are
    computed as exact fractions, so half-open interval membership is decided
    without rounding.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if type(self.numerator) is not int or type(self.denominator) is not int:
            raise InvalidParameterError(
                f"epsilon terms must be integers, got {self.numerator!r}/{self.denominator!r}")
        if self.denominator <= 0 or self.numerator <= 0:
            raise InvalidParameterError("epsilon must be a positive fraction")
        g = gcd(self.numerator, self.denominator)
        object.__setattr__(self, "numerator", self.numerator // g)
        object.__setattr__(self, "denominator", self.denominator // g)
        if 2 * self.numerator >= self.denominator:
            raise InvalidParameterError(
                f"epsilon must satisfy 0 < epsilon < 1/2, got {self.numerator}/{self.denominator}"
            )

    @classmethod
    def parse(cls, text: str) -> "Epsilon":
        """Parse ``"num/den"``; the constructor then checks 0 < epsilon < 1/2."""
        try:
            num, den = (int(part) for part in text.strip().split("/"))
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse epsilon {text!r} as num/den") from exc
        return cls(num, den)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def one_minus(self) -> Fraction:
        return Fraction(self.denominator - self.numerator, self.denominator)

    def inverse_floor(self) -> int:
        """Largest integer not above 1/epsilon."""
        return self.denominator // self.numerator

    def scaled_down(self, divisor: int) -> "Epsilon":
        """epsilon / divisor, still an exact rational."""
        return Epsilon(self.numerator, self.denominator * divisor)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class BCInstance:
    """Elements plus a constraint plus a budget: the input every algorithm consumes."""

    elements: tuple[Element, ...]
    constraint: "Constraint"
    budget: int

    # Derived lookups, filled in __post_init__.
    cost_of: dict[int, int] = field(init=False, repr=False, compare=False)
    profit_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.budget) is not int:
            raise InvalidParameterError(f"budget must be an integer, got {self.budget!r}")
        if self.budget < 0:
            raise InvalidParameterError(f"budget must be non-negative, got {self.budget}")
        if self.budget > MAX_VALUE:
            raise InvalidParameterError(f"budget exceeds 64-bit range: {self.budget}")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "cost_of", {e.id: e.cost for e in self.elements})
        object.__setattr__(self, "profit_of", {e.id: e.profit for e in self.elements})
        # Every lookup and tie-break is by id, so an id names one element.
        if len(self.cost_of) < len(self.elements):
            counts = Counter(e.id for e in self.elements)
            raise InvalidParameterError(
                f"duplicate element ids {sorted(i for i, k in counts.items() if k > 1)}")

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self.cost_of)

    def sorted_ids(self) -> list[int]:
        """Canonical ascending-id order used for all tie-breaking."""
        return sorted(self.cost_of)

    def total_cost(self, ids: Iterable[int]) -> int:
        return sum(self.cost_of[i] for i in ids)

    def total_profit(self, ids: Iterable[int]) -> int:
        return sum(self.profit_of[i] for i in ids)

    def require_known(self, ids: Iterable[int]) -> None:
        for i in ids:
            if i not in self.cost_of:
                raise UnknownElementError(i)


@dataclass(frozen=True)
class Solution:
    """A feasible, budget-respecting element subset with cached totals.

    Constructed through :meth:`build`, which enforces feasibility and the
    budget at construction time.
    """

    element_ids: tuple[int, ...]
    total_cost: int
    total_profit: int

    @classmethod
    def build(cls, instance: BCInstance, ids: Iterable[int]) -> "Solution":
        ids = sorted(set(ids))
        instance.require_known(ids)
        if not instance.constraint.is_feasible(ids):
            raise InfeasibleSetError(f"set {ids} is not feasible for the constraint")
        cost = instance.total_cost(ids)
        if cost > instance.budget:
            raise InfeasibleSetError(f"set {ids} costs {cost} > budget {instance.budget}")
        return cls(tuple(ids), cost, instance.total_profit(ids))

    @classmethod
    def empty(cls) -> "Solution":
        return cls((), 0, 0)

    @property
    def id_set(self) -> frozenset[int]:
        return frozenset(self.element_ids)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(instance: BCInstance) -> ValidationReport:
    """Check structural integrity; returns a report instead of raising.

    Flags dangling constraint references, self-loop edges and mismatched
    oracle ground sets.  Negative values and duplicate ids never get this
    far: they are rejected when elements and instances are constructed.
    """
    return ValidationReport(tuple(instance.constraint.validate(set(instance.cost_of))))


def is_solution(instance: BCInstance, ids: Iterable[int]) -> bool:
    """True iff ``ids`` is feasible for the constraint and affordable."""
    ids = set(ids)
    instance.require_known(ids)
    if instance.total_cost(ids) > instance.budget:
        return False
    return instance.constraint.is_feasible(ids)


def preprocess_discard(instance: BCInstance) -> BCInstance:
    """Drop every element that can never appear in a solution.

    An element goes if its cost alone exceeds the budget or if its singleton
    is infeasible for the constraint.  Removals are logged at DEBUG level.
    Idempotent; the surviving instance has the same solutions.
    """
    removed: list[int] = []
    keep: list[Element] = []
    for e in instance.elements:
        if e.cost > instance.budget or not instance.constraint.is_feasible((e.id,)):
            removed.append(e.id)
        else:
            keep.append(e)
    if not removed:
        return instance
    import logging

    logging.getLogger(__name__).debug("preprocess discarded elements: %s", removed)
    return BCInstance(tuple(keep), instance.constraint.restrict({e.id for e in keep}), instance.budget)
