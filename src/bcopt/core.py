"""Domain types and the solution predicate shared by every other module.

Every number of an instance is a non-negative 64-bit integer (see
:func:`checked_int`); the error parameter is an exact rational in
(0, 1/2).  All arithmetic on these values is exact, so boundary comparisons
(class membership, profit thresholds) never suffer from floating-point drift.

Structure is checked where it is built: every constructor refuses a broken
one with :class:`InvalidParameterError` (edges by :func:`checked_edges`; the
constraint kind, a ``Matching`` or a ``MatroidIntersection``, and the ground
set by :class:`BCInstance`), so an instance that exists is valid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Mapping

# Values must fit a signed 64-bit integer so serialized instances stay
# portable; Python itself never overflows.
MAX_VALUE = 2**63 - 1


# ratio_key's scale: the quotient keeps 256 bits below the point, and the
# id takes the low 64 bits of the key.
_RATIO_SHIFT = 256
_ID_BITS = 64
# The key of an infinity: beyond every finite key, whose magnitude stays
# below 2^511 + 2^64 while |num| < 2^191.
_INFINITE_KEY = 1 << 512


def ratio_key(num: int, den: int, eid: int) -> int:
    """Int sort key of num/den ascending, then of the id ``eid`` ascending.

    The key is floor(num * 2^256 / den) * 2^64 + eid.  Two distinct ratios
    whose denominators are below 2^127 differ by more than 2^-254, so their
    floors differ and keep the exact order; equal ratios share a floor, and
    ids below 2^63 then decide.  Every denominator here is a sum of fewer
    than 2^64 checked values, so it is below 2^127.  den is non-negative;
    den == 0 with num != 0 stands for an infinity of num's sign, whose key
    is beyond every finite one while |num| < 2^191, and all infinities in
    one sort must share that sign.
    """
    if den:
        return ((num << _RATIO_SHIFT) // den << _ID_BITS) + eid
    return (_INFINITE_KEY if num > 0 else -_INFINITE_KEY) + eid


def _density_key(e: Element) -> int:
    """``BCInstance.density_order``'s key; a zero-cost element counts as density profit + 1."""
    return ratio_key(-e.profit, e.cost, e.id) if e.cost else ratio_key(-e.profit - 1, 1, e.id)


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


def checked_int(value: object, what: str) -> int:
    """``value`` if it is a plain ``int`` in [0, MAX_VALUE], else an error naming ``what``.

    The one integer rule, called by every constructor that takes a number.
    ``type(...) is int`` refuses bool, float, str and Fraction alike, and is
    the cheapest test for constructors that run once per element or residual.
    """
    if type(value) is not int:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidParameterError(f"{what} must be non-negative, got {value}")
    if value > MAX_VALUE:
        raise InvalidParameterError(f"{what} exceeds 64-bit range: {value}")
    return value


def checked_edges(vertex_count: int,
                  edges: Mapping[int, tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """``edges`` as a dict of checked ids and endpoints, each endpoint below ``vertex_count``.

    The one edge rule, called by the graph constructors (``Matching``,
    ``GraphicMatroid``).  A self-loop ``(v, v)`` is a legal edge.
    """
    checked = {}
    for eid, (u, v) in edges.items():
        eid = checked_int(eid, "edge id")
        u, v = checked_int(u, "edge endpoint"), checked_int(v, "edge endpoint")
        if u >= vertex_count or v >= vertex_count:
            raise InvalidParameterError(
                f"edge {eid} endpoint out of range for {vertex_count} vertices: ({u}, {v})")
        checked[eid] = (u, v)
    return checked


@dataclass(frozen=True)
class Element:
    """A selectable item with an integer cost and an integer profit."""

    id: int
    cost: int
    profit: int

    def __post_init__(self) -> None:
        checked_int(self.id, "element id")
        checked_int(self.cost, "element cost")
        checked_int(self.profit, "element profit")


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
    """Elements plus a constraint plus a budget: the input every algorithm consumes.

    The constraint is a :class:`~bcopt.constraints.Matching` or a
    :class:`~bcopt.constraints.MatroidIntersection`, and the element ids are
    distinct and are exactly the constraint's ``element_ids()``; any other
    instance is refused.
    """

    elements: tuple[Element, ...]
    constraint: Matching | MatroidIntersection
    budget: int

    # Derived lookups, filled in __post_init__.
    cost_of: dict[int, int] = field(init=False, repr=False, compare=False)
    profit_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        checked_int(self.budget, "budget")
        if not isinstance(self.constraint, (Matching, MatroidIntersection)):
            raise InvalidParameterError(
                "the constraint must be a Matching or a MatroidIntersection, "
                f"got {type(self.constraint).__name__}")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "cost_of", {e.id: e.cost for e in self.elements})
        object.__setattr__(self, "profit_of", {e.id: e.profit for e in self.elements})
        # Every lookup and tie-break is by id, so an id names one element.
        if len(self.cost_of) < len(self.elements):
            counts = Counter(e.id for e in self.elements)
            raise InvalidParameterError(
                f"duplicate element ids {sorted(i for i, k in counts.items() if k > 1)}")
        ground = self.constraint.element_ids()
        if ground != self.cost_of.keys():
            raise InvalidParameterError(
                "the constraint's ids are not the element ids: "
                f"ids {sorted(ground - self.cost_of.keys())} have no element, "
                f"elements {sorted(self.cost_of.keys() - ground)} are not in the constraint")

    @cached_property
    def density_order(self) -> tuple[Element, ...]:
        """The elements by profit per cost descending, then id, sorted once.

        A zero-cost element counts as density profit + 1.  The Lagrangian
        search's fill and probes and the solver's skeleton bound all read it.
        """
        return tuple(sorted(self.elements, key=_density_key))

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

    @property
    def id_set(self) -> frozenset[int]:
        return frozenset(self.element_ids)


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


# constraints imports this module, so its two kinds are bound here, once,
# after every name it imports is defined.
from .constraints import Matching, MatroidIntersection  # noqa: E402
