"""Representative set: per-class exchange sets unioned over all profit classes.

The representative set of an instance keeps, from every profit class, enough
elements that some near-optimal solution draws all of its high-profit picks
from the kept pool.  The solver then only enumerates subsets of this pool.

The solver builds it at eps' = eps/8 < 1/16, where q(eps') > 16^17, so no
matching class comes near the 6q edges above which
:func:`~bcopt.exchange.exset_matching` would leave edges out: a matching's
representative set there is its classed edges less self-loops.  The classes
themselves are found by :func:`~bcopt.classes.class_partition`, whose float
boundaries only locate a class that exact integers then decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import BCInstance, Epsilon
from .classes import ClassLayout, class_partition, q_of
from .constraints import Matching
from .exchange import exset_matching, exset_matroid_intersection
from .lagrange import GAMMA, approx_opt


@dataclass(frozen=True)
class RepresentativeSet:
    """Union of per-class exchange sets, keyed by class index in ``per_class``."""

    elements: frozenset[int]
    alpha: int
    layout: ClassLayout | None
    per_class: dict[int, frozenset[int]]

    @property
    def size(self) -> int:
        return len(self.elements)


def rep_set(instance: BCInstance, epsilon: Epsilon, *, alpha: int | None = None,
            gamma: Fraction = GAMMA) -> RepresentativeSet:
    """Build the representative set for ``instance`` and ``epsilon``.

    The classes are laid out for an estimate ``alpha`` known to lie in
    [OPT / gamma, OPT].  A caller that already estimated the optimum passes
    ``alpha`` (the solver does, so estimate and enumeration stay consistent);
    otherwise it is ``approx_opt``'s, whose factor is the default ``gamma``.
    Classes are disjoint; each class's exchange set is built on its own, in
    ascending class order.
    """
    if alpha is None:
        alpha = approx_opt(instance).total_profit
    if alpha == 0:
        return RepresentativeSet(frozenset(), 0, None, {})
    layout = ClassLayout(epsilon, alpha, gamma)
    partition = class_partition(instance, layout)
    is_matching = isinstance(instance.constraint, Matching)

    def build(r: int) -> frozenset[int]:
        ids = partition[r]
        if is_matching:
            return exset_matching(instance, layout, ids)
        return exset_matroid_intersection(instance, layout, ids)

    per_class = {r: build(r) for r in sorted(partition)}
    elements = frozenset().union(*per_class.values())

    q = q_of(epsilon)
    if is_matching:
        assert all(len(ex) <= 18 * q * q for ex in per_class.values())
        assert len(elements) <= layout.class_count * 18 * q * q
        if layout.gamma == 2:
            assert len(elements) <= 54 * q**3, "representative-set size bound violated"
    return RepresentativeSet(elements, alpha, layout, per_class)
