"""Representative set: per-class exchange sets unioned over all profit classes.

The representative set of an instance keeps, from every profit class, enough
elements that some near-optimal solution draws all of its high-profit picks
from the kept pool.  The solver then only enumerates subsets of this pool.

The classes are found by :func:`~bcopt.classes.class_partition`, whose float
boundaries only locate a class that exact integers then decide.  Two kinds
of class need no search:

- On a matching of at most 6q elements, q = q(eps), every class holds at
  most 6q edges, so the greedy rounds of
  :func:`~bcopt.exchange.exset_matching` use each class up, less its
  self-loops.  The representative set is then the classed edges less
  self-loops, found by :func:`~bcopt.classes.classed`, two integer
  comparisons per element and no partition; only :func:`exchange_sets`
  runs the rounds.  The solver builds the set at eps' = eps/8 < 1/16,
  where q(eps') > 16^17, so every solve takes this path.
- On an intersection, a one-element class {e} is its own exchange set iff
  {e} is feasible: the search's root branch keeps e iff both matroids accept
  it, and its one child holds the whole class.  So one singleton test
  answers it, and :func:`~bcopt.exchange.exset_matroid_intersection` runs
  only on classes of two or more elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import BCInstance, Epsilon
from .classes import ClassLayout, class_partition, classed, q_of
from .constraints import Matching
from .exchange import exset_matching, exset_matroid_intersection
from .lagrange import GAMMA, approx_opt


@dataclass(frozen=True)
class RepresentativeSet:
    """Union of the per-class exchange sets that :func:`exchange_sets` lists."""

    elements: frozenset[int]
    alpha: int
    layout: ClassLayout | None

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
    """
    if alpha is None:
        alpha = approx_opt(instance).total_profit
    if alpha == 0:
        return RepresentativeSet(frozenset(), 0, None)
    layout = ClassLayout(epsilon, alpha, gamma)
    q = q_of(epsilon)
    matching = isinstance(instance.constraint, Matching)
    if matching and len(instance.elements) <= 6 * q:
        edges = instance.constraint.edges
        elements = frozenset([e.id for e in classed(instance, layout)
                              if edges[e.id][0] != edges[e.id][1]])
        return RepresentativeSet(elements, alpha, layout)
    elements = frozenset().union(*exchange_sets(instance, layout).values())
    if matching:
        assert len(elements) <= layout.class_count * 18 * q * q
        if layout.gamma == 2:
            assert len(elements) <= 54 * q**3, "representative-set size bound violated"
    return RepresentativeSet(elements, alpha, layout)


def exchange_sets(instance: BCInstance, layout: ClassLayout) -> dict[int, frozenset[int]]:
    """The exchange set of each non-empty class, in ascending class order.

    Classes are disjoint, so each class's set is built on its own.
    """
    matching = isinstance(instance.constraint, Matching)
    feasible = instance.constraint.is_feasible
    sets = {}
    for r, ids in sorted(class_partition(instance, layout).items()):
        if matching:
            sets[r] = exset_matching(instance, layout, ids)
        elif len(ids) > 1:
            sets[r] = exset_matroid_intersection(instance, layout, ids)
        else:
            sets[r] = ids if feasible(ids) else frozenset()
    return sets
