"""Representative set: per-class exchange sets unioned over all profit classes.

The representative set of an instance keeps, from every profit class, enough
elements that some near-optimal solution draws all of its high-profit picks
from the kept pool.  The solver then only enumerates subsets of this pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BCInstance, Epsilon
from .classes import ClassLayout, class_partition, q_of
from .constraints import Matching
from .exchange import DEFAULT_BRANCH_BUDGET, exset_matching, exset_matroid_intersection
from .lagrange import approx_opt, declared_gamma


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


def rep_set(instance: BCInstance, epsilon: Epsilon, alpha_mode: str = "lagrangian",
            *, branch_budget: int = DEFAULT_BRANCH_BUDGET,
            alpha: int | None = None) -> RepresentativeSet:
    """Build the representative set for ``instance`` and ``epsilon``.

    ``alpha`` may be supplied by a caller that already estimated the optimum
    (the solver does, so estimate and enumeration stay consistent); otherwise
    it is computed here per ``alpha_mode``.  Classes are disjoint; each
    class's exchange set is built on its own, in ascending class order.
    """
    if alpha is None:
        alpha = approx_opt(instance, mode=alpha_mode)
    if alpha == 0:
        return RepresentativeSet(frozenset(), 0, None, {})
    layout = ClassLayout(epsilon, alpha, declared_gamma(alpha_mode))
    partition = class_partition(instance, layout)
    is_matching = isinstance(instance.constraint, Matching)

    def build(r: int) -> frozenset[int]:
        ids = partition[r]
        if is_matching:
            return exset_matching(instance, layout, ids)
        return exset_matroid_intersection(instance, layout, ids,
                                          branch_budget=branch_budget)

    per_class = {r: build(r) for r in sorted(partition)}
    elements = frozenset().union(*per_class.values())

    q = q_of(epsilon)
    if is_matching:
        assert all(len(ex) <= 18 * q * q for ex in per_class.values())
        assert len(elements) <= layout.class_count * 18 * q * q
        if layout.gamma == 2:
            assert len(elements) <= 54 * q**3, "representative-set size bound violated"
    return RepresentativeSet(elements, alpha, layout, per_class)
