"""Representative set: per-class exchange sets unioned over all profit classes.

The representative set of an instance keeps, from every profit class, enough
elements that some near-optimal solution draws all of its high-profit picks
from the kept pool.  The solver then only enumerates subsets of this pool.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .core import BCInstance, Epsilon
from .classes import ClassLayout, class_partition, q_of
from .constraints import Matching
from .exchange import (
    DEFAULT_BRANCH_BUDGET,
    ExchangeSet,
    exset_matching,
    exset_matroid_intersection,
)
from .lagrange import LagrangeConfig, approx_opt, declared_gamma


@dataclass(frozen=True)
class RepresentativeSet:
    """Union of per-class exchange sets, with full per-class provenance."""

    elements: frozenset[int]
    alpha: int
    layout: ClassLayout | None
    per_class: dict[int, ExchangeSet]

    @property
    def size(self) -> int:
        return len(self.elements)


def rep_set(instance: BCInstance, epsilon: Epsilon, alpha_mode: str = "lagrangian",
            *, lagrange_config: LagrangeConfig | None = None,
            branch_budget: int = DEFAULT_BRANCH_BUDGET, threads: int = 1,
            alpha: int | None = None) -> RepresentativeSet:
    """Build the representative set for ``instance`` and ``epsilon``.

    ``alpha`` may be supplied by a caller that already estimated the optimum
    (the solver does, so estimate and enumeration stay consistent); otherwise
    it is computed here per ``alpha_mode``.  Classes are disjoint, so their
    exchange sets may be built in parallel; results are unioned by class
    index, which keeps the output independent of completion order.
    """
    if alpha is None:
        alpha = approx_opt(instance, lagrange_config, mode=alpha_mode)
    if alpha == 0:
        return RepresentativeSet(frozenset(), 0, None, {})
    layout = ClassLayout(epsilon, alpha, declared_gamma(alpha_mode))
    partition = class_partition(instance, layout)
    is_matching = isinstance(instance.constraint, Matching)

    def build(r: int) -> ExchangeSet:
        ids = partition[r]
        if is_matching:
            return exset_matching(instance, layout, r, ids)
        return exset_matroid_intersection(instance, layout, r, ids,
                                          branch_budget=branch_budget)

    indices = sorted(partition)
    if threads > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = list(pool.map(build, indices))
    else:
        built = [build(r) for r in indices]
    per_class = {ex.class_index: ex for ex in built}
    elements = frozenset().union(*(ex.elements for ex in built)) if built else frozenset()

    q = q_of(epsilon)
    if is_matching:
        assert all(len(ex.elements) <= 18 * q * q for ex in built)
        assert len(elements) <= layout.class_count * 18 * q * q
        if layout.gamma == 2:
            assert len(elements) <= 54 * q**3, "representative-set size bound violated"
    return RepresentativeSet(elements, alpha, layout, per_class)
