"""Shared builders and the seeded corpora used across the suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import count
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bcopt.core import (
    BCError, BCInstance, CapExceededError, Element, InfeasibleSetError, is_solution,
)
from bcopt.classes import small_profit_pool
from bcopt.cli import generate_instance
from bcopt.constraints import Matching, MatroidIntersection, residual_constraint
from bcopt.matroids import GraphicMatroid, MatroidOracle, PartitionMatroid, UniformMatroid
from bcopt.repset import rep_set
from bcopt import oracle


def make_elements(costs, profits=None):
    profits = profits if profits is not None else costs
    return tuple(Element(i, c, p) for i, (c, p) in enumerate(zip(costs, profits)))


def free_constraint(ids):
    """No structural restriction: two full-rank uniform matroids."""
    ids = frozenset(ids)
    return MatroidIntersection(UniformMatroid(ids, len(ids)), UniformMatroid(ids, len(ids)))


def free_instance(costs, profits=None, budget=10**9):
    elements = make_elements(costs, profits)
    return BCInstance(elements, free_constraint(e.id for e in elements), budget)


def path_matching(n_edges, costs=None, profits=None, budget=10**9):
    """Path v0 - v1 - ... - v_n: edge i joins (i, i+1)."""
    costs = costs if costs is not None else [1] * n_edges
    elements = make_elements(costs, profits)
    edges = {i: (i, i + 1) for i in range(n_edges)}
    return BCInstance(elements, Matching(n_edges + 1, edges), budget)


def triangle_matching(costs=(1, 2, 3), profits=None, budget=10**9):
    elements = make_elements(list(costs), profits)
    edges = {0: (0, 1), 1: (1, 2), 2: (2, 0)}
    return BCInstance(elements, Matching(3, edges), budget)


def random_matroid(rng: random.Random, ids: frozenset[int]):
    kind = rng.choice(["uniform", "partition", "graphic"])
    n = len(ids)
    if kind == "uniform" or n == 0:
        return UniformMatroid(ids, rng.randint(0, max(1, n)))
    if kind == "partition":
        order = sorted(ids)
        rng.shuffle(order)
        k = rng.randint(1, min(3, n))
        blocks = [order[i::k] for i in range(k)]
        caps = [rng.randint(1, max(1, len(b))) for b in blocks]
        return PartitionMatroid(ids, [frozenset(b) for b in blocks], caps)
    vertices = rng.randint(2, n + 2)
    edges = {}
    for eid in sorted(ids):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        edges[eid] = (u, v)  # self-loops possible: dependent singletons
    return GraphicMatroid(vertices, edges)


# A vertex far above the others: a search must number its mask bits by
# the vertices it meets, not by their values.
FAR_VERTEX = 10**12


@st.composite
def tiny_instances(draw):
    """Up to 10 elements on sparse ids, with zero costs and budgets from 0.

    Half are matchings on a few vertices and ``FAR_VERTEX``, self-loops
    included; half intersect two random matroids.
    """
    ids = sorted(draw(st.sets(st.integers(0, 40), max_size=10)))
    costs = draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
    profits = draw(st.lists(st.integers(0, 5), min_size=len(ids), max_size=len(ids)))
    elements = tuple(Element(i, c, p) for i, c, p in zip(ids, costs, profits))
    if draw(st.booleans()):
        ends = st.sampled_from([0, 1, 2, 3, 4, FAR_VERTEX])
        constraint = Matching(FAR_VERTEX + 1, {i: (draw(ends), draw(ends)) for i in ids})
    else:
        rng = random.Random(draw(st.integers(0, 10**6)))
        ground = frozenset(ids)
        constraint = MatroidIntersection(random_matroid(rng, ground),
                                         random_matroid(rng, ground))
    return BCInstance(elements, constraint, draw(st.integers(0, 8)))


def every_subset(pool):
    """The skeleton listing's hooks for a walk that wants every subset of
    ``pool``: a cap no listing reaches, a test that always passes, and a
    visitor that does nothing."""
    return {"cap": 2**len(pool), "promising": lambda chosen, j: True,
            "visit": lambda chosen: None}


def untailed_listing(instance, pool, max_size, cap, promising, visit):
    """The skeleton listing without its sibling-tail cut: every child is
    tested.  A plain walk that asks a cursor whether an id fits."""
    cursor = instance.constraint.cursor()
    out, chosen = [], []
    last = len(pool) - 1

    def walk(j, cost):
        if not promising(chosen, j):
            return
        out.append(tuple(chosen))
        if len(out) > cap:
            raise CapExceededError(f"more than {cap} subsets")
        if j == last or promising(chosen, last):
            visit(chosen)
        if len(chosen) == max_size:
            return
        for k in range(j + 1, len(pool)):
            grown = cost + instance.cost_of[pool[k]]
            if grown <= instance.budget and cursor.try_push(pool[k]):
                chosen.append(pool[k])
                walk(k, grown)
                chosen.pop()
                cursor.pop()

    walk(-1, 0)
    return out


def listed_skeletons(instance, pool, max_size):
    """The feasible, affordable subsets of ``pool`` with at most ``max_size``
    ids, in the skeleton listing's depth-first preorder: the empty set first,
    each subset before those grown from it, a subset's ids in pool order."""
    return untailed_listing(instance, pool, max_size, **every_subset(pool))


def pool_residual(instance, pool, skeleton):
    """The residual of the solution ``skeleton`` over ``pool``: the elements
    of ``pool`` minus the skeleton that the contracted constraint keeps, and
    the budget the skeleton leaves."""
    skeleton = frozenset(skeleton)
    constraint = residual_constraint(instance.constraint, skeleton).restrict(pool - skeleton)
    kept = constraint.element_ids()
    return BCInstance(tuple(e for e in instance.elements if e.id in kept), constraint,
                      instance.budget - instance.total_cost(skeleton))


def residual_instance(instance, alpha, epsilon, skeleton):
    """The residual the scheme solves next to the skeleton F: over the
    small-profit pool of ``alpha`` and ``epsilon``.  F must be a solution."""
    if not is_solution(instance, skeleton):
        raise InfeasibleSetError(f"skeleton {sorted(skeleton)} is not a solution")
    return pool_residual(instance, small_profit_pool(instance, alpha, epsilon), skeleton)


@lru_cache(maxsize=None)
def scanned_class_bounds(epsilon, gamma):
    """(r_lo, r_hi, boundaries) of the profit classes for ``epsilon`` and
    ``gamma``, by linear scans over exact powers of 1 - eps:
    boundaries[k] = (1 - eps)^(r_lo - 1 + k), strictly decreasing."""
    base = epsilon.one_minus
    r_hi = next(r for r in count(1) if base**r < epsilon.fraction / gamma)
    r_lo = 1 - next(w for w in count() if base**-w >= gamma / 2)
    return r_lo, r_hi, tuple(base**k for k in range(r_lo - 1, r_hi + 1))


def exact_rep_set(instance, epsilon):
    """The representative set built from the exact optimum, alpha = OPT
    (gamma = 2): the layout the paper's class-count and size bounds assume."""
    alpha = oracle.brute_force_opt(instance).total_profit
    return rep_set(instance, epsilon, alpha=alpha, gamma=Fraction(2))


def exchange_witness(oracle: MatroidOracle, a_set: frozenset[int], b_set: frozenset[int], a: int) -> int:
    """Exhibit b in B - A with A - a + b independent.

    Requires A, B independent, a in A - B and B + a dependent; such a b
    always exists for a genuine matroid.
    """
    if a not in a_set or a in b_set:
        raise BCError("need a in A \\ B")
    reduced = a_set - {a}
    for b in sorted(b_set - a_set):
        if oracle.is_independent(reduced | {b}):
            return b
    raise BCError("no exchange witness found (is the oracle really a matroid?)")


class BareOracle(MatroidOracle):
    """Another oracle's matroid through ``_independent`` alone.

    It overrides no cursor, so searches over it run the generic cursor that
    re-tests the whole grown set.
    """

    def __init__(self, inner: MatroidOracle):
        super().__init__(inner.ground_ids)
        self._inner = inner

    def _independent(self, subset: frozenset[int]) -> bool:
        return self._inner.is_independent(subset)


class CountingCursors(BareOracle):
    """A bare oracle that counts the cursors built on it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.cursors = 0

    def cursor(self):
        self.cursors += 1
        return super().cursor()


@pytest.fixture(scope="session", autouse=True)
def children_import_this_checkout():
    """CLI tests start ``python -m bcopt.cli``; pytest's ``pythonpath`` setting
    reaches only this process, so children get the checkout's ``src`` too."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


# --- seeded corpora -------------------------------------------------------

def build_main_corpus():
    """200 instances, half matching, half matroid intersection, |E| in [6, 14]."""
    corpus = []
    for i in range(100):
        size = 6 + i % 9
        corpus.append((f"match-{i:03d}", generate_instance(i, size, "matching")))
    for i in range(100):
        size = 6 + i % 9
        corpus.append(
            (f"inter-{i:03d}", generate_instance(1000 + i, size, "matroid-intersection"))
        )
    return corpus


def build_npsolver_corpus():
    """100 instances with |E| <= 16 for the low-profit solver contract."""
    corpus = []
    for i in range(100):
        kind = "matching" if i % 2 == 0 else "matroid-intersection"
        size = 4 + i % 13
        corpus.append((f"np-{i:03d}", generate_instance(2000 + i, size, kind)))
    return corpus


@pytest.fixture(scope="session")
def main_corpus():
    return build_main_corpus()


@pytest.fixture(scope="session")
def npsolver_corpus():
    return build_npsolver_corpus()


@pytest.fixture(scope="session")
def opt_cache():
    """Memoized brute-force optima, shared across acceptance criteria."""
    cache: dict[int, int] = {}

    def lookup(instance: BCInstance) -> int:
        key = id(instance)
        if key not in cache:
            cache[key] = oracle.brute_force_opt(instance).total_profit
        return cache[key]

    return lookup
