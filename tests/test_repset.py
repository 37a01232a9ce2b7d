from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import bcopt.repset
from bcopt.core import BCInstance, Element, Epsilon, preprocess_discard
from bcopt.cli import generate_instance
from bcopt.classes import ClassLayout, class_partition, q_of
from bcopt.constraints import Matching, MatroidIntersection
from bcopt.exchange import exset_matching, exset_matroid_intersection
from bcopt.lagrange import GAMMA, approx_opt
from bcopt.matroids import GraphicMatroid, UniformMatroid
from bcopt.oracle import brute_force_opt, verify_representative
from bcopt.repset import exchange_sets, rep_set

from conftest import exact_rep_set, free_instance, scanned_class_bounds, tiny_instances


class TestRepSet:
    def test_empty_instance(self):
        rep = rep_set(free_instance([], []), Epsilon(1, 4))
        assert rep.elements == frozenset()
        assert rep.layout is None

    def test_zero_profit_instance(self):
        rep = rep_set(free_instance([1, 1], [0, 0], budget=5), Epsilon(1, 4))
        assert rep.elements == frozenset()

    @pytest.mark.parametrize("seed, kind", [(9, "matching"), (1003, "matroid-intersection")])
    def test_default_alpha_is_approx_opt_with_its_gamma(self, seed, kind):
        inst = preprocess_discard(generate_instance(seed, 10, kind))
        eps = Epsilon(1, 4)
        rep = rep_set(inst, eps)
        assert rep == rep_set(inst, eps, alpha=approx_opt(inst).total_profit)
        assert rep.layout.alpha > 0 and rep.layout.gamma == GAMMA

    def test_tiny_classes_saturate(self):
        inst = preprocess_discard(generate_instance(8, 8, "matching"))
        rep = exact_rep_set(inst, Epsilon(1, 4))
        classed = {
            i for ids in class_partition(inst, rep.layout).values() for i in ids
        }
        # classes far below the size caps: everything classed is kept
        assert rep.elements == classed

    def test_elements_union_of_per_class(self):
        inst = preprocess_discard(generate_instance(9, 10, "matroid-intersection"))
        eps = Epsilon(1, 5)
        rep = exact_rep_set(inst, eps)
        assert rep == assert_matches_the_per_class_loop(inst, eps, rep.layout.alpha, Fraction(2))[0]
        assert rep.elements <= inst.ids

    def test_size_bound_at_gamma_two(self):
        eps = Epsilon(1, 3)
        q = q_of(eps)
        for seed in range(6):
            inst = preprocess_discard(generate_instance(seed, 12, "matching"))
            rep = exact_rep_set(inst, eps)
            assert rep.size <= 54 * q**3

    @pytest.mark.parametrize("seed", [0, 3, 11, 17])
    def test_representative_property_random_matching(self, seed):
        inst = preprocess_discard(generate_instance(seed, 10, "matching"))
        eps = Epsilon(1, 4)
        rep = exact_rep_set(inst, eps)
        report = verify_representative(inst, eps, rep.elements, rep.layout.alpha)
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("seed", [1001, 1005, 1013])
    def test_representative_property_random_intersection(self, seed):
        inst = preprocess_discard(generate_instance(seed, 9, "matroid-intersection"))
        eps = Epsilon(1, 4)
        opt = brute_force_opt(inst).total_profit
        for build in (exact_rep_set, rep_set):
            rep = build(inst, eps)
            report = verify_representative(inst, eps, rep.elements, opt)
            assert report.passed, (build.__name__, report.counterexample)


def reference_per_class(instance, epsilon, alpha, gamma):
    """The reference: every class's exchange set by the search of its
    constraint kind, with no class skipped, in ascending class order.
    Returns the union and the dict."""
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
    return elements, per_class


def assert_matches_the_per_class_loop(instance, epsilon, alpha=None, gamma=GAMMA):
    """``rep_set`` and ``exchange_sets`` against the reference; returns the
    representative set and its exchange sets."""
    rep = rep_set(instance, epsilon, alpha=alpha, gamma=gamma)
    if rep.layout is None:
        assert (rep.elements, rep.layout) == (frozenset(), None)
        return rep, {}
    elements, per_class = reference_per_class(instance, epsilon, rep.layout.alpha, gamma)
    sets = exchange_sets(instance, rep.layout)
    assert rep.elements == elements == frozenset().union(*sets.values())
    # Equal as dicts and in their order, empty classes included.
    assert list(sets.items()) == list(per_class.items())
    return rep, sets


# The solver's eps' for a user eps of 1/4, and that user eps.
EPSILONS = [Epsilon(1, 32), Epsilon(1, 4)]


class TestAgainstThePerClassLoop:
    @given(inst=tiny_instances(), eps=st.sampled_from(EPSILONS + [Epsilon(1, 3)]),
           alpha=st.one_of(st.none(), st.integers(1, 40)),
           gamma=st.sampled_from([Fraction(2), GAMMA]))
    @settings(max_examples=300, deadline=None)
    def test_tiny_instances(self, inst, eps, alpha, gamma):
        # Self-loops, a far vertex, loops of one matroid, unpreprocessed.
        assert_matches_the_per_class_loop(inst, eps, alpha, gamma)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_main_corpus(self, main_corpus, eps):
        for _, inst in main_corpus:
            working = preprocess_discard(inst)
            assert_matches_the_per_class_loop(working, eps)
            assert_matches_the_per_class_loop(working, eps, approx_opt(working).total_profit,
                                              Fraction(2))

    @pytest.mark.parametrize("gamma", [Fraction(2), GAMMA])
    def test_edges_on_and_beside_the_outer_boundaries(self, gamma):
        # alpha puts p / (2 alpha) exactly on the first and the last class
        # boundary at p = 2 alpha b; the classes are (b_last, b_0].
        eps = Epsilon(1, 4)
        bounds = scanned_class_bounds(eps, gamma)[2]
        alpha = lcm(bounds[0].denominator, bounds[-1].denominator)
        profits = [2 * alpha * b.numerator // b.denominator + step
                   for b in (bounds[0], bounds[-1]) for step in (-1, 0, 1)]
        inst = BCInstance(tuple(Element(i, 1, p) for i, p in enumerate(profits)),
                          Matching(12, {i: (2 * i, 2 * i + 1) for i in range(6)}), 10)
        rep, _ = assert_matches_the_per_class_loop(inst, eps, alpha, gamma)
        assert rep.elements == {0, 1, 5}

    def test_a_class_of_self_loops_keeps_its_empty_entry(self):
        # alpha = 10, gamma = 2: the edges of profit 20 are class 1.  At
        # eps = 1/4 the self-loops of profit 12 are class 2 and the one of
        # profit 9 class 3; at eps = 1/3 all three are class 2.
        edges = {0: (0, 1), 1: (2, 2), 2: (3, 3), 3: (1, 2), 4: (4, 4)}
        profits = [20, 12, 12, 20, 9]
        inst = BCInstance(tuple(Element(i, 1, p) for i, p in enumerate(profits)),
                          Matching(5, edges), 10)
        for eps, loop_classes in ((Epsilon(1, 4), (2, 3)), (Epsilon(1, 3), (2,))):
            rep, sets = assert_matches_the_per_class_loop(inst, eps, 10, Fraction(2))
            assert rep.elements == {0, 3}
            assert sets == {1: frozenset({0, 3}), **dict.fromkeys(loop_classes, frozenset())}

    def test_an_intersection_singleton_that_is_a_loop_of_one_matroid(self):
        # Element 2 is a self-loop of the graphic first matroid, alone in its
        # class: its exchange set is empty.  Element 3 is alone and feasible.
        ids = frozenset(range(4))
        graph = GraphicMatroid(3, {0: (0, 1), 1: (1, 2), 2: (2, 2), 3: (0, 2)})
        inst = BCInstance(tuple(Element(i, 1, p) for i, p in enumerate([20, 20, 12, 9])),
                          MatroidIntersection(graph, UniformMatroid(ids, 4)), 10)
        _, sets = assert_matches_the_per_class_loop(inst, Epsilon(1, 4), 10, Fraction(2))
        assert sets == {1: frozenset({0, 1}), 2: frozenset(), 3: frozenset({3})}

    def test_a_star_above_6q_edges_runs_the_rounds(self):
        # eps = 1/3: q = 27, and the class of profit 10 holds 170 hub edges
        # and a self-loop, above 6q = 162.  Each greedy round takes one hub
        # edge, so 162 rounds keep 162 of them; the class of profit 7, five
        # disjoint edges, comes back whole.
        eps = Epsilon(1, 3)
        assert 6 * q_of(eps) == 162
        edges = {i: (0, i + 1) for i in range(170)}
        edges[170] = (171, 171)
        edges.update({171 + k: (172 + 2 * k, 173 + 2 * k) for k in range(5)})
        profits = [10] * 171 + [7] * 5
        inst = BCInstance(tuple(Element(i, 1 + i % 7, p) for i, p in enumerate(profits)),
                          Matching(182, edges), 50)
        _, sets = assert_matches_the_per_class_loop(inst, eps, 10, Fraction(2))
        assert [len(ex) for ex in sets.values()] == [162, 5]


def counting(monkeypatch, name, calls):
    original = getattr(bcopt.repset, name)

    def counted(instance, layout, *args):
        calls.append((name, *args))
        return original(instance, layout, *args)

    monkeypatch.setattr(bcopt.repset, name, counted)


class TestSkippedSearches:
    def test_a_matching_within_6q_runs_no_search(self, monkeypatch):
        calls = []
        for name in ("class_partition", "exset_matching"):
            counting(monkeypatch, name, calls)
        inst = preprocess_discard(generate_instance(3, 14, "matching"))
        rep = rep_set(inst, Epsilon(1, 32))
        assert rep.size > 0 and calls == []

    def test_exchange_sets_partitions_once_and_searches_each_class(self, monkeypatch):
        calls = []
        for name in ("class_partition", "exset_matching"):
            counting(monkeypatch, name, calls)
        inst = preprocess_discard(generate_instance(3, 14, "matching"))
        sets = exchange_sets(inst, rep_set(inst, Epsilon(1, 32)).layout)
        assert len(sets) > 1
        assert [c[0] for c in calls] == ["class_partition"] + ["exset_matching"] * len(sets)

    def test_an_intersection_searches_only_classes_of_two_or_more(self, monkeypatch):
        calls = []
        counting(monkeypatch, "exset_matroid_intersection", calls)
        inst = preprocess_discard(generate_instance(1003, 14, "matroid-intersection"))
        rep = rep_set(inst, Epsilon(1, 32))
        sizes = [len(ids) for ids in class_partition(inst, rep.layout).values()]
        assert 1 in sizes
        assert sorted(len(c[1]) for c in calls) == sorted(n for n in sizes if n > 1)
