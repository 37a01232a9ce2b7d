import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

import bcopt.solver
from bcopt.core import (
    BCInstance,
    CapExceededError,
    Epsilon,
    InfeasibleSetError,
    Solution,
    preprocess_discard,
)
from bcopt.classes import small_profit_pool
from bcopt.cli import generate_instance
from bcopt.constraints import MatroidIntersection
from bcopt.enumeration import feasible_subsets_within_budget
from bcopt.lagrange import approx_opt, non_profitable_solver
from bcopt.matroids import PartitionMatroid, UniformMatroid
from bcopt.oracle import brute_force_opt
from bcopt.repset import rep_set
from bcopt.solver import (
    SkeletonBound,
    SolveConfig,
    residual_instance,
    solve,
    solve_detailed,
)

from conftest import BareOracle, free_instance, make_elements, path_matching


class TestResidual:
    def test_empty_skeleton_keeps_pool_and_budget(self):
        inst = free_instance([1, 2, 3], [1, 1, 1], budget=6)
        res = residual_instance(inst, alpha=2, epsilon=Epsilon(1, 4), skeleton=())
        # E(alpha) = {p <= 2 * (1/4) * 2 = 1} = everything here
        assert res.ids == {0, 1, 2}
        assert res.budget == 6

    def test_matched_edge_excludes_neighbours(self):
        inst = path_matching(3, costs=[1, 1, 1], profits=[1, 1, 1], budget=3)
        res = residual_instance(inst, alpha=10, epsilon=Epsilon(1, 4), skeleton={0})
        # edge 1 shares vertex 1 with the skeleton; edge 2 survives
        assert res.ids == {2}
        assert res.budget == 2

    def test_small_alpha_empties_the_pool(self):
        inst = free_instance([1, 1], [10, 20], budget=5)
        res = residual_instance(inst, alpha=1, epsilon=Epsilon(1, 4), skeleton=())
        assert res.ids == frozenset()

    def test_non_solution_skeleton_raises(self):
        inst = path_matching(2, budget=10)
        with pytest.raises(InfeasibleSetError):
            residual_instance(inst, 5, Epsilon(1, 4), {0, 1})


class TestEptas:
    def test_empty_instance(self):
        sol = solve(free_instance([], []), Epsilon(1, 4))
        assert sol.total_profit == 0
        assert sol.element_ids == ()

    def test_opt_zero_returns_empty(self):
        inst = free_instance([1, 1], [0, 0], budget=5)
        sol = solve(inst, Epsilon(1, 4))
        assert sol.element_ids == ()

    def test_knapsack_like_reaches_opt(self):
        inst = free_instance([6, 5, 5], budget=10)
        sol = solve(inst, Epsilon(1, 10))
        assert sol.total_profit == 10

    def test_incumbent_is_monotone(self):
        inst = generate_instance(5, 10, "matching")
        _, stats = solve_detailed(inst, Epsilon(1, 6))
        profits = stats.incumbent_profits
        assert profits == sorted(profits)

    def test_subset_cap_overflow_raises(self):
        inst = generate_instance(6, 12, "matroid-intersection")
        with pytest.raises(CapExceededError):
            solve_detailed(inst, Epsilon(1, 6), SolveConfig(subset_cap=3))


# sha256 of "{name} {eps} {ids}" per line for ``solve`` on the main corpus at
# eps = 1/10, then 1/4, recorded when alpha's solution became the first
# incumbent.  A change that moves any id must update it on purpose.
MAIN_CORPUS_IDS_SHA256 = "f69952defd45a916917b878d4ca58bb78452e70730b2b1f16b9f93e7b7802948"


class TestSolve:
    def test_ids_on_the_main_corpus_are_pinned(self, main_corpus):
        lines = [f"{name} {eps} {solve(inst, eps).element_ids}"
                 for eps in (Epsilon(1, 10), Epsilon(1, 4)) for name, inst in main_corpus]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MAIN_CORPUS_IDS_SHA256

    def test_epsilon_is_rescaled_by_eight(self):
        inst = free_instance([1], [1], budget=1)
        _, stats = solve_detailed(inst, Epsilon(2, 5))
        # internal parameter 1/20 gives a skeleton cardinality cap of 20
        assert stats.enumerated >= 1  # smoke: ran the rescaled scheme

    def test_profit_never_exceeds_opt(self, opt_cache):
        for seed in (2, 9, 14):
            inst = generate_instance(seed, 10, "matching")
            sol = solve(inst, Epsilon(1, 4))
            assert sol.total_profit <= opt_cache(inst)

    @pytest.mark.parametrize("kind", ["matching", "matroid-intersection"])
    def test_guarantee_on_random_instances(self, kind):
        eps = Epsilon(1, 4)
        for seed in range(8):
            inst = generate_instance(6000 + seed, 9, kind)
            sol = solve(inst, eps)
            opt = brute_force_opt(inst).total_profit
            assert 4 * sol.total_profit >= 3 * opt  # (1 - 1/4) OPT, exact integers

    def test_output_is_validated_against_original_instance(self):
        inst = generate_instance(77, 11, "matching")
        sol = solve(inst, Epsilon(1, 4))
        assert inst.constraint.is_feasible(sol.element_ids)
        assert sol.total_cost <= inst.budget

    def test_deterministic_across_repeats(self):
        inst = generate_instance(31, 12, "matroid-intersection")
        eps = Epsilon(1, 4)
        runs = [solve_detailed(inst, eps)[0] for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_generic_cursor_gives_the_same_ids_on_the_acceptance_corpus(self, main_corpus):
        # The built-in oracles answer pushes from counters and forests; the
        # bare wrappers re-test every grown set.  The answers must agree.
        for eps in (Epsilon(1, 10), Epsilon(1, 4)):
            for name, inst in main_corpus:
                cons = inst.constraint
                if not isinstance(cons, MatroidIntersection):
                    continue
                bare = MatroidIntersection(BareOracle(cons.oracle1), BareOracle(cons.oracle2))
                generic = BCInstance(inst.elements, bare, inst.budget)
                assert solve(generic, eps).element_ids == solve(inst, eps).element_ids, name

    def test_inter_087_reaches_the_optimum_through_alpha(self, main_corpus):
        # No extension reaches alpha = 92 here; the best one is (8,), worth 91.
        inst = dict(main_corpus)["inter-087"]
        assert solve(inst, Epsilon(1, 10)) == brute_force_opt(inst)

    def test_never_below_alpha_on_the_acceptance_corpus(self, main_corpus):
        for eps in (Epsilon(1, 10), Epsilon(1, 4)):
            for name, inst in main_corpus:
                solution, stats = solve_detailed(inst, eps)
                assert solution.total_profit >= stats.alpha, name

    def test_alpha_solution_answers_when_no_extension_reaches_alpha(self, monkeypatch):
        listings = []

        def counting(*args, **kwargs):
            listings.append(args)
            return feasible_subsets_within_budget(*args, **kwargs)

        # With empty extensions every candidate is a skeleton of the
        # representative set alone; alpha's solution holds element 7, which
        # is not in it.
        monkeypatch.setattr(bcopt.solver, "non_profitable_solver", lambda _: Solution.empty())
        monkeypatch.setattr(bcopt.solver, "feasible_subsets_within_budget", counting)
        inst = generate_instance(1, 10, "matroid-intersection")
        solution, stats = solve_detailed(inst, Epsilon(1, 4))
        assert solution.element_ids == approx_opt(preprocess_discard(inst)).element_ids
        assert 7 in solution.element_ids and stats.alpha == solution.total_profit
        assert stats.enumerated > stats.pruned
        assert len(listings) == 1

    def test_a_tie_goes_to_the_smaller_skeleton_key(self, monkeypatch):
        # {1} and {0, 2, 3, 4, 5} are both worth 104.  The walk visits the
        # representative set {0, 1} by descending profit, so it meets the
        # skeleton (1,) before (0,), whose key is smaller and which wins.
        inst = free_instance([50, 60, 2, 2, 2, 2], [100, 104, 1, 1, 1, 1], budget=60)
        # alpha's own solution is that winner; a weaker one leaves the tie
        # to the extensions.
        monkeypatch.setattr(bcopt.solver, "approx_opt",
                            lambda working: Solution.build(working, {0}))
        solution, stats = solve_detailed(inst, Epsilon(1, 4))
        assert solution.element_ids == (0, 2, 3, 4, 5)
        assert stats.incumbent_profits == [100, 104, 104]


def unpruned_solve_ids(instance, epsilon):
    """``solve`` without the skeleton bound: every skeleton's residual is solved.

    The winner is the first extension of maximum profit in (len(F), F) order;
    alpha's solution answers when no extension reaches alpha.
    """
    epsilon = epsilon.scaled_down(8)
    working = preprocess_discard(instance)
    alpha_solution = approx_opt(working)
    alpha = alpha_solution.total_profit
    rep = rep_set(working, epsilon, alpha=alpha)
    best_ids, best_profit = frozenset(), 0
    # Visited in (len(F), F) order, so the strict gain keeps the smaller key.
    listed = feasible_subsets_within_budget(working, sorted(rep.elements),
                                            epsilon.inverse_floor())
    for skeleton in sorted(listed, key=lambda t: (len(t), t)):
        residual = residual_instance(working, alpha, epsilon, skeleton)
        ids = frozenset(skeleton) | non_profitable_solver(residual).id_set
        if working.total_profit(ids) > best_profit:
            best_ids, best_profit = ids, working.total_profit(ids)
    if best_profit < alpha:
        return alpha_solution.element_ids
    return tuple(sorted(best_ids))


def untailed_listing(instance, pool, max_size, cap=None, promising=None, visit=None):
    """The skeleton listing without its sibling-tail cut: every child is tested."""
    cursor = instance.constraint.cursor()
    out, chosen = [], []
    last = len(pool) - 1

    def walk(j, cost):
        if not promising(chosen, j):
            return
        out.append(tuple(chosen))
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


def low_rank(instance, ranks):
    """``instance`` under two uniform matroids of the given ranks."""
    ids = frozenset(instance.cost_of)
    return BCInstance(instance.elements, MatroidIntersection(
        UniformMatroid(ids, ranks[0]), UniformMatroid(ids, ranks[1])), instance.budget)


class TestSkeletonBound:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(3, 9),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        alpha=st.integers(1, 400),
        eps=st.sampled_from([Epsilon(1, 4), Epsilon(1, 10), Epsilon(2, 5)]),
        pick=st.integers(0, 10**6),
    )
    def test_bound_covers_the_best_residual_extension(self, seed, size, kind, alpha, eps, pick):
        inst = preprocess_discard(generate_instance(seed, size, kind))
        skeletons = feasible_subsets_within_budget(inst, inst.sorted_ids(), 3)
        skeleton = skeletons[pick % len(skeletons)]
        pool = small_profit_pool(inst, alpha, eps)
        residual = residual_instance(inst, alpha, eps, skeleton)
        best = inst.total_profit(skeleton) + brute_force_opt(residual).total_profit
        bound = SkeletonBound(inst, pool, ())
        assert bound.bound(skeleton, bound.leaf) >= best

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(3, 8),
        kind=st.sampled_from(["matching", "matroid-intersection"]),
        alpha=st.integers(1, 400),
        eps=st.sampled_from([Epsilon(1, 4), Epsilon(1, 10), Epsilon(2, 5)]),
        rep_mask=st.integers(0, 2**8 - 1),
        by_profit=st.booleans(),
        pick=st.integers(0, 10**6),
    )
    # Edge 2 is worth more than edge 0: a bound that indexed the walk by
    # ascending id would close edge 0 after the prefix (2,).
    @example(seed=2, size=4, kind="matching", alpha=1, eps=Epsilon(1, 4), rep_mask=5,
             by_profit=True, pick=1)
    def test_subtree_bound_covers_every_descendant(self, seed, size, kind, alpha, eps,
                                                   rep_mask, by_profit, pick):
        # The representative set is any subset of the ids, so it may overlap
        # the small-profit pool as it does under the declared gamma = 4.  It
        # is walked by ascending id or, as the solver walks it, by
        # descending profit.
        inst = preprocess_discard(generate_instance(seed, size, kind))
        rep = [i for i in inst.sorted_ids() if rep_mask >> i & 1]
        if by_profit:
            rep.sort(key=lambda i: (-inst.profit_of[i], i))
        listed = feasible_subsets_within_budget(inst, rep, len(rep))
        prefix = listed[pick % len(listed)]
        j = rep.index(prefix[-1]) if prefix else -1
        pool = small_profit_pool(inst, alpha, eps)
        bound = SkeletonBound(inst, pool, rep).bound(list(prefix), j)
        for skeleton in listed:
            if skeleton[:len(prefix)] != prefix:
                continue
            residual = residual_instance(inst, alpha, eps, skeleton)
            best = inst.total_profit(skeleton) + brute_force_opt(residual).total_profit
            assert bound >= best, skeleton

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        size=st.integers(3, 9),
        kind=st.sampled_from(["matching", "matroid-intersection", "low-rank"]),
        ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        alpha=st.integers(1, 400),
        eps=st.sampled_from([Epsilon(1, 4), Epsilon(1, 10), Epsilon(2, 5)]),
        rep_mask=st.integers(0, 2**9 - 1),
        pick=st.integers(0, 10**6),
    )
    def test_tail_bound_covers_every_later_child(self, seed, size, kind, ranks, alpha, eps,
                                                 rep_mask, pick):
        # bound(F | {rep[k2]}, k2) <= bound(F, k) for j < k < k2, j the rep
        # index of F's last id: what lets the walk stop taking F's children
        # once bound(F, k) cannot win.  "low-rank" intersections make the
        # rank cap bind.
        inst = generate_instance(seed, size, kind if kind == "matching" else
                                 "matroid-intersection")
        if kind == "low-rank":
            inst = low_rank(inst, ranks)
        inst = preprocess_discard(inst)
        rep = sorted((i for i in inst.sorted_ids() if rep_mask >> i & 1),
                     key=lambda i: (-inst.profit_of[i], i))
        listed = feasible_subsets_within_budget(inst, rep, len(rep))
        skeleton = listed[pick % len(listed)]
        bound = SkeletonBound(inst, small_profit_pool(inst, alpha, eps), rep)
        j = rep.index(skeleton[-1]) if skeleton else -1
        children = [(k2, skeleton + (rep[k2],)) for k2 in range(j + 1, len(rep))]
        children = [(k2, child) for k2, child in children if child in listed]
        for k in range(j + 1, len(rep)):
            tail = bound.bound(list(skeleton), k)
            for k2, child in children:
                if k2 > k:
                    assert bound.bound(list(child), k2) <= tail, (skeleton, k, k2)

    @pytest.mark.parametrize("ranks", [(2, 3), (3, 2)])
    def test_intersection_subtree_bound_caps_at_the_smaller_rank(self, ranks):
        # Five equal elements and room for all of them: only the rank limits.
        ids = frozenset(range(5))
        uniform = UniformMatroid(ids, ranks[0])
        partition = PartitionMatroid(ids, [frozenset({0, 1, 2}), frozenset({3, 4})],
                                     [ranks[1] - 1, 1])
        inst = BCInstance(make_elements([1] * 5, [7] * 5),
                          MatroidIntersection(uniform, partition), budget=10)
        bound = SkeletonBound(inst, ids, sorted(ids))
        assert bound.bound([], -1) == 2 * 7
        assert bound.bound([0], 0) == 7 + 7
        assert bound.bound([0, 3], 3) == 7 + 7
        # The leaf bound has the same cap; the knapsack alone would give 5 * 7.
        assert bound.leaf == 4
        assert bound.bound((), bound.leaf) == 2 * 7
        assert bound.bound((0,), bound.leaf) == 7 + 7

    def test_subtree_bound_reaches_past_the_pool(self):
        # Path 0-1-2-3-4; the pool is {3}, the representative set {0, 1, 2}.
        inst = path_matching(4, costs=[1, 1, 1, 1], profits=[8, 6, 5, 1], budget=3)
        bound = SkeletonBound(inst, frozenset({3}), [0, 1, 2])
        # Edge 1 touches edge 0; edge 2 is a rep element after index 0.
        assert bound.bound([0], 0) == 8 + 5 + 1
        # Nothing of the representative set lies after edge 2.
        assert bound.bound([2], 2) == 5
        assert bound.bound([], -1) == 8 + 6 + 5
        # The leaf bound sees the pool alone.
        assert bound.leaf == 2
        assert bound.bound((), bound.leaf) == 1
        assert bound.bound((0,), bound.leaf) == 8 + 1

    def test_bound_is_the_fractional_knapsack_value(self):
        # Path 0-1-2-3-4; the pool {0, 1, 2} has densities 3, 2 and 3/2.
        inst = path_matching(4, costs=[2, 2, 2, 1], profits=[6, 4, 3, 1], budget=5)
        bound = SkeletonBound(inst, frozenset({0, 1, 2}), ())
        # Edges 0 and 1 share vertex 1, but the bound ignores the constraint
        # within the pool; one unit of budget is left for half of edge 2.
        assert bound.bound((), bound.leaf) == 6 + 4 + 3 // 2
        # Edge 2 touches the skeleton edge 3 at vertex 3 and leaves the pool.
        assert bound.bound((3,), bound.leaf) == 1 + 6 + 4
        # A zero-cost element is taken before any other, however dense.
        inst = free_instance([3, 0], [6, 1], budget=2)
        bound = SkeletonBound(inst, frozenset({0, 1}), ())
        assert bound.bound((), bound.leaf) == 1 + 6 * 2 // 3

    def test_pruned_plus_residual_solves_is_enumerated(self, monkeypatch):
        solves = []

        def counting(instance):
            solves.append(instance)
            return non_profitable_solver(instance)

        monkeypatch.setattr(bcopt.solver, "non_profitable_solver", counting)
        for seed, kind in ((5, "matching"), (31, "matroid-intersection")):
            solves.clear()
            _, stats = solve_detailed(generate_instance(seed, 12, kind), Epsilon(1, 4))
            assert stats.pruned > 0
            assert stats.pruned + len(solves) == stats.enumerated

    def test_solve_matches_the_unpruned_loop_on_the_acceptance_corpus(self, main_corpus):
        for eps in (Epsilon(1, 10), Epsilon(1, 4)):
            for name, inst in main_corpus:
                assert solve(inst, eps).element_ids == unpruned_solve_ids(inst, eps), name


    def test_the_sibling_tail_cut_leaves_every_visit_as_it_was(self, main_corpus,
                                                               npsolver_corpus, monkeypatch):
        # The cut stops F's loop over its children only when every child it
        # skips would have failed its own test, so the listing, the stats and
        # the answer equal those of a walk that tests every child.
        def run(listing, inst, eps):
            record = {"tests": 0}

            def recording(*args, promising, **kwargs):
                def counted(chosen, j):
                    record["tests"] += 1
                    return promising(chosen, j)

                record["listed"] = listing(*args, promising=counted, **kwargs)
                return record["listed"]

            monkeypatch.setattr(bcopt.solver, "feasible_subsets_within_budget", recording)
            solution, stats = solve_detailed(inst, eps)
            seen = (solution.element_ids, record["listed"], stats.enumerated, stats.pruned,
                    stats.incumbent_profits)
            return seen, record["tests"]

        corpus = [(name, inst, eps) for eps in (Epsilon(1, 10), Epsilon(1, 4))
                  for name, inst in main_corpus]
        corpus += [(name, inst, Epsilon(1, 4)) for name, inst in npsolver_corpus]
        cut_tests = full_tests = 0
        for name, inst, eps in corpus:
            cut, tests = run(feasible_subsets_within_budget, inst, eps)
            cut_tests += tests
            full, tests = run(untailed_listing, inst, eps)
            full_tests += tests
            assert cut == full, (name, eps)
        # The cut fires: the bound is tested less often than child by child.
        assert cut_tests < full_tests
