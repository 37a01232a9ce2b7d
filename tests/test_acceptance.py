"""Acceptance criteria, one test per criterion, exact-integer comparisons.

Every check runs against the brute-force oracle on seeded corpora; a
criterion passes only with zero violations at its stated tolerance.  Each
test prints one PASS line (failures raise with full context).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bcopt.core import Epsilon, preprocess_discard
from bcopt.cli import dump_instance, generate_instance
from bcopt.classes import ClassLayout, class_partition, q_of
from bcopt.constraints import Matching, MatroidIntersection, residual_constraint
from bcopt.exchange import exset_matching, exset_matroid_intersection
from bcopt.lagrange import GAMMA, approx_opt, non_profitable_solver
from bcopt.matroids import greedy_min_cost
from bcopt.oracle import (
    brute_force_opt,
    verify_exchange_set,
    verify_representative,
    weak_exchange_extend,
)
from bcopt.repset import exchange_sets, rep_set
from bcopt.solver import solve

from conftest import exact_rep_set, exchange_witness, random_matroid, scanned_class_bounds


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_end_to_end_approximation(main_corpus, opt_cache):
    """solve(eps) profit >= (1 - eps) * OPT on 200 instances, eps in {1/10, 1/4}."""
    start = time.perf_counter()
    violations = []
    for eps in (Epsilon(1, 10), Epsilon(1, 4)):
        for name, inst in main_corpus:
            got = solve(inst, eps)
            opt = opt_cache(inst)
            assert got.total_profit <= opt, f"{name}: beat the brute-force oracle"
            # exact integers: profit * den >= (den - num) * opt
            if got.total_profit * eps.denominator < (eps.denominator - eps.numerator) * opt:
                violations.append((name, str(eps), got.total_profit, opt))
    elapsed = time.perf_counter() - start
    assert not violations, f"approximation violations: {violations[:5]}"
    _report("1 end-to-end (1-eps)*OPT", f"400 runs in {elapsed:.1f}s")


def test_criterion_2_representative_property(main_corpus):
    """rep_set output admits a solution with profit >= (1 - 4 eps) * OPT."""
    violations = []
    for eps in (Epsilon(1, 10), Epsilon(1, 8)):
        for name, inst in main_corpus:
            working = preprocess_discard(inst)
            rep = rep_set(working, eps)  # default lagrangian estimate
            report = verify_representative(working, eps, rep.elements,
                                               brute_force_opt(working).total_profit)
            if not report.passed:
                violations.append((name, str(eps), report.counterexample))
    assert not violations, f"representative violations: {violations[:5]}"
    _report("2 representative (1-4eps)*OPT", "200 instances x 2 eps")


def test_criterion_3_exchange_set_definition(main_corpus):
    """Exhaustive swap-property check for every profit class, |E| <= 10."""
    checked = 0
    for eps in (Epsilon(1, 4), Epsilon(1, 10)):
        for name, inst in main_corpus:
            if len(inst.elements) > 10:
                continue
            working = preprocess_discard(inst)
            alpha = brute_force_opt(working).total_profit
            if alpha == 0:
                continue
            layout = ClassLayout(eps, alpha)
            partition = class_partition(working, layout)
            is_matching = isinstance(working.constraint, Matching)
            for r, ids in sorted(partition.items()):
                if is_matching:
                    ex = exset_matching(working, layout, ids)
                else:
                    ex = exset_matroid_intersection(working, layout, ids)
                report = verify_exchange_set(working, layout, r, ex)
                assert report.passed, (name, str(eps), r, report.counterexample)
                checked += 1
    assert checked > 100
    _report("3 exchange-set definition", f"{checked} class checks, 0 counterexamples")


def test_criterion_4_size_bounds(main_corpus):
    """Matching caps: per-round <= 3q, rounds <= 6q, |X| <= 18q^2, |R| <= 54q^3."""
    eps = Epsilon(1, 4)
    q = q_of(eps)
    checked_rounds = 0
    for name, inst in main_corpus:
        if not isinstance(inst.constraint, Matching):
            continue
        working = preprocess_discard(inst)
        rep = exact_rep_set(working, eps)  # gamma = 2
        assert rep.size <= 54 * q**3, name
        if rep.layout is None:
            continue
        for r, ex in exchange_sets(working, rep.layout).items():
            assert len(ex) <= 18 * q * q, (name, r)
            # replay the rounds to check the per-round cap
            pool = set(class_partition(working, rep.layout)[r])
            rounds = 0
            while pool and rounds < 6 * q:
                matched = greedy_min_cost(working.constraint.cursor(), pool,
                                          working.cost_of, 3 * q)
                if not matched:
                    break
                assert len(matched) <= 3 * q
                pool -= matched
                rounds += 1
                checked_rounds += 1
            assert rounds <= 6 * q
    assert checked_rounds > 0
    _report("4 size bounds", f"{checked_rounds} greedy rounds replayed")


def test_criterion_5_npsolver_contract(npsolver_corpus):
    """profit >= OPT - 2 max p(e), exact fallback on and off; zero violations."""
    violations = []
    for name, inst in npsolver_corpus:
        working = preprocess_discard(inst)
        opt = brute_force_opt(working).total_profit
        max_p = max((e.profit for e in working.elements), default=0)
        for label, solver in (("exact", non_profitable_solver),
                              ("heuristic", approx_opt)):
            got = solver(working)
            assert got.total_profit <= opt, f"{name}: beat the brute-force oracle"
            if got.total_profit < opt - 2 * max_p:
                violations.append((name, label, got.total_profit, opt, max_p))
    assert not violations, f"contract violations: {violations[:5]}"
    _report("5 low-profit solver contract", "100 instances x 2 modes")


def test_criterion_6_alpha_contract(main_corpus, opt_cache):
    """OPT / GAMMA <= alpha <= OPT, with GAMMA = 4."""
    for name, inst in main_corpus:
        working = preprocess_discard(inst)
        opt = opt_cache(inst)
        alpha = approx_opt(working).total_profit
        assert alpha <= opt, (name, alpha, opt)
        assert GAMMA * alpha >= opt, (name, alpha, opt)
    _report("6 alpha contract", "OPT/4 <= alpha <= OPT on 200")


def test_criterion_7_structural_properties():
    """Seven structural invariants, >= 1000 random cases each, |E| <= 10."""
    cases = 1000

    # matroid axioms for every concrete family
    rng = random.Random(100)
    from bcopt.oracle import check_matroid_axioms

    for _ in range(cases):
        ids = frozenset(range(rng.randint(0, 6)))
        report = check_matroid_axioms(random_matroid(rng, ids), guard=12)
        assert report.passed, report.counterexample

    # greedy minimum basis: cheaper basis prefix blocks every outsider
    rng = random.Random(101)
    for _ in range(cases):
        ids = frozenset(range(rng.randint(1, 10)))
        m = random_matroid(rng, ids)
        cost = {i: rng.randint(0, 9) for i in ids}
        basis = greedy_min_cost(m.cursor(), m.ground_ids, cost)
        for a in ids - basis:
            if m.is_independent({a}):
                blocker = {e for e in basis if cost[e] <= cost[a]}
                assert not m.is_independent(blocker | {a})

    # exchange witness: when B + a is dependent some b in B repairs A - a + b
    rng = random.Random(102)
    found = 0
    trials = 0
    while found < cases and trials < 20 * cases:
        trials += 1
        ids = frozenset(range(rng.randint(2, 10)))
        m = random_matroid(rng, ids)
        a_set = _random_independent(rng, m, ids)
        b_set = _random_independent(rng, m, ids)
        picks = sorted(a_set - b_set)
        if not picks:
            continue
        a = rng.choice(picks)
        if m.is_independent(b_set | {a}):
            continue
        b = exchange_witness(m, a_set, b_set, a)
        assert b in b_set - a_set
        assert m.is_independent((a_set - {a}) | {b})
        found += 1
    assert found >= cases

    # weak exchange: exact size max(|A| - 2|B|, 0), union stays feasible
    rng = random.Random(103)
    for trial in range(cases):
        n = rng.randint(0, 10)
        ids = frozenset(range(n))
        if trial % 2 == 0:
            vertices = rng.randint(2, max(2, n + 2))
            cons = Matching(vertices, {
                i: (rng.randrange(vertices), rng.randrange(vertices)) for i in ids
            })
        else:
            cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
        a_set = _random_feasible(rng, cons, ids)
        b_set = _random_feasible(rng, cons, ids)
        d = weak_exchange_extend(cons, a_set, b_set)
        assert len(d) == max(len(a_set) - 2 * len(b_set), 0)
        assert d <= a_set - b_set
        assert cons.is_feasible(b_set | d)

    # unique class membership inside the covered ratio interval
    rng = random.Random(104)
    from bcopt.core import Element
    from bcopt.classes import class_index

    for _ in range(cases):
        den = rng.randint(3, 12)
        num = rng.randint(1, (den - 1) // 2)
        eps = Epsilon(num, den)
        gamma = Fraction(rng.choice((2, 4)))
        alpha = rng.randint(1, 10**4)
        layout = ClassLayout(eps, alpha, gamma)
        profit = rng.randint(0, 3 * alpha)
        ratio = Fraction(profit, 2 * alpha)
        r = class_index(Element(0, 0, profit), layout)
        r_lo, r_hi, _ = scanned_class_bounds(eps, gamma)
        base = eps.one_minus
        hits = [rr for rr in range(r_lo, r_hi + 1) if base**rr < ratio <= base**(rr - 1)]
        assert len(hits) <= 1
        assert (r is None and not hits) or [r] == hits

    # class-count bound 3 / eps^2 at gamma = 2
    rng = random.Random(105)
    for _ in range(cases):
        den = rng.randint(3, 40)
        num = rng.randint(1, (den - 1) // 2)
        eps = Epsilon(num, den)
        layout = ClassLayout(eps, alpha=rng.randint(1, 100))
        n, d = eps.numerator, eps.denominator
        assert layout.class_count * n * n <= 3 * d * d

    # residual soundness and completeness, exhaustive per sampled skeleton
    rng = random.Random(106)
    for trial in range(cases):
        n = rng.randint(0, 8)
        ids = frozenset(range(n))
        if trial % 2 == 0:
            vertices = rng.randint(2, max(2, n + 2))
            cons = Matching(vertices, {
                i: (rng.randrange(vertices), rng.randrange(vertices)) for i in ids
            })
        else:
            cons = MatroidIntersection(random_matroid(rng, ids), random_matroid(rng, ids))
        skeleton = _random_feasible(rng, cons, ids)
        residual = residual_constraint(cons, skeleton)
        ground = sorted(residual.element_ids())
        import itertools

        for size in range(len(ground) + 1):
            for combo in itertools.combinations(ground, size):
                t = frozenset(combo)
                joint = cons.is_feasible(t | skeleton)
                if residual.is_feasible(t):
                    assert joint  # soundness
                elif joint:
                    pytest.fail(f"completeness hole: {sorted(t)} + {sorted(skeleton)}")
    _report("7 structural invariants", "7 properties x >= 1000 cases")


def _random_independent(rng, oracle, ids):
    chosen = set()
    for eid in rng.sample(sorted(ids), len(ids)):
        if rng.random() < 0.6 and oracle.is_independent(chosen | {eid}):
            chosen.add(eid)
    return frozenset(chosen)


def _random_feasible(rng, cons, ids):
    chosen = set()
    for eid in rng.sample(sorted(ids), len(ids)):
        if rng.random() < 0.6 and cons.is_feasible(chosen | {eid}):
            chosen.add(eid)
    return frozenset(chosen)


def test_criterion_8_determinism(tmp_path):
    """Byte-identical serialized outputs over 3 repeats."""
    picks = [
        generate_instance(0, 12, "matching"),
        generate_instance(1, 13, "matching"),
        generate_instance(1000, 12, "matroid-intersection"),
        generate_instance(1001, 14, "matroid-intersection"),
    ]
    eps = Epsilon(1, 4)
    for idx, inst in enumerate(picks):
        blobs = set()
        rep_blobs = set()
        for run in range(3):
            sol = solve(inst, eps)
            blobs.add(json.dumps({
                "ids": list(sol.element_ids),
                "profit": sol.total_profit,
                "cost": sol.total_cost,
            }, sort_keys=True))
            working = preprocess_discard(inst)
            rep = exact_rep_set(working, eps)
            rep_blobs.add(json.dumps({
                "alpha": rep.alpha,
                "elements": sorted(rep.elements),
                "per_class": {str(r): sorted(ex)
                              for r, ex in exchange_sets(working, rep.layout).items()},
            }, sort_keys=True))
        assert len(blobs) == 1, f"instance {idx}: solve output varied"
        assert len(rep_blobs) == 1, f"instance {idx}: rep_set output varied"

    # CLI records must match across repeated runs too (timings excluded)
    path = tmp_path / "det.json"
    path.write_text(dump_instance(picks[0]))
    records = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "bcopt.cli", "solve", str(path), "--epsilon", "1/4"],
            capture_output=True, text=True, check=True,
        )
        record = json.loads(proc.stdout)
        record.pop("ms_total")
        records.add(json.dumps(record, sort_keys=True))
    assert len(records) == 1
    _report("8 determinism", "4 instances x 3 repeats, 2 CLI runs")
