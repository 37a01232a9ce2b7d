"""The (1 - eps) guarantee at the sizes the walls claim, past the brute-force guard.

The instances are ``bench/wall.py``'s, built through ``bench/worker.build``;
OPT is ``bench/check.optimum``, a scipy MILP that adds cycle cuts for graphic
matroids.  The rule is fixed, not chosen by outcome: n in {30, 32, 34, 36},
seeds 1-3, both kinds, eps in {1/4, 1/10}.  Every solve takes well under a
second but the matching 36/1 at eps = 1/4, which takes 2-3 s; larger
wall sizes take seconds per solve and are left to ``bench/wall.py``.
"""

import sys
from pathlib import Path

import pytest

import bcopt
from bcopt.solver import solve_detailed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import check  # noqa: E402
import wall  # noqa: E402
import worker  # noqa: E402

CASES = [(n, seed) for n in (30, 32, 34, 36) for seed in (1, 2, 3)]


@pytest.mark.parametrize("kind", ["matching", "intersection"])
@pytest.mark.parametrize("eps", [(1, 4), (1, 10)], ids=["1/4", "1/10"])
def test_solve_is_within_eps_of_the_milp_optimum(eps, kind):
    num, den = eps
    for n, seed in CASES:
        spec = dict(wall.spec_for(kind, n, seed), eps=[num, den])
        instance, epsilon = worker.build(bcopt, spec)
        solution, stats = solve_detailed(instance, epsilon)
        opt, _ = check.optimum(spec)
        case = (kind, n, seed, eps)
        assert check.check_answer(spec, list(solution.element_ids), solution.total_profit,
                                  solution.total_cost, opt) == [], case
        assert solution.total_profit * den >= (den - num) * opt, case
        assert stats.alpha <= opt <= 4 * stats.alpha, case
