"""Tests of the benchmark's own parts: checks, reference optimum, generator, pace, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _spec(kind="matching", **extra) -> dict:
    spec = {"name": "t", "kind": kind, "eps": [1, 4], "budget": 10,
            "elements": [[0, 3, 5], [1, 3, 5], [2, 3, 5], [3, 3, 5]]}
    spec.update(extra)
    return spec


PATH = _spec(vertices=5, edges={0: [0, 1], 1: [1, 2], 2: [2, 3], 3: [3, 4]})


def _brute_force(spec: dict) -> int:
    ids = [i for i, _, _ in spec["elements"]]
    cost = {i: c for i, c, _ in spec["elements"]}
    profit = {i: p for i, _, p in spec["elements"]}
    best = 0
    for k in range(len(ids) + 1):
        for subset in itertools.combinations(ids, k):
            if sum(cost[i] for i in subset) <= spec["budget"] and check.feasible(spec, subset):
                best = max(best, sum(profit[i] for i in subset))
    return best


class TestChecksRejectWrongAnswers:
    def test_accepts_an_optimal_matching(self):
        opt, ids = check.optimum(PATH)
        assert opt == 10
        assert check.check_answer(PATH, ids, 10, 6, opt) == []

    def test_non_matching(self):
        assert check.check_answer(PATH, [0, 1], 10, 6, 10)  # share vertex 1

    def test_dependent_sets(self):
        for desc, ids in [
            ({"kind": "uniform", "rank": 1}, [0, 1]),
            ({"kind": "partition", "blocks": [[0, 1], [2, 3]], "capacities": [1, 2]}, [0, 1]),
            ({"kind": "graphic", "vertices": 3,
              "edges": {0: [0, 1], 1: [1, 2], 2: [2, 0], 3: [0, 1]}}, [0, 1, 2]),
        ]:
            free = {"kind": "uniform", "rank": 4}
            spec = _spec("intersection", matroids=[free, desc])
            profit = 5 * len(ids)
            assert check.check_answer(spec, ids, profit, 3 * len(ids), profit), desc["kind"]

    def test_over_budget(self):
        spec = _spec(vertices=8, edges={0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [6, 7]})
        assert check.check_answer(spec, [0, 1, 2, 3], 20, 12, 20)

    def test_profit_below_one_minus_eps_of_opt(self):
        # OPT = 10; at eps = 1/4 one edge (profit 5 < 7.5) is not enough.
        assert check.check_answer(PATH, [0], 5, 3, 10)

    def test_misreported_profit(self):
        assert check.check_answer(PATH, [0, 2], 11, 6, 10)


@pytest.mark.parametrize("workload", ["uniform-matching", "uniform-intersection"])
def test_reference_optimum_matches_brute_force(workload):
    rng = random.Random(workload)
    for spec in gen.workload_round(workload, 7, 0)[:4]:
        # Shrink to brute-force size, keeping the structure on the sampled ids.
        keep = sorted(rng.sample(range(len(spec["elements"])), min(10, len(spec["elements"]))))
        small = _restrict(spec, keep)
        opt, ids = check.optimum(small)
        assert opt == _brute_force(small), small
        assert check.feasible(small, ids)


def _restrict(spec: dict, keep: list[int]) -> dict:
    out = dict(spec, elements=[e for e in spec["elements"] if e[0] in keep])
    out["budget"] = sum(e[1] for e in out["elements"]) // 2
    if spec["kind"] == "matching":
        out["edges"] = {e: uv for e, uv in spec["edges"].items() if e in keep}
        return out
    mats = []
    for d in spec["matroids"]:
        if d["kind"] == "partition":
            d = dict(d, blocks=[[e for e in b if e in keep] for b in d["blocks"]])
        elif d["kind"] == "graphic":
            d = dict(d, edges={e: uv for e, uv in d["edges"].items() if e in keep})
        mats.append(d)
    out["matroids"] = mats
    return out


def test_graphic_reference_adds_cycle_cuts():
    # A triangle plus a pendant edge; without cuts the MILP would take all four.
    spec = _spec("intersection", budget=100, matroids=[
        {"kind": "uniform", "rank": 4},
        {"kind": "graphic", "vertices": 4, "edges": {0: [0, 1], 1: [1, 2], 2: [2, 0], 3: [2, 3]}},
    ])
    opt, ids = check.optimum(spec)
    assert opt == 15 and check.feasible(spec, ids)


class TestGenerator:
    def test_same_seed_same_inputs(self):
        for workload in gen.ROUND_SLOTS:
            assert gen.digest(gen.workload_round(workload, 3, 1)) == \
                gen.digest(gen.workload_round(workload, 3, 1))
            assert gen.digest(gen.workload_round(workload, 3, 1)) != \
                gen.digest(gen.workload_round(workload, 4, 1))

    def test_fault_repro_does_not_depend_on_the_seed(self):
        specs = [gen.workload_round("lowprofit", seed, r)[-1] for seed in (1, 2) for r in (0, 5)]
        assert len({gen.digest([dict(s, name="")]) for s in specs}) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lowprofit_skeletons_span_no_low_element(self, seed):
        """Any feasible set of high-profit elements stays feasible with any low one added."""
        for slot, spec in enumerate(gen.workload_round("lowprofit", seed, 0)):
            if gen.ROUND_SLOTS["lowprofit"][slot][0] != "lowprofit-intersection":
                continue
            high = [i for i, _, p in spec["elements"] if p >= 200]
            low = [i for i, _, p in spec["elements"] if p < 200]
            assert len(high) == gen._HIGH and len(low) > 20
            # No low-profit element is classed, so skeletons hold high ones only.
            profit = {i: p for i, _, p in spec["elements"]}
            assert max(profit[e] for e in low) * 128 * 32 < 2 * max(profit[e] for e in high) * 31
            for k in range(len(high) + 1):
                for skel in itertools.combinations(high, k):
                    if check.feasible(spec, skel):
                        assert all(check.feasible(spec, skel + (e,)) for e in low)


def test_pace_factor_is_reference_over_median_of_nearby_kernel_times():
    paced = pace.Pace()
    # Seven units; the fourth kernel run was slowed by an interrupt.
    paced.samples = [0.02, 0.02, 0.02, 0.5, 0.02, 0.04, 0.04, 0.04]
    factors = paced.factors()
    assert len(factors) == 7
    assert factors[0] == factors[1] == pytest.approx(pace.REFERENCE_S / 0.02)
    assert factors[6] == pytest.approx(pace.REFERENCE_S / 0.04)


class TestTracer:
    def _pool(self):
        bc = worker.import_bcopt()
        specs = gen.workload_round("uniform-intersection", 1, 0)[:2] + \
            gen.workload_round("lowprofit", 1, 0)[:1]
        return bc, [[worker.build(bc, s) for s in specs]]

    def test_missing_hook_stops_the_trace(self, monkeypatch):
        bc, _ = self._pool()
        import bcopt.solver
        monkeypatch.delattr(bcopt.solver, "non_profitable_solver")
        tracer = spans.Tracer()
        with pytest.raises(spans.TraceError, match="non_profitable_solver"):
            tracer.install()
        assert not tracer._saved

    def test_traced_ids_match_and_spans_add_up(self):
        bc, pool = self._pool()
        plain, traced = [], []
        worker.solve_round(bc, pool, 0, plain)
        tracer = spans.Tracer()
        tracer.install()
        try:
            worker.solve_round(bc, pool, 0, traced, tracer)
        finally:
            tracer.uninstall()
        assert [a["ids"] for a in plain] == [a["ids"] for a in traced]
        roots = tracer.root_seconds()
        metrics = tracer.metrics(roots, roots)
        assert set(metrics) == set(spans.PER_LAYER)
        assert metrics["enumeration.skeletons"] > 0
        assert metrics["matroids.independence_calls"] > 0
        assert metrics["lagrange.residual_lagrangian"] > 0
        assert bc.solver.non_profitable_solver is not None
        assert not hasattr(bc.solver.non_profitable_solver, "__wrapped__")
