"""Seeded instance generator owned by the benchmark.

Instances are plain data (dicts, lists, ints) so that both the solving
process, which turns them into ``bcopt`` objects, and the checking process,
which never imports ``bcopt``, read the same inputs.  Nothing here depends on
``bcopt``: a change to the package's own generator or test fixtures cannot
change a workload.

Every draw comes from a ``random.Random`` seeded with a string that names the
workload, the seed, the round and the slot, so one instance never depends on
how many others were generated before it.

A spec looks like::

    {"name": "uniform-matching-r0-s3", "kind": "matching", "eps": [1, 4], "budget": 812,
     "elements": [[id, cost, profit], ...],
     "vertices": 30, "edges": {id: [u, v], ...}}            # matching
     "matroids": [descriptor, descriptor]}                 # intersection

with matroid descriptors ``{"kind": "uniform", "rank": r}``,
``{"kind": "partition", "blocks": [[ids], ...], "capacities": [...]}`` and
``{"kind": "graphic", "vertices": v, "edges": {id: [u, v]}}``.  Ids missing
from every partition block are unconstrained.
"""

from __future__ import annotations

import hashlib
import json
import random

# One round of each workload: (kind, size, eps, matroid kinds) slots, solved
# in this order.  Everything that moves a solve's cost by an order of
# magnitude (size, graph density, matroid kinds, rank) is fixed per slot or
# drawn from a narrow band, so rounds weigh about the same whatever the
# seed.  Sizes span a narrow band just below the wall, where solve times
# overlap, so the median of a run does not jump between slots.
_PAIRS = [("uniform", "partition"), ("partition", "graphic"), ("graphic", "uniform"),
          ("partition", "partition"), ("graphic", "graphic"), ("uniform", "graphic"),
          ("partition", "uniform"), ("graphic", "partition")]
# Per pair, the size at which one solve took about 0.06 s of CPU time when
# the workload was defined.
_PAIR_SIZES = [14, 14, 13, 14, 13, 13, 14, 14]
_EPS = [(1, 4), (1, 10)]

ROUND_SLOTS = {
    "uniform-matching": [
        ("matching", 17 + k % 2, _EPS[(k + k // 4) % 2], None) for k in range(8)
    ],
    "uniform-intersection": [
        ("intersection", n, _EPS[(k + k // 4) % 2], _PAIRS[k])
        for k, n in enumerate(_PAIR_SIZES)
    ],
    "lowprofit": [
        # Four intersections to two matchings, so that the median solve lies
        # among the intersections rather than in the gap between the kinds.
        ("lowprofit-matching", 80, (1, 4), None),
        ("lowprofit-matching", 100, (1, 4), None),
        ("lowprofit-intersection", 40, (1, 4), ("graphic", "partition")),
        ("lowprofit-intersection", 45, (1, 4), ("partition", "graphic")),
        ("lowprofit-intersection", 50, (1, 4), ("partition", "partition")),
        ("lowprofit-intersection", 55, (1, 4), ("uniform", "partition")),
        ("fault-repro", 22, (1, 4), None),
    ],
}

# Rounds generated for a timed run (one that gets through them all starts
# over), and rounds solved by a traced run, which does a fixed amount of
# work so that its counts repeat exactly for a seed.
POOL_ROUNDS = {"uniform-matching": 100, "uniform-intersection": 100, "lowprofit": 100}
TRACE_ROUNDS = {"uniform-matching": 10, "uniform-intersection": 15, "lowprofit": 8}


def workload(name: str, seed: int, trace: bool = False) -> list[list[dict]]:
    """Every round a run of ``name`` may solve, for ``seed``."""
    rounds = TRACE_ROUNDS[name] if trace else POOL_ROUNDS[name]
    return [workload_round(name, seed, r) for r in range(rounds)]


def workload_round(workload: str, seed: int, round_no: int) -> list[dict]:
    """The instances of one round, in solving order."""
    if workload not in ROUND_SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for slot, (kind, n, eps, matroids) in enumerate(ROUND_SLOTS[workload]):
        rng = random.Random(f"{workload}:{seed}:{round_no}:{slot}")
        spec = _BUILDERS[kind](rng, n, matroids)
        spec["name"] = f"{workload}-r{round_no}-s{slot}"
        spec["eps"] = list(eps)
        out.append(spec)
    return out


def digest(specs: list[dict]) -> str:
    """Short SHA-256 of the canonical JSON of ``specs``, to make drift visible."""
    blob = json.dumps(specs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _uniform_elements(rng: random.Random, n: int) -> list[list[int]]:
    return [[i, rng.randint(1, 100), rng.randint(1, 100)] for i in range(n)]


def _budget(rng: random.Random, elements: list[list[int]], low: int = 25, high: int = 75) -> int:
    """A seeded share, in percent between ``low`` and ``high``, of the total cost."""
    return sum(c for _, c, _ in elements) * rng.randint(low, high) // 100


def _random_pairs(rng: random.Random, vertices: int, count: int, offset: int = 0) -> list[list[int]]:
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    return [[u + offset, v + offset] for u, v in rng.sample(pairs, count)]


def _matching(rng: random.Random, n: int, _matroids=None) -> dict:
    elements = _uniform_elements(rng, n)
    # As many vertices as edges: the graph's density mostly sets
    # the skeleton count, so it is fixed to keep the mix steady across seeds.
    vertices = n
    edges = _random_pairs(rng, vertices, n)
    return {"kind": "matching", "elements": elements, "budget": _budget(rng, elements),
            "vertices": vertices, "edges": {i: edges[i] for i in range(n)}}


def _random_matroid(rng: random.Random, kind: str, ids: list[int]) -> dict:
    """A random matroid of the given kind with rank about 2n/5.

    Rank drives the number of feasible skeletons, and with it a solve's
    cost, so only the structure (block membership, edges) is drawn.
    """
    n = len(ids)
    if kind == "uniform":
        return {"kind": "uniform", "rank": (2 * n) // 5}
    if kind == "partition":
        order = list(ids)
        rng.shuffle(order)
        blocks = [sorted(order[k::3]) for k in range(3)]
        return {"kind": "partition", "blocks": blocks,
                "capacities": [(2 * len(b)) // 5 for b in blocks]}
    vertices = (3 * n) // 5
    edges = {}
    for eid in ids:
        u, v = rng.sample(range(vertices), 2)
        edges[eid] = [u, v]
    return {"kind": "graphic", "vertices": vertices, "edges": edges}


def _intersection(rng: random.Random, n: int, matroids: tuple[str, str]) -> dict:
    elements = _uniform_elements(rng, n)
    ids = list(range(n))
    return {"kind": "intersection", "elements": elements, "budget": _budget(rng, elements),
            "matroids": [_random_matroid(rng, kind, ids) for kind in matroids]}


# Low-profit instances: a handful of elements worth hundreds, the rest worth
# units, so the profitable skeletons are few and every residual instance is
# larger than the exact fallback's 20 elements.  The budget is tight enough
# that a residual's unconstrained optimum never fits, so the multiplier
# bisection runs on every residual rather than on some seeds' only.
_HIGH = 3
_LOW_BUDGET = (10, 20)


def _lowprofit_elements(rng: random.Random, n: int) -> list[list[int]]:
    """High profits of at least 700, low ones of at most 9.

    Every element is affordable alone, so the optimum estimate is at least
    700, and a profit of 9 stays below the lowest profit class at eps = 1/32
    (9 / (2 * 700) < (1/128) * (31/32)).  Skeletons thus hold high-profit
    elements only.
    """
    high = set(rng.sample(range(n), _HIGH))
    return [[i, rng.randint(5, 40), rng.randint(700, 900) if i in high else rng.randint(1, 9)]
            for i in range(n)]


def _lowprofit_matching(rng: random.Random, n: int, _matroids=None) -> dict:
    elements = _lowprofit_elements(rng, n)
    vertices = (3 * n) // 4
    edges = _random_pairs(rng, vertices, n)
    return {"kind": "matching", "elements": elements, "budget": _budget(rng, elements, *_LOW_BUDGET),
            "vertices": vertices, "edges": {i: edges[i] for i in range(n)}}


def _lowprofit_intersection(rng: random.Random, n: int, matroids: tuple[str, str]) -> dict:
    """Random matroids in which the high-profit elements form a direct summand.

    No skeleton (a set of high-profit elements) then spans a low-profit
    element, so these instances stay clear of the candidate-pool fault that
    ``fault-repro`` exhibits, whatever the seed.
    """
    elements = _lowprofit_elements(rng, n)
    high = sorted(i for i, _, p in elements if p >= 200)
    low = sorted(i for i, _, p in elements if p < 200)
    return {"kind": "intersection", "elements": elements, "budget": _budget(rng, elements, *_LOW_BUDGET),
            "matroids": [_summand_matroid(rng, kind, high, low) for kind in matroids]}


def _summand_matroid(rng: random.Random, kind: str, high: list[int], low: list[int]) -> dict:
    """Rank about 5/12 of the low-profit elements, plus the high summand.

    Ranks and capacities are fixed fractions, not draws: they set the number
    of skeletons and the size of each inner optimum, and with them a solve's
    cost.
    """
    m = len(low)
    if kind == "uniform":
        # Rank above the largest skeleton, so contracting one never spans.
        return {"kind": "uniform", "rank": len(high) + (5 * m) // 12}
    if kind == "partition":
        order = list(low)
        rng.shuffle(order)
        blocks = [sorted(order[k::3]) for k in range(3)]
        caps = [(5 * len(b)) // 12 for b in blocks]
        return {"kind": "partition", "blocks": blocks + [high],
                "capacities": caps + [len(high) - 1]}
    # Low-profit edges on one vertex range, high-profit edges on another.
    low_vertices = (5 * m) // 8
    high_vertices = len(high) + 1
    edges = {}
    for eid in low:
        edges[eid] = rng.sample(range(low_vertices), 2)
    for eid in high:
        u, v = rng.sample(range(high_vertices), 2)
        edges[eid] = [low_vertices + u, low_vertices + v]
    return {"kind": "graphic", "vertices": low_vertices + high_vertices, "edges": edges}


def _fault_repro(rng: random.Random, n: int, _matroids=None) -> dict:
    """Fixed instance on which ``solve`` raises InfeasibleSetError (see README).

    Element 0 is worth far more than the rest and shares a capacity-1
    partition block with element 1.  The skeleton {0} leaves a residual of
    n - 1 > 20 low-profit elements, so the Lagrangian path runs and offers
    the singleton {1}, which the contracted constraint rejects.  The random
    generator is not used: the instance is the same for every seed.
    """
    del rng, _matroids
    ids = list(range(n))
    elements = [[0, 1, 500]] + [[i, 1 + i % 3, 1 + i % 5] for i in ids[1:]]
    return {"kind": "intersection", "elements": elements, "budget": sum(c for _, c, _ in elements),
            "matroids": [{"kind": "partition", "blocks": [[0, 1]], "capacities": [1]},
                         {"kind": "uniform", "rank": n}]}


_BUILDERS = {
    "matching": _matching,
    "intersection": _intersection,
    "lowprofit-matching": _lowprofit_matching,
    "lowprofit-intersection": _lowprofit_intersection,
    "fault-repro": _fault_repro,
}


if __name__ == "__main__":
    # Digests of the inputs of seeds 1 to 3, as recorded in the README.
    for name in ROUND_SLOTS:
        for seed in (1, 2, 3):
            print(f"{name:22s} seed {seed}  timed {digest(workload(name, seed))}"
                  f"  traced {digest(workload(name, seed, trace=True))}")
