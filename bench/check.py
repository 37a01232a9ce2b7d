"""Checks of returned solutions that share no code with ``bcopt``.

Feasibility is tested on the plain spec from :mod:`gen`; the optimum comes
from ``scipy.optimize.milp``.  Every check returns a list of problems, empty
when the answer is right.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def _find(parent: dict, x):
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_forest(edges: dict, ids) -> bool:
    parent: dict = {}
    for eid in ids:
        u, v = edges[eid]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def independent(desc: dict, ids) -> bool:
    """Independence in one matroid descriptor, tested from its definition."""
    ids = list(ids)
    if desc["kind"] == "uniform":
        return len(ids) <= desc["rank"]
    if desc["kind"] == "partition":
        chosen = set(ids)
        return all(len(chosen.intersection(block)) <= cap
                   for block, cap in zip(desc["blocks"], desc["capacities"]))
    if desc["kind"] == "graphic":
        return is_forest(desc["edges"], ids)
    raise ValueError(f"unknown matroid kind {desc['kind']!r}")


def feasible(spec: dict, ids) -> bool:
    """``ids`` is a matching of the spec's graph, or independent in both matroids."""
    if spec["kind"] == "matching":
        seen: set = set()
        for eid in ids:
            u, v = spec["edges"][eid]
            if u == v or u in seen or v in seen:
                return False
            seen.update((u, v))
        return True
    return all(independent(desc, ids) for desc in spec["matroids"])


def check_answer(spec: dict, ids, profit: int, cost: int, opt: int) -> list[str]:
    """Every reason the reported answer is wrong for ``spec`` with optimum ``opt``."""
    problems = []
    cost_of = {i: c for i, c, _ in spec["elements"]}
    profit_of = {i: p for i, _, p in spec["elements"]}
    if len(set(ids)) != len(ids) or not set(ids) <= cost_of.keys():
        return [f"ids {ids} repeat or are not elements"]
    if not feasible(spec, ids):
        problems.append("not feasible for the constraint")
    real_cost = sum(cost_of[i] for i in ids)
    real_profit = sum(profit_of[i] for i in ids)
    if real_cost > spec["budget"]:
        problems.append(f"cost {real_cost} over budget {spec['budget']}")
    if real_cost != cost or real_profit != profit:
        problems.append(f"reported cost/profit {cost}/{profit}, recomputed {real_cost}/{real_profit}")
    if real_profit > opt:
        problems.append(f"profit {real_profit} above the optimum {opt}")
    num, den = spec["eps"]
    if real_profit * den < (den - num) * opt:
        problems.append(f"profit {real_profit} below (1 - {num}/{den}) * OPT = {opt}")
    return problems


def optimum(spec: dict) -> tuple[int, list[int]]:
    """Maximum profit within budget, and a set attaining it, by integer programming.

    Graphic matroids get subtour cuts (no more chosen edges inside a vertex
    set than it has vertices minus one) for every cycle in the solution,
    until it is a forest.
    """
    ids = [i for i, _, _ in spec["elements"]]
    col = {eid: k for k, eid in enumerate(ids)}
    n = len(ids)
    rows: list[np.ndarray] = []
    upper: list[float] = []

    def add(members, cap) -> None:
        row = np.zeros(n)
        row[[col[e] for e in members]] = 1.0
        rows.append(row)
        upper.append(cap)

    rows.append(np.array([float(c) for _, c, _ in spec["elements"]]))
    upper.append(spec["budget"])
    graphs = []
    if spec["kind"] == "matching":
        incident: dict = {}
        for eid, (u, v) in spec["edges"].items():
            incident.setdefault(u, []).append(eid)
            incident.setdefault(v, []).append(eid)
        for members in incident.values():
            add(members, 1)
    else:
        for desc in spec["matroids"]:
            if desc["kind"] == "uniform":
                add(ids, desc["rank"])
            elif desc["kind"] == "partition":
                for block, cap in zip(desc["blocks"], desc["capacities"]):
                    add(block, cap)
            else:
                graphs.append(desc["edges"])
    profit = -np.array([float(p) for _, _, p in spec["elements"]])
    while True:
        res = milp(profit, integrality=np.ones(n), bounds=Bounds(0, 1),
                   constraints=LinearConstraint(np.array(rows), -np.inf, np.array(upper)),
                   options={"mip_rel_gap": 0.0, "time_limit": 60.0})
        if res.status != 0:
            raise RuntimeError(f"reference MILP failed on {spec['name']}: {res.message}")
        chosen = [eid for eid in ids if res.x[col[eid]] > 0.5]
        cuts = [c for edges in graphs for c in _cycle_cuts(edges, chosen)]
        if not cuts:
            return sum(p for i, _, p in spec["elements"] if i in set(chosen)), chosen
        for vertices, members in cuts:
            add(members, len(vertices) - 1)


def _cycle_cuts(edges: dict, chosen) -> list[tuple[set, list]]:
    """Subtour cuts for ``chosen``: the vertex set of every cycle it closes and
    of every component holding a cycle, each with all the edges inside it."""
    parent: dict = {}
    adjacent: dict = {}
    sets = []
    for eid in chosen:
        u, v = edges[eid]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            sets.append(_forest_path(adjacent, u, v))
            continue
        parent[ru] = rv
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    comps: dict = {}
    for eid in chosen:
        comps.setdefault(_find(parent, edges[eid][0]), []).append(eid)
    for members in comps.values():
        vertices = {x for eid in members for x in edges[eid]}
        if len(members) >= len(vertices):
            sets.append(vertices)
    return [(vs, [eid for eid, (u, v) in edges.items() if u in vs and v in vs]) for vs in sets]


def _forest_path(adjacent: dict, u, v) -> set:
    """Vertices on the path from u to v in a forest given by adjacency lists."""
    previous = {u: None}
    frontier = [u]
    while v not in previous:
        x = frontier.pop()
        for y in adjacent.get(x, ()):
            if y not in previous:
                previous[y] = x
                frontier.append(y)
    path = set()
    while v is not None:
        path.add(v)
        v = previous[v]
    return path
