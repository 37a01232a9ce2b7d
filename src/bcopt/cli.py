"""Command-line interface: generate, solve, verify, benchmark.

Instance files are JSON with exact integers.  Epsilon travels as a
``num/den`` string end to end, so no precision is lost between the shell and
the solver.  Exit codes: 0 success, 1 a verification ran and failed, 2
invalid input, 3 a work cap overflowed, 4 an exhaustive verifier was asked to
run above its size guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    BCError,
    BCInstance,
    CapExceededError,
    Element,
    Epsilon,
    GuardExceededError,
    InvalidParameterError,
    Solution,
    preprocess_discard,
    validate_instance,
)
from .classes import ClassLayout
from .constraints import Constraint, Matching, MatroidIntersection
from .exchange import DEFAULT_BRANCH_BUDGET
from .lagrange import approx_opt, declared_gamma
from .matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from .repset import rep_set
from .solver import DEFAULT_SUBSET_CAP, SolveConfig, SolveStats, solve_detailed
from . import oracle

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_CAP_OVERFLOW = 3
EXIT_GUARD_EXCEEDED = 4


# ---------------------------------------------------------------------------
# Instance file serialization


def instance_to_json(instance: BCInstance) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "elements": [
            {"id": e.id, "cost": e.cost, "profit": e.profit} for e in instance.elements
        ],
        "constraint": _constraint_to_json(instance.constraint),
        "budget": instance.budget,
    }


def _constraint_to_json(constraint: Constraint) -> dict[str, Any]:
    if isinstance(constraint, Matching):
        return {
            "type": "matching",
            "vertices": constraint.vertex_count,
            "edges": {str(eid): list(uv) for eid, uv in sorted(constraint.edges.items())},
        }
    if isinstance(constraint, MatroidIntersection):
        return {
            "type": "matroid_intersection",
            "matroids": [
                _matroid_to_json(constraint.oracle1),
                _matroid_to_json(constraint.oracle2),
            ],
        }
    raise InvalidParameterError(f"cannot serialize constraint {type(constraint).__name__}")


def _matroid_to_json(oracle_obj) -> dict[str, Any]:
    if isinstance(oracle_obj, UniformMatroid):
        return {"kind": "uniform", "rank": oracle_obj.rank}
    if isinstance(oracle_obj, PartitionMatroid):
        return {
            "kind": "partition",
            "blocks": [sorted(b) for b in oracle_obj.blocks],
            "capacities": list(oracle_obj.capacities),
        }
    if isinstance(oracle_obj, GraphicMatroid):
        return {
            "kind": "graphic",
            "vertices": oracle_obj.vertex_count,
            "edges": {str(eid): list(uv) for eid, uv in sorted(oracle_obj.edges.items())},
        }
    raise InvalidParameterError(
        f"cannot serialize matroid {type(oracle_obj).__name__}; "
        "only uniform, partition and graphic descriptors round-trip"
    )


def instance_from_json(data: dict[str, Any]) -> BCInstance:
    """An instance from its JSON form; every number must be a JSON integer.

    A fractional number (``6.9``, or even ``6.0``) or a boolean is refused
    rather than truncated.  Edge ids are the object keys, so they are
    integer strings.
    """
    try:
        elements = tuple(
            Element(_integer(e["id"], "id"), _integer(e["cost"], "cost"),
                    _integer(e["profit"], "profit"))
            for e in data["elements"]
        )
        ids = frozenset(e.id for e in elements)
        constraint = _constraint_from_json(data["constraint"], ids)
        budget = _integer(data["budget"], "budget")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed instance file: {exc}") from exc
    return BCInstance(elements, constraint, budget)


def _integer(value: Any, what: str) -> int:
    # bool is a subclass of int, so true and false are refused by type.
    if type(value) is not int:
        raise InvalidParameterError(f"{what} must be an integer, got {value!r}")
    return value


def _edges_from_json(edges: dict[str, Any]) -> dict[int, tuple[int, int]]:
    return {int(eid): (_integer(uv[0], "edge endpoint"), _integer(uv[1], "edge endpoint"))
            for eid, uv in edges.items()}


def _constraint_from_json(data: dict[str, Any], ids: frozenset[int]) -> Constraint:
    kind = data["type"]
    if kind == "matching":
        return Matching(_integer(data["vertices"], "vertices"), _edges_from_json(data["edges"]))
    if kind == "matroid_intersection":
        m1, m2 = data["matroids"]
        return MatroidIntersection(_matroid_from_json(m1, ids), _matroid_from_json(m2, ids))
    raise InvalidParameterError(f"unknown constraint type {kind!r}")


def _matroid_from_json(data: dict[str, Any], ids: frozenset[int]):
    kind = data["kind"]
    if kind == "uniform":
        return UniformMatroid(ids, _integer(data["rank"], "rank"))
    if kind == "partition":
        return PartitionMatroid(
            ids,
            [frozenset(_integer(x, "id") for x in b) for b in data["blocks"]],
            [_integer(c, "capacity") for c in data["capacities"]],
        )
    if kind == "graphic":
        return GraphicMatroid(_integer(data["vertices"], "vertices"),
                              _edges_from_json(data["edges"]))
    raise InvalidParameterError(f"unknown matroid kind {kind!r}")


def dump_instance(instance: BCInstance) -> str:
    return json.dumps(instance_to_json(instance), indent=2, sort_keys=True) + "\n"


def load_instance(path: str | Path) -> BCInstance:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read instance file {path}: {exc}") from exc
    instance = instance_from_json(data)
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidParameterError(
            "invalid instance: " + "; ".join(report.violations)
        )
    return instance


# ---------------------------------------------------------------------------
# Instance generation


def generate_instance(seed: int, size: int, kind: str,
                      cost_range: tuple[int, int] = (1, 100),
                      profit_range: tuple[int, int] = (1, 100),
                      budget_percent: int | None = None) -> BCInstance:
    """Reproducible pseudo-random instance; one seed, one byte stream.

    The budget is a seeded percentage of the total cost in [25, 75] unless
    pinned explicitly.  All draws come from a single ``random.Random(seed)``
    in a fixed order, so equal arguments produce identical instances.
    """
    if size < 0:
        raise InvalidParameterError("size must be non-negative")
    if cost_range[0] < 0 or cost_range[0] > cost_range[1]:
        raise InvalidParameterError(f"bad cost range {cost_range}")
    if profit_range[0] < 0 or profit_range[0] > profit_range[1]:
        raise InvalidParameterError(f"bad profit range {profit_range}")
    rng = random.Random(seed)
    elements = tuple(
        Element(i, rng.randint(*cost_range), rng.randint(*profit_range))
        for i in range(size)
    )
    ids = frozenset(range(size))
    if kind == "matching":
        constraint = _random_matching(rng, size)
    elif kind == "matroid-intersection":
        constraint = MatroidIntersection(
            _random_matroid(rng, ids), _random_matroid(rng, ids)
        )
    else:
        raise InvalidParameterError(f"unknown constraint kind {kind!r}")
    total = sum(e.cost for e in elements)
    percent = rng.randint(25, 75) if budget_percent is None else budget_percent
    if not 0 <= percent <= 100:
        raise InvalidParameterError("budget percent must be in [0, 100]")
    return BCInstance(elements, constraint, total * percent // 100)


def _random_matching(rng: random.Random, size: int) -> Matching:
    vertices = max(2, rng.randint(max(2, (3 * size) // 4), max(2, 2 * size)))
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    if len(pairs) < size:
        vertices = size + 1
        pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    chosen = rng.sample(pairs, size)
    return Matching(vertices, {i: chosen[i] for i in range(size)})


def _random_matroid(rng: random.Random, ids: frozenset[int]):
    kind = rng.choice(["uniform", "partition", "graphic"])
    n = len(ids)
    if kind == "uniform" or n == 0:
        return UniformMatroid(ids, rng.randint(1, max(1, n)))
    if kind == "partition":
        order = sorted(ids)
        rng.shuffle(order)
        block_count = rng.randint(1, min(4, n))
        blocks: list[list[int]] = [[] for _ in range(block_count)]
        for idx, eid in enumerate(order):
            blocks[idx % block_count].append(eid)
        capacities = [rng.randint(1, max(1, len(b))) for b in blocks]
        return PartitionMatroid(ids, [frozenset(b) for b in blocks], capacities)
    vertices = rng.randint(3, n + 2)
    edges = {}
    for eid in sorted(ids):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices - 1)
        if v >= u:
            v += 1
        edges[eid] = (u, v)
    return GraphicMatroid(vertices, edges)


# ---------------------------------------------------------------------------
# Subcommands


def _parse_epsilon(text: str) -> Epsilon:
    return Epsilon.parse(text)


def _solve_record(path: str, epsilon: Epsilon, mode: str, solution: Solution,
                  stats: SolveStats) -> dict[str, Any]:
    return {
        "instance": path,
        "epsilon": str(epsilon),
        "mode": mode,
        "solution_ids": list(solution.element_ids),
        "profit": solution.total_profit,
        "cost": solution.total_cost,
        "alpha": stats.alpha,
        "gamma": str(stats.gamma),
        "rep_size": stats.rep_size,
        "enumerated": stats.enumerated,
        "ms_total": round(stats.ms_total, 3),
    }


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(
        args.seed, args.size, args.kind,
        cost_range=_parse_range(args.cost_range),
        profit_range=_parse_range(args.profit_range),
        budget_percent=args.budget_percent,
    )
    text = dump_instance(instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InvalidParameterError(f"ranges look like LO:HI, got {text!r}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    epsilon = _parse_epsilon(args.epsilon)
    if args.mode == "brute":
        start = time.perf_counter()
        solution = oracle.brute_force_opt(instance, guard=args.guard)
        stats = SolveStats(alpha=solution.total_profit, gamma=Fraction(1),
                           ms_total=(time.perf_counter() - start) * 1000.0)
    else:
        config = SolveConfig(alpha_mode=args.alpha, subset_cap=args.subset_cap,
                             branch_budget=args.branch_budget)
        solution, stats = solve_detailed(instance, epsilon, config)
    print(json.dumps(_solve_record(args.instance, epsilon, args.mode, solution, stats)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    epsilon = _parse_epsilon(args.epsilon)
    reports = _run_verifier(instance, epsilon, args)
    failed = [r for r in reports if not r.passed]
    for report in reports:
        record = {"property": report.property_name, "passed": report.passed}
        if report.counterexample is not None:
            record["counterexample"] = report.counterexample
        print(json.dumps(record))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _run_verifier(instance: BCInstance, epsilon: Epsilon,
                  args: argparse.Namespace) -> list[oracle.VerificationReport]:
    guard = args.guard
    prop = args.property
    if prop == "axioms":
        cons = instance.constraint
        if not isinstance(cons, MatroidIntersection):
            raise InvalidParameterError("--property axioms needs a matroid-intersection instance")
        return [
            oracle.check_matroid_axioms(cons.oracle1, guard=min(guard, 12)),
            oracle.check_matroid_axioms(cons.oracle2, guard=min(guard, 12)),
        ]
    if prop == "weak-exchange":
        return [oracle.verify_weak_exchange(instance, seed=args.seed,
                                            trials=args.trials, guard=min(guard, 12))]
    if prop == "npsolver":
        return [oracle.verify_npsolver(instance, guard=guard,
                                       force_heuristic=args.force_heuristic)]

    working = preprocess_discard(instance)
    alpha = approx_opt(working, mode=args.alpha)
    if prop == "representative":
        rep = rep_set(working, epsilon, args.alpha, alpha=alpha)
        return [oracle.verify_representative(working, epsilon, rep.elements, guard=guard)]
    if prop == "replacement":
        h = oracle.profitable_set(working, epsilon, guard=guard)
        from .classes import q_of

        q = q_of(epsilon)
        for s in oracle.iter_feasible_sets(working, max_size=min(q, len(working.elements))):
            report = oracle.verify_replacement(working, epsilon, s, s & h, guard=guard)
            if not report.passed:
                return [report]
        return [oracle.VerificationReport("replacement", True)]
    if prop == "exchange":
        if alpha == 0:
            return [oracle.VerificationReport("exchange-set", True)]
        if args.x_ids is not None:
            if args.class_index is None:
                raise InvalidParameterError("--x-ids needs --class-index")
            layout = ClassLayout(epsilon, alpha, declared_gamma(args.alpha))
            x = frozenset(int(t) for t in args.x_ids.split(",") if t)
            return [oracle.verify_exchange_set(working, layout, args.class_index, x, guard=guard)]
        rep = rep_set(working, epsilon, args.alpha, alpha=alpha)
        reports = [oracle.verify_exchange_set(working, rep.layout, r, ex, guard=guard)
                   for r, ex in rep.per_class.items()]
        return reports or [oracle.VerificationReport("exchange-set", True)]
    raise InvalidParameterError(f"unknown property {prop!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    corpus = sorted(Path(args.corpus).glob("*.json"))
    epsilons = [
        _parse_epsilon(t) for t in (args.epsilon or ["1/10"])
    ]
    rows = []
    for path in corpus:
        instance = load_instance(path)
        opt = oracle.brute_force_opt(instance, guard=args.guard).total_profit
        for epsilon in epsilons:
            solution, stats = solve_detailed(instance, epsilon, SolveConfig(alpha_mode=args.alpha))
            ratio = f"{1:.6f}" if opt == 0 else f"{solution.total_profit / opt:.6f}"
            rows.append({
                "instance": path.name,
                "epsilon": str(epsilon),
                "opt": opt,
                "profit": solution.total_profit,
                "ratio": ratio,
                "rep_size": stats.rep_size,
                "enumerated": stats.enumerated,
                "alpha": stats.alpha,
                "gamma": str(stats.gamma),
                "ms_total": round(stats.ms_total, 3),
            })
    fieldnames = ["instance", "epsilon", "opt", "profit", "ratio", "rep_size",
                  "enumerated", "alpha", "gamma", "ms_total"]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcopt",
        description="Budget-constrained matching / matroid-intersection solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a reproducible random instance")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--kind", choices=["matching", "matroid-intersection"], required=True)
    gen.add_argument("--cost-range", default="1:100")
    gen.add_argument("--profit-range", default="1:100")
    gen.add_argument("--budget-percent", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve_p = sub.add_parser("solve", help="solve an instance file")
    solve_p.add_argument("instance")
    solve_p.add_argument("--epsilon", required=True, help="error parameter as num/den")
    solve_p.add_argument("--mode", choices=["solve", "brute"], default="solve")
    solve_p.add_argument("--alpha", choices=["exact", "lagrangian"], default="lagrangian")
    solve_p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
    solve_p.add_argument("--branch-budget", type=int, default=DEFAULT_BRANCH_BUDGET)
    solve_p.add_argument("--guard", type=int, default=oracle.DEFAULT_GUARD)
    solve_p.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="run an exhaustive definitional verifier")
    verify.add_argument("instance")
    verify.add_argument("--epsilon", required=True)
    verify.add_argument(
        "--property", required=True,
        choices=["exchange", "representative", "replacement", "axioms",
                 "weak-exchange", "npsolver"],
    )
    verify.add_argument("--alpha", choices=["exact", "lagrangian"], default="exact")
    verify.add_argument("--guard", type=int, default=oracle.DEFAULT_GUARD)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--force-heuristic", action="store_true")
    verify.add_argument("--x-ids", default=None,
                        help="comma-separated ids to verify as the exchange set")
    verify.add_argument("--class-index", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="solve a corpus directory, emit CSV")
    bench.add_argument("corpus")
    bench.add_argument("--epsilon", action="append", default=None,
                       help="repeatable; defaults to 1/10")
    bench.add_argument("--alpha", choices=["exact", "lagrangian"], default="lagrangian")
    bench.add_argument("--guard", type=int, default=oracle.DEFAULT_GUARD)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_OVERFLOW
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD_EXCEEDED
    except BCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
