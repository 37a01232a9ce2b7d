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
import io
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
)
from .classes import ClassLayout, q_of
from .constraints import Constraint, Matching, MatroidIntersection
from .matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from .repset import exchange_sets, rep_set
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

    Numbers reach the constructors as they are, so ``6.9``, even ``6.0``, or a
    boolean is refused rather than truncated.  Edge ids are the object keys,
    so they are integer strings, each written as ``str(id)``.
    """
    try:
        elements = tuple(Element(e["id"], e["cost"], e["profit"]) for e in data["elements"])
        ids = frozenset(e.id for e in elements)
        constraint = _constraint_from_json(data["constraint"], ids)
        return BCInstance(elements, constraint, data["budget"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed instance file: {exc}") from exc


def _edges_from_json(edges: dict[str, Any]) -> dict[int, Any]:
    if not isinstance(edges, dict):
        raise InvalidParameterError(
            f"edges must be an object of id: [u, v] pairs, got {type(edges).__name__}")
    return {_edge_id(eid): uv for eid, uv in edges.items()}


def _edge_id(key: Any) -> int:
    # Only the key ``str(id)`` names an id, so "03", "+3", " 3" or "٤" cannot
    # stand for 3 and silently replace another edge 3.
    try:
        if str(int(key)) == key:
            return int(key)
    except (TypeError, ValueError):
        pass
    raise InvalidParameterError(f"edge id {key!r} is not a canonical integer string")


def _constraint_from_json(data: dict[str, Any], ids: frozenset[int]) -> Constraint:
    kind = data["type"]
    if kind == "matching":
        return Matching(data["vertices"], _edges_from_json(data["edges"]))
    if kind == "matroid_intersection":
        m1, m2 = data["matroids"]
        return MatroidIntersection(_matroid_from_json(m1, ids), _matroid_from_json(m2, ids))
    raise InvalidParameterError(f"unknown constraint type {kind!r}")


def _matroid_from_json(data: dict[str, Any], ids: frozenset[int]):
    kind = data["kind"]
    if kind == "uniform":
        return UniformMatroid(ids, data["rank"])
    if kind == "partition":
        return PartitionMatroid(ids, data["blocks"], data["capacities"])
    if kind == "graphic":
        return GraphicMatroid(data["vertices"], _edges_from_json(data["edges"]))
    raise InvalidParameterError(f"unknown matroid kind {kind!r}")


def dump_instance(instance: BCInstance) -> str:
    return json.dumps(instance_to_json(instance), indent=2, sort_keys=True) + "\n"


def load_instance(path: str | Path) -> BCInstance:
    # A file that is not UTF-8, nests too deep for the parser or writes an
    # integer past Python's digit limit is as unreadable as a missing one;
    # the ValueError covers the first and the last.
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"cannot read instance file {path}: {exc}") from exc
    return instance_from_json(data)


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


def _write_out(out: str | None, text: str) -> None:
    """``text`` to the ``--out`` file, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {out}: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(
        args.seed, args.size, args.kind,
        cost_range=_parse_range(args.cost_range),
        profit_range=_parse_range(args.profit_range),
        budget_percent=args.budget_percent,
    )
    _write_out(args.out, dump_instance(instance))
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InvalidParameterError(f"ranges look like LO:HI, got {text!r}") from exc


def _id_list(text: str) -> frozenset[int]:
    try:
        return frozenset(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must list integer ids, got {text!r}") from None


def _count(text: str) -> int:
    """A guard or a trial count: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    epsilon = Epsilon.parse(args.epsilon)
    if args.mode == "brute":
        start = time.perf_counter()
        solution = oracle.brute_force_opt(instance, guard=args.guard)
        stats = SolveStats(alpha=solution.total_profit, gamma=Fraction(1),
                           ms_total=(time.perf_counter() - start) * 1000.0)
    else:
        solution, stats = solve_detailed(instance, epsilon, SolveConfig(subset_cap=args.subset_cap))
    print(json.dumps(_solve_record(args.instance, epsilon, args.mode, solution, stats)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    epsilon = Epsilon.parse(args.epsilon)
    reports = _run_verifier(instance, epsilon, args)
    failed = [r for r in reports if not r.passed]
    for report in reports:
        record = {"property": report.property_name, "passed": report.passed}
        if report.counterexample is not None:
            record["counterexample"] = report.counterexample
        if report.profitable is not None:
            record["profitable"] = report.profitable
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
        return [oracle.verify_npsolver(instance, guard=guard)]

    working = preprocess_discard(instance)
    if prop == "exchange" and args.x_ids is not None:
        # The class indices do not depend on alpha, so they are checked
        # first, on a layout for alpha = 1.
        bounds = ClassLayout(epsilon, 1, oracle.EXACT_GAMMA)
        if args.class_index not in range(bounds.r_lo, bounds.r_hi + 1):
            raise InvalidParameterError(f"--x-ids needs a --class-index in "
                                        f"{bounds.r_lo}..{bounds.r_hi}, got {args.class_index}")

    # The classes are built from the exact optimum, under the guard.
    alpha = oracle.brute_force_opt(working, guard=guard).total_profit
    if prop == "replacement":
        return [_check_replacement(working, epsilon, alpha, guard)]
    if prop == "representative":
        rep = rep_set(working, epsilon, alpha=alpha, gamma=oracle.EXACT_GAMMA)
        return [oracle.verify_representative(working, epsilon, rep.elements, alpha,
                                             guard=guard)]
    if prop == "exchange":
        if alpha == 0:
            return [oracle.VerificationReport("exchange-set", True)]
        layout = ClassLayout(epsilon, alpha, oracle.EXACT_GAMMA)
        if args.x_ids is not None:
            return [oracle.verify_exchange_set(working, layout, args.class_index, args.x_ids,
                                               guard=guard)]
        reports = [oracle.verify_exchange_set(working, layout, r, ex, guard=guard)
                   for r, ex in exchange_sets(working, layout).items()]
        return reports or [oracle.VerificationReport("exchange-set", True)]
    raise InvalidParameterError(f"unknown property {prop!r}")


def _check_replacement(working: BCInstance, epsilon: Epsilon, alpha: int,
                       guard: int) -> oracle.VerificationReport:
    """Every bounded feasible S has a replacement Z of S & H drawn from R.

    R is the representative set built from ``alpha`` = OPT; Z is the
    substitution :func:`oracle.find_substitution` finds in R, checked by
    :func:`oracle.verify_replacement`.  A counterexample names S and Z, with
    Z null when R holds no substitution; a pass names |H|, since with H
    empty Z = {} replaces every S.
    """
    if alpha == 0:  # H is empty
        return oracle.VerificationReport("replacement", True, profitable=0)
    rep = rep_set(working, epsilon, alpha=alpha, gamma=oracle.EXACT_GAMMA)
    h = oracle._above(working, epsilon, alpha)
    q = q_of(epsilon)
    for s in oracle.iter_feasible_sets(working, max_size=min(q, len(working.elements))):
        z = oracle.find_substitution(working, rep.layout, s, rep.elements, h, guard=guard)
        if z is None:
            return oracle.VerificationReport(
                "replacement", False,
                {"s": sorted(s), "z": None, "failed": ["no substitution in R"]})
        report = oracle.verify_replacement(working, epsilon, s, z, h)
        if not report.passed:
            return report
    return oracle.VerificationReport("replacement", True, profitable=len(h))


def _cmd_bench(args: argparse.Namespace) -> int:
    if not Path(args.corpus).is_dir():
        raise InvalidParameterError(f"corpus {args.corpus} is not a directory")
    if args.out and not Path(args.out).parent.is_dir():
        raise InvalidParameterError(f"cannot write {args.out}: no directory")
    # Every path, file and guard is checked before the first solve.
    corpus = [(path.name, load_instance(path))
              for path in sorted(Path(args.corpus).glob("*.json"))]
    for _, instance in corpus:
        oracle._check_guard(instance, args.guard)
    epsilons = [
        Epsilon.parse(t) for t in (args.epsilon or ["1/10"])
    ]
    rows = []
    for name, instance in corpus:
        opt = oracle.brute_force_opt(instance, guard=args.guard).total_profit
        for epsilon in epsilons:
            solution, stats = solve_detailed(instance, epsilon)
            ratio = f"{1:.6f}" if opt == 0 else f"{solution.total_profit / opt:.6f}"
            rows.append({
                "instance": name,
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
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    _write_out(args.out, table.getvalue())
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
    solve_p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
    solve_p.add_argument("--guard", type=_count, default=oracle.DEFAULT_GUARD)
    solve_p.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="run an exhaustive definitional verifier")
    verify.add_argument("instance")
    verify.add_argument("--epsilon", required=True)
    verify.add_argument(
        "--property", required=True,
        choices=["exchange", "representative", "replacement", "axioms",
                 "weak-exchange", "npsolver"],
    )
    verify.add_argument("--guard", type=_count, default=oracle.DEFAULT_GUARD)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=_count, default=200)
    verify.add_argument("--x-ids", type=_id_list, default=None,
                        help="comma-separated ids to verify as the exchange set")
    verify.add_argument("--class-index", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="solve a corpus directory, emit CSV")
    bench.add_argument("corpus")
    bench.add_argument("--epsilon", action="append", default=None,
                       help="repeatable; defaults to 1/10")
    bench.add_argument("--guard", type=_count, default=oracle.DEFAULT_GUARD)
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
