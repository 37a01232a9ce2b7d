"""The solving process: imports only ``bcopt`` and the standard library.

Started by ``run.py``; prints one JSON object on its last line of output.
Keeping the checks (and scipy) in the parent process means the peak RSS
reported here is ``bcopt``'s own.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import gen  # noqa: E402  (sits next to this file)
import pace  # noqa: E402
import spans  # noqa: E402

# p90 needs ten solves beyond it; a run goes on past --seconds until it has these.
MIN_SOLVES = 100
# ...but never past this, so that the run ends within its time limit.
HARD_STOP_S = 120.0
# Set-up samples taken before the timed solves.
SETUP_REPEATS = 7


def import_bcopt():
    """Import ``bcopt`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "bcopt" or m.startswith("bcopt.")]:
        del sys.modules[name]
    bcopt = importlib.import_module("bcopt")
    if Path(bcopt.__file__).resolve().parent != SRC / "bcopt":
        raise SystemExit(f"imported bcopt from {bcopt.__file__}, not from {SRC}")
    return bcopt


def build(bc, spec: dict):
    """A spec as a ``BCInstance`` and ``Epsilon``, through the public constructors."""
    elements = tuple(bc.Element(i, c, p) for i, c, p in spec["elements"])
    if spec["kind"] == "matching":
        constraint = bc.Matching(spec["vertices"],
                                 {eid: tuple(uv) for eid, uv in spec["edges"].items()})
    else:
        ids = frozenset(e.id for e in elements)
        constraint = bc.MatroidIntersection(*(_matroid(bc, d, ids) for d in spec["matroids"]))
    return bc.BCInstance(elements, constraint, spec["budget"]), bc.Epsilon(*spec["eps"])


def _matroid(bc, desc: dict, ids: frozenset[int]):
    if desc["kind"] == "uniform":
        return bc.UniformMatroid(ids, desc["rank"])
    if desc["kind"] == "partition":
        return bc.PartitionMatroid(ids, desc["blocks"], desc["capacities"])
    return bc.GraphicMatroid(desc["vertices"],
                             {eid: tuple(uv) for eid, uv in desc["edges"].items()})


def setup(specs: list[list[dict]], paced: pace.Pace | None = None):
    """Import ``bcopt`` and build every instance, several times; keep the last.

    Returns CPU time samples; marks ``paced`` after each one when given.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        bc = import_bcopt()
        pool = [[build(bc, spec) for spec in rnd] for rnd in specs]
        samples.append(time.process_time() - t0)
        if paced:
            paced.mark()
    return bc, pool, samples


def solve_round(bc, pool, round_no: int, attempts: list, tracer=None) -> None:
    """Solve every instance of one round, appending one record per attempt.

    A solve is timed in process CPU time: ``solve`` runs on this one thread
    and does no I/O, so that is its wall time less any time that other
    processes of the same machine held its core.
    """
    r = round_no % len(pool)
    for slot, (instance, eps) in enumerate(pool[r]):
        t0 = time.process_time()
        try:
            if tracer is None:
                solution = bc.solve(instance, eps)
            else:
                solution = tracer.root(r * 100 + slot, lambda: bc.solve(instance, eps))
        except Exception as exc:  # every failure is counted, none aborts the run
            attempts.append({"round": r, "slot": slot, "error": type(exc).__name__,
                             "s": time.process_time() - t0})
            continue
        attempts.append({"round": r, "slot": slot, "ids": list(solution.element_ids),
                         "profit": solution.total_profit, "cost": solution.total_cost,
                         "s": time.process_time() - t0})


def measure(specs: list[list[dict]], seconds: float) -> tuple[list, list, list]:
    """Set up several times, then solve whole rounds for ``seconds``.

    Every instance is solved once: the median of many distinct instances
    moves less between seeds than that of fewer instances solved twice.
    Each attempt keeps its CPU time as ``cpu_s`` and, as ``s``, that time
    scaled to the reference pace measured around its round (see ``pace.py``).
    """
    paced = pace.Pace()
    bc, pool, setup_samples = setup(specs, paced)
    attempts: list = []
    units: list[int] = []  # per attempt, the pace unit of its round
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        solved = sum(1 for a in attempts if "ids" in a)
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and solved >= MIN_SOLVES):
            break
        solve_round(bc, pool, rounds, attempts)
        paced.mark()
        units.extend([SETUP_REPEATS + rounds] * (len(attempts) - len(units)))
        rounds += 1
    factors = paced.factors()
    for a, unit in zip(attempts, units, strict=True):
        a["cpu_s"] = a["s"]
        a["s"] *= factors[unit]
    return attempts, [s * f for s, f in zip(setup_samples, factors)], paced.samples


def traced(bc, pool, workload: str) -> tuple[list, dict]:
    """Solve the trace rounds untraced and traced; the two must agree."""
    tracer = spans.Tracer()
    plain: list = []
    spanned: list = []
    plain_s = spanned_s = 0.0
    for round_no in range(len(pool)):
        t0 = time.perf_counter()
        solve_round(bc, pool, round_no, plain)
        t1 = time.perf_counter()
        tracer.install()
        try:
            t2 = time.perf_counter()
            solve_round(bc, pool, round_no, spanned, tracer)
            t3 = time.perf_counter()
        finally:
            tracer.uninstall()
        plain_s += t1 - t0
        spanned_s += t3 - t2
    for a, b in zip(plain, spanned, strict=True):
        if a.get("ids") != b.get("ids") or a.get("error") != b.get("error"):
            raise spans.TraceError(
                f"round {a['round']} slot {a['slot']}: traced solve differs from untraced")
    metrics = tracer.metrics(spanned_s, plain_s)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.json.gz")
    return spanned, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUND_SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    specs = gen.workload(args.workload, args.seed, trace=bool(args.trace))
    if args.trace:
        bc, pool, _ = setup(specs)
        attempts, layer = traced(bc, pool, args.workload)
        result = {"attempts": attempts, "per_layer": layer}
    else:
        attempts, setups, kernel = measure(specs, args.seconds)
        result = {"attempts": attempts, "setup_samples": setups, "kernel_s": kernel}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
