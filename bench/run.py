"""Benchmark of ``bcopt.solve``: one workload, one seed, one run.

    python3 bench/run.py --workload uniform-matching --seed 1 --seconds 30 --trace 0

Solving happens in a child process (``worker.py``) that imports only
``bcopt`` and the standard library; this process then checks every answer
against its own feasibility tests and a scipy MILP optimum, and prints each
metric by name and unit.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gen  # noqa: E402  (sits next to this file)

WORKER_TIMEOUT_S = 165
TAIL_PERCENTILE = 90

END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "profit_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"solving process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_attempts(workload: str, seed: int, attempts: list[dict]) -> dict:
    """Check every answer; returns per-attempt results, failures and problems."""
    import check  # scipy is imported here, never in the solving process

    rounds: dict[int, list[dict]] = {}
    optima: dict[tuple[int, int], int] = {}
    results, problems = [], []
    failures: collections.Counter = collections.Counter()
    for a in attempts:
        r, slot = a["round"], a["slot"]
        if r not in rounds:
            rounds[r] = gen.workload_round(workload, seed, r)
        spec = rounds[r][slot]
        if "error" in a:
            failures[(a["error"], spec["kind"])] += 1
            results.append({"ok": False, "s": a["s"]})
            continue
        if (r, slot) not in optima:
            optima[(r, slot)] = check.optimum(spec)[0]
        opt = optima[(r, slot)]
        found = check.check_answer(spec, a["ids"], a["profit"], a["cost"], opt)
        if found:
            problems.append(f"{spec['name']}: " + "; ".join(found))
        results.append({"ok": not found, "s": a["s"],
                        "ratio": a["profit"] / opt if opt else 1.0})
    return {"results": results, "failures": failures, "problems": problems}


def end_to_end(worker: dict, results: list) -> dict:
    ok = [r for r in results if r["ok"]]
    times = [r["s"] for r in ok]
    return {
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": statistics.quantiles(times, n=100)[TAIL_PERCENTILE - 1],
        "solves_per_s": len(ok) / sum(r["s"] for r in results),
        "profit_ratio": statistics.fmean(r["ratio"] for r in ok),
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(worker["setup_samples"]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUND_SLOTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bcopt" / "__init__.py").is_file():
        print(f"no bcopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker = run_worker(args)
    attempts = worker["attempts"]
    checked = check_attempts(args.workload, args.seed, attempts)
    attempted = len(attempts)
    failed = sum(checked["failures"].values()) + len(checked["problems"])
    if args.trace:
        from spans import PER_LAYER
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        values = worker["per_layer"]
    else:
        units = END_TO_END
        values = end_to_end(worker, checked["results"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {gen.digest(gen.workload(args.workload, args.seed, bool(args.trace)))}  "
          f"{attempted} solves")
    print(f"attempted {attempted}  failed {failed}")
    if not args.trace:
        cpu = [a["cpu_s"] for a, r in zip(attempts, checked["results"]) if r["ok"]]
        print(f"unscaled CPU time per solve: median {statistics.median(cpu):.6g} s; "
              f"pace kernel: median {statistics.median(worker['kernel_s']):.6g} s "
              f"over {len(worker['kernel_s'])} samples")
    for (error, kind), count in sorted(checked["failures"].items()):
        print(f"  failure: {count} x {error} on {kind} instances")
    for line in checked["problems"]:
        print(f"  WRONG ANSWER {line}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not checked["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
