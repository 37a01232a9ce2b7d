"""Reference figure: the largest n each kind solves within 10 s at eps = 1/4.

    python3 bench/wall.py [--seeds 1,2,3] [--limit 10]

For n = 8, 10, 12, ... it generates one instance per seed with the
benchmark's own generator (the uniform-matching and uniform-intersection
make-up, at eps = 1/4) and solves each under a time limit.  A size counts as
solved when every seed finishes within the limit; the scan of a kind stops
at the first size that does not.  Single-threaded, one process.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import worker  # noqa: E402


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spec_for(kind: str, n: int, seed: int) -> dict:
    rng = random.Random(f"wall:{kind}:{n}:{seed}")
    if kind == "matching":
        spec = gen._matching(rng, n)
    else:
        spec = gen._intersection(rng, n, gen._PAIRS[seed % len(gen._PAIRS)])
    spec.update(name=f"wall-{kind}-{n}-{seed}", eps=[1, 4])
    return spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--limit", type=float, default=10.0)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bc = worker.import_bcopt()
    signal.signal(signal.SIGALRM, _alarm)
    for kind in ("matching", "intersection"):
        largest = None
        for n in range(8, 201, 2):
            times = []
            for seed in seeds:
                instance, eps = worker.build(bc, spec_for(kind, n, seed))
                signal.setitimer(signal.ITIMER_REAL, args.limit)
                t0 = time.perf_counter()
                try:
                    bc.solve(instance, eps)
                    times.append(time.perf_counter() - t0)
                except (_Timeout, bc.CapExceededError):
                    times.append(None)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            shown = " ".join("over" if t is None else f"{t:.2f}s" for t in times)
            print(f"{kind:12s} n={n:3d}  {shown}", flush=True)
            if None in times:
                break
            largest = n
        print(f"{kind}: largest n solved within {args.limit:g} s on seeds {args.seeds}: {largest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
