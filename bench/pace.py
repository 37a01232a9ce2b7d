"""The machine's pace: a fixed pure-Python kernel, timed between units of work.

On a shared machine the speed of one core moves by 20-40% for minutes at a
time as neighbours come and go, in CPU time as much as in wall time.  Runs
of 30 s cannot average that out, so the timed metrics would follow the
machine rather than the program.  The benchmark therefore times this kernel
between units of work (a set-up, a round of solves) and scales each unit's
CPU time by ``REFERENCE_S`` over the median kernel time around it: its
figures are CPU seconds on a machine that runs the kernel in
``REFERENCE_S``.

The kernel has two halves of about equal time.  One is compute-bound and
does what ``solve`` spends most of its time on: sorting with key functions,
dictionary-based union-find, frozenset algebra and ``Fraction`` arithmetic.
The other looks up frozensets at random in a few megabytes, so it waits on
the cache as ``solve`` does when it walks its skeleton lists.  When the
machine's pace moved, the compute half alone followed ``solve`` less
closely: in 5-minute recordings it cut the spread of 12-second medians of
a fixed set of solves from 12-13% to 7-9%, and the two halves together to
2.5-5.5%.  It shares no code with ``bcopt``, so a change to the program
cannot change the kernel.  Nothing here imports ``bcopt``; its data add
about 4 MB to the solving process's peak RSS.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# A round figure near the kernel's median CPU time on the machine the
# reference figures come from (a 2-vCPU VM, Intel Xeon).
REFERENCE_S = 0.018
# Kernel samples taken into a unit's factor on each side of it.
WINDOW = 3

_RNG = random.Random(7)
_EDGES = [(_RNG.randrange(60), _RNG.randrange(60)) for _ in range(400)]
_WEIGHTS = [Fraction(_RNG.randint(1, 100), _RNG.randint(1, 9)) for _ in _EDGES]
_LAMBDAS = 2
_SETS = [frozenset(_RNG.sample(range(1000), 4)) for _ in range(15000)]
_LOOKUPS = [_RNG.randrange(len(_SETS)) for _ in range(20000)]


def _forests() -> frozenset[int]:
    """Maximum-weight forests for a few multipliers, as a greedy would find them."""
    total: frozenset[int] = frozenset()
    for lam in range(_LAMBDAS):
        order = sorted(range(len(_EDGES)), key=lambda i: (-(_WEIGHTS[i] - lam), i))
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for i in order:
            ru, rv = find(_EDGES[i][0]), find(_EDGES[i][1])
            if ru != rv:
                parent[ru] = rv
                chosen.append(i)
        forest = frozenset(chosen)
        total = total ^ forest
        sum(_WEIGHTS[i] for i in forest)
    return total


def _lookups() -> int:
    """A chain of disjoint sets picked from random places in ``_SETS``."""
    last: frozenset[int] = frozenset()
    seen: dict[int, int] = {}
    for i in _LOOKUPS:
        s = _SETS[i]
        if s.isdisjoint(last):
            last = s
        seen[i] = len(s)
    return len(seen)


def kernel_s() -> float:
    """CPU time of one run of the kernel."""
    t0 = time.process_time()
    _forests()
    _lookups()
    return time.process_time() - t0


class Pace:
    """Scale factors for consecutive units of work.

    Create it just before the first unit and call :meth:`mark` just after
    each one; :meth:`factors` then gives one factor per unit.
    """

    def __init__(self) -> None:
        self.samples = [kernel_s()]

    def mark(self) -> None:
        """Time the kernel after a unit of work."""
        self.samples.append(kernel_s())

    def factors(self) -> list[float]:
        """Per unit, ``REFERENCE_S`` over the median of the kernel times nearest it.

        Unit ``i`` lies between samples ``i`` and ``i + 1``; the median of
        the ``2 * WINDOW`` samples around it ignores a kernel run that an
        interrupt slowed, and still follows a change of pace within seconds.
        """
        units = len(self.samples) - 1
        return [REFERENCE_S / statistics.median(self.samples[max(0, i - WINDOW + 1):i + WINDOW + 1])
                for i in range(units)]
