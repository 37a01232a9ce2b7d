"""Spans and counters recorded around ``bcopt``'s layer boundaries, from outside.

The tracer replaces module attributes where ``solver``, ``lagrange`` and
``repset`` look their callees up (``bcopt.solver.non_profitable_solver``
rather than ``bcopt.lagrange.non_profitable_solver``), and a few methods on
their classes, with wrappers.  The package itself is not edited.

Each span records its name, start, end, parent span and the instance being
solved.  Spans stay in memory until :meth:`Tracer.write`.  A span's self
time is its duration minus the durations of its direct children; the
benchmark's own ``solve`` span around each call is the root.

Methods called millions of times per solve (cursor pushes, independence
tests) get counters rather than spans, which keeps the overhead bounded.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

ROOT = "solve"

# (module or module:Class, attribute, span name).  Several lookups may feed
# one span name.
SPANS = [
    ("bcopt.solver", "preprocess_discard", "core.preprocess"),
    ("bcopt.solver", "approx_opt", "lagrange.approx_opt"),
    ("bcopt.repset", "approx_opt", "lagrange.approx_opt"),
    ("bcopt.solver", "rep_set", "repset.rep_set"),
    ("bcopt.repset", "exset_matching", "exchange.exset"),
    ("bcopt.repset", "exset_matroid_intersection", "exchange.exset"),
    ("bcopt.solver", "small_profit_pool", "classes.classify"),
    ("bcopt.repset", "class_partition", "classes.classify"),
    ("bcopt.solver", "feasible_subsets_within_budget", "enumeration.skeletons"),
    ("bcopt.solver", "residual_constraint", "constraints.residual"),
    ("bcopt.constraints:Matching", "restrict", "constraints.residual"),
    ("bcopt.constraints:MatroidIntersection", "restrict", "constraints.residual"),
    ("bcopt.solver", "non_profitable_solver", "lagrange.residual_solve"),
    ("bcopt.lagrange", "max_profit_solution_ids", "enumeration.exact_search"),
    ("bcopt.lagrange", "max_weight_feasible_ids", "enumeration.max_weight"),
    ("bcopt.lagrange", "inner_max_weight", "lagrange.inner"),
]

# (module:Class, method, counter prefix): counted, not spanned.
COUNTED = [
    ("bcopt.constraints:MatchingCursor", "try_push", "push"),
    ("bcopt.constraints:IntersectionCursor", "try_push", "push"),
    ("bcopt.matroids:MatroidOracle", "is_independent", "independence"),
]

# Per-layer metrics: name -> (unit, better).  Seconds are summed self time.
PER_LAYER = {
    "enumeration.skeletons": ("count", "lower"),
    "enumeration.skeletons_s": ("s", "lower"),
    "enumeration.exact_search_s": ("s", "lower"),
    "enumeration.max_weight_s": ("s", "lower"),
    "constraints.residual_s": ("s", "lower"),
    "constraints.pushes": ("count", "lower"),
    "constraints.push_accept_ratio": ("ratio", "higher"),
    "matroids.independence_calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.residual_elements": ("count", "lower"),
    "lagrange.residual_solve_s": ("s", "lower"),
    "lagrange.residual_exact": ("count", "lower"),
    "lagrange.residual_lagrangian": ("count", "lower"),
    "lagrange.inner_s": ("s", "lower"),
    "lagrange.inner_calls": ("count", "lower"),
    "lagrange.approx_opt_s": ("s", "lower"),
    "repset.rep_set_s": ("s", "lower"),
    "repset.rep_size": ("count", "lower"),
    "exchange.exset_s": ("s", "lower"),
    "core.preprocess_s": ("s", "lower"),
    "classes.classify_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# The root spans must cover at least this share of the traced wall time.
COVERAGE_MARGIN = 0.02


class TraceError(RuntimeError):
    """The trace cannot be trusted: a hook is missing or the spans do not add up."""


def _resolve(path: str, attr: str):
    """The module or class named by ``path``, and its own attribute ``attr``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls, None)
    target = vars(owner).get(attr) if owner is not None else None
    if not callable(target):
        raise TraceError(f"trace hook {path}.{attr} is missing; refusing to report zeros")
    return owner, target


class Tracer:
    """Installs the wrappers, records spans and counters, and folds them into metrics."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._name_id = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = {"push": 0, "push_ok": 0, "independence": 0,
                       "skeletons": 0, "rep_size": 0, "residual_elements": 0}
        self._stack = [-1]
        self._current_instance = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook; raises TraceError, wrapping nothing, if one is missing."""
        resolved = [(_resolve(p, a), a, n) for p, a, n in SPANS]
        counted = [(_resolve(p, a), a, c) for p, a, c in COUNTED]
        for (owner, fn), attr, name in resolved:
            self._replace(owner, attr, self._spanned(fn, self._id(name), name))
        for (owner, fn), attr, prefix in counted:
            self._replace(owner, attr, self._counted(fn, prefix))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _spanned(self, fn, name_id: int, name: str):
        names, parents, instances = self.name, self.parent, self.instance
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            instances.append(tracer._current_instance)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if name == "enumeration.skeletons":
                counts["skeletons"] += len(result)
            elif name == "repset.rep_set":
                counts["rep_size"] += result.size
            elif name == "lagrange.residual_solve":
                counts["residual_elements"] += len(args[0].elements)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, prefix: str):
        counts = self.counts
        if prefix == "push":
            def wrapper(self_, eid):
                ok = fn(self_, eid)
                counts["push"] += 1
                if ok:
                    counts["push_ok"] += 1
                return ok
        else:
            def wrapper(self_, subset):
                counts[prefix] += 1
                return fn(self_, subset)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording --------------------------------------------------------

    def root(self, instance_no: int, call):
        """Run ``call()`` inside a root span for instance ``instance_no``."""
        self._current_instance = instance_no
        idx = len(self.name)
        self.name.append(0)
        self.parent.append(-1)
        self.instance.append(instance_no)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return call()
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- folding ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        child = [0] * len(self.name)
        parent, start, end = self.parent, self.start, self.end
        for i in range(len(child)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0] * len(self.names)
        name = self.name
        for i in range(len(child)):
            totals[name[i]] += end[i] - start[i] - child[i]
        return {n: totals[k] / 1e9 for k, n in enumerate(self.names)}

    def root_seconds(self) -> float:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.name)) if self.parent[i] < 0) / 1e9

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics; raises TraceError if the spans do not add up."""
        self_s = self.self_times()
        roots = self.root_seconds()
        if abs(sum(self_s.values()) - roots) > 1e-6 * max(roots, 1.0):
            raise TraceError("self times do not sum to the root spans")
        if roots < (1 - COVERAGE_MARGIN) * traced_wall_s:
            raise TraceError(f"root spans cover {roots:.3f} s of {traced_wall_s:.3f} s traced")
        by_id = {n: k for k, n in enumerate(self.names)}
        residual_id = by_id["lagrange.residual_solve"]
        exact_id = by_id["enumeration.exact_search"]
        residual_solves = exact = 0
        for i in range(len(self.name)):
            k = self.name[i]
            if k == residual_id:
                residual_solves += 1
            elif k == exact_id and self.parent[i] >= 0 and self.name[self.parent[i]] == residual_id:
                exact += 1
        inner_calls = sum(1 for k in self.name if k == by_id["lagrange.inner"])
        c = self.counts
        return {
            "enumeration.skeletons": c["skeletons"],
            "enumeration.skeletons_s": self_s["enumeration.skeletons"],
            "enumeration.exact_search_s": self_s["enumeration.exact_search"],
            "enumeration.max_weight_s": self_s["enumeration.max_weight"],
            "constraints.residual_s": self_s["constraints.residual"],
            "constraints.pushes": c["push"],
            "constraints.push_accept_ratio": c["push_ok"] / c["push"] if c["push"] else 0.0,
            "matroids.independence_calls": c["independence"],
            "solver.self_s": self_s[ROOT],
            "solver.residual_elements": (c["residual_elements"] / residual_solves
                                         if residual_solves else 0.0),
            "lagrange.residual_solve_s": self_s["lagrange.residual_solve"],
            "lagrange.residual_exact": exact,
            "lagrange.residual_lagrangian": residual_solves - exact,
            "lagrange.inner_s": self_s["lagrange.inner"],
            "lagrange.inner_calls": inner_calls,
            "lagrange.approx_opt_s": self_s["lagrange.approx_opt"],
            "repset.rep_set_s": self_s["repset.rep_set"],
            "repset.rep_size": c["rep_size"],
            "exchange.exset_s": self_s["exchange.exset"],
            "core.preprocess_s": self_s["core.preprocess"],
            "classes.classify_s": self_s["classes.classify"],
            "trace.overhead": traced_wall_s / untraced_wall_s - 1.0,
        }

    def write(self, path) -> None:
        """Write every span as gzipped JSON columns (times in ns from the first span)."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name),
                "parent": list(self.parent),
                "instance": list(self.instance),
                "start_ns": [t - t0 for t in self.start],
                "end_ns": [t - t0 for t in self.end],
                "counts": self.counts,
            }, fh, separators=(",", ":"))
