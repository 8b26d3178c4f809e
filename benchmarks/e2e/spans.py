"""Per-layer spans, recorded by wrapping public functions from outside.

A layer is a ``src/repro`` package; :data:`LAYERS` names the public
functions at its boundary by dotted path. Installing a :class:`Tracer`
patches methods on their class and, for free functions, rebinds every
``repro.*`` module global that *is* the original (``build_pair_cost_table``
is imported into five modules). Every target is called at most about 10^4
times per pass; hotter functions (``LoadTracker.peek_max_ratio`` runs about
10^6 times) are left unwrapped and their layers' counts are read from the
objects the wrapped calls return.

Spans stay in memory. A span's self time is its duration minus that of its
direct child spans; a layer's cumulative time sums its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "topology": (
        "repro.topology.dataset.build_default_dataset",
        "repro.topology.internetwork.build_internetwork",
        "repro.topology.builders.build_scale_pair",
    ),
    "traffic": ("repro.traffic.gravity.GravityWorkload.size_fn",),
    "routing.sssp": ("repro.routing.paths.IntradomainRouting.warm",),
    "routing.table": (
        "repro.routing.costs.build_pair_cost_table",
        "repro.routing.flows.build_full_flowset",
    ),
    "routing.derive": (
        "repro.routing.costs.PairCostTable.without_alternative",
        "repro.routing.costs.PairCostTable.without_alternatives",
        "repro.routing.costs.PairCostTable.batch_without_alternatives",
        "repro.routing.costs.PairCostTable.subset",
    ),
    "routing.incidence": ("repro.routing.costs.PairCostTable.incidence",),
    "routing.interdomain": (
        "repro.routing.interdomain.transit_demand_hops",
        "repro.routing.interdomain.TransitLoadIndex.sever",
        "repro.routing.interdomain.TransitLoadIndex.loads",
        "repro.routing.interdomain.TransitLoadIndex.loads_after",
    ),
    "core.session": ("repro.core.session.NegotiationSession.run",),
    "optimal.lp": ("repro.optimal.solver.ScipyLinprogSolver.solve",),
    "baselines": (
        "repro.baselines.flow_strategies.flow_pareto_choices",
        "repro.baselines.flow_strategies.flow_both_better_choices",
    ),
    "core.coordination": (
        "repro.core.multi_session.MultiSessionCoordinator.run",
    ),
    # The driver: the sweep runner, the per-pair bandwidth unit, and the
    # benchmark's own set-up and pass roots hold whatever no layer claims.
    "experiments": (
        "repro.experiments.runner.SweepRunner.run",
        "repro.experiments.bandwidth.run_pair_cases",
    ),
}

#: The layer that owns the benchmark's set-up and pass root spans.
ROOT_LAYER = "experiments"


def _nnz(matrix) -> int:
    if matrix is None:
        return 0
    nnz = getattr(matrix, "nnz", None)
    return int(nnz) if nnz is not None else int((matrix != 0).sum())


def _session_counts(args, outcome) -> dict[str, int]:
    rolled_back = len(outcome.rolled_back)
    return {
        "proposals": len(outcome.rounds),
        # Each accepted round agrees one distinct flow; rollback un-agrees.
        "accepted": outcome.n_negotiated + rolled_back,
        "rollback_steps": rolled_back,
        "reassignments": outcome.reassignments,
    }


def _lp_counts(args, solution) -> dict[str, int]:
    problem = args[1]
    return {"nnz": _nnz(problem.a_ub) + _nnz(problem.a_eq)}


def _coordination_counts(args, result) -> dict[str, int]:
    records = result.records()
    return {
        "rounds": len(result.rounds),
        "records": len(records),
        "sessions": sum(r.ran_session for r in records),
        "adopted": sum(r.adopted for r in records),
    }


#: Counters read from what a wrapped call returns, by target path.
COUNTERS = {
    "repro.core.session.NegotiationSession.run": _session_counts,
    "repro.optimal.solver.ScipyLinprogSolver.solve": _lp_counts,
    "repro.core.multi_session.MultiSessionCoordinator.run": (
        _coordination_counts
    ),
}


def _resolve(path: str):
    """``(owner, name, original)`` for a dotted module function or method."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        attrs = parts[cut:]
        owner = module
        if len(attrs) == 2:
            owner = getattr(module, attrs[0], None)
            if not isinstance(owner, type):
                break
            original = owner.__dict__.get(attrs[1])
        elif len(attrs) == 1:
            original = getattr(module, attrs[0], None)
        else:
            break
        if callable(original):
            return owner, attrs[-1], original
        break
    raise LookupError(
        f"wrapper target {path} does not resolve: the function was renamed "
        "or deleted; update benchmarks/e2e/spans.py LAYERS"
    )


class Tracer:
    """Installs the layer wrappers and records their spans in memory.

    A span is ``[id, parent, layer, fn, start_ns, end_ns, counts, phase]``.
    Wrappers only record while ``recording`` is set; ``uninstall`` restores
    every patched binding. The bindings to patch are found on the first
    ``install``; by then the workload has imported every ``repro`` module
    it uses.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.recording = False
        self.phase = ""
        self._stack: list[int] = []
        #: ``(owner, attribute, original, wrapper)`` per patched binding.
        self._sites: list[tuple] | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._find_sites()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites or ():
            setattr(owner, attr, original)

    def _find_sites(self) -> list[tuple]:
        resolved = [
            (layer, path, *_resolve(path))
            for layer, paths in LAYERS.items()
            for path in paths
        ]
        modules = [
            module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module
        ]
        sites = []
        for layer, path, owner, name, original in resolved:
            counter = COUNTERS.get(path)
            if isinstance(owner, type):
                wrapper = self._wrap(
                    layer, f"{owner.__name__}.{name}", original, counter
                )
                sites.append((owner, name, original, wrapper))
                continue
            wrapper = self._wrap(layer, name, original, counter)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        sites.append((module, attr, original, wrapper))
        return sites

    def _wrap(self, layer: str, fn: str, original, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span = self.open(layer, fn)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span[6] = counter(args, result)
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    def open(self, layer: str, fn: str) -> list:
        span = [
            len(self.spans), self._stack[-1] if self._stack else None,
            layer, fn, time.perf_counter_ns(), 0, None, self.phase,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def write_jsonl(self, path: str, header: dict) -> None:
        """Write ``header`` then one JSON object per span."""
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, layer, fn, start, end, counts, phase in self.spans:
                record = {
                    "id": sid, "parent": parent, "workload": self.workload,
                    "phase": phase, "layer": layer, "fn": fn,
                    "start_ns": start, "end_ns": end, "pid": pid,
                }
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


def summarize(spans: list[list], phase: str) -> dict[str, dict]:
    """Per-layer self/cumulative ns, call counts and counters for a phase.

    Root spans (``fn`` starting with ``bench.``) contribute time to their
    layer but are not calls. ``session_ms`` lists inclusive session
    durations for the latency percentiles.
    """
    chosen = [s for s in spans if s[7] == phase]
    by_id = {s[0]: s for s in chosen}
    child_ns: dict[int, int] = {}
    for span in chosen:
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[5] - span[4]
    layers: dict[str, dict] = {}
    for span in chosen:
        sid, parent, layer, fn, start, end, counts, _ = span
        entry = layers.setdefault(
            layer, {"self_ns": 0, "cum_ns": 0, "calls": 0, "counts": {}}
        )
        entry["self_ns"] += end - start - child_ns.get(sid, 0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != layer:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["cum_ns"] += end - start
        if fn.startswith("bench."):
            continue
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if layer == "core.session":
            entry.setdefault("session_ms", []).append((end - start) / 1e6)
    return layers


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
