"""One benchmark child process: import, set up, then run passes.

``run.py`` starts it as ``worker.py MODE WORKLOAD SEED SECONDS [--smoke]
[--trace-file FILE --header JSON]`` in a fresh, single-threaded process and
reads the JSON object on its last stdout line. Modes:

* ``setup`` imports ``repro`` and sets the workload up, nothing else;
* ``measure`` then runs untraced passes back to back for SECONDS (at
  least one);
* ``trace`` sets up under the layer wrappers, then alternates untraced and
  traced passes for SECONDS. The first pass is untraced and warms the
  process; it is left out of the overhead estimate.

Every timed interval is reported raw and at reference CPU speed
(``ref_s``, see ``speed.py``).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from spans import LAYERS, ROOT_LAYER, Tracer, percentile, summarize  # noqa: E402
from speed import SpeedProbe, at_reference  # noqa: E402


def _traced(tracer, phase: str, call):
    """Run ``call()`` under the installed wrappers inside a root span."""
    tracer.install()
    tracer.recording, tracer.phase = True, phase
    root = tracer.open(ROOT_LAYER, f"bench.{phase}")
    try:
        return call()
    finally:
        tracer.close(root)
        tracer.recording = False
        tracer.uninstall()


def _run_pass(workload, state, tracer, probe) -> tuple[dict, object]:
    """One timed pass: its timing record and its result (None if it raised)."""
    since = len(probe.samples)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(state)
        else:
            result = _traced(tracer, "pass", lambda: workload.run(state))
    except Exception:
        return {
            "s": time.perf_counter() - start, "error": traceback.format_exc()
        }, None
    seconds = time.perf_counter() - start
    slowdown = probe.slowdown(since)
    return {
        "s": seconds,
        "slowdown": slowdown,
        "ref_s": at_reference(seconds, slowdown),
        "traced": tracer is not None,
    }, result


def _layer_metrics(tracer, import_s, passes, units) -> tuple[dict, list]:
    """Per-layer metrics of one traced run: import + set-up + one pass.

    Pass figures are the mean over traced passes; every pass of a run does
    identical work, so counts are exact per pass.
    """
    setup = summarize(tracer.spans, "setup")
    traced = summarize(tracer.spans, "pass")
    traced_s = [p["s"] for p in passes if p.get("traced")]
    traced_ref_s = [p["ref_s"] for p in passes if p.get("traced")]
    untraced_ref_s = [p["ref_s"] for p in passes[1:] if not p.get("traced")]
    n = len(traced_s)
    setup_ns = sum(s[5] - s[4] for s in tracer.spans if s[3] == "bench.setup")
    import_ns = import_s * 1e9
    run_ns = import_ns + setup_ns + sum(traced_s) * 1e9 / n

    def per_run(layer: str, key: str) -> float:
        return (
            setup.get(layer, {}).get(key, 0)
            + traced.get(layer, {}).get(key, 0) / n
        )

    def count(layer: str, key: str) -> float:
        return (
            setup.get(layer, {}).get("counts", {}).get(key, 0)
            + traced.get(layer, {}).get("counts", {}).get(key, 0) / n
        )

    metrics = {"import.self_pct": 100 * import_ns / run_ns}
    table = [("import", import_ns / 1e6, import_ns / 1e6, 1)]
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = 100 * per_run(layer, "self_ns") / run_ns
        metrics[f"{layer}.calls"] = per_run(layer, "calls")
        table.append((
            layer, per_run(layer, "self_ns") / 1e6,
            per_run(layer, "cum_ns") / 1e6, per_run(layer, "calls"),
        ))
    session_ms = traced.get("core.session", {}).get("session_ms", [])
    proposals = count("core.session", "proposals")
    sessions = count("core.coordination", "sessions")
    records = count("core.coordination", "records")
    metrics.update({
        "core.session.p50_ms": percentile(session_ms, 50),
        "core.session.p90_ms": percentile(session_ms, 90),
        "core.session.proposals": proposals,
        "core.session.accept_ratio": (
            count("core.session", "accepted") / proposals if proposals else 0.0
        ),
        "core.session.rollback_steps": count("core.session", "rollback_steps"),
        "core.session.reassignments": count("core.session", "reassignments"),
        "optimal.lp.nnz": count("optimal.lp", "nnz"),
        "core.coordination.rounds": count("core.coordination", "rounds"),
        "core.coordination.sessions": sessions,
        "core.coordination.adopt_ratio": (
            count("core.coordination", "adopted") / sessions
            if sessions else 0.0
        ),
        "core.coordination.skip_ratio": (
            (records - sessions) / records if records else 0.0
        ),
        "experiments.units": units,
        "trace.overhead_frac": (
            statistics.median(traced_ref_s) / statistics.median(untraced_ref_s)
            - 1 if untraced_ref_s else 0.0
        ),
    })
    return metrics, table


def _run(args, probe) -> dict:
    # Everything below imports repro, numpy and scipy: the timed import.
    from digest import result_digest
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload]
    tracer = Tracer(workload.name) if args.mode == "trace" else None
    start = time.perf_counter()
    if tracer is None:
        state = workload.setup(args.seed, args.smoke)
    else:
        state = _traced(
            tracer, "setup", lambda: workload.setup(args.seed, args.smoke)
        )
    setup_s = time.perf_counter() - start
    report = {
        "workload": workload.name,
        "seeded": workload.seeded,
        "import_s": import_s,
        "setup_s": setup_s,
        "setup_ref_s": at_reference(import_s + setup_s, probe.slowdown(0)),
    }
    if args.mode == "setup":
        return report

    passes, result = [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        record, out = _run_pass(
            workload, state, tracer if traced else None, probe
        )
        passes.append(record)
        if out is None:
            break
        result = out
        record.update(
            ops=workload.ops(result),
            digest=result_digest(result),
            violations=workload.check(result),
        )
        n_traced = sum(1 for p in passes if p["traced"])
        if tracer is None:
            enough = True
        elif args.smoke:
            enough = n_traced >= 1
        else:
            enough = n_traced >= 2 and len(passes) - 1 - n_traced >= 2
        if enough and time.perf_counter() >= deadline:
            break
    report["passes"] = passes
    if tracer is not None and any(p.get("traced") for p in passes):
        report["layers"], report["table"] = _layer_metrics(
            tracer, import_s, passes, workload.units(result)
        )
        if args.trace_file:
            tracer.write_jsonl(args.trace_file, json.loads(args.header))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--header", default="{}")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    try:
        report = _run(args, probe)
    finally:
        probe.stop()
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
