"""End-to-end benchmark of the Nexit reproduction (see README.md).

    python3 benchmarks/e2e/run.py --workload bandwidth --seed 7 --seconds 20 --trace 0

Each workload runs as a closed loop in its own fresh, serial,
single-threaded child process (``worker.py``). ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate run
that reports its per-layer metrics. Every pass's result is checked against
its invariants, against the other passes, and against the committed golden
digest where one applies. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDENS = HERE / "goldens.json"
#: Set-up is timed this many times per run: in fresh processes that only
#: import and set up, plus once in the measuring process. ``setup_s`` is
#: the median.
SETUP_SAMPLES = 3
#: Wall budget for one workload's processes; a run must end within 180 s.
BUDGET_S = 170.0
#: Pinned in every child: the load is one process on one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: ``--smoke``: the workloads on which each layer must fire (and must not
#: fire on the others).
_ALL = frozenset({"distance", "bandwidth", "scale-spine", "multi-isp"})
SMOKE_FIRES = {
    "topology": _ALL,
    "routing.sssp": _ALL,
    "routing.table": _ALL,
    "core.session": _ALL,
    "traffic": _ALL - {"distance"},
    "routing.derive": _ALL - {"distance"},
    "routing.incidence": _ALL - {"distance"},
    "optimal.lp": {"bandwidth", "scale-spine"},
    "baselines": {"distance"},
    "routing.interdomain": {"multi-isp"},
    "core.coordination": {"multi-isp"},
}
SMOKE_LIMIT_S = 20.0


class BenchError(Exception):
    """A run that cannot produce a result at all."""


def host_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_start": list(os.getloadavg()),
        "thread_env": THREAD_ENV,
    }


def run_worker(mode, workload, seed, seconds, deadline, *extra) -> dict:
    """Run ``worker.py`` to completion and return its JSON report."""
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        mode, workload, str(seed), str(seconds), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: time budget spent before {mode} run")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{workload}: {mode} run exceeded the {BUDGET_S:.0f} s budget"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: {mode} run failed with exit code "
            f"{proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def verify(report: dict, seed: int, goldens: dict | None) -> dict:
    """Failed operations of a worker report, and the digest it checked.

    A pass's operations fail when it raises, breaks an invariant, or its
    digest differs from the golden (where one applies: at the golden seed,
    or at any seed for a workload whose result ignores the seed) or, with
    no golden, from the run's first pass.
    """
    passes = report["passes"]
    good = [p for p in passes if "error" not in p]
    golden = None
    if goldens is not None and (not report["seeded"] or seed == goldens["seed"]):
        golden = goldens["sha256"].get(report["workload"])
    reference = golden or (good[0]["digest"] if good else "")
    nominal = round(statistics.median(p["ops"] for p in good)) if good else 1
    attempted = failed = 0
    problems = []
    for p in passes:
        if "error" in p:
            attempted += nominal
            failed += nominal
            problems.append(p["error"].strip().splitlines()[-1])
            continue
        attempted += p["ops"]
        bad = list(p["violations"])
        if p["digest"] != reference:
            bad.append(f"digest {p['digest']} != {reference}")
        if bad:
            failed += p["ops"]
            problems.extend(bad)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "digest": reference, "golden": golden is not None,
        "good": good, "ops": nominal,
    }


def measure(name, seed, seconds, trace, goldens, trace_file=None, header=None):
    """One benchmark run of one workload: its metric values and verdict."""
    deadline = time.monotonic() + BUDGET_S
    if trace:
        extra = []
        if trace_file:
            extra = ["--trace-file", trace_file, "--header", json.dumps(header)]
        report = run_worker("trace", name, seed, seconds, deadline, *extra)
        verdict = verify(report, seed, goldens)
        return report.get("layers", {}), verdict, report
    samples = [
        run_worker("setup", name, seed, 0, deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    report = run_worker("measure", name, seed, seconds, deadline)
    verdict = verify(report, seed, goldens)
    values = {
        "setup_s": statistics.median(
            s["setup_ref_s"] for s in samples + [report]
        ),
        "peak_rss_mb": report["rss_mb"],
    }
    good = verdict["good"]
    if good:
        wall = statistics.median(p["ref_s"] for p in good)
        values.update(
            wall_s=wall, ops_per_s=verdict["ops"] / wall,
            raw_wall_s=statistics.median(p["s"] for p in good),
            slowdown=statistics.median(p["slowdown"] for p in good),
        )
    return values, verdict, report


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics named in ``specs``, as ``{name: {value, unit}}``."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
        for s in specs
    }


def print_run(name, seed, trace, metrics, verdict, report) -> None:
    good = verdict["good"] or [{"s": 0.0, "slowdown": 0.0}]
    print(
        f"{name}  seed={seed}  trace={trace}  passes={len(report['passes'])}"
        f"  ops/pass={verdict['ops']}"
        f"  raw pass median={statistics.median(p['s'] for p in good):.4f} s"
        f"  CPU slowdown median="
        f"{statistics.median(p['slowdown'] for p in good):.3f}"
    )
    for key, metric in metrics.items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    if trace:
        print(f"  {'layer':22s} {'self ms':>10s} {'cum ms':>10s} {'calls':>9s}")
        for layer, self_ms, cum_ms, calls in report["table"]:
            print(f"  {layer:22s} {self_ms:10.2f} {cum_ms:10.2f} {calls:9.1f}")
    kind = "golden" if verdict["golden"] else f"seed {seed} (no golden)"
    state = "FAILED" if verdict["failed"] else "ok"
    print(f"  digest {verdict['digest']}  [{kind}: {state}]")
    for problem in verdict["problems"][:10]:
        print(f"  ! {problem}")


def smoke(names, seed) -> int:
    """Tiny sizes: wrappers resolve, layers fire, traced == untraced."""
    start = time.monotonic()
    problems = []
    failed = set()
    for name in names:
        before = len(problems)
        report = run_worker(
            "trace", name, seed, 0, start + 3 * SMOKE_LIMIT_S, "--smoke"
        )
        verdict = verify(report, seed, None)
        problems += [f"{name}: {p}" for p in verdict["problems"]]
        traced = {p["digest"] for p in report["passes"] if p.get("traced")}
        untraced = {p["digest"] for p in report["passes"] if not p.get("traced")}
        if traced != untraced:
            problems.append(f"{name}: traced digest {traced} != {untraced}")
        calls = report.get("layers")
        if not calls:
            problems.append(f"{name}: no traced pass completed")
            continue
        for layer, fires_on in SMOKE_FIRES.items():
            fired = calls[f"{layer}.calls"] > 0
            if fired != (name in fires_on):
                problems.append(
                    f"{name}: layer {layer} "
                    f"{'fired' if fired else 'did not fire'}"
                )
        if name == "multi-isp" and calls["core.coordination.calls"] != 1:
            problems.append(
                f"{name}: {calls['core.coordination.calls']} coordinations"
            )
        if len(problems) > before:
            failed.add(name)
        print(f"smoke {name}: {len(report['passes'])} passes, "
              f"digest {verdict['digest'][:16]}")
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_LIMIT_S:
        problems.append(f"smoke took {elapsed:.1f} s > {SMOKE_LIMIT_S:.0f} s")
    for problem in problems:
        print(f"! {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": len(names),
        "failed": len(failed),
        "metrics": {"smoke_s": {"value": elapsed, "unit": "s"}},
    }))
    return 0 if not problems else 1


def repeat(names, args, spec, goldens, facts) -> int:
    """Run each workload ``--repeat`` times on successive seeds; gate spread."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"host": facts, "seconds": args.seconds, "workloads": {}}
    ok, attempted, failed, medians = True, 0, 0, {}
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            values, verdict, _ = measure(name, seed, args.seconds, 0, goldens)
            runs.append({"seed": seed, "values": values,
                         "failed": verdict["failed"]})
            attempted += verdict["attempted"]
            failed += verdict["failed"]
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v:.6g}" for k, v in sorted(values.items())
            ), flush=True)
        summary = {}
        for metric, entry in bounds.items():
            vals = [r["values"][metric] for r in runs if metric in r["values"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            gated = metric != "setup_s"
            within = spread <= entry["bound"] or not gated
            ok = ok and within
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "rel_iqr": spread, "bound": entry["bound"]}
            medians[f"{name}.{metric}"] = {"value": median,
                                           "unit": entry["unit"]}
            print(f"  {name:12s} {metric:12s} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} rel IQR {spread:7.4f} "
                  f"bound {entry['bound']:.3f}"
                  f"{'' if within else '  EXCEEDS BOUND'}"
                  f"{'' if gated else '  (not gated)'}")
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": medians}))
    return 0 if ok and failed == 0 else 1


def rebaseline(names, seed) -> int:
    """Rewrite the golden digests of ``names`` from one pass at ``seed``."""
    digests = json.loads(GOLDENS.read_text())["sha256"]
    for name in names:
        report = run_worker(
            "measure", name, seed, 0, time.monotonic() + BUDGET_S
        )
        verdict = verify(report, seed, None)
        if verdict["failed"]:
            raise BenchError(f"{name}: {verdict['problems']}")
        digests[name] = verdict["digest"]
        print(f"{name}: {verdict['digest']}")
    GOLDENS.write_text(json.dumps(
        {"seed": seed, "sha256": digests}, indent=2
    ) + "\n")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    goldens = json.loads(GOLDENS.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=goldens["seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="write the traced run's spans "
                        "here as JSONL (one workload only)")
    parser.add_argument("--out", help="write the full result, with host "
                        "facts, to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: check wrappers, layers, digests")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N runs per workload on successive seeds; "
                        "fail when a metric's relative IQR exceeds its bound")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite goldens.json from one pass per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.trace_file and args.workload == "all":
        parser.error("--trace-file needs one --workload")
    selected = names if args.workload == "all" else [args.workload]
    # subprocess.run kills and reaps its child when the wait is interrupted
    # by an exception; turn SIGTERM into one so no worker outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # Compile once up front so the first timed import does not also pay
    # for writing bytecode.
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    facts = host_facts()
    print("host " + json.dumps(facts), flush=True)
    try:
        if args.smoke:
            return smoke(selected, args.seed)
        if args.rebaseline:
            return rebaseline(selected, args.seed)
        if args.repeat:
            return repeat(selected, args, spec, goldens, facts)
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        header = {"host": facts, "seed": args.seed}
        attempted = failed = 0
        metrics, results = {}, {}
        for name in selected:
            values, verdict, report = measure(
                name, args.seed, args.seconds, args.trace, goldens,
                args.trace_file, header,
            )
            chosen = select(values, specs)
            print_run(name, args.seed, args.trace, chosen, verdict, report)
            attempted += verdict["attempted"]
            failed += verdict["failed"]
            prefix = "" if len(selected) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in chosen.items()})
            results[name] = {"metrics": chosen, "verdict": verdict}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": facts, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "workloads": results}, indent=1
        ) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
