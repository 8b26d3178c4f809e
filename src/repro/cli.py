"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro distance --preset quick
    python -m repro bandwidth --preset bench --unilateral --diverse
    python -m repro dataset --preset bench --out dataset.json
    python -m repro figure1
    python -m repro multi-isp --isps 4 --shape chain --transit-scale 3 \\
        --coord-workers 2
    python -m repro availability --preset quick --link-prob 0.05 \\
        --srg 0,2 --quantiles 0.95,0.999
    python -m repro robust --preset quick --fault-seeds 0,1,2 \\
        --abort-rate 0.15 --tail-weight 0.5
    python -m repro sweep oscillation --preset quick
    python -m repro sweep multi_isp --preset quick \\
        --checkpoint-dir ckpt/ --resume
    python -m repro sweep bandwidth --preset paper --workers -1 \\
        --checkpoint-dir ckpt/ --resume

The CLI prints the same CDF series the benchmark harness emits, so a user
can reproduce any figure without pytest.

Every experiment executes through the unified sweep runner
(:mod:`repro.experiments.runner`): ``--workers N`` parallelizes at unit
granularity with a shared-dataset warm start (``-1`` = one worker per
CPU), and ``--checkpoint-dir DIR`` persists per-unit result shards keyed
by a (scenario, config) fingerprint so an interrupted sweep rerun with
``--resume`` recomputes only the missing units (a checkpoint written under
a different fingerprint refuses to resume). Every sweep-capable command
also exposes ``--max-retries`` / ``--retry-backoff``, the runner's
per-unit fault-tolerance knobs. The ``sweep`` subcommand runs any
registered scenario — ``distance``, ``bandwidth``, ``oscillation``,
``destination``, ``multi_isp``, ``robust_negotiation`` — and prints its
summary claims.

``multi-isp`` runs the multi-ISP coordination sweep (chain / ring /
random internetworks; chained pairwise sessions with transit background)
and prints the per-round convergence trajectory. The sweep is a single
unit, one coordination, so ``--coord-workers`` parallelizes it and
``--workers`` does not. ``robust`` compares
nominal-only against CVaR-aware agents across seeded fault plans
(session aborts, deadlines, link failures) and prints the
expected/VaR/CVaR MEL deltas.

A library error (:class:`~repro.errors.ReproError`: bad parameters, an
unroutable topology, ...) ends the command with one ``repro: error:`` line
on stderr and exit status 2, the status argparse uses for bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from repro.errors import ReproError
from repro.experiments.analysis import gain_by_interconnection_count
from repro.experiments.bandwidth import run_bandwidth_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import run_distance_experiment
from repro.experiments.report import format_claims, format_series_table
from repro.optimal.solver import available_lp_solvers

__all__ = ["main", "build_parser"]

_PRESETS = {
    "quick": ExperimentConfig.quick,
    "bench": ExperimentConfig.bench,
    "paper": ExperimentConfig.paper,
}

#: Scenarios the ``sweep`` subcommand exposes (config-driven sweeps only;
#: "grouped" needs a caller-supplied pair, so it stays API-only).
_SWEEP_SCENARIOS = (
    "availability", "distance", "bandwidth", "oscillation", "destination",
    "multi_isp", "robust_negotiation",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nexit (NSDI 2005) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_preset(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", choices=sorted(_PRESETS), default="quick",
                       help="experiment scale (default: quick)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the workload seed")
        p.add_argument("--lp-solver", default=None, metavar="NAME",
                       choices=available_lp_solvers(),
                       help="LP backend for every solved LP "
                            "(default: highs; see repro.optimal.solver)")

    def add_runner(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=None,
                       help="parallel worker processes (default: serial; "
                            "-1 = one per CPU)")
        p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="persist per-unit result shards under DIR "
                            "(keyed by the sweep's config fingerprint)")
        p.add_argument("--resume", action="store_true",
                       help="with --checkpoint-dir: skip units whose "
                            "shards are already complete (refuses if the "
                            "directory holds a different sweep)")
        p.add_argument("--max-retries", type=int, default=None, metavar="N",
                       help="retries per failing sweep unit "
                            "(default: runner default)")
        p.add_argument("--retry-backoff", type=float, default=None,
                       metavar="S",
                       help="base retry backoff in seconds, doubling per "
                            "attempt (default: runner default)")

    p_dist = sub.add_parser("distance",
                            help="Section 5.1: the distance experiment")
    add_preset(p_dist)
    add_runner(p_dist)
    p_dist.add_argument("--cheating", action="store_true",
                        help="include the Figure 10 cheating variant")

    p_bw = sub.add_parser("bandwidth",
                          help="Section 5.2: the bandwidth experiment")
    add_preset(p_bw)
    add_runner(p_bw)
    p_bw.add_argument("--unilateral", action="store_true",
                      help="include the Figure 8 unilateral comparison")
    p_bw.add_argument("--diverse", action="store_true",
                      help="include the Figure 9 diverse-objective variant")
    p_bw.add_argument("--cheating", action="store_true",
                      help="include the Figure 11 cheating variant")

    p_av = sub.add_parser(
        "availability",
        help="probability-weighted MELs under correlated failures "
             "(TeaVAR-style scenario enumeration)",
    )
    add_preset(p_av)
    add_runner(p_av)
    p_av.add_argument("--link-prob", type=float, default=0.01,
                      metavar="P",
                      help="per-interconnection failure probability, in "
                           "(0, 0.5) (default: 0.01)")
    p_av.add_argument("--cutoff", type=float, default=1e-6,
                      help="skip scenarios below this probability "
                           "(default: 1e-6)")
    p_av.add_argument("--max-failed", type=int, default=None, metavar="N",
                      help="cap on simultaneously failed risk units "
                           "(default: no cap beyond the cutoff)")
    p_av.add_argument("--srg", action="append", default=None,
                      metavar="I,J[,K...]",
                      help="shared-risk group of interconnection columns "
                           "that fail together; repeatable")
    p_av.add_argument("--quantiles", default="0.95,0.99",
                      help="comma-separated VaR/CVaR quantiles "
                           "(default: 0.95,0.99)")
    p_av.add_argument("--threshold", type=float, default=1.0,
                      help="survivability MEL threshold (default: 1.0)")

    p_ds = sub.add_parser("dataset", help="build and export the ISP dataset")
    add_preset(p_ds)
    p_ds.add_argument("--out", default=None,
                      help="write the dataset as JSON to this path")

    sub.add_parser("figure1", help="run the Figure 1 walkthrough")

    p_multi = sub.add_parser(
        "multi-isp",
        help="chained pairwise negotiation over a multi-ISP internetwork",
    )
    add_preset(p_multi)
    add_runner(p_multi)
    p_multi.add_argument("--isps", type=int, default=4, metavar="N",
                         help="how many ISPs (default: 4)")
    p_multi.add_argument("--shape", choices=("chain", "ring", "random"),
                         default="chain",
                         help="internetwork shape (default: chain)")
    p_multi.add_argument("--rounds", type=int, default=4,
                         help="coordination round limit (default: 4; "
                              "larger random internetworks can hit it "
                              "while flows still move, as --isps 20 "
                              "--shape random does)")
    p_multi.add_argument("--order", choices=("round_robin", "random"),
                         default="round_robin",
                         help="per-round edge order (default: round_robin)")
    p_multi.add_argument("--no-transit", action="store_true",
                         help="disable inter-domain transit background")
    p_multi.add_argument("--transit-scale", type=float, default=3.0,
                         help="mean per-PoP transit demand (default: 3.0)")
    p_multi.add_argument("--coord-workers", type=int, default=None,
                         metavar="W",
                         help="processes per color class inside each "
                              "coordination round (-1: all cores; "
                              "default: serial)")
    p_multi.add_argument("--damping", choices=("off", "ladder"),
                         default=None,
                         help="oscillation response: off = stop on a "
                              "fingerprint revisit, ladder = escalate "
                              "hysteresis then seeded perturbation "
                              "(default: the config's, normally off)")
    p_multi.add_argument("--hysteresis-margin", type=float, default=None,
                         metavar="E",
                         help="required per-endpoint MEL improvement on "
                              "cycle-implicated edges while damping "
                              "hysteresis is armed (default: the "
                              "config's, normally 0.05)")

    p_robust = sub.add_parser(
        "robust",
        help="robust negotiation under failure: nominal vs CVaR-aware "
             "agents across seeded fault plans",
    )
    add_preset(p_robust)
    add_runner(p_robust)
    p_robust.add_argument("--isps", type=int, default=3, metavar="N",
                          help="how many ISPs (default: 3)")
    p_robust.add_argument("--shape", choices=("chain", "ring", "random"),
                          default="chain",
                          help="internetwork shape (default: chain)")
    p_robust.add_argument("--rounds", type=int, default=6,
                          help="coordination round limit (default: 6)")
    p_robust.add_argument("--link-prob", type=float, default=0.05,
                          metavar="P",
                          help="per-interconnection failure probability "
                               "the agents plan against (default: 0.05)")
    p_robust.add_argument("--cutoff", type=float, default=1e-4,
                          help="scenario enumeration probability cutoff "
                               "(default: 1e-4)")
    p_robust.add_argument("--max-failed", type=int, default=2, metavar="N",
                          help="cap on simultaneously failed columns "
                               "(default: 2)")
    p_robust.add_argument("--tail-weight", type=float, default=0.5,
                          metavar="L",
                          help="CVaR blend weight for the cvar mode "
                               "(default: 0.5)")
    p_robust.add_argument("--tail-quantile", type=float, default=0.9,
                          metavar="Q",
                          help="CVaR quantile (default: 0.9)")
    p_robust.add_argument("--fault-seeds", default="0,1,2",
                          help="comma-separated fault-plan seeds "
                               "(default: 0,1,2)")
    p_robust.add_argument("--abort-rate", type=float, default=0.15,
                          help="per-slot session abort probability "
                               "(default: 0.15)")
    p_robust.add_argument("--deadline-rate", type=float, default=0.1,
                          help="per-slot deadline-fault probability "
                               "(default: 0.1)")
    p_robust.add_argument("--link-failure-rate", type=float, default=0.1,
                          help="per-slot link-failure probability "
                               "(default: 0.1)")

    p_sweep = sub.add_parser(
        "sweep",
        help="run any registered sweep scenario through the unified runner",
    )
    p_sweep.add_argument("scenario", choices=_SWEEP_SCENARIOS,
                         help="which sweep to run")
    add_preset(p_sweep)
    add_runner(p_sweep)

    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    config = _PRESETS[args.preset]()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "lp_solver", None) is not None:
        config = replace(config, lp_solver=args.lp_solver)
    return config


def _runner_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
    )


def _run_distance(args: argparse.Namespace, out) -> int:
    config = _config(args)
    result = run_distance_experiment(
        config, include_cheating=args.cheating, **_runner_kwargs(args)
    )
    print(format_series_table(
        "Figure 4a: total % distance gain (CDF over pairs)",
        [result.cdf_total_gain("optimal"), result.cdf_total_gain("negotiated")],
    ), file=out)
    print(format_series_table(
        "Figure 4b: individual per-ISP % gain (CDF)",
        [result.cdf_individual_gain("optimal"),
         result.cdf_individual_gain("negotiated")],
    ), file=out)
    claims = [
        ("median total gain (optimal / negotiated)",
         f"{result.median_total_gain('optimal'):.2f}% / "
         f"{result.median_total_gain('negotiated'):.2f}%"),
        ("fraction of ISPs losing (optimal / negotiated)",
         f"{result.fraction_isps_losing('optimal'):.2f} / "
         f"{result.fraction_isps_losing('negotiated'):.2f}"),
    ]
    if args.cheating:
        claims.append(
            ("median total gain with one cheater",
             f"{result.cdf_total_gain('cheating').median():.2f}%")
        )
    print(format_claims("summary", claims), file=out)
    grouped = gain_by_interconnection_count(result)
    print("-- negotiated gain by interconnection count --", file=out)
    for count, (n_pairs, median) in grouped.items():
        print(f"  {count} interconnections: {n_pairs:3d} pairs, "
              f"median gain {median:5.2f}%", file=out)
    return 0


def _run_bandwidth(args: argparse.Namespace, out) -> int:
    config = _config(args)
    result = run_bandwidth_experiment(
        config,
        include_unilateral=args.unilateral,
        include_cheating=args.cheating,
        include_diverse=args.diverse,
        **_runner_kwargs(args),
    )
    print(format_series_table(
        "Figure 7 (left): upstream MEL ratio to optimal (CDF)",
        [result.cdf_ratio("default", "a"), result.cdf_ratio("negotiated", "a")],
    ), file=out)
    print(format_series_table(
        "Figure 7 (right): downstream MEL ratio to optimal (CDF)",
        [result.cdf_ratio("default", "b"), result.cdf_ratio("negotiated", "b")],
    ), file=out)
    if args.unilateral:
        print(format_series_table(
            "Figure 8: downstream MEL, unilateral / default",
            [result.cdf_unilateral_downstream()],
        ), file=out)
    if args.diverse:
        print(format_series_table(
            "Figure 9 (right): downstream distance gain %",
            [result.cdf_diverse_downstream_gain()],
        ), file=out)
    if args.cheating:
        print(format_series_table(
            "Figure 11: MEL ratios with a cheating upstream",
            [result.cdf_ratio("cheating", "a"), result.cdf_ratio("cheating", "b")],
        ), file=out)
    return 0


def _run_availability(args: argparse.Namespace, out) -> int:
    from repro.experiments.availability import (
        _availability_summary,
        run_availability_experiment,
    )

    config = _config(args)
    quantiles = tuple(float(q) for q in args.quantiles.split(",") if q)
    srgs = tuple(
        tuple(int(col) for col in group.split(","))
        for group in (args.srg or ())
    )
    result = run_availability_experiment(
        config,
        link_probability=args.link_prob,
        shared_risk_groups=srgs,
        cutoff=args.cutoff,
        max_failed=args.max_failed,
        quantiles=quantiles,
        survivability_threshold=args.threshold,
        **_runner_kwargs(args),
    )
    print(format_series_table(
        "expected upstream MEL under correlated failures (CDF over pairs)",
        [result.cdf_expected("default", "a"),
         result.cdf_expected("negotiated", "a")],
    ), file=out)
    if quantiles:
        print(format_series_table(
            f"upstream CVaR@{quantiles[-1]} (CDF over pairs)",
            [result.cdf_cvar(quantiles[-1], "default", "a"),
             result.cdf_cvar(quantiles[-1], "negotiated", "a")],
        ), file=out)
    print(format_claims("availability", _availability_summary(result)),
          file=out)
    return 0


def _run_dataset(args: argparse.Namespace, out) -> int:
    from repro.topology.dataset import build_default_dataset
    from repro.topology.serialization import save_dataset_json

    config = _config(args)
    dataset = build_default_dataset(config.dataset)
    print(dataset.summary(), file=out)
    pairs2 = dataset.pairs(min_interconnections=2)
    pairs3 = dataset.pairs(min_interconnections=3)
    print(f"pairs with >= 2 interconnections: {len(pairs2)}", file=out)
    print(f"pairs with >= 3 interconnections: {len(pairs3)}", file=out)
    if args.out:
        save_dataset_json(dataset.isps, args.out)
        print(f"wrote {len(dataset.isps)} ISPs to {args.out}", file=out)
    return 0


def _run_figure1(out) -> int:
    from repro import build_figure1_pair, negotiate_distance_pair

    scenario = build_figure1_pair()
    outcome = negotiate_distance_pair(scenario.pair)
    ics = scenario.pair.interconnections
    src, dst = scenario.flow_a_to_b
    flow_index = src * scenario.pair.isp_b.n_pops() + dst
    chosen = ics[int(outcome.choices[flow_index])].city
    print(f"negotiated interconnection for the Figure 1 flow: {chosen}",
          file=out)
    print(outcome.summary(), file=out)
    return 0


def _run_multi_isp(args: argparse.Namespace, out) -> int:
    from repro.experiments.internetwork import run_multi_isp_experiment

    config = _config(args)
    result = run_multi_isp_experiment(
        config,
        n_isps=args.isps,
        shape=args.shape,
        rounds=args.rounds,
        order=args.order,
        include_transit=not args.no_transit,
        transit_scale=args.transit_scale,
        coord_workers=args.coord_workers,
        damping=args.damping,
        hysteresis_margin=args.hysteresis_margin,
        **_runner_kwargs(args),
    )
    print(f"internetwork: {len(result.isp_names)} ISPs "
          f"({', '.join(result.isp_names)}), "
          f"{len(result.edge_names)} peering edges", file=out)
    transit_note = "no transit" if args.no_transit else "with transit"
    print(f"initial global MEL ({transit_note}): {result.initial_mel:.4f}",
          file=out)
    for round_index in range(result.n_rounds):
        records = result.round_records(round_index)
        if not records or not records[0].executed_round:
            break
        sessions = sum(r.ran_session for r in records)
        moved = sum(r.n_changed for r in records)
        print(f"  round {round_index}: {sessions} sessions, "
              f"{moved} flows moved, "
              f"global MEL {records[-1].global_mel:.4f}", file=out)
    converged = result.converged_round()
    claims = [
        ("converged", "yes" if converged is not None else
         f"no (round limit {args.rounds})"),
        ("global MEL initial -> final",
         f"{result.initial_mel:.4f} -> {result.final_mel:.4f}"),
    ]
    print(format_claims("multi-ISP coordination", claims), file=out)
    return 0


def _run_robust(args: argparse.Namespace, out) -> int:
    from repro.experiments.robustness import (
        _robustness_summary,
        run_robustness_experiment,
    )

    config = _config(args)
    fault_seeds = tuple(
        int(seed) for seed in args.fault_seeds.split(",") if seed
    )
    result = run_robustness_experiment(
        config,
        n_isps=args.isps,
        shape=args.shape,
        rounds=args.rounds,
        link_probability=args.link_prob,
        cutoff=args.cutoff,
        max_failed=args.max_failed,
        tail_weight=args.tail_weight,
        tail_quantile=args.tail_quantile,
        fault_seeds=fault_seeds,
        abort_rate=args.abort_rate,
        deadline_rate=args.deadline_rate,
        link_failure_rate=args.link_failure_rate,
        **_runner_kwargs(args),
    )
    print(format_claims("robust negotiation under failure",
                        _robustness_summary(result)), file=out)
    return 0


def _run_sweep(args: argparse.Namespace, out) -> int:
    from repro.experiments.runner import (
        SweepRunner,
        get_scenario,
        retry_kwargs,
    )

    config = _config(args)
    spec = get_scenario(args.scenario)
    runner = SweepRunner(
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        **retry_kwargs(args.max_retries, args.retry_backoff),
    )
    aggregate = runner.run(spec, config)
    claims = spec.summarize(aggregate) if spec.summarize else [
        ("result", repr(aggregate))
    ]
    print(format_claims(f"sweep: {spec.name}", claims), file=out)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "distance":
        return _run_distance(args, out)
    if args.command == "bandwidth":
        return _run_bandwidth(args, out)
    if args.command == "availability":
        return _run_availability(args, out)
    if args.command == "dataset":
        return _run_dataset(args, out)
    if args.command == "figure1":
        return _run_figure1(out)
    if args.command == "multi-isp":
        return _run_multi_isp(args, out)
    if args.command == "robust":
        return _run_robust(args, out)
    if args.command == "sweep":
        return _run_sweep(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
