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

``distance`` prints Figures 4, 5 and 6 (10 with ``--cheating``) and
``bandwidth`` Figure 7 (8, 9 and 11 with ``--unilateral``, ``--diverse``
and ``--cheating``) as CDF series. Each ends with the paper's claims
measured on those figures, the block ``sweep distance`` / ``sweep
bandwidth`` prints. ``FIGURES.md`` holds their bench-preset output.

Every experiment executes through the unified sweep runner
(:mod:`repro.experiments.runner`): ``--workers N`` parallelizes at unit
granularity with a shared-dataset warm start (``-1`` = one worker per
CPU), and ``--checkpoint-dir DIR`` persists per-unit result shards keyed
by a (scenario, config) fingerprint so an interrupted sweep rerun with
``--resume`` recomputes only the missing units (a checkpoint written under
a different fingerprint refuses to resume). Each unit runs once: the units
that raise are named in one ``repro: error:`` line after the others have
completed and checkpointed, so ``--resume`` re-runs only those. The
``sweep`` subcommand runs any registered scenario — ``availability``,
``distance``, ``bandwidth``, ``oscillation``, ``destination``,
``multi_isp``, ``robust_negotiation`` — at its defaults and prints its
summary claims. The other experiment verbs' flags store into their
scenario's param names and take their defaults from its
``default_params``.

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
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_claims, format_series_table
from repro.experiments.runner import (
    ScenarioSpec,
    SweepRunner,
    get_scenario,
)
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


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(item) for item in text.split(",") if item)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(item) for item in text.split(",") if item)


def _commas(values) -> str:
    """A tuple default as its flag spelling; argparse parses it back."""
    return ",".join(str(value) for value in values)


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

    def add_verb(verb: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, **kwargs)
        add_preset(p)
        add_runner(p)
        return p

    def add_shape(p: argparse.ArgumentParser, params) -> None:
        p.add_argument("--isps", dest="n_isps", type=int,
                       default=params["n_isps"], metavar="N",
                       help="how many ISPs (default: %(default)s)")
        p.add_argument("--shape", choices=("chain", "ring", "random"),
                       default=params["shape"],
                       help="internetwork shape (default: %(default)s)")

    params = get_scenario("distance").default_params
    p_dist = add_verb("distance",
                      help="Section 5.1: the distance experiment")
    p_dist.add_argument("--cheating", dest="include_cheating",
                        action="store_true",
                        default=params["include_cheating"],
                        help="include the Figure 10 cheating variant")

    params = get_scenario("bandwidth").default_params
    p_bw = add_verb("bandwidth", help="Section 5.2: the bandwidth experiment")
    p_bw.add_argument("--unilateral", dest="include_unilateral",
                      action="store_true",
                      default=params["include_unilateral"],
                      help="include the Figure 8 unilateral comparison")
    p_bw.add_argument("--diverse", dest="include_diverse",
                      action="store_true", default=params["include_diverse"],
                      help="include the Figure 9 diverse-objective variant")
    p_bw.add_argument("--cheating", dest="include_cheating",
                      action="store_true", default=params["include_cheating"],
                      help="include the Figure 11 cheating variant")

    params = get_scenario("availability").default_params
    p_av = add_verb(
        "availability",
        help="probability-weighted MELs under correlated failures "
             "(TeaVAR-style scenario enumeration)",
    )
    p_av.add_argument("--link-prob", dest="link_probability", type=float,
                      default=params["link_probability"], metavar="P",
                      help="per-interconnection failure probability, in "
                           "(0, 0.5) (default: %(default)s)")
    p_av.add_argument("--cutoff", type=float, default=params["cutoff"],
                      help="skip scenarios below this probability "
                           "(default: %(default)s)")
    p_av.add_argument("--max-failed", type=int,
                      default=params["max_failed"], metavar="N",
                      help="cap on simultaneously failed risk units "
                           "(default: no cap beyond the cutoff)")
    # None: the spec's no-groups default (an append flag needs a list).
    p_av.add_argument("--srg", dest="shared_risk_groups", type=_ints,
                      action="append", default=None,
                      metavar="I,J[,K...]",
                      help="shared-risk group of interconnection columns "
                           "that fail together; repeatable")
    p_av.add_argument("--quantiles", type=_floats,
                      default=_commas(params["quantiles"]),
                      help="comma-separated VaR/CVaR quantiles "
                           "(default: %(default)s)")
    p_av.add_argument("--threshold", dest="survivability_threshold",
                      type=float, default=params["survivability_threshold"],
                      metavar="THRESHOLD",
                      help="survivability MEL threshold "
                           "(default: %(default)s)")

    p_ds = sub.add_parser("dataset", help="build and export the ISP dataset")
    add_preset(p_ds)
    p_ds.add_argument("--out", default=None,
                      help="write the dataset as JSON to this path")

    sub.add_parser("figure1", help="run the Figure 1 walkthrough")

    params = get_scenario("multi_isp").default_params
    p_multi = add_verb(
        "multi-isp",
        help="chained pairwise negotiation over a multi-ISP internetwork",
    )
    add_shape(p_multi, params)
    p_multi.add_argument("--rounds", type=int, default=params["rounds"],
                         help="coordination round limit (default: "
                              "%(default)s; larger random internetworks "
                              "can hit it while flows still move, as "
                              "--isps 20 --shape random does)")
    p_multi.add_argument("--order", choices=("round_robin", "random"),
                         default=params["order"],
                         help="per-round edge order (default: %(default)s)")
    p_multi.add_argument("--transit-scale", type=float,
                         default=params["transit_scale"],
                         help="mean per-PoP transit demand; 0 disables "
                              "inter-domain transit background "
                              "(default: %(default)s)")
    p_multi.add_argument("--coord-workers", type=int,
                         default=params["coord_workers"], metavar="W",
                         help="processes per color class inside each "
                              "coordination round (-1: all cores; "
                              "default: serial)")
    p_multi.add_argument("--damping", choices=("off", "ladder"),
                         default=params["damping"],
                         help="oscillation response: off = stop on a "
                              "fingerprint revisit, ladder = escalate "
                              "hysteresis then seeded perturbation "
                              "(default: %(default)s)")
    p_multi.add_argument("--hysteresis-margin", type=float,
                         default=params["hysteresis_margin"], metavar="E",
                         help="required per-endpoint MEL improvement on "
                              "cycle-implicated edges while damping "
                              "hysteresis is armed (default: "
                              "%(default)s)")

    params = get_scenario("robust_negotiation").default_params
    p_robust = add_verb(
        "robust",
        help="robust negotiation under failure: nominal vs CVaR-aware "
             "agents across seeded fault plans",
    )
    add_shape(p_robust, params)
    p_robust.add_argument("--rounds", type=int, default=params["rounds"],
                          help="coordination round limit "
                               "(default: %(default)s)")
    p_robust.add_argument("--link-prob", dest="link_probability",
                          type=float, default=params["link_probability"],
                          metavar="P",
                          help="per-interconnection failure probability "
                               "the agents plan against "
                               "(default: %(default)s)")
    p_robust.add_argument("--cutoff", type=float, default=params["cutoff"],
                          help="scenario enumeration probability cutoff "
                               "(default: %(default)s)")
    p_robust.add_argument("--max-failed", type=int,
                          default=params["max_failed"], metavar="N",
                          help="cap on simultaneously failed columns "
                               "(default: %(default)s)")
    p_robust.add_argument("--tail-weight", type=float,
                          default=params["tail_weight"], metavar="L",
                          help="CVaR blend weight for the cvar mode "
                               "(default: %(default)s)")
    p_robust.add_argument("--tail-quantile", type=float,
                          default=params["tail_quantile"], metavar="Q",
                          help="CVaR quantile (default: %(default)s)")
    p_robust.add_argument("--fault-seeds", type=_ints,
                          default=_commas(params["fault_seeds"]),
                          help="comma-separated fault-plan seeds "
                               "(default: %(default)s)")
    p_robust.add_argument("--abort-rate", type=float,
                          default=params["abort_rate"],
                          help="per-slot session abort probability "
                               "(default: %(default)s)")
    p_robust.add_argument("--deadline-rate", type=float,
                          default=params["deadline_rate"],
                          help="per-slot deadline-fault probability "
                               "(default: %(default)s)")
    p_robust.add_argument("--link-failure-rate", type=float,
                          default=params["link_failure_rate"],
                          help="per-slot link-failure probability "
                               "(default: %(default)s)")

    p_sweep = add_verb(
        "sweep",
        help="run any registered sweep scenario through the unified runner",
    )
    p_sweep.add_argument("scenario", choices=_SWEEP_SCENARIOS,
                         help="which sweep to run")

    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    config = _PRESETS[args.preset]()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "lp_solver", None) is not None:
        config = replace(config, lp_solver=args.lp_solver)
    return config


def _sweep(args: argparse.Namespace, spec: ScenarioSpec):
    """Run ``spec`` with every arg named after one of its params.

    An arg left at ``None`` is skipped, so the spec's default applies.
    """
    config = _config(args)
    params = {
        name: getattr(args, name)
        for name in spec.default_params
        if getattr(args, name, None) is not None
    }
    runner = SweepRunner(
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    return runner.run(spec, config, params)


def _claims(spec: ScenarioSpec, aggregate) -> str:
    """The claim block ``sweep <scenario>`` prints for ``aggregate``."""
    claims = spec.summarize(aggregate) if spec.summarize else [
        ("result", repr(aggregate))
    ]
    return format_claims(f"sweep: {spec.name}", claims)


def _print_figures(figures, out) -> None:
    for title, cdfs in figures:
        print(format_series_table(title, cdfs), file=out)


def _run_distance(args: argparse.Namespace, out) -> int:
    spec = get_scenario("distance")
    result = _sweep(args, spec)
    total, individual = result.cdf_total_gain, result.cdf_individual_gain
    figures = [
        ("Figure 4a: total % distance gain over ISP pairs (CDF)",
         [total("optimal"), total("negotiated")]),
        ("Figure 4b: individual per-ISP % gain (CDF)",
         [individual("optimal"), individual("negotiated")]),
        ("Figure 5: total % gain of per-flow strategies (CDF over pairs)",
         [total("flow_pareto"), total("flow_both_better"),
          total("negotiated")]),
        ("Figure 6: per-flow % gain, all flows pooled (CDF)",
         [result.cdf_flow_gain("optimal"),
          result.cdf_flow_gain("negotiated")]),
    ]
    if args.include_cheating:
        figures += [
            ("Figure 10a: total % gain, both truthful vs one cheater (CDF)",
             [total("negotiated"), total("cheating")]),
            ("Figure 10b: individual % gain under cheating (CDF)",
             [individual("negotiated"), individual("cheater"),
              individual("truthful")]),
        ]
    _print_figures(figures, out)
    grouped = gain_by_interconnection_count(result)
    print("-- negotiated gain by interconnection count --", file=out)
    for count, (n_pairs, median) in grouped.items():
        print(f"  {count} interconnections: {n_pairs:3d} pairs, "
              f"median gain {median:5.2f}%", file=out)
    print(_claims(spec, result), file=out)
    return 0


def _run_bandwidth(args: argparse.Namespace, out) -> int:
    spec = get_scenario("bandwidth")
    result = _sweep(args, spec)
    ratio = result.cdf_ratio
    figures = [
        ("Figure 7 (left): upstream MEL ratio to optimal (CDF over "
         "failures)",
         [ratio("default", "a"), ratio("negotiated", "a")]),
        ("Figure 7 (right): downstream MEL ratio to optimal (CDF over "
         "failures)",
         [ratio("default", "b"), ratio("negotiated", "b")]),
    ]
    if args.include_unilateral:
        figures.append(
            ("Figure 8: downstream MEL, upstream-unilateral / default (CDF)",
             [result.cdf_unilateral_downstream()])
        )
    if args.include_diverse:
        figures += [
            ("Figure 9 (left): upstream MEL ratio to optimal, diverse "
             "objectives (CDF)",
             [ratio("default", "a"), ratio("diverse", "a")]),
            ("Figure 9 (right): downstream % distance gain over default "
             "(CDF)",
             [result.cdf_diverse_downstream_gain()]),
        ]
    if args.include_cheating:
        figures += [
            ("Figure 11 (left): upstream (cheater) MEL ratio to optimal "
             "(CDF)",
             [ratio("negotiated", "a"), ratio("cheating", "a"),
              ratio("default", "a")]),
            ("Figure 11 (right): downstream (truthful) MEL ratio to optimal "
             "(CDF)",
             [ratio("negotiated", "b"), ratio("cheating", "b"),
              ratio("default", "b")]),
        ]
    _print_figures(figures, out)
    print(_claims(spec, result), file=out)
    return 0


def _run_availability(args: argparse.Namespace, out) -> int:
    from repro.experiments.availability import _availability_summary

    result = _sweep(args, get_scenario("availability"))
    print(format_series_table(
        "expected upstream MEL under correlated failures (CDF over pairs)",
        [result.cdf_expected("default", "a"),
         result.cdf_expected("negotiated", "a")],
    ), file=out)
    if result.quantiles:
        q = result.quantiles[-1]
        print(format_series_table(
            f"upstream CVaR@{q} (CDF over pairs)",
            [result.cdf_cvar(q, "default", "a"),
             result.cdf_cvar(q, "negotiated", "a")],
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
    from repro.core.multi_session import carries_transit

    result = _sweep(args, get_scenario("multi_isp"))
    print(f"internetwork: {len(result.isp_names)} ISPs "
          f"({', '.join(result.isp_names)}), "
          f"{len(result.edge_names)} peering edges", file=out)
    transit = carries_transit(
        len(result.isp_names), len(result.edge_names), args.transit_scale
    )
    transit_note = "with transit" if transit else "no transit"
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
    from repro.experiments.robustness import _robustness_summary

    result = _sweep(args, get_scenario("robust_negotiation"))
    print(format_claims("robust negotiation under failure",
                        _robustness_summary(result)), file=out)
    return 0


def _run_sweep(args: argparse.Namespace, out) -> int:
    spec = get_scenario(args.scenario)
    print(_claims(spec, _sweep(args, spec)), file=out)
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
