"""Golden digests: one SHA-256 per experiment result at the quick preset.

Each case runs one experiment driver the way its CLI verb does (quick
preset, default parameters) and hashes the whole result object with the
canonical walk of ``benchmarks/e2e/digest.py``: dataclasses by field,
arrays by dtype/shape/bytes, floats by ``repr``. A digest matches only when
every field of every record is bit-identical, so these pins are what keeps
a refactor honest about "changes nothing observable".

A digest that moves is a behaviour change. Re-pin it only in a change whose
purpose is to alter that output, and say so in its description.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig

_DIGEST_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "digest.py"
)


def _load_result_digest():
    spec = importlib.util.spec_from_file_location("_e2e_digest", _DIGEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.result_digest


result_digest = _load_result_digest()


def _distance(config):
    from repro.experiments.distance import run_distance_experiment

    return run_distance_experiment(config)


def _distance_cheating(config):
    from repro.experiments.distance import run_distance_experiment

    return run_distance_experiment(config, include_cheating=True)


def _bandwidth(config):
    from repro.experiments.bandwidth import run_bandwidth_experiment

    return run_bandwidth_experiment(config)


def _bandwidth_figures(config):
    """Figures 8, 9 and 11 on top of Figure 7: the unilateral LP too."""
    from repro.experiments.bandwidth import run_bandwidth_experiment

    return run_bandwidth_experiment(
        config, include_unilateral=True, include_diverse=True,
        include_cheating=True,
    )


def _availability(config):
    from repro.experiments.availability import run_availability_experiment

    return run_availability_experiment(config)


def _robust(config):
    from repro.experiments.robustness import run_robustness_experiment

    return run_robustness_experiment(config)


def _multi_isp(config):
    from repro.experiments.internetwork import run_multi_isp_experiment

    return run_multi_isp_experiment(config)


def _multi_isp_random(config):
    from repro.experiments.internetwork import run_multi_isp_experiment

    return run_multi_isp_experiment(config, n_isps=6, shape="random")


def _oscillation(config):
    from repro.experiments.oscillation import run_oscillation_experiment

    return run_oscillation_experiment(config)


def _destination(config):
    from repro.experiments.extensions import run_destination_experiment

    return run_destination_experiment(config)


def _grouped(config):
    from repro.experiments.distance import run_grouped_ablation
    from repro.experiments.parallel import pairs_for

    _, pairs = pairs_for(config, 2, config.max_pairs_distance)
    return run_grouped_ablation(pairs[0], [1, 2, 4], config)


CASES = {
    "distance": _distance,
    "distance-cheating": _distance_cheating,
    "bandwidth": _bandwidth,
    "bandwidth-figures": _bandwidth_figures,
    "availability": _availability,
    "robust": _robust,
    "multi-isp": _multi_isp,
    "multi-isp-random": _multi_isp_random,
    "oscillation": _oscillation,
    "destination": _destination,
    "grouped": _grouped,
}

GOLDENS = {
    "availability":
        "a352a13b8eca3d218ffe11221463295014f14dcc4b83dbe98cc9e2e3dbbfa667",
    "bandwidth":
        "6f8469fc064f279d4154b7b413873a26b3603c380cb1b1e6e04f3bec0e3cf32b",
    "bandwidth-figures":
        "fe7b4b68118198b7dd512934e48421d73ee21d2a70b41368a24437d5ada08948",
    "destination":
        "cdcf2d5aed26488d34edec3215c761a0a6cf729b9d28df476b37e0e99a8e1d8a",
    "distance":
        "ce617da0c826c586ba1210ae389083736cf715ef98200204b6b0a3ce6012e6bb",
    "distance-cheating":
        "5fe7530dca0b49ce097629e336d9ccf2a3602bf7c544bc0224a8109247d25ef5",
    "grouped":
        "40d7cbf77b0c507aac2ecb3f482b594457435e210d3ea46a913d5a1e0b6d1b24",
    "multi-isp":
        "76368371532cf53c1287feeff0ad15cf1f4f4d689557c31d3a80ab9c4548d458",
    "multi-isp-random":
        "0a000c8e80ef4040b13019d303a655a1beb2c296b74ab58617de1202e854dcfa",
    "oscillation":
        "0a352f3417000fb8af88be073359a30beaf349e0d7df2e02d6b5d254afe2e5ea",
    "robust":
        "fc1c84b180e019907b8c1c7e96751d135dca722ded65cda9d882681ffc8aa219",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    result = CASES[name](ExperimentConfig.quick())
    assert result_digest(result) == GOLDENS[name]


# -- whole coordinations ------------------------------------------------------
#
# The multi-isp goldens hash the sweep's padded (round, edge) grid; these
# pin what that grid does not show of a MultiSessionCoordinator run: the
# final choices and defaults, each round's order and color schedule, the
# stop reason and the per-edge risk report. Wall-clock fields are left out
# of the projection, since no two runs share them.


def _coordination_net(n_isps, shape):
    from repro.topology.generator import GeneratorConfig
    from repro.topology.internetwork import (
        InternetworkConfig,
        build_internetwork,
    )

    return build_internetwork(InternetworkConfig(
        n_isps=n_isps, shape=shape, seed=2005,
        generator=GeneratorConfig(min_pops=6, max_pops=14),
    ))


def _coordination_projection(coordinator):
    result = coordinator.run()
    projection = {
        "stop_reason": result.stop_reason,
        "n_colors": result.n_colors,
        "initial_mel_per_isp": result.initial_mel_per_isp,
        "rounds": [
            (r.round_index, r.order, r.color_schedule, r.records)
            for r in result.rounds
        ],
        "choices": result.choices,
        "defaults": result.defaults,
    }
    if coordinator.failure_model is not None:
        projection["risk_report"] = coordinator.risk_report()
    return projection


def _faulted_ring(config):
    """Aborts, deadlines, severances, quarantine and the CVaR gate."""
    from repro.core.faults import FaultPlan
    from repro.core.multi_session import MultiSessionCoordinator
    from repro.routing.scenarios import FailureModel

    net = _coordination_net(4, "ring")
    plan = FaultPlan.seeded(
        11, n_edges=net.n_edges(), n_rounds=8,
        n_alternatives=[e.n_interconnections() for e in net.edges],
        abort_rate=0.2, deadline_rate=0.2, link_failure_rate=0.3,
    )
    return _coordination_projection(MultiSessionCoordinator(
        net, config=config, transit_scale=3.0, order="random", seed=5,
        max_rounds=8, quarantine_after=1, fault_plan=plan,
        failure_model=FailureModel(
            link_probability=0.05, cutoff=1e-4, max_failed=2
        ),
        tail_weight=0.5, tail_quantile=0.9,
    ))


def _random_six(config, **kwargs):
    from repro.core.multi_session import MultiSessionCoordinator

    return _coordination_projection(MultiSessionCoordinator(
        _coordination_net(6, "random"), config=config, transit_scale=3.0,
        max_rounds=6, **kwargs,
    ))


COORDINATIONS = {
    "faulted-ring": _faulted_ring,
    "random-six": _random_six,
    # An untriggered ladder and the pooled schedule both equal the serial
    # default, so they share its digest.
    "random-six-ladder-pooled": lambda config: _random_six(
        config, damping="ladder", coord_workers=2
    ),
}

COORDINATION_GOLDENS = {
    "faulted-ring":
        "a7a7b41c939d74ce5fec66b34eb753eba90a12113db4dc01ffcbaccab4578caf",
    "random-six":
        "063b0029f4969b74aa9a0e24815fcf35621b4fcf45a76494acbc1693413dbef8",
    "random-six-ladder-pooled":
        "063b0029f4969b74aa9a0e24815fcf35621b4fcf45a76494acbc1693413dbef8",
}


@pytest.mark.parametrize("name", sorted(COORDINATIONS))
def test_coordination_digest(name):
    projection = COORDINATIONS[name](ExperimentConfig.quick())
    assert result_digest(projection) == COORDINATION_GOLDENS[name]
