"""Shared fixtures: small deterministic topologies, pairs, and datasets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.experiments.config import ExperimentConfig
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.topology.builders import (
    build_custom_isp,
    build_figure1_pair,
    build_figure2_pair,
    build_scale_pair,
)
from repro.topology.dataset import DatasetConfig, build_default_dataset
from repro.topology.generator import GeneratorConfig
from repro.topology.interconnect import Interconnection, IspPair

#: Deeper property runs for shared CI runners: select with
#: ``pytest --hypothesis-profile=ci``. Suites that leave ``max_examples``
#: unpinned (the session and table property suites) take it from the
#: profile; no deadline, since a noisy neighbour must not fail an example.
settings.register_profile(
    "ci",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: one-shot exercise of the perf-critical kernels "
        "(no timing statistics); run just these with -m bench_smoke",
    )


@pytest.fixture(scope="session")
def fig1():
    return build_figure1_pair()


@pytest.fixture(scope="session")
def fig2():
    return build_figure2_pair()


@pytest.fixture(scope="session")
def tiny_dataset():
    """A 12-ISP dataset small enough for unit tests."""
    return build_default_dataset(
        DatasetConfig(
            n_isps=12,
            seed=42,
            generator=GeneratorConfig(min_pops=5, max_pops=9),
        )
    )


@pytest.fixture(scope="session")
def quick_config():
    return ExperimentConfig.quick()


@pytest.fixture(scope="session")
def small_pair():
    """A hand-built 2-interconnection pair with simple geometry.

    Both ISPs are 3-PoP chains sharing their end cities (Left, Right);
    all weights/lengths are exact integers for easy assertions.
    """
    isp_x = build_custom_isp(
        "xnet",
        [("Left", 40.0, -100.0), ("MidX", 40.0, -95.0), ("Right", 40.0, -90.0)],
        [(0, 1, 10.0), (1, 2, 10.0)],
    )
    isp_y = build_custom_isp(
        "ynet",
        [("Left", 40.0, -100.0), ("MidY", 41.0, -95.0), ("Right", 40.0, -90.0)],
        [(0, 1, 12.0), (1, 2, 12.0)],
    )
    ics = [
        Interconnection(index=0, city="Left", pop_a=0, pop_b=0),
        Interconnection(index=1, city="Right", pop_a=2, pop_b=2),
    ]
    return IspPair(isp_x, isp_y, ics)


@pytest.fixture(scope="module")
def lp_setup():
    """A small scale pair with early-exit defaults and capacities."""
    pair = build_scale_pair(9, n_interconnections=3, seed=3)
    table = build_pair_cost_table(pair, build_full_flowset(pair))
    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    caps_b = ProportionalCapacity().capacities(link_loads(table, defaults, "b"))
    return table, defaults, caps_a, caps_b


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
