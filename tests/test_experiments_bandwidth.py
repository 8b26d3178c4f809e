"""Tests for the bandwidth experiment (Section 5.2 harness)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.capacity.provisioning import ProportionalCapacity, UnusedLinkPolicy
from repro.errors import ConfigurationError
from repro.experiments.bandwidth import (
    run_bandwidth_case,
    run_bandwidth_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.geo.population import PopulationModel
from repro.topology.dataset import build_default_dataset
from repro.traffic.gravity import GravityWorkload
from repro.traffic.workloads import IdenticalWorkload, UniformRandomWorkload


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.quick()


@pytest.fixture(scope="module")
def dataset(config):
    return build_default_dataset(config.dataset)


@pytest.fixture(scope="module")
def workload(dataset):
    return GravityWorkload(PopulationModel(dataset.city_db))


@pytest.fixture(scope="module")
def pair(dataset):
    return dataset.pairs(min_interconnections=3, max_pairs=1)[0]


@pytest.fixture(scope="module")
def case(pair, config, workload):
    return run_bandwidth_case(
        pair, 0, config, workload,
        include_unilateral=True, include_cheating=True, include_diverse=True,
    )


class TestCase:
    def test_mels_positive(self, case):
        for value in (case.mel_default_a, case.mel_default_b,
                      case.mel_negotiated_a, case.mel_negotiated_b,
                      case.mel_opt_a, case.mel_opt_b):
            assert value > 0

    def test_optimal_joint_is_lower_bound(self, case):
        assert case.mel_opt_joint <= max(case.mel_default_a,
                                         case.mel_default_b) + 1e-6
        assert case.mel_opt_joint <= max(case.mel_negotiated_a,
                                         case.mel_negotiated_b) + 1e-6

    def test_negotiated_never_worse_than_default(self, case):
        """The Pareto gate of continuous renegotiation guarantees this."""
        assert case.mel_negotiated_a <= case.mel_default_a + 1e-9
        assert case.mel_negotiated_b <= case.mel_default_b + 1e-9

    def test_optional_variants_present(self, case):
        assert case.mel_unilateral_a is not None
        assert case.mel_cheat_a is not None
        assert case.mel_diverse_a is not None
        assert case.diverse_downstream_gain_pct is not None

    def test_ratios(self, case):
        assert case.ratio_default_a() >= case.ratio_negotiated_a() - 1e-9
        assert case.ratio_unilateral_downstream_vs_default() is not None

    def test_affected_flow_count(self, case, pair):
        total = pair.isp_a.n_pops() * pair.isp_b.n_pops()
        assert 0 <= case.n_affected <= total

    def test_failed_city_named(self, case, pair):
        assert case.failed_city == pair.interconnections[0].city


class TestDegenerateFailure:
    """A failure that affects no flow returns the default MELs cleanly.

    Regression: the zero-flow sub-table used to be fed through the LP and
    the negotiation loop, reporting a bogus ``mel_opt_joint`` of 0.0 (the
    empty LP ignored the base loads).
    """

    @pytest.fixture()
    def degenerate(self, pair, config, workload):
        from dataclasses import replace

        from repro.experiments.bandwidth import _build_context

        context = _build_context(pair, workload)
        # Re-home every flow whose early-exit default is interconnection 0:
        # failing it then affects no flow at all.
        forced = np.asarray(context.default_pre).copy()
        forced[forced == 0] = 1
        context = replace(context, default_pre=forced)
        return run_bandwidth_case(
            context, 0, config,
            include_unilateral=True, include_cheating=True,
            include_diverse=True,
        )

    def test_no_affected_flows(self, degenerate):
        assert degenerate.n_affected == 0

    def test_every_method_keeps_default_mels(self, degenerate):
        r = degenerate
        assert r.mel_negotiated_a == r.mel_default_a
        assert r.mel_negotiated_b == r.mel_default_b
        assert r.mel_opt_a == r.mel_default_a
        assert r.mel_opt_b == r.mel_default_b
        assert r.mel_unilateral_a == r.mel_default_a
        assert r.mel_unilateral_b == r.mel_default_b
        assert r.mel_cheat_a == r.mel_default_a
        assert r.mel_cheat_b == r.mel_default_b
        assert r.mel_diverse_a == r.mel_default_a
        assert r.diverse_downstream_gain_pct == 0.0

    def test_joint_optimum_is_base_state(self, degenerate):
        assert degenerate.mel_opt_joint == max(
            degenerate.mel_default_a, degenerate.mel_default_b
        )
        assert degenerate.mel_opt_joint > 0


class TestCaseValidation:
    def test_two_ic_pair_rejected(self, dataset, config, workload):
        pairs = dataset.pairs(min_interconnections=2)
        two_ic = next(p for p in pairs if p.n_interconnections() == 2)
        with pytest.raises(ConfigurationError):
            run_bandwidth_case(two_ic, 0, config, workload)


class TestFailureIndex:
    """Both single-failure entry points check the index the same way."""

    @pytest.fixture(scope="class")
    def context(self, pair, workload):
        from repro.experiments.bandwidth import _build_context

        return _build_context(pair, workload)

    @pytest.mark.parametrize("index, message", [
        (True, "integer >= 0, got True"),
        (1.0, "integer >= 0, got 1.0"),
        (-1, "integer >= 0, got -1"),
        (99, r"in 0\.\.4 for the pair's 5 interconnections, got 99"),
    ], ids=["True", "1.0", "-1", "99"])
    def test_bad_index_rejected(self, context, config, workload, index,
                                message):
        from repro.experiments.oscillation import run_oscillation_pair

        match = "failed_ic_index must be .*" + message
        with pytest.raises(ConfigurationError, match=match):
            run_bandwidth_case(context, index, config)
        with pytest.raises(ConfigurationError, match=match):
            run_oscillation_pair(
                context.pair, config, workload, failed_ic_index=index
            )

    def test_numpy_index_accepted(self, context, config, workload):
        from repro.experiments.oscillation import run_oscillation_pair

        assert run_bandwidth_case(context, np.int64(1), config) == (
            run_bandwidth_case(context, 1, config)
        )
        assert run_oscillation_pair(
            context.pair, config, workload, failed_ic_index=np.int64(1)
        ) == run_oscillation_pair(
            context.pair, config, workload, failed_ic_index=1
        )


class TestOneFailureCase:
    """Bandwidth, availability and oscillation score a failure alike."""

    def test_single_failures_agree(self, dataset, config, workload):
        from repro.capacity.loads import link_loads
        from repro.experiments.availability import run_pair_availability
        from repro.experiments.bandwidth import _build_context
        from repro.experiments.oscillation import run_oscillation_pair
        from repro.metrics.mel import max_excess_load
        from repro.routing.scenarios import FailureModel

        model = FailureModel(link_probability=0.05, cutoff=1e-9, max_failed=1)
        n_cases = 0
        for pair in dataset.pairs(min_interconnections=3, max_pairs=4):
            context = _build_context(pair, workload)
            outcomes = {
                outcome.failed: outcome
                for outcome in run_pair_availability(
                    pair, config, model, workload
                ).outcomes
            }
            pre = tuple(
                max_excess_load(
                    link_loads(context.table_pre, context.default_pre, side),
                    caps,
                )
                for side, caps in (("a", context.caps_a), ("b", context.caps_b))
            )
            all_up = outcomes[()]
            assert (all_up.mel_default_a, all_up.mel_default_b) == pre
            assert (all_up.mel_negotiated_a, all_up.mel_negotiated_b) == pre
            for k in range(pair.n_interconnections()):
                case = run_bandwidth_case(context, k, config)
                scenario = outcomes[(k,)]
                trajectory = run_oscillation_pair(
                    pair, config, workload, failed_ic_index=k
                )
                assert scenario.n_affected == case.n_affected
                assert trajectory.n_affected == case.n_affected
                assert (scenario.mel_default_a, scenario.mel_default_b) == (
                    case.mel_default_a, case.mel_default_b
                )
                assert (
                    scenario.mel_negotiated_a, scenario.mel_negotiated_b
                ) == (case.mel_negotiated_a, case.mel_negotiated_b)
                n_cases += 1
        assert n_cases == 17


class TestExperiment:
    @pytest.fixture(scope="class")
    def result(self, config):
        return run_bandwidth_experiment(
            config, include_unilateral=True, include_diverse=True,
            include_cheating=True,
        )

    def test_case_count(self, result, config):
        assert 0 < len(result.cases) <= (
            config.max_pairs_bandwidth * config.max_failures_per_pair
        )

    def test_cdfs(self, result):
        for method, side in (("default", "a"), ("negotiated", "a"),
                             ("default", "b"), ("negotiated", "b")):
            cdf = result.cdf_ratio(method, side)
            assert len(cdf) == len(result.cases)
            assert cdf.min() > 0

    def test_unilateral_cdf(self, result):
        cdf = result.cdf_unilateral_downstream()
        assert len(cdf) == len(result.cases)
        # Figure 8: somewhere the upstream's optimum does not help the
        # downstream.
        assert cdf.max() >= 1.0

    def test_negotiated_beats_default_in_aggregate(self, result):
        default_a = result.cdf_ratio("default", "a")
        assert (
            result.cdf_ratio("negotiated", "a").mean()
            <= default_a.mean() + 1e-9
        )
        # Figure 7, and Figure 9 with a distance-minded downstream.
        assert (
            result.cdf_ratio("negotiated", "a").median()
            <= default_a.median() + 1e-9
        )
        assert (
            result.cdf_ratio("diverse", "a").median()
            <= default_a.median() + 1e-9
        )
        assert result.cdf_diverse_downstream_gain().median() >= 0.0
        # Figure 11: a cheating upstream leaves the truthful downstream
        # within 0.25 of its default median.
        assert (
            result.cdf_ratio("cheating", "b").median()
            <= result.cdf_ratio("default", "b").median() + 0.25
        )

    def test_deterministic(self, config):
        a = run_bandwidth_experiment(config)
        b = run_bandwidth_experiment(config)
        assert len(a.cases) == len(b.cases)
        for ca, cb in zip(a.cases, b.cases):
            assert ca.mel_negotiated_a == cb.mel_negotiated_a
            assert ca.mel_default_b == cb.mel_default_b


class TestAlternateModels:
    """Section 5.2's alternate workload and capacity models: negotiation
    still beats the default, as under the paper's models."""

    @pytest.mark.parametrize("models", [
        {"workload": IdenticalWorkload()},
        {"workload": UniformRandomWorkload(
            seed=ExperimentConfig.quick().seed)},
        {"provisioner": ProportionalCapacity(
            unused_policy=UnusedLinkPolicy.MAX)},
        {"provisioner": ProportionalCapacity(
            unused_policy=UnusedLinkPolicy.MEAN)},
        {"provisioner": ProportionalCapacity(round_power_of_two=True)},
    ], ids=["identical", "uniform", "unused-max", "unused-mean", "pow2"])
    def test_negotiated_no_worse_than_default(self, config, models):
        small = replace(config, max_pairs_bandwidth=8, max_failures_per_pair=1)
        result = run_bandwidth_experiment(small, **models)
        assert (
            result.cdf_ratio("negotiated", "a").median()
            <= result.cdf_ratio("default", "a").median() + 1e-9
        )
