"""Tests for the distance experiment (Section 5.1 harness)."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.distance import (
    build_distance_problem,
    run_distance_experiment,
    run_distance_pair,
    run_grouped_ablation,
)
from repro.metrics.distance import percent_gain
from repro.routing.exits import optimal_exit_choices


@pytest.fixture(scope="module")
def pair(quick_config_module):
    from repro.topology.dataset import build_default_dataset

    dataset = build_default_dataset(quick_config_module.dataset)
    return dataset.pairs(min_interconnections=2, max_pairs=1)[0]


@pytest.fixture(scope="module")
def quick_config_module():
    return ExperimentConfig.quick()


class TestDistanceProblem:
    def test_stacks_both_directions(self, pair):
        problem = build_distance_problem(pair)
        n_ab = pair.isp_a.n_pops() * pair.isp_b.n_pops()
        n_ba = pair.isp_b.n_pops() * pair.isp_a.n_pops()
        assert problem.n_flows == n_ab + n_ba
        assert problem.n_ab == n_ab

    def test_split_roundtrip(self, pair):
        problem = build_distance_problem(pair)
        choices = problem.defaults
        ab, ba = problem.split(choices)
        assert len(ab) == problem.n_ab
        assert len(ba) == problem.n_flows - problem.n_ab

    def test_totals_consistent_with_per_flow(self, pair):
        problem = build_distance_problem(pair)
        total, km_a, km_b = problem.totals(problem.defaults)
        assert total == pytest.approx(
            problem.per_flow_km(problem.defaults).sum()
        )
        assert km_a >= 0 and km_b >= 0

    def test_defaults_are_early_exit(self, pair):
        problem = build_distance_problem(pair)
        # The default must minimize the upstream's weight-distance per flow.
        rows = np.arange(problem.n_ab)
        up = problem.table_ab.up_weight
        ab_defaults = problem.defaults[: problem.n_ab]
        assert np.all(up[rows, ab_defaults] <= up.min(axis=1) + 1e-12)


class TestRunPair:
    def test_result_fields(self, pair, quick_config_module):
        result = run_distance_pair(pair, quick_config_module,
                                   include_cheating=True)
        assert result.n_flows > 0
        assert result.total_gain_optimal >= result.total_gain_negotiated - 1e-9
        assert result.gain_a_negotiated >= -1e-9
        assert result.gain_b_negotiated >= -1e-9
        assert result.total_gain_cheating is not None
        assert 0.0 <= result.fraction_non_default <= 1.0

    def test_flow_gain_arrays(self, pair, quick_config_module):
        result = run_distance_pair(pair, quick_config_module)
        assert result.flow_gains_optimal.shape == (result.n_flows,)
        # Optimal per-flow gains are never negative (per-flow argmin).
        assert result.flow_gains_optimal.min() >= -1e-9

    def test_negotiated_total_never_negative(self, pair, quick_config_module):
        result = run_distance_pair(pair, quick_config_module)
        assert result.total_gain_negotiated >= -1e-9

    def test_cheating_skipped_by_default(self, pair, quick_config_module):
        result = run_distance_pair(pair, quick_config_module)
        assert result.total_gain_cheating is None


class TestExperiment:
    @pytest.fixture(scope="class")
    def result(self, quick_config_module):
        return run_distance_experiment(
            quick_config_module, include_cheating=True
        )

    def test_pair_count_capped(self, result, quick_config_module):
        assert len(result.pairs) <= quick_config_module.max_pairs_distance

    def test_cdfs_available(self, result):
        for method in ("optimal", "negotiated", "flow_pareto",
                       "flow_both_better"):
            cdf = result.cdf_total_gain(method)
            assert len(cdf) == len(result.pairs)

    def test_individual_cdf_has_two_per_pair(self, result):
        cdf = result.cdf_individual_gain("negotiated")
        assert len(cdf) == 2 * len(result.pairs)

    def test_headline_claims_shape(self, result):
        """The paper's headline shapes on the quick dataset."""
        # Negotiated <= optimal on total gain.
        assert result.median_total_gain("negotiated") <= (
            result.median_total_gain("optimal") + 1e-9
        )
        # No ISP loses with negotiation; some lose with global optimal
        # (Figure 4b).
        assert result.fraction_isps_losing("negotiated") == 0.0
        assert result.fraction_isps_losing("optimal") > 0.1
        # Per-flow baselines are far from optimal, and even the
        # both-better filter trails negotiation (Figure 5).
        assert result.cdf_total_gain("flow_both_better").median() <= (
            result.median_total_gain("optimal") + 1e-9
        )
        assert result.cdf_total_gain("flow_both_better").median() <= (
            result.median_total_gain("negotiated") + 1e-9
        )
        # Negotiation catches most flows optimal routing improves by >= 20%
        # (Figure 6).
        assert result.fraction_flows_gaining_at_least("negotiated", 20) >= (
            0.6 * result.fraction_flows_gaining_at_least("optimal", 20)
        )
        # A cheater never makes the truthful ISP lose, and the total gain
        # does not rise (Figure 10).
        assert result.cdf_individual_gain("truthful").min() >= -1e-9
        assert result.median_total_gain("cheating") <= (
            result.median_total_gain("negotiated") + 1e-9
        )

    def test_flow_gain_pool(self, result):
        pooled = result.cdf_flow_gain("negotiated")
        assert len(pooled) == sum(p.n_flows for p in result.pairs)


class TestGroupedAblation:
    def test_whole_table_at_least_as_good(self, pair, quick_config_module):
        gains = run_grouped_ablation(pair, [1, 4], quick_config_module)
        assert set(gains) == {1, 4}
        # Negotiating over everything beats (or ties) group-wise.
        assert gains[1] >= gains[4] - 0.5  # small tolerance: random groups


class TestOptimalConsistency:
    def test_optimal_from_harness_matches_exits(self, pair):
        problem = build_distance_problem(pair)
        opt = np.concatenate(
            [
                optimal_exit_choices(problem.table_ab),
                optimal_exit_choices(problem.table_ba),
            ]
        )
        tot_def, _, _ = problem.totals(problem.defaults)
        tot_opt, _, _ = problem.totals(opt)
        result = run_distance_pair(pair)
        assert result.total_gain_optimal == pytest.approx(
            percent_gain(tot_def, tot_opt)
        )
