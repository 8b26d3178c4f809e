"""The availability experiment: metrics, degradation, sweep determinism."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.availability import (
    AvailabilityExperimentResult,
    conditional_value_at_risk,
    expected_mel,
    run_availability_experiment,
    run_pair_availability,
    value_at_risk,
)
from repro.experiments.config import ExperimentConfig
from repro.metrics.tail import cvar_matrix
from repro.routing.scenarios import FailureModel


@pytest.fixture(scope="module")
def tiny_config():
    return replace(ExperimentConfig.quick(), max_pairs_bandwidth=2)


class _UnitWorkload:
    """All flows size 1.0 — the distance-experiment convention."""

    def size_fn(self, pair):
        return lambda src, dst: 1.0


# ---------------------------------------------------------------------------
# Metric functions on hand-built distributions
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_expected_mel_weights_and_conditions_on_finite(self):
        probs = np.array([0.5, 0.3, 0.2])
        mels = np.array([1.0, 2.0, math.inf])
        # Conditional on the routable mass 0.8: (0.5*1 + 0.3*2) / 0.8
        assert expected_mel(probs, mels) == pytest.approx(1.375)
        assert expected_mel(
            np.array([1.0]), np.array([math.inf])
        ) == math.inf

    def test_var_is_the_quantile_of_the_weighted_distribution(self):
        probs = np.array([0.9, 0.06, 0.04])
        mels = np.array([0.5, 1.5, 3.0])
        assert value_at_risk(probs, mels, 1.0, 0.5) == 0.5
        assert value_at_risk(probs, mels, 1.0, 0.95) == 1.5
        assert value_at_risk(probs, mels, 1.0, 0.97) == 3.0

    def test_cvar_splits_the_straddling_atom(self):
        probs = np.array([0.9, 0.06, 0.04])
        mels = np.array([0.5, 1.5, 3.0])
        # 5% tail: 0.04 mass at 3.0 plus 0.01 of the 1.5 atom.
        want = (0.04 * 3.0 + 0.01 * 1.5) / 0.05
        assert conditional_value_at_risk(
            probs, mels, 1.0, 0.95
        ) == pytest.approx(want)
        assert conditional_value_at_risk(probs, mels, 1.0, 0.5) >= \
            value_at_risk(probs, mels, 1.0, 0.5)

    def test_uncovered_mass_takes_the_worst_enumerated_mel(self):
        probs = np.array([0.9, 0.05])
        mels = np.array([1.0, 2.0])
        coverage = 0.95
        # The missing 5% sits at MEL 2.0 (documented lower bound), so the
        # 90th-percentile VaR is still 1.0 but the 94th hits 2.0.
        assert value_at_risk(probs, mels, coverage, 0.89) == 1.0
        assert value_at_risk(probs, mels, coverage, 0.94) == 2.0
        # CVaR over the worst 10%: 0.05 enumerated + 0.05 uncovered at 2.0.
        assert conditional_value_at_risk(
            probs, mels, coverage, 0.9
        ) == pytest.approx(2.0)

    def test_unroutable_mass_dominates_the_tail(self):
        probs = np.array([0.97, 0.03])
        mels = np.array([1.0, math.inf])
        assert value_at_risk(probs, mels, 1.0, 0.99) == math.inf
        assert conditional_value_at_risk(probs, mels, 1.0, 0.99) == math.inf
        assert value_at_risk(probs, mels, 1.0, 0.9) == 1.0

    def test_bad_quantiles_rejected(self):
        probs, mels = np.array([1.0]), np.array([1.0])
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError, match="quantile"):
                value_at_risk(probs, mels, 1.0, q)
            with pytest.raises(ConfigurationError, match="quantile"):
                conditional_value_at_risk(probs, mels, 1.0, q)


# ---------------------------------------------------------------------------
# Per-pair evaluation, including the severed-everything degradation path
# ---------------------------------------------------------------------------


class TestPairAvailability:
    @pytest.fixture(scope="class")
    def pair(self, request):
        fig2 = request.getfixturevalue("fig2")
        return fig2.pair

    def test_outcomes_cover_every_scenario(self, pair, tiny_config):
        model = FailureModel(link_probability=0.1, cutoff=1e-6)
        result = run_pair_availability(
            pair, tiny_config, model, _UnitWorkload()
        )
        assert result.n_alternatives == pair.n_interconnections()
        assert result.n_scenarios == len(result.outcomes) > 1
        assert result.outcomes[0].failed == ()  # all-up scenario first
        assert result.outcomes[0].n_affected == 0
        assert 0.0 < result.coverage <= 1.0 + 1e-12
        probs = sum(o.probability for o in result.outcomes)
        assert probs == pytest.approx(result.coverage)

    def test_severing_every_interconnection_degrades_gracefully(
        self, pair, tiny_config
    ):
        # p=0.4 puts the all-failed scenario (0.4^3 = 6.4%) well above the
        # cutoff, so the degenerate path is exercised, not skipped.
        model = FailureModel(link_probability=0.4, cutoff=1e-3)
        result = run_pair_availability(
            pair, tiny_config, model, _UnitWorkload()
        )
        severed = [o for o in result.outcomes if not o.routable]
        assert len(severed) == 1
        (outcome,) = severed
        assert outcome.failed == tuple(range(pair.n_interconnections()))
        assert outcome.n_affected == result.n_flows
        assert outcome.unroutable_demand == pytest.approx(
            result.total_demand
        )
        assert math.isinf(outcome.mel_default_a)
        assert math.isinf(outcome.mel_negotiated_b)
        assert result.p_unroutable == pytest.approx(outcome.probability)
        # Metrics stay well-defined: the disconnection mass lands in the
        # tail, the expectation conditions on the routable mass.
        metrics = result.metrics("negotiated", "a", quantiles=(0.5,))
        assert math.isfinite(metrics.expected)
        assert metrics.p_unroutable > 0.0
        deep = result.metrics(
            "negotiated", "a", quantiles=(1.0 - outcome.probability / 2,)
        )
        assert math.isinf(deep.cvar[0][1])

    def test_batch_and_legacy_table_engines_bit_identical(
        self, pair, tiny_config, monkeypatch
    ):
        """Batch-derived tables vs per-scenario folds of single drops."""

        def folded_scenario_tables(table, scenario_set):
            tables = []
            for scenario in scenario_set.scenarios:
                if scenario.severs_all(table.n_alternatives):
                    tables.append(None)
                    continue
                derived = table
                for k in sorted(scenario.failed, reverse=True):
                    derived = derived.without_alternative(k)
                tables.append(derived)
            return tables

        model = FailureModel(link_probability=0.2, cutoff=1e-4)
        batch = run_pair_availability(
            pair, tiny_config, model, _UnitWorkload()
        )
        monkeypatch.setattr(
            "repro.experiments.availability.derive_scenario_tables",
            folded_scenario_tables,
        )
        legacy = run_pair_availability(
            pair, tiny_config, model, _UnitWorkload()
        )
        assert batch == legacy  # dataclass equality: exact floats

    def test_unknown_table_engine_rejected(self, pair, tiny_config):
        # One derivation path: the table_engine option is gone.
        with pytest.raises(TypeError, match="table_engine"):
            run_pair_availability(
                pair, tiny_config, FailureModel(), _UnitWorkload(),
                table_engine="batch",
            )


# ---------------------------------------------------------------------------
# The sweep: serial == parallel == interrupt -> resume, bit-identically
# ---------------------------------------------------------------------------

_SWEEP_KW = dict(link_probability=0.05, cutoff=5e-3, max_failed=2)


class TestAvailabilitySweep:
    def test_serial_parallel_resume_bit_identical(
        self, tiny_config, tmp_path
    ):
        serial = run_availability_experiment(tiny_config, **_SWEEP_KW)
        assert isinstance(serial, AvailabilityExperimentResult)
        assert len(serial.pairs) == 2
        assert serial.total_scenarios() > 0

        parallel = run_availability_experiment(
            tiny_config, workers=2, **_SWEEP_KW
        )
        assert parallel.pairs == serial.pairs

        checkpointed = run_availability_experiment(
            tiny_config, checkpoint_dir=tmp_path / "ck", **_SWEEP_KW
        )
        assert checkpointed.pairs == serial.pairs
        # Simulate an interrupt: drop one shard, resume recomputes just it.
        shards = sorted((tmp_path / "ck" / "availability").glob("unit-*.pkl"))
        assert len(shards) == 2
        shards[0].unlink()
        resumed = run_availability_experiment(
            tiny_config, checkpoint_dir=tmp_path / "ck", resume=True,
            **_SWEEP_KW,
        )
        assert resumed.pairs == serial.pairs

    def test_srg_params_flow_through(self, tiny_config):
        result = run_availability_experiment(
            tiny_config,
            link_probability=0.05,
            shared_risk_groups=((0, 1),),
            cutoff=1e-3,
            max_failed=1,
        )
        for pair_result in result.pairs:
            assert any(
                o.failed == (0, 1) for o in pair_result.outcomes
            ), "the shared-risk group must fail as a unit"

    def test_aggregates_and_summary(self, tiny_config):
        from repro.experiments.availability import _availability_summary

        result = run_availability_experiment(tiny_config, **_SWEEP_KW)
        cdf = result.cdf_expected("negotiated", "a")
        assert len(cdf.values) == len(result.pairs)
        assert result.mean_coverage() > 0.9
        claims = dict(_availability_summary(result))
        assert claims["pairs"] == "2"
        assert int(claims["scenarios scored"]) == result.total_scenarios()

    @pytest.mark.parametrize("params, knob", [
        ({"quantiles": (0.95, 1.5)}, "quantile"),
        ({"survivability_threshold": math.nan}, "survivability_threshold"),
        ({"max_failed": 2.5}, "max_failed"),
    ])
    def test_bad_params_fail_before_the_dataset(
        self, tiny_config, monkeypatch, params, knob
    ):
        # The quantiles and the threshold are read only by the reducer;
        # they used to fail after the whole sweep had run.
        import repro.experiments.availability as availability

        calls = []
        monkeypatch.setattr(
            availability, "pairs_for", lambda *args: calls.append(args)
        )
        with pytest.raises(ConfigurationError, match=knob):
            run_availability_experiment(tiny_config, **params)
        assert calls == []


class TestAvailabilityCli:
    def test_cli_command_runs_and_reports(self, capsys, monkeypatch):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["availability", "--preset", "quick", "--link-prob", "0.05",
             "--cutoff", "1e-2", "--max-failed", "1",
             "--quantiles", "0.9"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "availability" in text
        assert "scenarios scored" in text
        assert "CVaR@0.9" in text

    def test_cli_lists_availability_sweep(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["sweep", "availability"])
        assert args.scenario == "availability"


@pytest.mark.slow
class TestAvailabilityAtScale:
    """Full quick-preset enumeration (hundreds of scenarios per sweep)."""

    def test_full_quick_sweep_parallel_bit_identical(self):
        config = ExperimentConfig.quick()
        serial = run_availability_experiment(
            config, link_probability=0.05, cutoff=1e-6
        )
        parallel = run_availability_experiment(
            config, link_probability=0.05, cutoff=1e-6, workers=2
        )
        assert parallel.pairs == serial.pairs
        assert serial.total_scenarios() >= 100


# ---------------------------------------------------------------------------
# Hypothesis properties for the tail metrics (shared with the scenario-aware
# evaluator via repro.metrics.tail)
# ---------------------------------------------------------------------------


_MEL = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def _weighted_distribution(draw):
    """Integer-weighted finite-MEL distribution (weights 1..5, 1..8 atoms).

    Integer weights make the distribution exactly replicable: repeating
    each MEL ``w`` times gives an equal-mass sample of size ``N = sum(w)``
    whose order statistics define the brute-force CVaR.
    """
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8)
    )
    mels = draw(
        st.lists(_MEL, min_size=len(weights), max_size=len(weights))
    )
    return np.array(weights, dtype=float), np.array(mels, dtype=float)


class TestTailMetricProperties:
    """CVaR >= VaR and CVaR >= expected are pinned *separately*: VaR and
    the mean are not ordered against each other in general, so the chain
    ``CVaR >= VaR >= expected`` does not hold and is deliberately not
    asserted."""

    @given(dist=_weighted_distribution(), quantile=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_cvar_dominates_var_and_the_mean(self, dist, quantile):
        weights, mels = dist
        probs = weights / weights.sum()
        var = value_at_risk(probs, mels, 1.0, quantile)
        cvar = conditional_value_at_risk(probs, mels, 1.0, quantile)
        assert cvar >= var - 1e-9
        assert cvar >= expected_mel(probs, mels) - 1e-9

    @given(
        dist=_weighted_distribution(),
        quantiles=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    )
    @settings(max_examples=60, deadline=None)
    def test_var_and_cvar_monotone_in_the_quantile(self, dist, quantiles):
        weights, mels = dist
        probs = weights / weights.sum()
        q_lo, q_hi = sorted(quantiles)
        assert value_at_risk(probs, mels, 1.0, q_hi) >= value_at_risk(
            probs, mels, 1.0, q_lo
        )
        assert conditional_value_at_risk(
            probs, mels, 1.0, q_hi
        ) >= conditional_value_at_risk(probs, mels, 1.0, q_lo) - 1e-9

    @given(dist=_weighted_distribution(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_atom_split_matches_integer_replication(self, dist, data):
        """On atom boundaries the split CVaR equals the brute-force mean of
        the ``k`` largest equal-mass replicated samples."""
        weights, mels = dist
        n = int(weights.sum())
        assume(n >= 2)
        k = data.draw(st.integers(min_value=1, max_value=n - 1), label="k")
        replicated = np.repeat(mels, weights.astype(int))
        brute = float(np.sort(replicated)[-k:].mean())
        got = conditional_value_at_risk(weights / n, mels, 1.0, 1.0 - k / n)
        assert got == pytest.approx(brute, rel=1e-6, abs=1e-6)

    @given(
        dist=_weighted_distribution(),
        quantile=st.floats(0.05, 0.95),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cvar_matrix_matches_the_scalar_per_candidate(
        self, dist, quantile, data
    ):
        weights, mels = dist
        probs = weights / weights.sum()
        n_atoms = mels.size
        n_candidates = data.draw(st.integers(1, 3), label="n_candidates")
        columns = data.draw(
            st.lists(
                st.lists(_MEL, min_size=n_atoms, max_size=n_atoms),
                min_size=n_candidates,
                max_size=n_candidates,
            ),
            label="columns",
        )
        values = np.array(columns, dtype=float).T  # (S, C)
        got = cvar_matrix(values, probs, quantile)
        for c in range(n_candidates):
            want = conditional_value_at_risk(
                probs, values[:, c], 1.0, quantile
            )
            assert got[c] == pytest.approx(want, rel=1e-6, abs=1e-6)
