"""The TeaVAR-style failure-scenario enumerator."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.scenarios import (
    FailureModel,
    derive_scenario_tables,
    enumerate_failure_scenarios,
)


def _brute_force(probs_by_column, cutoff):
    """All failure subsets of independent columns, exact probabilities."""
    n = len(probs_by_column)
    expected = {}
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            p = 1.0
            for c in range(n):
                p *= (
                    probs_by_column[c] if c in combo
                    else 1.0 - probs_by_column[c]
                )
            if p >= cutoff:
                expected[combo] = p
    return expected


class TestEnumeration:
    def test_matches_brute_force_uniform(self):
        model = FailureModel(link_probability=0.05, cutoff=1e-9)
        result = enumerate_failure_scenarios(4, model)
        expected = _brute_force([0.05] * 4, 1e-9)
        assert {s.failed: s.probability for s in result.scenarios} == {
            tuple(k): v for k, v in expected.items()
        }
        assert math.isclose(result.coverage, sum(expected.values()),
                            rel_tol=1e-12)

    def test_matches_brute_force_heterogeneous(self):
        # Mixed ratios exercise the descending-ratio pruning order.
        probs = (0.4, 0.01, 0.2, 0.001)
        model = FailureModel(link_probabilities=probs, cutoff=1e-7)
        result = enumerate_failure_scenarios(4, model)
        expected = _brute_force(list(probs), 1e-7)
        got = {s.failed: s.probability for s in result.scenarios}
        assert set(got) == set(expected)
        for failed, probability in got.items():
            # Bit-identical: both sides multiply in column-index order.
            assert probability == expected[failed]

    def test_cutoff_prunes_and_coverage_reports_the_gap(self):
        loose = enumerate_failure_scenarios(
            5, FailureModel(link_probability=0.1, cutoff=1e-12)
        )
        tight = enumerate_failure_scenarios(
            5, FailureModel(link_probability=0.1, cutoff=1e-3)
        )
        assert len(tight) < len(loose)
        assert all(s.probability >= 1e-3 for s in tight.scenarios)
        assert tight.coverage < loose.coverage <= 1.0 + 1e-12

    def test_canonical_order_and_determinism(self):
        model = FailureModel(link_probability=0.05, cutoff=1e-8)
        a = enumerate_failure_scenarios(4, model)
        b = enumerate_failure_scenarios(4, model)
        assert a == b  # bit-identical, same order
        keys = [(s.n_failed, s.failed) for s in a.scenarios]
        assert keys == sorted(keys)
        assert a.scenarios[0].failed == ()

    def test_max_failed_caps_simultaneous_units(self):
        result = enumerate_failure_scenarios(
            5, FailureModel(link_probability=0.2, cutoff=1e-12, max_failed=2)
        )
        assert max(s.n_failed for s in result.scenarios) == 2
        assert len(result) == 1 + 5 + 10

    def test_shared_risk_group_fails_as_a_unit(self):
        model = FailureModel(
            link_probability=0.05,
            shared_risk_groups=((0, 2),),
            group_probabilities=(0.1,),
            cutoff=1e-12,
        )
        result = enumerate_failure_scenarios(3, model)
        assert {s.failed for s in result.scenarios} == {
            (), (1,), (0, 2), (0, 1, 2)
        }
        got = {s.failed: s.probability for s in result.scenarios}
        assert math.isclose(got[(0, 2)], 0.1 * 0.95)
        assert math.isclose(got[(0, 1, 2)], 0.1 * 0.05)
        severed = next(
            s for s in result.scenarios if s.failed == (0, 1, 2)
        )
        assert severed.severs_all(3)
        assert not severed.severs_all(4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_probability": 0.6},
            {"link_probability": 0.0},
            {"cutoff": 0.0},
            {"cutoff": 1.5},
            {"max_failed": -1},
            {"shared_risk_groups": ((0,), (0, 1))},  # overlapping groups
            {"shared_risk_groups": ((),)},  # empty group
            {"shared_risk_groups": ((0, 1),),
             "group_probabilities": (0.1, 0.2)},  # length mismatch
            {"max_failed": 2.5},  # enumerated like 3
            {"link_probability": "0.1"},
            {"cutoff": "1e-6"},
            {"shared_risk_groups": ((1.5,),)},  # failed as two units
            {"shared_risk_groups": ((True,),)},  # read as column 1
            {"shared_risk_groups": (("1",),)},
            {"shared_risk_groups": ((-1,),)},
            {"shared_risk_groups": ((0, 0),)},  # a repeat inside one group
            {"group_probabilities": 0.1},  # not sequences: no bare TypeError
            {"shared_risk_groups": 5},
            {"shared_risk_groups": (3,)},
            {"link_probabilities": 0.1},
        ],
    )
    def test_bad_models_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailureModel(**kwargs)

    def test_sequence_fields_stored_as_tuples(self):
        model = FailureModel(
            link_probabilities=np.array([0.1, 0.2]),
            shared_risk_groups=[[0, 1]],
            group_probabilities=[0.05],
        )
        tupled = FailureModel(
            link_probabilities=(0.1, 0.2),
            shared_risk_groups=((0, 1),),
            group_probabilities=(0.05,),
        )
        assert model == tupled and hash(model) == hash(tupled)

    def test_group_members_checked_at_construction(self):
        with pytest.raises(ConfigurationError, match="group 1 member"):
            FailureModel(shared_risk_groups=((0,), (1.5,)))
        with pytest.raises(
            ConfigurationError, match="group 0 lists interconnection 0 more"
        ):
            FailureModel(shared_risk_groups=((0, 0),))
        numpy_member = FailureModel(
            link_probability=0.05, shared_risk_groups=((np.int64(1),),)
        )
        assert len(enumerate_failure_scenarios(3, numpy_member).scenarios) == 8

    def test_group_out_of_range_rejected_at_enumeration(self):
        model = FailureModel(shared_risk_groups=((0, 5),))
        with pytest.raises(ConfigurationError, match="outside"):
            enumerate_failure_scenarios(3, model)

    def test_link_probabilities_length_checked(self):
        model = FailureModel(link_probabilities=(0.1, 0.2))
        with pytest.raises(ConfigurationError, match="entries"):
            enumerate_failure_scenarios(3, model)


class TestScopeMapping:
    def test_affected_flows_are_exactly_the_failed_defaults(self, lp_setup):
        from repro.experiments.bandwidth import _CaseContext, _FailureCase

        full, _, caps_a, caps_b = lp_setup
        table = full.subset(np.arange(6))
        context = _CaseContext(
            pair=table.pair,
            table_pre=table,
            default_pre=np.array([0, 1, 2, 1, 0, 2]),
            caps_a=caps_a,
            caps_b=caps_b,
        )
        model = FailureModel(link_probability=0.1, cutoff=1e-6)
        result = enumerate_failure_scenarios(3, model)
        tables = derive_scenario_tables(table, result)
        cases = {
            s.failed: _FailureCase(context, post, s.failed)
            for s, post in zip(result.scenarios, tables)
            if post is not None
        }
        assert cases[(0, 2)].affected.tolist() == [0, 2, 4, 5]
        assert cases[()].affected.size == 0


class TestDeriveScenarioTables:
    def test_batch_alignment_and_degenerate_entries(self, fig2):
        from repro.routing.costs import build_pair_cost_table
        from repro.routing.flows import build_full_flowset

        pair = fig2.pair
        table = build_pair_cost_table(pair, build_full_flowset(pair))
        model = FailureModel(link_probability=0.2, cutoff=1e-12)
        scenario_set = enumerate_failure_scenarios(
            pair.n_interconnections(), model
        )
        tables = derive_scenario_tables(table, scenario_set)
        assert len(tables) == len(scenario_set.scenarios)
        for scenario, derived in zip(scenario_set.scenarios, tables):
            if not scenario.failed:
                assert derived is table  # the all-up scenario is the parent
            elif scenario.severs_all(table.n_alternatives):
                assert derived is None  # graceful-degradation marker
            else:
                assert (
                    derived.n_alternatives
                    == table.n_alternatives - scenario.n_failed
                )

    def test_column_count_mismatch_rejected(self, fig2):
        from repro.routing.costs import build_pair_cost_table
        from repro.routing.flows import build_full_flowset

        pair = fig2.pair
        table = build_pair_cost_table(pair, build_full_flowset(pair))
        other = enumerate_failure_scenarios(
            table.n_alternatives + 1, FailureModel(link_probability=0.1)
        )
        with pytest.raises(ConfigurationError, match="columns"):
            derive_scenario_tables(table, other)
