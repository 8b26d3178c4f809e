"""Scenario-aware (CVaR-blended) negotiation preferences.

Covers the PR 7 tentpole evaluator: batch scenario scoring vs the
per-scenario derived-table reference (bit-identity), the ``tail_weight=0`` short-circuit (bit-identical to a
plain :class:`LoadAwareEvaluator`), constructor validation, the
pessimistic re-route bound's risk ordering, the fixed-placement
per-scenario MEL helper, and the pinned CVaR-advantage fixture from the
acceptance criteria: CVaR-aware agents negotiate an agreement with
strictly lower CVaR_q MEL than nominal-only agents at equal nominal MEL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.core import (
    LoadAwareEvaluator,
    NegotiationAgent,
    NegotiationSession,
    ScenarioAwareEvaluator,
    SessionConfig,
    scenario_placement_mels,
)
from repro.core.strategies import ReassignEveryFraction
from repro.errors import ConfigurationError
from repro.metrics.mel import max_excess_load, mel_for_placement
from repro.metrics.tail import conditional_value_at_risk
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import Flow, FlowSet, build_full_flowset
from repro.routing.scenarios import FailureModel, enumerate_failure_scenarios
from repro.topology.builders import build_custom_isp
from repro.topology.dataset import DatasetConfig, build_default_dataset
from repro.topology.generator import GeneratorConfig
from repro.topology.interconnect import Interconnection, IspPair

from reference import scenario as reference_scenario


def star_pair_table(n_flows: int) -> "tuple":
    """A hand-built 3-column pair with per-column dedicated links.

    ISP A is a star: a hub PoP with one spoke link per interconnection
    city (weights 1, 2, 3 so the early-exit default is column 0); ISP B
    mirrors it with unit weights. Every flow runs hub-to-hub, so a flow
    placed on column ``i`` loads exactly spoke link ``i`` in each ISP —
    loads and MELs are hand-computable.
    """
    isp_a = build_custom_isp(
        "anet",
        [
            ("HubA", 40.0, -100.0),
            ("L", 40.0, -99.0),
            ("M", 40.0, -98.0),
            ("R", 40.0, -97.0),
        ],
        [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)],
    )
    isp_b = build_custom_isp(
        "bnet",
        [
            ("L", 40.0, -99.0),
            ("M", 40.0, -98.0),
            ("R", 40.0, -97.0),
            ("HubB", 40.0, -96.0),
        ],
        [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
    )
    ics = [
        Interconnection(index=0, city="L", pop_a=1, pop_b=0),
        Interconnection(index=1, city="M", pop_a=2, pop_b=1),
        Interconnection(index=2, city="R", pop_a=3, pop_b=2),
    ]
    pair = IspPair(isp_a, isp_b, ics)
    flows = [Flow(index=i, src=0, dst=3, size=1.0) for i in range(n_flows)]
    table = build_pair_cost_table(pair, FlowSet(pair, flows))
    return table, early_exit_choices(table)


@pytest.fixture(scope="module", params=[11, 202])
def problem(request):
    """A randomized ≥3-column (table, capacities) problem per seed."""
    seed = request.param
    dataset = build_default_dataset(
        DatasetConfig(
            n_isps=20,
            seed=seed,
            generator=GeneratorConfig(min_pops=5, max_pops=10),
        )
    )
    pair = dataset.pairs(min_interconnections=3)[0]
    table = build_pair_cost_table(pair, build_full_flowset(pair))
    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    return table, defaults, caps_a


MODEL = FailureModel(link_probability=0.08, cutoff=1e-5, max_failed=2)


class TestEngineEquivalence:
    def _pair_of_evaluators(self, problem, **kw):
        table, defaults, caps_a = problem
        return tuple(
            evaluator_cls(table, "a", caps_a, defaults, MODEL, **kw)
            for evaluator_cls in (
                ScenarioAwareEvaluator,
                reference_scenario.ScenarioAwareEvaluator,
            )
        )

    def test_bit_identical_through_commits(self, problem):
        """Batch masking of the nominal block == per-scenario derived
        tables, exactly — at init and across commit/reassign churn."""
        table, defaults, caps_a = problem
        ev_b, ev_l = self._pair_of_evaluators(
            problem, tail_weight=0.5, tail_quantile=0.9
        )
        assert np.array_equal(ev_b.preferences(), ev_l.preferences())
        rng = np.random.default_rng(0)
        remaining = np.ones(table.n_flows, dtype=bool)
        for _ in range(5):
            f = int(rng.choice(np.flatnonzero(remaining)))
            alt = int(rng.integers(table.n_alternatives))
            for ev in (ev_b, ev_l):
                ev.commit(f, alt)
            remaining[f] = False
            for ev in (ev_b, ev_l):
                ev.reassign(remaining)
            assert np.array_equal(ev_b.preferences(), ev_l.preferences())
        f = int(np.flatnonzero(remaining)[0])
        for alt in range(table.n_alternatives):
            assert ev_b.true_delta(f, alt) == ev_l.true_delta(f, alt)

    def test_pure_cvar_blend(self, problem):
        """tail_weight=1 is valid and keeps defaults at class 0."""
        table, defaults, _ = problem
        ev_b, ev_l = self._pair_of_evaluators(
            problem, tail_weight=1.0, tail_quantile=0.8
        )
        assert np.array_equal(ev_b.preferences(), ev_l.preferences())
        rows = np.arange(table.n_flows)
        assert (ev_b.preferences()[rows, defaults] == 0).all()


class TestShortCircuit:
    def test_tail_weight_zero_is_load_aware(self, problem):
        table, defaults, caps_a = problem
        ev0 = ScenarioAwareEvaluator(
            table, "a", caps_a, defaults, MODEL, tail_weight=0.0
        )
        plain = LoadAwareEvaluator(table, "a", caps_a, defaults)
        assert np.array_equal(ev0.preferences(), plain.preferences())
        remaining = np.ones(table.n_flows, dtype=bool)
        for f in range(3):
            ev0.commit(f, 1)
            plain.commit(f, 1)
            remaining[f] = False
            ev0.reassign(remaining)
            plain.reassign(remaining)
            assert np.array_equal(ev0.preferences(), plain.preferences())


class TestValidation:
    def test_rejects_bad_tail_weight(self, problem):
        table, defaults, caps_a = problem
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ConfigurationError, match="tail_weight"):
                ScenarioAwareEvaluator(
                    table, "a", caps_a, defaults, MODEL, tail_weight=bad
                )

    def test_rejects_bad_quantile(self, problem):
        table, defaults, caps_a = problem
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ConfigurationError, match="tail_quantile"):
                ScenarioAwareEvaluator(
                    table, "a", caps_a, defaults, MODEL, tail_quantile=bad
                )

    def test_rejects_unknown_engine(self, problem):
        # One scoring path: the scenario_engine option is gone.
        table, defaults, caps_a = problem
        with pytest.raises(TypeError, match="scenario_engine"):
            ScenarioAwareEvaluator(
                table, "a", caps_a, defaults, MODEL,
                scenario_engine="vectorised",
            )

    def test_rejects_cutoff_excluding_every_scenario(self, problem):
        table, defaults, caps_a = problem
        greedy_cutoff = FailureModel(
            link_probability=0.49, cutoff=0.9, max_failed=1
        )
        with pytest.raises(ConfigurationError, match="routable"):
            ScenarioAwareEvaluator(
                table, "a", caps_a, defaults, greedy_cutoff
            )


class TestRiskOrdering:
    def test_unreliable_best_column_is_penalized(self):
        """A failure-prone column loses blended score relative to the
        plain load-aware view: moving off it gains more under the blend."""
        table, defaults = star_pair_table(4)
        caps = np.array([4.0, 2.0, 1.0])
        risky0 = FailureModel(
            link_probabilities=(0.4, 0.01, 0.01), cutoff=1e-5, max_failed=2
        )
        aware = ScenarioAwareEvaluator(
            table, "a", caps, defaults, risky0,
            tail_weight=0.5, tail_quantile=0.9,
        )
        plain = LoadAwareEvaluator(table, "a", caps, defaults)
        # Default is column 0 (risky). The blend must value the move to
        # the reliable column 1 strictly more than the nominal view does.
        assert aware.true_delta(0, 1) > plain.true_delta(0, 1)


class TestPinnedCvarAdvantage:
    """Acceptance fixture: CVaR-aware agents beat nominal-only agents on
    tail risk without giving up nominal MEL.

    Six hub-to-hub flows over a 3-column star pair; column 0 is nominally
    cheapest and amply provisioned but fails with probability 0.4, while
    columns 1 and 2 are reliable. Both sides negotiate with the same
    evaluator type; the agreement is assessed with the *operational*
    re-route model (scenario_placement_mels) at q = 0.9.
    """

    QUANTILE = 0.9
    MODEL = FailureModel(
        link_probabilities=(0.4, 0.01, 0.01), cutoff=1e-5, max_failed=2
    )

    def _negotiate(self, table, defaults, caps, make_ev):
        session = NegotiationSession(
            NegotiationAgent("a", make_ev("a")),
            NegotiationAgent("b", make_ev("b")),
            sizes=table.flowset.sizes(),
            defaults=defaults,
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(0.25)
            ),
        )
        return session.run().choices

    def _assess(self, table, choices, caps):
        sset = enumerate_failure_scenarios(table.n_alternatives, self.MODEL)
        pa, ma = scenario_placement_mels(
            table, choices, "a", caps, sset
        )
        _, mb = scenario_placement_mels(
            table, choices, "b", caps, sset
        )
        mels = np.maximum(ma, mb)
        nominal = max(
            mel_for_placement(table, choices, "a", caps),
            mel_for_placement(table, choices, "b", caps),
        )
        return nominal, conditional_value_at_risk(
            pa, mels, sset.coverage, self.QUANTILE
        )

    def test_cvar_agents_lower_tail_at_equal_nominal(self):
        table, defaults = star_pair_table(6)
        caps = np.array([4.0, 2.0, 1.0])

        def nominal_ev(side):
            return LoadAwareEvaluator(
                table, side, caps, defaults, ratio_unit=0.1
            )

        def cvar_ev(side):
            return ScenarioAwareEvaluator(
                table, side, caps, defaults, self.MODEL,
                tail_weight=0.5, tail_quantile=self.QUANTILE,
                ratio_unit=0.1,
            )

        ch_n = self._negotiate(table, defaults, caps, nominal_ev)
        ch_c = self._negotiate(table, defaults, caps, cvar_ev)
        # Deterministic, replayable agreements.
        assert np.array_equal(
            ch_n, self._negotiate(table, defaults, caps, nominal_ev)
        )
        assert np.array_equal(
            ch_c, self._negotiate(table, defaults, caps, cvar_ev)
        )
        nom_n, cvar_n = self._assess(table, ch_n, caps)
        nom_c, cvar_c = self._assess(table, ch_c, caps)
        # Strictly lower tail risk at no nominal regret.
        assert cvar_c < cvar_n
        assert nom_c <= nom_n + 1e-12
        # Pin the shape of both agreements: the nominal agents leave the
        # weak column 2 idle and stack the reliable ones; the CVaR-aware
        # agents keep a reliable fallback spread.
        assert np.bincount(ch_n, minlength=3).tolist() == [4, 2, 0]
        assert np.bincount(ch_c, minlength=3).tolist() == [4, 1, 1]


class TestScenarioPlacementMels:
    def test_no_failure_scenario_matches_nominal_mel(self):
        table, defaults = star_pair_table(4)
        caps = np.array([4.0, 2.0, 1.0])
        sset = enumerate_failure_scenarios(3, MODEL)
        probs, mels = scenario_placement_mels(
            table, defaults, "a", caps, sset
        )
        none_idx = next(
            i for i, s in enumerate(sset.scenarios) if not s.failed
        )
        assert mels[none_idx] == mel_for_placement(
            table, defaults, "a", caps
        )
        assert probs[none_idx] == sset.scenarios[none_idx].probability

    def test_reroute_loads_are_hand_computable(self):
        """All 4 flows default to column 0; when column 0 fails they all
        re-route to the min-ratio survivor (column 1: (0+1)/2 < (0+1)/1),
        giving load 4 on a capacity-2 link: MEL 2."""
        table, defaults = star_pair_table(4)
        caps = np.array([4.0, 2.0, 1.0])
        sset = enumerate_failure_scenarios(
            3, FailureModel(link_probability=0.1, cutoff=1e-4, max_failed=1)
        )
        by_failed = {s.failed: i for i, s in enumerate(sset.scenarios)}
        _, mels = scenario_placement_mels(
            table, defaults, "a", caps, sset
        )
        assert mels[by_failed[(0,)]] == 4.0 / 2.0
        # Failures of idle columns leave the placement untouched.
        assert mels[by_failed[(1,)]] == 4.0 / 4.0
        assert mels[by_failed[(2,)]] == 4.0 / 4.0

    def test_severs_all_is_infinite(self):
        table, defaults = star_pair_table(2)
        caps = np.ones(3)
        sset = enumerate_failure_scenarios(
            3, FailureModel(link_probability=0.4, cutoff=1e-6, max_failed=3)
        )
        probs, mels = scenario_placement_mels(
            table, defaults, "a", caps, sset
        )
        severed = [
            i for i, s in enumerate(sset.scenarios) if s.severs_all(3)
        ]
        assert severed and all(np.isinf(mels[i]) for i in severed)
        finite = np.isfinite(mels)
        assert max_excess_load(
            link_loads(table, defaults, "a"), caps
        ) == mels[finite].min()

    def test_rejects_mismatched_scenario_set(self):
        table, defaults = star_pair_table(2)
        sset = enumerate_failure_scenarios(
            5, FailureModel(link_probability=0.1, cutoff=1e-4, max_failed=1)
        )
        with pytest.raises(ConfigurationError, match="enumerates 5"):
            scenario_placement_mels(
                table, defaults, "a", np.ones(3), sset
            )
