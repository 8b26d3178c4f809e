"""Tests for the cycle-of-influence simulator."""

import numpy as np
import pytest

from repro.capacity.loads import link_loads
from repro.core import (
    NegotiationAgent,
    NegotiationSession,
    PreferenceRange,
    SessionConfig,
)
from repro.core.evaluators import LoadAwareEvaluator
from repro.core.strategies import ReassignEveryFraction
from repro.errors import ConfigurationError
from repro.experiments.oscillation import simulate_best_response
from repro.metrics.mel import max_excess_load
from repro.routing.costs import build_pair_cost_table
from repro.routing.flows import Flow, FlowSet


@pytest.fixture()
def fig2_setup(fig2):
    post = fig2.post_failure_pair
    flows = [Flow(index=i, src=s, dst=d)
             for i, (_, s, d) in enumerate(fig2.flows)]
    table = build_pair_cost_table(post, FlowSet(post, flows))
    caps_a = np.asarray([fig2.capacities_gamma[l.index]
                         for l in post.isp_a.links])
    caps_b = np.asarray([fig2.capacities_delta[l.index]
                         for l in post.isp_b.links])
    bg = [Flow(index=i, src=s, dst=d)
          for i, (_, s, d, _) in enumerate(fig2.background_flows)]
    bg_table = build_pair_cost_table(post, FlowSet(post, bg))
    base_a = link_loads(bg_table, np.array([1, 0]), "a")
    base_b = link_loads(bg_table, np.array([1, 0]), "b")
    defaults = np.array([0, 0])  # both affected flows pile onto Bot
    return table, defaults, caps_a, caps_b, base_a, base_b


class TestFigure2Oscillation:
    def test_unilateral_reactions_cycle(self, fig2_setup):
        """The Section 2.2 incident: selfish reactions revisit a state."""
        result = simulate_best_response(*fig2_setup, max_steps=30)
        assert result.cycled
        assert not result.stable
        assert result.n_steps >= 2
        # The tug-of-war is over flow f2 (index 0), shuttled between the
        # two interconnections by the two ISPs in turn.
        moved = {s.flow_index for s in result.steps}
        assert 0 in moved

    def test_negotiated_agreement_is_stable(self, fig2_setup):
        """Starting from the Nexit agreement, neither ISP wants to move."""
        table, defaults, caps_a, caps_b, base_a, base_b = fig2_setup
        p1 = PreferenceRange(1)
        ev_a = LoadAwareEvaluator(table, "a", caps_a, defaults,
                                  base_loads=base_a, range_=p1,
                                  ratio_unit=0.25)
        ev_b = LoadAwareEvaluator(table, "b", caps_b, defaults,
                                  base_loads=base_b, range_=p1,
                                  ratio_unit=0.25)
        session = NegotiationSession(
            NegotiationAgent("gamma", ev_a),
            NegotiationAgent("delta", ev_b),
            defaults=defaults,
            config=SessionConfig(
                reassignment_policy=ReassignEveryFraction(0.5)
            ),
        )
        agreed = session.run().choices
        result = simulate_best_response(
            table, agreed, caps_a, caps_b, base_a, base_b, max_steps=30
        )
        assert result.stable
        assert not result.cycled
        assert np.array_equal(result.final_choices, agreed)
        # The agreement relieves the downstream's early-exit pile-up.
        pileup, relieved = (
            max_excess_load(link_loads(table, choices, "b") + base_b, caps_b)
            for choices in (defaults, agreed)
        )
        assert relieved < pileup


class TestSimulatorMechanics:
    def test_max_steps_validated(self, fig2_setup):
        with pytest.raises(ConfigurationError):
            simulate_best_response(*fig2_setup, max_steps=0)

    def test_steps_record_mels(self, fig2_setup):
        result = simulate_best_response(*fig2_setup, max_steps=30)
        for step in result.steps:
            assert step.mel_a > 0 and step.mel_b > 0
            assert step.actor in (0, 1)

    def test_deterministic(self, fig2_setup):
        a = simulate_best_response(*fig2_setup, max_steps=30)
        b = simulate_best_response(*fig2_setup, max_steps=30)
        assert a.cycled == b.cycled
        assert [s.flow_index for s in a.steps] == [s.flow_index for s in b.steps]
