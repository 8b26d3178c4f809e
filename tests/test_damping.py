"""DampingController: cycle attribution, the ladder, decay, perturbation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.damping import (
    DAMPING_MODES,
    CycleReport,
    DampingConfig,
    DampingController,
)
from repro.errors import ConfigurationError


def _controller(mode="ladder", **kwargs):
    return DampingController(DampingConfig(mode=mode, **kwargs), seed=7)


def _states(*rows):
    """Each row is a tuple of per-edge placement tuples."""
    return [
        [np.asarray(edge, dtype=np.intp) for edge in row] for row in rows
    ]


def _fp(state):
    return "|".join(",".join(map(str, edge)) for edge in state)


class TestConfigValidation:
    def test_modes(self):
        assert DAMPING_MODES == ("off", "ladder")
        for mode in DAMPING_MODES:
            DampingConfig(mode=mode)
        with pytest.raises(ConfigurationError, match="damping"):
            DampingConfig(mode="prayer")

    def test_margin_positive(self):
        with pytest.raises(ConfigurationError, match="hysteresis_margin"):
            DampingConfig(hysteresis_margin=0.0)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf")])
    def test_margin_finite(self, margin):
        # NaN passes a `<= 0` check and would silently switch the
        # ladder's hysteresis rung off.
        with pytest.raises(ConfigurationError, match="hysteresis_margin"):
            DampingConfig(hysteresis_margin=margin)

    def test_budget_non_negative(self):
        DampingConfig(budget=0)
        with pytest.raises(ConfigurationError, match="budget"):
            DampingConfig(budget=-1)

    @pytest.mark.parametrize("budget", [2.5, 2.0, True])
    def test_budget_is_an_integer(self, budget):
        with pytest.raises(ConfigurationError, match="budget"):
            DampingConfig(budget=budget)

    def test_perturb_keep_range(self):
        DampingConfig(perturb_keep=1.0)
        for bogus in (0.0, 1.5):
            with pytest.raises(ConfigurationError, match="perturb_keep"):
                DampingConfig(perturb_keep=bogus)


class TestCycleAttribution:
    def test_fresh_states_report_nothing(self):
        damping = _controller()
        a, b = _states(((0, 0), (1,)), ((1, 1), (1,)))
        assert damping.observe(0, _fp(a), a) is None
        assert damping.observe(1, _fp(b), b) is None

    def test_two_cycle_attributed_to_moving_edges(self):
        damping = _controller()
        # Edge 0 seesaws; edge 1 never moves — only edge 0 is implicated.
        a, b = _states(((0, 0), (2,)), ((1, 1), (2,)))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        report = damping.observe(2, _fp(a), a)
        assert report == CycleReport(
            first_seen_round=0, round_index=2, edge_indices=(0,)
        )
        assert report.cycle_length == 2

    def test_longer_cycle_unions_every_moving_edge(self):
        damping = _controller()
        a, b, c = _states(
            ((0, 0), (0,)), ((1, 1), (0,)), ((1, 1), (1,))
        )
        for index, state in enumerate((a, b, c)):
            damping.observe(index, _fp(state), state)
        report = damping.observe(3, _fp(a), a)
        assert report.cycle_length == 3
        assert report.edge_indices == (0, 1)


class TestLadder:
    def test_off_mode_never_escalates(self):
        damping = _controller(mode="off")
        (a,) = _states(((0,),))
        damping.observe(0, _fp(a), a)
        report = damping.observe(1, _fp(a), a)
        assert report is not None
        assert not damping.escalate(report)
        assert damping.level == 0
        assert not damping.active

    def test_escalation_arms_margin_on_implicated_edges(self):
        damping = _controller(hysteresis_margin=0.1)
        a, b = _states(((0, 0), (2,)), ((1, 1), (2,)))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        assert damping.escalate(damping.observe(2, _fp(a), a))
        assert damping.level == 1
        assert damping.active
        assert damping.margin_for(0) == 0.1
        assert damping.margin_for(1) == 0.0

    def test_escalation_resets_fingerprint_memory(self):
        # Under the new gate the pre-escalation states are legitimately
        # reachable again; only the revisited state itself stays armed.
        damping = _controller()
        a, b = _states(((0,),), ((1,),))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        damping.escalate(damping.observe(2, _fp(a), a))
        assert damping.observe(3, _fp(b), b) is None
        assert damping.observe(4, _fp(a), a) is not None

    def test_budget_bounds_escalations(self):
        damping = _controller(budget=1)
        (a,) = _states(((0,),))
        damping.observe(0, _fp(a), a)
        assert damping.escalate(damping.observe(1, _fp(a), a))
        assert not damping.escalate(damping.observe(2, _fp(a), a))
        assert damping.level == 1

    def test_margin_decays_to_zero_over_clean_rounds(self):
        damping = _controller(hysteresis_margin=0.08)
        a, b = _states(((0,),), ((1,),))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        damping.escalate(damping.observe(2, _fp(a), a))
        margins = []
        for _ in range(4):
            damping.note_clean_round()
            margins.append(damping.margin_for(0))
        assert margins == [0.04, 0.02, 0.01, 0.0]
        assert not damping.active


class TestPerturbation:
    def _level2(self, **kwargs):
        damping = _controller(**kwargs)
        a, b = _states(((0, 0, 0),), ((1, 1, 1),))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        damping.escalate(damping.observe(2, _fp(a), a))
        damping.observe(3, _fp(b), b)
        damping.escalate(damping.observe(4, _fp(a), a))
        assert damping.level == 2 and damping.active
        return damping

    def test_passthrough_below_level_two(self):
        damping = _controller()
        a, b = _states(((0, 0, 0),), ((1, 1, 1),))
        damping.observe(0, _fp(a), a)
        damping.observe(1, _fp(b), b)
        damping.escalate(damping.observe(2, _fp(a), a))
        assert damping.level == 1 and damping.active
        scope = np.arange(10, dtype=np.intp)
        assert damping.perturb_scope(0, 3, scope) is scope

    def test_thins_implicated_scope_deterministically(self):
        scope = np.arange(40, dtype=np.intp)
        first = self._level2().perturb_scope(0, 3, scope)
        again = self._level2().perturb_scope(0, 3, scope)
        assert np.array_equal(first, again)
        assert 1 <= first.size < scope.size
        assert np.isin(first, scope).all()

    def test_unimplicated_edge_and_singletons_pass_through(self):
        damping = self._level2()
        scope = np.arange(10, dtype=np.intp)
        assert damping.perturb_scope(5, 3, scope) is scope
        singleton = np.asarray([4], dtype=np.intp)
        assert damping.perturb_scope(0, 3, singleton) is singleton

    def test_keeps_at_least_one_flow(self):
        damping = self._level2(perturb_keep=1e-9)
        scope = np.arange(6, dtype=np.intp)
        for round_index in range(8):
            kept = damping.perturb_scope(0, round_index, scope)
            assert kept.size >= 1
