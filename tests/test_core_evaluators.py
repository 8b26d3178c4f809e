"""Tests for repro.core.evaluators."""

import numpy as np
import pytest

from repro.core.evaluators import (
    FortzCostEvaluator,
    LoadAwareEvaluator,
    StaticCostEvaluator,
    StaticPreferenceEvaluator,
)
from repro.core.mapping import LinearDeltaMapper
from repro.core.preferences import PreferenceRange
from repro.core.scenario_aware import ScenarioAwareEvaluator
from repro.errors import CapacityError, PreferenceError
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.scenarios import FailureModel


class TestStaticPreferenceEvaluator:
    def test_basic(self):
        ev = StaticPreferenceEvaluator(
            np.array([[0, 1], [0, -1]]), np.array([0, 0])
        )
        assert ev.n_flows == 2
        assert ev.n_alternatives == 2
        assert ev.preferences()[0, 1] == 1

    def test_stages_consumed_on_reassign(self):
        first = np.array([[0, 0]])
        second = np.array([[0, 1]])
        ev = StaticPreferenceEvaluator(first, np.array([0]), stages=[second])
        ev.reassign(np.array([True]))
        assert ev.preferences()[0, 1] == 1
        # Further reassigns are no-ops once stages run out.
        ev.reassign(np.array([True]))
        assert ev.preferences()[0, 1] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(PreferenceError):
            StaticPreferenceEvaluator(
                np.array([[0, 99]]), np.array([0]), PreferenceRange(5)
            )

    def test_stage_shape_checked(self):
        with pytest.raises(PreferenceError):
            StaticPreferenceEvaluator(
                np.array([[0, 0]]), np.array([0]),
                stages=[np.zeros((2, 2), dtype=np.int64)],
            )

    def test_true_delta_is_class(self):
        ev = StaticPreferenceEvaluator(np.array([[0, 3]]), np.array([0]))
        assert ev.true_delta(0, 1) == 3.0


class TestStaticCostEvaluator:
    def test_prefs_from_costs(self):
        costs = np.array([[10.0, 6.0]])
        ev = StaticCostEvaluator(
            costs, np.array([0]), LinearDeltaMapper(PreferenceRange(10), unit=2.0)
        )
        assert ev.preferences()[0, 1] == 2

    def test_true_delta_is_metric(self):
        costs = np.array([[10.0, 6.0]])
        ev = StaticCostEvaluator(
            costs, np.array([0]), LinearDeltaMapper(PreferenceRange(10), unit=2.0)
        )
        assert ev.true_delta(0, 1) == 4.0
        assert ev.true_delta(0, 0) == 0.0

    def test_commit_and_reassign_are_noops(self):
        costs = np.array([[10.0, 6.0]])
        ev = StaticCostEvaluator(
            costs, np.array([0]), LinearDeltaMapper(PreferenceRange(10))
        )
        before = ev.preferences().copy()
        ev.commit(0, 1)
        ev.reassign(np.array([True]))
        assert np.array_equal(ev.preferences(), before)


class TestLoadAwareEvaluator:
    @pytest.fixture()
    def setup(self, fig2):
        """The Figure 2 post-failure scenario wired for evaluation."""
        from repro.routing.flows import Flow, FlowSet

        post = fig2.post_failure_pair
        flows = [
            Flow(index=i, src=src, dst=dst)
            for i, (_, src, dst) in enumerate(fig2.flows)
        ]
        table = build_pair_cost_table(post, FlowSet(post, flows))
        caps_b = np.asarray(
            [fig2.capacities_delta[l.index] for l in post.isp_b.links]
        )
        # Background: f1 on Top->Dst, f4 on Bot->Dst, one unit each.
        base_b = np.zeros(post.isp_b.n_links())
        for link in post.isp_b.links:
            base_b[link.index] = 1.0
        defaults = np.array([0, 0])  # both affected flows default to Bot
        return table, caps_b, base_b, defaults

    def test_initial_independence(self, setup):
        """Figure 3: B is initially indifferent (flows scored in isolation)."""
        table, caps_b, base_b, defaults = setup
        ev = LoadAwareEvaluator(
            table, "b", caps_b, defaults, base_loads=base_b,
            range_=PreferenceRange(1), ratio_unit=0.25,
        )
        assert np.all(ev.preferences() == 0)

    def test_reassignment_reveals_preference(self, setup):
        """After f2 commits to Bot, B prefers f3 via Top (class +1)."""
        table, caps_b, base_b, defaults = setup
        ev = LoadAwareEvaluator(
            table, "b", caps_b, defaults, base_loads=base_b,
            range_=PreferenceRange(1), ratio_unit=0.25,
        )
        ev.commit(0, 0)  # f2 -> Bot
        ev.reassign(np.array([False, True]))
        prefs = ev.preferences()
        assert prefs[1, 1] == 1  # f3 via Top now preferred
        assert prefs[1, 0] == 0  # default stays class 0

    def test_true_delta_reflects_ratio(self, setup):
        table, caps_b, base_b, defaults = setup
        ev = LoadAwareEvaluator(
            table, "b", caps_b, defaults, base_loads=base_b,
            range_=PreferenceRange(1), ratio_unit=0.25,
        )
        ev.commit(0, 0)
        # f3 via Top avoids the 1.5 ratio on Bot->Dst: delta = 1.5 - 1.0.
        assert ev.true_delta(1, 1) == pytest.approx(0.5)

    def test_bad_ratio_unit(self, setup):
        # NaN used to disclose class -2**63 and inf class 0 everywhere.
        table, caps_b, base_b, defaults = setup
        for ratio_unit in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(PreferenceError):
                LoadAwareEvaluator(table, "b", caps_b, defaults,
                                   base_loads=base_b, ratio_unit=ratio_unit)

    def test_defaults_shape_checked(self, setup):
        table, caps_b, base_b, _ = setup
        with pytest.raises(PreferenceError):
            LoadAwareEvaluator(table, "b", caps_b, np.array([0]),
                               base_loads=base_b)


class TestLoadAwareOnDataset(object):
    def test_preferences_within_range(self, small_pair):
        table = build_pair_cost_table(small_pair, build_full_flowset(small_pair))
        caps = np.full(small_pair.isp_a.n_links(), 5.0)
        defaults = early_exit_choices(table)
        ev = LoadAwareEvaluator(table, "a", caps, defaults,
                                range_=PreferenceRange(10))
        prefs = ev.preferences()
        assert prefs.min() >= -10 and prefs.max() <= 10
        rows = np.arange(table.n_flows)
        assert np.all(prefs[rows, defaults] == 0)


_LOAD_EVALUATORS = {
    "load-aware": LoadAwareEvaluator,
    "fortz": FortzCostEvaluator,
    "scenario-aware": lambda *args: ScenarioAwareEvaluator(
        *args, FailureModel(link_probability=0.1, max_failed=1)
    ),
}


def _bad_capacities(n_links: int) -> dict[str, np.ndarray]:
    good = np.full(n_links, 5.0)
    cases = {
        "too-long": np.full(n_links + 1, 5.0),
        "too-short": np.full(n_links - 1, 5.0),
        "two-dimensional": good[np.newaxis, :],
    }
    for name, value in (
        ("nan", np.nan), ("inf", np.inf), ("zero", 0.0), ("negative", -1.0)
    ):
        bad = good.copy()
        bad[-1] = value
        cases[name] = bad
    return cases


@pytest.mark.parametrize("kind", sorted(_LOAD_EVALUATORS))
class TestCapacityValidation:
    """Capacities are checked once, at construction, with CapacityError.

    A NaN capacity used to disclose classes of -2**63, a short vector died
    with a bare IndexError, and zero, negative or over-long vectors were
    accepted silently.
    """

    @pytest.mark.parametrize(
        "case",
        ["nan", "inf", "zero", "negative", "too-long", "too-short",
         "two-dimensional"],
    )
    def test_rejected(self, small_pair, kind, case):
        table = build_pair_cost_table(small_pair, build_full_flowset(small_pair))
        caps = _bad_capacities(small_pair.isp_a.n_links())[case]
        with pytest.raises(CapacityError):
            _LOAD_EVALUATORS[kind](table, "a", caps, early_exit_choices(table))

    def test_snapshotted_at_construction(self, small_pair, kind):
        table = build_pair_cost_table(small_pair, build_full_flowset(small_pair))
        caps = np.full(small_pair.isp_a.n_links(), 5.0)
        ev = _LOAD_EVALUATORS[kind](table, "a", caps, early_exit_choices(table))
        remaining = np.ones(table.n_flows, dtype=bool)
        ev.commit(0, 1)
        ev.reassign(remaining)
        before = ev.preferences().copy()
        caps[:] = 1e-3  # the caller's array, not the evaluator's
        ev.reassign(remaining)
        assert np.array_equal(ev.preferences(), before)
