"""Tests for the Figure 5 baselines and grouped negotiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.flow_strategies import (
    flow_both_better_choices,
    flow_pareto_choices,
)
from repro.baselines.grouped import grouped_negotiation_choices
from repro.core.mapping import AutoScaleDeltaMapper, delta_matrix
from repro.core.preferences import PreferenceRange
from repro.errors import ConfigurationError
from repro.util.rng import derive_rng

from reference import baselines as reference_baselines

STRATEGIES = [
    (flow_pareto_choices, reference_baselines.flow_pareto_choices),
    (flow_both_better_choices, reference_baselines.flow_both_better_choices),
]
STRATEGY_IDS = ["flow_pareto", "flow_both_better"]


def random_instance(seed, n_flows=10, n_alts=3):
    rng = np.random.default_rng(seed)
    cost_a = rng.uniform(0, 100, size=(n_flows, n_alts))
    cost_b = rng.uniform(0, 100, size=(n_flows, n_alts))
    defaults = rng.integers(0, n_alts, size=n_flows)
    return cost_a, cost_b, defaults


class TestFlowPareto:
    def test_never_picks_dominated(self):
        cost_a, cost_b, defaults = random_instance(1)
        choices = flow_pareto_choices(cost_a, cost_b, defaults, seed=2)
        da = delta_matrix(cost_a, defaults)
        db = delta_matrix(cost_b, defaults)
        for f, c in enumerate(choices):
            # Never an alternative strictly worse for both.
            assert not (da[f, c] < 0 and db[f, c] < 0)

    def test_deterministic_in_seed(self):
        cost_a, cost_b, defaults = random_instance(3)
        a = flow_pareto_choices(cost_a, cost_b, defaults, seed=5)
        b = flow_pareto_choices(cost_a, cost_b, defaults, seed=5)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            flow_pareto_choices(np.zeros((2, 2)), np.zeros((3, 2)),
                                np.zeros(2, dtype=int))


class TestFlowBothBetter:
    def test_only_picks_win_win(self):
        cost_a, cost_b, defaults = random_instance(4)
        choices = flow_both_better_choices(cost_a, cost_b, defaults, seed=6)
        da = delta_matrix(cost_a, defaults)
        db = delta_matrix(cost_b, defaults)
        for f, c in enumerate(choices):
            assert da[f, c] >= 0 and db[f, c] >= 0

    def test_defaults_survive_when_nothing_better(self):
        # Any non-default alternative hurts someone: must stay at default.
        cost_a = np.array([[1.0, 0.5, 2.0]])
        cost_b = np.array([[1.0, 2.0, 0.5]])
        defaults = np.array([0])
        choices = flow_both_better_choices(cost_a, cost_b, defaults, seed=0)
        assert choices[0] == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_total_never_hurts_either_side(self, seed):
        cost_a, cost_b, defaults = random_instance(seed)
        choices = flow_both_better_choices(cost_a, cost_b, defaults, seed=seed)
        da = delta_matrix(cost_a, defaults)
        db = delta_matrix(cost_b, defaults)
        rows = np.arange(len(defaults))
        assert da[rows, choices].sum() >= -1e-9
        assert db[rows, choices].sum() >= -1e-9


@st.composite
def baseline_instances(draw):
    """(cost_a, cost_b, defaults) with many zero-delta ties.

    Costs come from a handful of integer levels, so equal costs (ties with
    the default), rows where only the default survives and rows where
    every alternative survives all show up often.
    """
    n_flows = draw(st.integers(0, 40))
    n_alts = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cost_a = rng.integers(0, levels, size=(n_flows, n_alts)).astype(float)
    cost_b = rng.integers(0, levels, size=(n_flows, n_alts)).astype(float)
    defaults = rng.integers(0, n_alts, size=n_flows)
    return cost_a, cost_b, defaults


def _assert_same_stream(fast_rng, ref_rng):
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    assert fast_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)


class TestOneDrawEquivalence:
    """The one-draw baselines consume the generator exactly as the
    per-flow ``rng.choice`` loop in ``tests/reference/baselines.py``."""

    @staticmethod
    def _check(fast, ref, instance, make_source):
        fast_rng, ref_rng = make_source(), make_source()
        got = fast(*instance, seed=fast_rng)
        want = ref(*instance, seed=ref_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        _assert_same_stream(fast_rng, ref_rng)

    @pytest.mark.parametrize("fast, ref", STRATEGIES, ids=STRATEGY_IDS)
    @settings(deadline=None)
    @given(instance=baseline_instances(), seed=st.integers(0, 2**32 - 1))
    def test_int_seed(self, fast, ref, instance, seed):
        assert np.array_equal(
            fast(*instance, seed=seed), ref(*instance, seed=seed)
        )

    @pytest.mark.parametrize("fast, ref", STRATEGIES, ids=STRATEGY_IDS)
    @pytest.mark.parametrize(
        "source",
        [
            np.random.default_rng,
            lambda seed: derive_rng(seed, "distance-baselines", "x--y"),
        ],
        ids=["generator", "derive_rng"],
    )
    @settings(deadline=None)
    @given(instance=baseline_instances(), seed=st.integers(0, 2**32 - 1))
    def test_generator_source(self, fast, ref, source, instance, seed):
        self._check(fast, ref, instance, lambda: source(seed))

    @settings(deadline=None)
    @given(
        first=baseline_instances(),
        second=baseline_instances(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_generator(self, first, second, seed):
        """Both strategies drawing in turn from one generator."""
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for (fast, ref), instance in zip(STRATEGIES, (first, second)):
            assert np.array_equal(
                fast(*instance, seed=fast_rng), ref(*instance, seed=ref_rng)
            )
        _assert_same_stream(fast_rng, ref_rng)

    @pytest.mark.parametrize("fast, ref", STRATEGIES, ids=STRATEGY_IDS)
    @pytest.mark.parametrize(
        "instance",
        [
            # F = 0: no flows, no draws.
            (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int)),
            # I = 1: only the default exists, no draws.
            (np.ones((5, 1)), np.ones((5, 1)), np.zeros(5, dtype=int)),
            # The default is strictly best for both: only it survives.
            (
                np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0]]),
                np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0]]),
                np.array([0, 1]),
            ),
            # Zero-delta ties everywhere: every alternative survives.
            (np.full((4, 5), 7.0), np.full((4, 5), 7.0), np.arange(4)),
        ],
        ids=["no-flows", "one-alternative", "only-default", "all-tied"],
    )
    def test_edge_cases(self, fast, ref, instance):
        self._check(fast, ref, instance, lambda: np.random.default_rng(11))

    def test_single_survivor_rows_draw_nothing(self):
        cost = np.array([[0.0, 1.0, 2.0]] * 6)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        choices = flow_both_better_choices(cost, cost, np.zeros(6, int), rng)
        assert np.array_equal(choices, np.zeros(6))
        assert rng.bit_generator.state == before


class TestGroupedNegotiation:
    def _mappers(self):
        p = PreferenceRange(10)
        return (AutoScaleDeltaMapper(p, conservative=False, quantile=100.0),
                AutoScaleDeltaMapper(p, conservative=False, quantile=100.0))

    def test_one_group_equals_whole_table(self):
        cost_a, cost_b, defaults = random_instance(7)
        m_a, m_b = self._mappers()
        choices = grouped_negotiation_choices(
            cost_a, cost_b, defaults, m_a, m_b, n_groups=1, seed=1
        )
        assert choices.shape == defaults.shape

    def test_more_groups_never_gain_more_on_average(self):
        """The in-text claim: grouping reduces the achievable gain."""
        totals = {1: [], 5: []}
        for seed in range(12):
            cost_a, cost_b, defaults = random_instance(seed, n_flows=20)
            joint = cost_a + cost_b
            rows = np.arange(20)
            base = joint[rows, defaults].sum()
            for n_groups in (1, 5):
                m_a, m_b = self._mappers()
                choices = grouped_negotiation_choices(
                    cost_a, cost_b, defaults, m_a, m_b,
                    n_groups=n_groups, seed=seed,
                )
                totals[n_groups].append(base - joint[rows, choices].sum())
        assert np.mean(totals[1]) >= np.mean(totals[5]) - 1e-9

    def test_groups_exceeding_flows_clamped(self):
        cost_a, cost_b, defaults = random_instance(9, n_flows=3)
        m_a, m_b = self._mappers()
        choices = grouped_negotiation_choices(
            cost_a, cost_b, defaults, m_a, m_b, n_groups=10, seed=2
        )
        assert choices.shape == (3,)

    def test_bad_group_count(self):
        cost_a, cost_b, defaults = random_instance(10)
        m_a, m_b = self._mappers()
        with pytest.raises(ConfigurationError):
            grouped_negotiation_choices(
                cost_a, cost_b, defaults, m_a, m_b, n_groups=0
            )

    @pytest.mark.parametrize("n_groups", [2.5, True])
    def test_group_count_must_be_an_integer(self, n_groups):
        cost_a, cost_b, defaults = random_instance(10)
        m_a, m_b = self._mappers()
        with pytest.raises(ConfigurationError, match="n_groups"):
            grouped_negotiation_choices(
                cost_a, cost_b, defaults, m_a, m_b, n_groups=n_groups
            )
