"""Tests for repro.core.evaluators."""

import numpy as np
import pytest

from repro.core.agent import NegotiationAgent
from repro.core.evaluators import (
    FortzCostEvaluator,
    LoadAwareEvaluator,
    StaticCostEvaluator,
    StaticPreferenceEvaluator,
)
from repro.core.mapping import LinearDeltaMapper
from repro.core.preferences import PreferenceRange
from repro.core.scenario_aware import ScenarioAwareEvaluator
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import ReassignEveryFraction
from repro.errors import CapacityError, PreferenceError
from repro.routing.costs import PairCostTable, build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import build_full_flowset
from repro.routing.scenarios import FailureModel
from repro.topology.builders import build_scale_pair


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


@pytest.fixture(scope="module")
def scale_table():
    pair = build_scale_pair(8, n_interconnections=3, seed=11)
    return build_pair_cost_table(pair, build_full_flowset(pair))


_EVALUATOR_KINDS = ["static-preference", "static-cost", *sorted(_LOAD_EVALUATORS)]

def _evaluator(kind: str, table, defaults):
    """One evaluator of each class over ``table``, side a."""
    if kind == "static-preference":
        prefs = np.zeros((table.n_flows, table.n_alternatives), dtype=int)
        return StaticPreferenceEvaluator(prefs, defaults)
    if kind == "static-cost":
        mapper = LinearDeltaMapper(PreferenceRange(10))
        return StaticCostEvaluator(table.up_km, defaults, mapper)
    caps = np.full(table.pair.isp_a.n_links(), 5.0)
    return _LOAD_EVALUATORS[kind](table, "a", caps, defaults)


_BAD_DEFAULTS = {
    "float": lambda defaults, n_alt: defaults + 0.7,
    "bool": lambda defaults, n_alt: defaults == 0,
    "short": lambda defaults, n_alt: defaults[:-1],
    "negative": lambda defaults, n_alt: np.full_like(defaults, -1),
    "too-large": lambda defaults, n_alt: np.full_like(defaults, n_alt),
}


@pytest.mark.parametrize("bad", sorted(_BAD_DEFAULTS))
@pytest.mark.parametrize("kind", _EVALUATOR_KINDS)
def test_bad_defaults_rejected_at_construction(scale_table, kind, bad):
    """Regression: defaults were cast to intp unchecked, so -1 read the last
    alternative as every flow's default, floats were truncated, a bool
    mask read as indices and a too-large index raised a bare IndexError
    (or nothing, for static preferences)."""
    defaults = early_exit_choices(scale_table)
    _evaluator(kind, scale_table, defaults)  # the valid ones build
    bad_defaults = _BAD_DEFAULTS[bad](defaults, scale_table.n_alternatives)
    with pytest.raises(PreferenceError, match="defaults"):
        _evaluator(kind, scale_table, bad_defaults)


#: Cells outside an (F, I) table, from (F, I).
_OUTSIDE_CELLS = {
    "alternative-past-end": lambda n_f, n_i: (0, n_i),
    "alternative-negative": lambda n_f, n_i: (0, -1),
    "flow-negative": lambda n_f, n_i: (-1, 0),
    "flow-past-end": lambda n_f, n_i: (n_f, 0),
}


@pytest.mark.parametrize("cell", sorted(_OUTSIDE_CELLS))
@pytest.mark.parametrize("kind", _EVALUATOR_KINDS)
def test_cells_outside_the_table_rejected(scale_table, kind, cell):
    """Regression: an alternative past the end read the next PoP's row, a
    negative index wrapped to the last flow or alternative, a flow past
    the end raised a bare IndexError, and commit_epoch took lists of
    unequal length (the load-aware one placing the shorter list, the
    static-cost one broadcasting one alternative to every flow)."""
    defaults = early_exit_choices(scale_table)
    n_f, n_i = scale_table.n_flows, scale_table.n_alternatives
    evaluator = _evaluator(kind, scale_table, defaults)
    flow, alternative = _OUTSIDE_CELLS[cell](n_f, n_i)
    with pytest.raises(PreferenceError, match="must lie in"):
        evaluator.true_delta(flow, alternative)
    with pytest.raises(PreferenceError, match="must lie in"):
        evaluator.commit(flow, alternative)
    # A bad cell anywhere in an epoch fails it before anything is placed.
    with pytest.raises(PreferenceError, match="must lie in"):
        evaluator.commit_epoch([1, flow], [1, alternative])
    with pytest.raises(PreferenceError, match="2 flows and 1 alternatives"):
        evaluator.commit_epoch([0, 1], [2])
    fresh = _evaluator(kind, scale_table, defaults)
    cells = [(f, i) for f in range(n_f) for i in range(n_i)]
    assert [evaluator.true_delta(*c) for c in cells] == [
        fresh.true_delta(*c) for c in cells
    ]
    assert evaluator.commit_epoch([0, 1], [1, 2]) == fresh.commit_epoch(
        [0, 1], [1, 2]
    )


@pytest.mark.parametrize("where", ["prefs", "stage"])
@pytest.mark.parametrize(
    "classes",
    [[[0, 1.7], [0, -0.5]], [[0, np.nan], [0, 0]]],
    ids=["float", "nan"],
)
def test_non_integer_classes_rejected(classes, where):
    """Regression: classes and stages were cast to int64 before the dtype
    check, so [[0, 1.7], [0, -0.5]] disclosed [[0, 1], [0, 0]] and a NaN
    reported a range starting at -2**63."""
    valid = np.zeros((2, 2), dtype=int)
    prefs, stages = (classes, []) if where == "prefs" else (valid, [classes])
    with pytest.raises(PreferenceError, match="integers"):
        StaticPreferenceEvaluator(
            np.asarray(prefs), np.zeros(2, dtype=int), stages=stages
        )


@pytest.mark.parametrize("kind", sorted(_LOAD_EVALUATORS))
def test_zero_flow_scope(scale_table, kind):
    """Regression: a Fortz evaluator over no flows took its default unit
    from the mean of an empty size array, warned "Mean of empty slice" and
    raised a PreferenceError about a ``cost_unit`` nobody passed."""
    empty = scale_table.subset(np.empty(0, dtype=np.intp))
    evaluator = _evaluator(kind, empty, np.empty(0, dtype=np.intp))
    assert evaluator.preferences().shape == (0, scale_table.n_alternatives)
    evaluator.reassign(np.zeros(0, dtype=bool))
    assert evaluator.commit_epoch([], []) == []


@pytest.mark.parametrize("kind", sorted(_LOAD_EVALUATORS))
def test_sessions_read_only_the_per_pop_rows(scale_table, kind, monkeypatch):
    """The load evaluators' trackers and disclosure gathers read the side's
    per-PoP CSR through each flow's endpoint, so a whole session over a
    fresh scope never asks for the flow-level incidence."""
    defaults = early_exit_choices(scale_table)
    flows = np.arange(1, scale_table.n_flows, 3)
    scope = scale_table.subset(flows)
    defaults = defaults[flows]

    def refuse(table, side):
        raise AssertionError(f"flow-level incidence of side {side} read")

    monkeypatch.setattr(PairCostTable, "incidence", refuse)
    make = _LOAD_EVALUATORS[kind]
    evaluators = [
        make(scope, side, np.full(scope.pair.isp(side).n_links(), 5.0), defaults)
        for side in "ab"
    ]
    session = NegotiationSession(
        NegotiationAgent("a", evaluators[0]),
        NegotiationAgent("b", evaluators[1]),
        defaults=defaults,
        config=SessionConfig(reassignment_policy=ReassignEveryFraction(0.05)),
    )
    outcome = session.run()
    assert outcome.reassignments > 0
    assert outcome.gain_a >= 0 and outcome.gain_b >= 0
    for side, evaluator in zip("ab", evaluators):
        n_rows = scope.pair.isp(side).n_pops() * scope.n_alternatives
        assert len(evaluator._tracker._indptr) == n_rows + 1
