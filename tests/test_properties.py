"""Cross-cutting property-based tests of the Nexit invariants.

These are the load-bearing guarantees of the paper, checked over randomized
instances with hypothesis:

1. win-win: with rollback, neither ISP ever ends below its default, on
   classes and on its true metric;
2. social soundness: under the max-combined policy the joint class gain is
   the sum of accepted combined gains, all positive;
3. cheating containment: a cheater can never push a truthful ISP below its
   default;
4. determinism: a session is a pure function of its inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import NegotiationAgent
from repro.core.cheating import CheatingAgent
from repro.core.evaluators import StaticCostEvaluator, StaticPreferenceEvaluator
from repro.core.mapping import AutoScaleDeltaMapper
from repro.core.preferences import PreferenceRange
from repro.core.session import NegotiationSession, SessionConfig
from repro.core.strategies import (
    BestLocalProposals,
    CoinTossTurns,
    LowerGainTurns,
    TerminationMode,
)

instance_st = st.tuples(
    st.integers(0, 2**31 - 1),  # seed
    st.integers(1, 14),  # flows
    st.integers(2, 4),  # alternatives
    st.integers(1, 10),  # P
)


def _random_problem(seed, n_flows, n_alts, p):
    rng = np.random.default_rng(seed)
    prefs_a = rng.integers(-p, p + 1, size=(n_flows, n_alts))
    prefs_b = rng.integers(-p, p + 1, size=(n_flows, n_alts))
    defaults = rng.integers(0, n_alts, size=n_flows)
    rows = np.arange(n_flows)
    prefs_a[rows, defaults] = 0
    prefs_b[rows, defaults] = 0
    return prefs_a, prefs_b, defaults


def _session(prefs_a, prefs_b, defaults, p, config=None,
             term=TerminationMode.EARLY):
    range_ = PreferenceRange(p)
    return NegotiationSession(
        NegotiationAgent(
            "a", StaticPreferenceEvaluator(prefs_a, defaults, range_), term
        ),
        NegotiationAgent(
            "b", StaticPreferenceEvaluator(prefs_b, defaults, range_), term
        ),
        defaults=defaults,
        config=config,
    )


@settings(max_examples=60, deadline=None)
@given(instance_st)
def test_win_win_invariant(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    out = _session(prefs_a, prefs_b, defaults, params[3]).run()
    assert out.gain_a >= 0
    assert out.gain_b >= 0


@settings(max_examples=60, deadline=None)
@given(instance_st)
def test_accepted_rounds_have_positive_combined_gain(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    out = _session(prefs_a, prefs_b, defaults, params[3]).run()
    for record in out.accepted_rounds():
        # Static preferences: proposals require combined >= 1.
        assert record.combined >= 1
    assert out.gain_a + out.gain_b == sum(
        r.combined for r in out.accepted_rounds()
        if r.round_index not in out.rolled_back
    )


@settings(max_examples=60, deadline=None)
@given(instance_st)
def test_choices_are_valid_alternatives(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    out = _session(prefs_a, prefs_b, defaults, params[3]).run()
    assert out.choices.min() >= 0
    assert out.choices.max() < prefs_a.shape[1]
    # Un-negotiated flows sit exactly at their defaults.
    untouched = ~out.negotiated
    assert np.array_equal(out.choices[untouched], defaults[untouched])


@settings(max_examples=40, deadline=None)
@given(instance_st)
def test_session_deterministic(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    out1 = _session(prefs_a, prefs_b, defaults, params[3]).run()
    out2 = _session(prefs_a, prefs_b, defaults, params[3]).run()
    assert np.array_equal(out1.choices, out2.choices)
    assert out1.gain_a == out2.gain_a
    assert out1.reason == out2.reason


@settings(max_examples=40, deadline=None)
@given(instance_st)
def test_cheater_cannot_make_truthful_lose(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    p = params[3]
    range_ = PreferenceRange(p)
    honest = NegotiationAgent(
        "b", StaticPreferenceEvaluator(prefs_b, defaults, range_)
    )
    cheater = CheatingAgent(
        "a", StaticPreferenceEvaluator(prefs_a, defaults, range_),
        opponent=honest, range_=range_,
    )
    out = NegotiationSession(cheater, honest, defaults=defaults).run()
    assert out.gain_b >= 0
    assert out.true_gain_b >= -1e-9


@settings(max_examples=30, deadline=None)
@given(instance_st)
def test_full_termination_negotiates_at_least_as_many(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    p = params[3]
    # -inf floors roll nothing back.
    cfg = SessionConfig(rollback_floors=(-math.inf, -math.inf))
    early = _session(prefs_a, prefs_b, defaults, p, config=cfg).run()
    cfg2 = SessionConfig(rollback_floors=(-math.inf, -math.inf))
    full = _session(prefs_a, prefs_b, defaults, p, config=cfg2,
                    term=TerminationMode.FULL).run()
    assert full.n_negotiated >= early.n_negotiated
    # Full termination maximizes joint welfare among the two modes.
    assert (full.gain_a + full.gain_b) >= (early.gain_a + early.gain_b)


@settings(max_examples=30, deadline=None)
@given(instance_st)
def test_alternate_policies_preserve_win_win(params):
    prefs_a, prefs_b, defaults = _random_problem(*params)
    p = params[3]
    for config in (
        SessionConfig(turn_policy=LowerGainTurns()),
        SessionConfig(turn_policy=CoinTossTurns(params[0])),
        SessionConfig(proposal_policy=BestLocalProposals()),
    ):
        out = _session(prefs_a, prefs_b, defaults, p, config=config).run()
        assert out.gain_a >= 0
        assert out.gain_b >= 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(2, 4))
def test_true_metric_win_win_with_cost_evaluators(seed, n_flows, n_alts):
    """End-to-end: auto-scaled cost mapping + rollback protect the metric."""
    rng = np.random.default_rng(seed)
    costs_a = rng.uniform(0, 500, size=(n_flows, n_alts))
    costs_b = rng.uniform(0, 500, size=(n_flows, n_alts))
    defaults = rng.integers(0, n_alts, size=n_flows)
    mapper = AutoScaleDeltaMapper(PreferenceRange(10), conservative=False,
                                  quantile=100.0)
    session = NegotiationSession(
        NegotiationAgent("a", StaticCostEvaluator(costs_a, defaults, mapper)),
        NegotiationAgent("b", StaticCostEvaluator(costs_b, defaults, mapper)),
        defaults=defaults,
    )
    out = session.run()
    rows = np.arange(n_flows)
    realized_a = costs_a[rows, defaults].sum() - costs_a[rows, out.choices].sum()
    realized_b = costs_b[rows, defaults].sum() - costs_b[rows, out.choices].sum()
    assert realized_a >= -1e-6
    assert realized_b >= -1e-6
    # The session's private ledger agrees with the realized metric.
    assert abs(realized_a - out.true_gain_a) < 1e-6
    assert abs(realized_b - out.true_gain_b) < 1e-6
