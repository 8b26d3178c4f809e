"""Tests for the credits extension (Section 3 future work)."""

import numpy as np
import pytest

from repro.core.agent import NegotiationAgent
from repro.core.credits import CreditLedger, CreditSessionRunner
from repro.core.evaluators import StaticPreferenceEvaluator
from repro.core.session import NegotiationSession, SessionConfig
from repro.errors import NegotiationError


def _agent(name, prefs):
    prefs = np.asarray(prefs)
    return NegotiationAgent(
        name, StaticPreferenceEvaluator(prefs, np.zeros(prefs.shape[0], int))
    )


#: Epoch 1 favors B at A's expense; epoch 2 is the mirror image.
EPOCH_1 = ([[0, -2]], [[0, 5]])
EPOCH_2 = ([[0, 5]], [[0, -2]])


class TestCreditLedger:
    def test_initial_state(self):
        ledger = CreditLedger(credit_limit=3.0)
        assert ledger.available_credit("a") == 3.0
        assert ledger.floors() == (-3.0, -3.0)

    def test_balance_extends_credit(self):
        ledger = CreditLedger(credit_limit=3.0)
        ledger.settle(4.0, -1.0)
        assert ledger.available_credit("a") == 7.0
        assert ledger.available_credit("b") == 2.0

    def test_negative_limit_rejected(self):
        with pytest.raises(NegotiationError):
            CreditLedger(credit_limit=-1.0)

    def test_nan_limit_rejected(self):
        # Regression: a NaN limit let settle() accept any debt.
        with pytest.raises(NegotiationError, match="NaN"):
            CreditLedger(credit_limit=float("nan"))

    def test_exceeding_limit_detected(self):
        ledger = CreditLedger(credit_limit=1.0)
        with pytest.raises(NegotiationError):
            ledger.settle(-5.0, 5.0)

    def test_zero_limit_keeps_floor_at_zero(self):
        ledger = CreditLedger(credit_limit=0.0)
        assert ledger.floors() == (0.0, 0.0)


class TestSessionFloors:
    def test_negative_floor_allows_bounded_loss(self):
        config = SessionConfig(rollback_floors=(-2.0, 0.0))
        session = NegotiationSession(
            _agent("a", EPOCH_1[0]), _agent("b", EPOCH_1[1]),
            config=config,
        )
        # A's termination is EARLY and it proposes first with no upside:
        # nothing happens; so use the runner path in the next test. Here
        # just validate config handling.
        out = session.run()
        assert out.gain_a >= -2.0

    def test_positive_floor_rejected(self):
        with pytest.raises(NegotiationError):
            SessionConfig(rollback_floors=(1.0, 0.0))

    def test_floor_pair_length_checked(self):
        with pytest.raises(NegotiationError):
            SessionConfig(rollback_floors=(0.0,))  # type: ignore[arg-type]


class TestCreditSessionRunner:
    def test_credit_enables_cross_epoch_trade(self):
        """The headline property: one-sided epochs become tradeable."""
        # Without credit: each epoch's losing side rolls everything back.
        no_credit = CreditSessionRunner(CreditLedger(credit_limit=0.0))
        no_credit.run_epoch(_agent("a", EPOCH_1[0]), _agent("b", EPOCH_1[1]))
        no_credit.run_epoch(_agent("a", EPOCH_2[0]), _agent("b", EPOCH_2[1]))
        assert no_credit.total_gains() == (0.0, 0.0)

        # With credit: A concedes in epoch 1 (debt 2) and is repaid in
        # epoch 2; both end positive.
        with_credit = CreditSessionRunner(CreditLedger(credit_limit=2.0))
        out1 = with_credit.run_epoch(
            _agent("a", EPOCH_1[0]), _agent("b", EPOCH_1[1])
        )
        assert out1.gain_a == -2 and out1.gain_b == 5
        out2 = with_credit.run_epoch(
            _agent("a", EPOCH_2[0]), _agent("b", EPOCH_2[1])
        )
        assert out2.gain_a == 5
        gains = with_credit.total_gains()
        assert gains[0] > 0 and gains[1] > 0

    def test_credit_is_bounded(self):
        """Debt can never exceed the limit, even over adversarial epochs."""
        runner = CreditSessionRunner(CreditLedger(credit_limit=2.0))
        for _ in range(4):  # B never repays
            runner.run_epoch(
                _agent("a", EPOCH_1[0]), _agent("b", EPOCH_1[1])
            )
        balance_a, _ = runner.total_gains()
        assert balance_a >= -2.0

    def test_outcomes_recorded(self):
        runner = CreditSessionRunner(CreditLedger(credit_limit=1.0))
        runner.run_epoch(_agent("a", EPOCH_2[0]), _agent("b", EPOCH_2[1]))
        assert len(runner.outcomes) == 1
        assert runner.ledger.n_sessions == 1
