"""Tests for outcome records."""

import numpy as np
import pytest

from repro.core.outcomes import (
    NegotiationOutcome,
    RoundRecord,
    TerminationReason,
)
from repro.errors import NegotiationError


class TestRoundRecord:
    def test_combined(self):
        record = RoundRecord(
            round_index=0, proposer=0, flow_index=1, alternative=2,
            pref_a=3, pref_b=-1, accepted=True,
        )
        assert record.combined == 2

    def test_true_defaults_zero(self):
        record = RoundRecord(0, 0, 0, 0, 0, 0, False)
        assert record.true_a == 0.0 and record.true_b == 0.0

    def test_fields_are_read_only(self):
        record = RoundRecord(0, 0, 0, 0, 0, 0, False)
        with pytest.raises(AttributeError):
            record.accepted = True
        assert record.accepted is False


class TestNegotiationOutcome:
    def _outcome(self, **kwargs):
        base = dict(
            choices=np.array([0, 1]),
            negotiated=np.array([False, True]),
            gain_a=2,
            gain_b=3,
        )
        base.update(kwargs)
        return NegotiationOutcome(**base)

    def test_counts(self):
        out = self._outcome()
        assert out.n_negotiated == 1
        assert out.n_rounds == 0

    def test_shape_mismatch(self):
        with pytest.raises(NegotiationError):
            self._outcome(negotiated=np.array([True]))

    def test_accepted_rounds_filter(self):
        rounds = [
            RoundRecord(0, 0, 0, 1, 1, 1, True),
            RoundRecord(1, 1, 1, 0, 0, 0, False),
        ]
        out = self._outcome(rounds=rounds)
        assert len(out.accepted_rounds()) == 1

    def test_summary_mentions_reason(self):
        out = self._outcome(reason=TerminationReason.NO_JOINT_GAIN)
        assert "positive joint gain" in out.summary()

    def test_reason_values_are_descriptive(self):
        for reason in TerminationReason:
            assert len(reason.value) > 5
