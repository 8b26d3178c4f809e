"""ExperimentConfig validation."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig


@pytest.mark.parametrize("knob, value", [
    # NaN passes a `<= 0` or `< 1` comparison, and ratio_unit=nan makes
    # a coordination "converge" without moving a flow.
    ("ratio_unit", float("nan")),
    ("preference_p", float("nan")),
    ("preference_p", 2.5),
    ("max_pairs_distance", 2.5),
    ("max_pairs_bandwidth", True),
    ("max_failures_per_pair", 1.5),
])
def test_bad_knob_rejected(knob, value):
    with pytest.raises(ConfigurationError, match=knob):
        ExperimentConfig(**{knob: value})


@pytest.mark.parametrize("seed", [1.5, "x", True, -1])
def test_non_integer_seed_rejected(seed):
    # Regression: the seed reached derive_rng's int(), so 1.5 ran seed 1's
    # experiment under a fingerprint that said 1.5, and "x" failed inside
    # every sweep unit with a bare ValueError.
    with pytest.raises(ConfigurationError, match="seed"):
        ExperimentConfig.quick().with_seed(seed)


@pytest.mark.parametrize(
    "fraction", [True, "x", float("nan"), float("inf"), 0, 1.5]
)
def test_reassign_fraction_rejected(fraction):
    # Regression: True constructed a config that reassigned at 1.0, and
    # "x" raised a bare TypeError.
    with pytest.raises(ConfigurationError, match="reassign_fraction"):
        ExperimentConfig(reassign_fraction=fraction)


@pytest.mark.parametrize("fraction", [0.05, 1])
def test_reassign_fraction_accepted(fraction):
    assert ExperimentConfig(reassign_fraction=fraction).reassign_fraction == fraction
