"""Tests for repro.core.mapping."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.mapping import (
    AutoScaleDeltaMapper,
    LinearDeltaMapper,
    OrdinalMapper,
    conservative_round,
    delta_matrix,
    map_cost_matrix,
)
from repro.core.preferences import PreferenceRange
from repro.errors import PreferenceError

from reference import mapping as reference


class TestDeltaMatrix:
    def test_default_has_zero_delta(self):
        costs = np.array([[5.0, 3.0, 9.0]])
        deltas = delta_matrix(costs, np.array([0]))
        assert deltas[0, 0] == 0.0
        assert deltas[0, 1] == 2.0  # cheaper alternative = positive
        assert deltas[0, 2] == -4.0

    def test_shapes_validated(self):
        with pytest.raises(PreferenceError):
            delta_matrix(np.zeros(3), np.zeros(1, dtype=int))
        with pytest.raises(PreferenceError):
            delta_matrix(np.zeros((2, 3)), np.zeros(1, dtype=int))

    def test_default_out_of_range(self):
        with pytest.raises(PreferenceError):
            delta_matrix(np.zeros((1, 2)), np.array([5]))

    def test_float_defaults_rejected(self):
        # Regression: defaults were cast to intp unchecked, so [0.7, 1.9]
        # computed the deltas against defaults [0, 1].
        with pytest.raises(PreferenceError, match="defaults"):
            delta_matrix([[10, 6], [3, 9]], np.array([0.7, 1.9]))

    def test_mapper_rejects_bool_defaults(self):
        # Regression: a bool mask was read as the defaults [1, 0].
        mapper = LinearDeltaMapper(PreferenceRange(10), unit=2.0)
        with pytest.raises(PreferenceError, match="defaults"):
            mapper.map(np.array([[10.0, 6.0], [3.0, 9.0]]), np.array([True, False]))

    def test_nan_delta_names_first_cell(self):
        costs = np.array([[1.0, 2.0], [np.inf, np.inf], [np.nan, 1.0]])
        with pytest.raises(
            PreferenceError, match="flow 1, alternative 0 is NaN"
        ):
            delta_matrix(costs, np.array([0, 1, 1]))

    @pytest.mark.parametrize(
        "mapper",
        [LinearDeltaMapper(PreferenceRange(10)), AutoScaleDeltaMapper()],
        ids=["linear", "autoscale"],
    )
    def test_both_costs_infinite_is_a_preference_error(self, mapper):
        # Default and alternative both unreachable: inf - inf. This used to
        # warn twice and then report classes of -2**63 out of range.
        costs = np.array([[4.0, 2.5], [np.inf, np.inf]])
        with pytest.raises(
            PreferenceError, match="flow 1, alternative 0 is NaN"
        ):
            map_cost_matrix(costs, np.array([0, 1]), mapper)


class TestConservativeRound:
    def test_gains_floored(self):
        assert list(conservative_round(np.array([0.4, 1.7]))) == [0.0, 1.0]

    def test_losses_ceiled_in_magnitude(self):
        assert list(conservative_round(np.array([-0.1, -1.2]))) == [-1.0, -2.0]

    def test_zero_stays_zero(self):
        assert conservative_round(np.array([0.0]))[0] == 0.0

    def test_tolerance_snaps_noise(self):
        assert conservative_round(np.array([-1e-12]))[0] == 0.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_never_overstates(self, values):
        arr = np.asarray(values)
        rounded = conservative_round(arr)
        # class <= true value in units (the win-win inequality).
        assert np.all(rounded <= arr + 1e-9)


class TestLinearDeltaMapper:
    def test_basic_units(self):
        costs = np.array([[10.0, 7.0, 16.0]])
        mapper = LinearDeltaMapper(PreferenceRange(10), unit=3.0)
        prefs = mapper.map(costs, np.array([0]))
        assert list(prefs[0]) == [0, 1, -2]

    def test_clamping(self):
        costs = np.array([[0.0, 100.0]])
        mapper = LinearDeltaMapper(PreferenceRange(2), unit=1.0)
        prefs = mapper.map(costs, np.array([0]))
        assert prefs[0, 1] == -2

    def test_conservative_mode(self):
        costs = np.array([[10.0, 9.9, 10.1]])
        mapper = LinearDeltaMapper(PreferenceRange(10), unit=1.0,
                                   conservative=True)
        prefs = mapper.map(costs, np.array([0]))
        assert prefs[0, 1] == 0  # small gain floors to 0
        assert prefs[0, 2] == -1  # any loss is at least -1

    def test_bad_unit(self):
        for unit in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(PreferenceError):
                LinearDeltaMapper(unit=unit)


class TestAutoScaleDeltaMapper:
    def test_peak_maps_to_edge(self):
        costs = np.array([[10.0, 0.0], [10.0, 10.0]])
        mapper = AutoScaleDeltaMapper(PreferenceRange(5), quantile=100.0,
                                      conservative=False)
        prefs = mapper.map(costs, np.array([0, 0]))
        assert prefs[0, 1] == 5  # the largest delta hits +P

    def test_all_zero_deltas(self):
        costs = np.ones((3, 2))
        mapper = AutoScaleDeltaMapper()
        prefs = mapper.map(costs, np.array([0, 1, 0]))
        assert np.all(prefs == 0)

    def test_quantile_validation(self):
        with pytest.raises(PreferenceError):
            AutoScaleDeltaMapper(quantile=0.0)
        with pytest.raises(PreferenceError):
            AutoScaleDeltaMapper(quantile=101.0)

    def test_bad_min_unit(self):
        for min_unit in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(PreferenceError):
                AutoScaleDeltaMapper(min_unit=min_unit)

    @pytest.mark.parametrize("quantile", [100.0, 90.0])
    def test_infinite_anchor_rejected(self, quantile):
        # An infinite |delta| anchors the scale at inf (the max) or NaN
        # (numpy's interpolation); either unit would cast classes to
        # -2**63, so the mapper refuses the matrix instead.
        mapper = AutoScaleDeltaMapper(quantile=quantile)
        # numpy warns as its interpolation computes inf - inf.
        with np.errstate(invalid="ignore"), pytest.raises(
            PreferenceError, match="infinite costs"
        ):
            mapper.map(np.array([[1.0, np.inf]]), np.array([0]))

    def test_symmetric_instance_symmetric_classes(self):
        costs = np.array([[5.0, 0.0], [0.0, 5.0]])
        mapper = AutoScaleDeltaMapper(PreferenceRange(10), quantile=100.0,
                                      conservative=False)
        prefs = mapper.map(costs, np.array([0, 0]))
        assert prefs[0, 1] == 10
        assert prefs[1, 1] == -10


class TestOrdinalMapper:
    def test_rank_order_only(self):
        # Magnitudes 1 vs 100 both collapse to rank classes.
        costs = np.array([[10.0, 9.0, 110.0, -90.0]])
        mapper = OrdinalMapper(PreferenceRange(10))
        prefs = mapper.map(costs, np.array([0]))
        assert prefs[0, 0] == 0
        assert prefs[0, 1] == 1  # small gain -> rank 1
        assert prefs[0, 3] == 2  # big gain -> rank 2
        assert prefs[0, 2] == -1  # loss -> rank -1

    def test_ties_share_rank(self):
        costs = np.array([[10.0, 8.0, 8.0]])
        prefs = OrdinalMapper().map(costs, np.array([0]))
        assert prefs[0, 1] == prefs[0, 2] == 1

    def test_clamped_by_p(self):
        costs = np.array([[float(20 - i) for i in range(15)]])
        prefs = OrdinalMapper(PreferenceRange(3)).map(costs, np.array([0]))
        assert prefs.max() == 3


class TestMapCostMatrix:
    def test_enforces_default_zero(self):
        class BadMapper:
            range = PreferenceRange(5)

            def map(self, costs, defaults):
                return np.ones(costs.shape, dtype=np.int64)

        with pytest.raises(PreferenceError):
            map_cost_matrix(np.ones((2, 2)), np.array([0, 0]), BadMapper())

    def test_valid_mapper_passes(self):
        costs = np.array([[4.0, 2.0]])
        prefs = map_cost_matrix(
            costs, np.array([0]), LinearDeltaMapper(PreferenceRange(5), unit=1.0)
        )
        assert list(prefs[0]) == [0, 2]


@given(
    st.integers(2, 6),
    st.integers(2, 5),
    st.integers(1, 15),
)
def test_autoscale_respects_range_and_default(n_flows, n_alts, p):
    rng = np.random.default_rng(n_flows * 100 + n_alts * 10 + p)
    costs = rng.uniform(0, 1000, size=(n_flows, n_alts))
    defaults = rng.integers(0, n_alts, size=n_flows)
    mapper = AutoScaleDeltaMapper(PreferenceRange(p))
    prefs = map_cost_matrix(costs, defaults, mapper)
    assert prefs.min() >= -p
    assert prefs.max() <= p
    rows = np.arange(n_flows)
    assert np.all(prefs[rows, defaults] == 0)


#: A few repeated values make tied deltas common; inf is drawn on request.
_COST_POOL = [0.0, 1.0, 2.5, 4.0, 1000.0]


@st.composite
def _cost_cases(draw):
    n_flows, n_alts = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pool = _COST_POOL + ([np.inf] if draw(st.booleans()) else [])
    values = st.one_of(st.sampled_from(pool), st.floats(0.0, 1e4))
    costs = draw(st.lists(values, min_size=n_flows * n_alts,
                          max_size=n_flows * n_alts))
    defaults = draw(st.lists(st.integers(0, n_alts - 1), min_size=n_flows,
                             max_size=n_flows))
    return np.reshape(costs, (n_flows, n_alts)), np.array(defaults)


def _validated(mapper, costs, defaults):
    """``map_cost_matrix``'s classes, or None where it rejects them."""
    # inf costs take inf - inf = NaN deltas through numpy's casts.
    with np.errstate(invalid="ignore"):
        try:
            return map_cost_matrix(costs, defaults, mapper)
        except PreferenceError:
            return None


@given(_cost_cases(), st.integers(1, 12), st.booleans())
@example((np.array([[1.0, 2.5, 2.5], [2.5, 1.0, 1.0]]), np.array([0, 1])),
         5, True)  # ties
@example((np.array([[1.0, 2.5], [4.0, 4.0]]), np.array([0, 1])),
         3, False)  # one nonzero delta
@example((np.array([[2.5, 2.5], [1.0, 1.0]]), np.array([0, 1])),
         10, True)  # all-zero deltas
@example((np.array([[1.0, np.inf], [4.0, 2.5]]), np.array([0, 0])),
         10, False)  # an infinite cost
@example((np.array([[np.inf, np.inf], [4.0, 2.5]]), np.array([0, 0])),
         10, True)  # an all-inf row: NaN deltas, finite anchor
def test_autoscale_max_anchor_matches_percentile(case, p, conservative):
    """Quantile 100 reads the max: the classes np.percentile gives, bit
    for bit, wherever those lie in [-P, P]; an infinite |delta| is
    rejected where the percentile's NaN anchor gave classes of -2**63."""
    costs, defaults = case
    kwargs = dict(range_=PreferenceRange(p), conservative=conservative,
                  quantile=100.0)
    got = _validated(AutoScaleDeltaMapper(**kwargs), costs, defaults)
    want = _validated(reference.AutoScaleDeltaMapper(**kwargs), costs,
                      defaults)
    if np.isfinite(costs).all():
        assert want is not None
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
