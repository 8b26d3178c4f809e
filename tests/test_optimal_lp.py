"""Tests for the min-max-load LP and unilateral optimization."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from repro.capacity.loads import link_loads
from repro.errors import OptimizationError
from repro.metrics.mel import max_excess_load
from repro.optimal.bandwidth_lp import (
    LpRoutingResult,
    fractional_loads,
    solve_min_max_load_lp,
)
from repro.optimal.solver import LpSolver, resolve_lp_solver
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices, optimal_exit_choices
from repro.routing.flows import build_full_flowset

from reference import loads as reference_loads


@pytest.fixture()
def table(small_pair):
    return build_pair_cost_table(small_pair, build_full_flowset(small_pair))


@pytest.fixture()
def caps(small_pair):
    return (
        np.full(small_pair.isp_a.n_links(), 3.0),
        np.full(small_pair.isp_b.n_links(), 3.0),
    )


class TestLpBasics:
    def test_fractions_are_distributions(self, table, caps):
        result = solve_min_max_load_lp(table, *caps)
        assert result.fractions.shape == (table.n_flows, table.n_alternatives)
        assert np.all(result.fractions >= 0)
        assert np.allclose(result.fractions.sum(axis=1), 1.0)

    def test_objective_matches_realized_mel(self, table, caps):
        caps_a, caps_b = caps
        result = solve_min_max_load_lp(table, caps_a, caps_b)
        mel_a = max_excess_load(
            fractional_loads(table, result.fractions, "a"), caps_a
        )
        mel_b = max_excess_load(
            fractional_loads(table, result.fractions, "b"), caps_b
        )
        assert max(mel_a, mel_b) == pytest.approx(result.t, abs=1e-6)

    def test_lower_bound_on_integral_placements(self, table, caps):
        """The fractional optimum lower-bounds every integral placement."""
        caps_a, caps_b = caps
        result = solve_min_max_load_lp(table, caps_a, caps_b)
        for choice_value in range(table.n_alternatives):
            choices = np.full(table.n_flows, choice_value)
            mel = max(
                max_excess_load(link_loads(table, choices, "a"), caps_a),
                max_excess_load(link_loads(table, choices, "b"), caps_b),
            )
            assert result.t <= mel + 1e-9

    def test_base_loads_raise_objective(self, table, caps):
        caps_a, caps_b = caps
        plain = solve_min_max_load_lp(table, caps_a, caps_b)
        base_a = np.full(table.pair.isp_a.n_links(), 2.0)
        loaded = solve_min_max_load_lp(table, caps_a, caps_b, base_a=base_a)
        assert loaded.t >= plain.t - 1e-12

    def test_empty_flowset(self, small_pair, caps):
        table = build_pair_cost_table(
            small_pair, build_full_flowset(small_pair)
        ).subset(np.array([], dtype=int))
        result = solve_min_max_load_lp(table, *caps)
        assert result.t == 0.0
        assert result.fractions.shape == (0, 2)

    def test_empty_flowset_with_base_loads(self, small_pair, caps):
        """The zero-flow LP degenerates to the base state's max load ratio."""
        caps_a, caps_b = caps
        table = build_pair_cost_table(
            small_pair, build_full_flowset(small_pair)
        ).subset(np.array([], dtype=int))
        base_a = caps_a * 0.5
        base_b = caps_b * 2.0
        result = solve_min_max_load_lp(
            table, caps_a, caps_b, base_a=base_a, base_b=base_b
        )
        assert result.t == 2.0
        # Restricted to the upstream side, only base_a matters.
        one_side = solve_min_max_load_lp(
            table, caps_a, caps_b, base_a=base_a, base_b=base_b, sides=("a",)
        )
        assert one_side.t == 0.5


class TestLpValidation:
    def test_bad_caps_shape(self, table):
        with pytest.raises(OptimizationError):
            solve_min_max_load_lp(table, np.ones(1), np.ones(1))

    def test_non_positive_caps(self, table, caps):
        caps_a, caps_b = caps
        with pytest.raises(OptimizationError):
            solve_min_max_load_lp(table, caps_a * 0.0, caps_b)

    def test_negative_base(self, table, caps):
        caps_a, caps_b = caps
        with pytest.raises(OptimizationError):
            solve_min_max_load_lp(
                table, caps_a, caps_b,
                base_a=-np.ones(table.pair.isp_a.n_links()),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["caps", "base"])
    def test_non_finite_caps_and_base(self, lp_setup, which, value):
        table, _, caps_a, caps_b = lp_setup
        bad = (caps_a if which == "caps" else np.zeros_like(caps_a)).copy()
        bad[1] = value
        kwargs = (
            {"caps_a": bad, "caps_b": caps_b}
            if which == "caps"
            else {"caps_a": caps_a, "caps_b": caps_b, "base_a": bad}
        )
        with pytest.raises(OptimizationError, match="finite"):
            solve_min_max_load_lp(table, **kwargs)

    @pytest.mark.parametrize("sides", [(), ("q",), ("a", "a")])
    def test_bad_sides(self, table, caps, sides):
        with pytest.raises(OptimizationError, match="sides"):
            solve_min_max_load_lp(table, *caps, sides=sides)

    def test_negative_objective_rejected(self):
        with pytest.raises(OptimizationError):
            LpRoutingResult(t=-1.0, fractions=np.zeros((0, 2)))

    def test_fractional_loads_shape_check(self, table):
        with pytest.raises(OptimizationError):
            fractional_loads(table, np.zeros((1, 1)), "a")

    def test_fractional_loads_bad_side(self, table):
        with pytest.raises(OptimizationError):
            fractional_loads(
                table, np.ones((table.n_flows, table.n_alternatives)), "q"
            )

    @pytest.mark.parametrize(
        "row", [[np.nan], [np.inf], [-1.0, 1.0]], ids=["nan", "inf", "negative"]
    )
    def test_fractional_loads_invalid_fractions(self, table, row):
        """Regression: a NaN row dropped its flow from the loads, and a
        negative share was dropped while the rest of its row was kept."""
        n_i = table.n_alternatives
        fractions = np.full((table.n_flows, n_i), 1.0 / n_i)
        fractions[0] = np.resize(row, n_i)
        for side in "ab":
            with pytest.raises(OptimizationError, match="fractions"):
                fractional_loads(table, fractions, side)


class _Recorder(LpSolver):
    """Solves with the default backend, keeping every problem it was handed."""

    name = "recorder"

    def __init__(self):
        self.problems = []

    def solve(self, problem):
        self.problems.append(problem)
        return resolve_lp_solver(None).solve(problem)


def _assert_csc_equal(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestAssemblyEquivalence:
    """CSC LP assembly vs the reference ragged-table loops.

    The assembled ``a_ub`` and ``a_eq`` must be, array for array, what
    scipy makes of the reference loops' COO triplets (COO -> CSR -> CSC,
    the layout ``linprog`` handed HiGHS), and vectorized
    ``fractional_loads`` must match the loop bit for bit — base loads and
    entries accumulate in the loop's order. The solution tests swap the
    reference assembler in and solve both LPs.
    """

    @staticmethod
    def _loop_assembly(monkeypatch):
        monkeypatch.setattr(
            "repro.optimal.bandwidth_lp._link_constraints",
            reference_loads.link_constraints,
        )

    @staticmethod
    def _assert_matrices_match_triplets(table, caps_a, caps_b):
        n_f, n_i = table.n_flows, table.n_alternatives
        caps = {"a": caps_a, "b": caps_b}
        bases = {
            side: np.linspace(0.0, 1.0, caps[side].shape[0]) for side in "ab"
        }
        for sides in (("a", "b"), ("a",)):
            recorder = _Recorder()
            solve_min_max_load_lp(
                table, caps_a, caps_b, bases["a"], bases["b"], sides=sides,
                solver=recorder,
            )
            (problem,) = recorder.problems
            a_ub, b_ub = reference_loads.link_constraints(
                table,
                sides,
                [caps[side] for side in sides],
                [bases[side] for side in sides],
            )
            _assert_csc_equal(problem.a_ub, a_ub)
            assert np.array_equal(problem.b_ub, b_ub)
            a_eq = coo_matrix(
                (
                    np.ones(n_f * n_i),
                    (np.repeat(np.arange(n_f), n_i), np.arange(n_f * n_i)),
                ),
                shape=(n_f, n_f * n_i + 1),
            )
            _assert_csc_equal(problem.a_eq, a_eq.tocsr().tocsc())
            assert np.array_equal(problem.b_eq, np.ones(n_f))

    def test_constraint_matrices_identical(self, table, caps):
        self._assert_matrices_match_triplets(table, *caps)

    def test_constraint_matrices_identical_at_scale(self, lp_setup):
        table, _, caps_a, caps_b = lp_setup
        self._assert_matrices_match_triplets(table, caps_a, caps_b)

    def test_solution_identical(self, table, caps, monkeypatch):
        caps_a, caps_b = caps
        base_a = np.full(caps_a.shape[0], 0.25)
        sparse = solve_min_max_load_lp(table, caps_a, caps_b, base_a=base_a)
        self._loop_assembly(monkeypatch)
        legacy = solve_min_max_load_lp(table, caps_a, caps_b, base_a=base_a)
        assert sparse.t == legacy.t
        assert np.array_equal(sparse.fractions, legacy.fractions)

    def test_unilateral_engines_identical(self, table, caps, monkeypatch):
        caps_a, caps_b = caps
        sparse = solve_min_max_load_lp(table, caps_a, caps_b, sides=("a",))
        self._loop_assembly(monkeypatch)
        legacy = solve_min_max_load_lp(table, caps_a, caps_b, sides=("a",))
        assert sparse.t == legacy.t
        assert np.array_equal(sparse.fractions, legacy.fractions)

    def test_fractional_loads_identical(self, table, caps):
        rng = np.random.default_rng(7)
        fractions = rng.random((table.n_flows, table.n_alternatives))
        fractions[rng.random(fractions.shape) < 0.4] = 0.0
        for side in "ab":
            n_links = table.pair.isp(side).n_links()
            for base in (None, rng.random(n_links)):
                assert np.array_equal(
                    fractional_loads(table, fractions, side, base),
                    reference_loads.fractional_loads(
                        table, fractions, side, base
                    ),
                )

    def test_unknown_engine_rejected(self, table, caps):
        # One assembler: the engine option is gone.
        with pytest.raises(TypeError, match="engine"):
            solve_min_max_load_lp(table, *caps, engine="nope")
        with pytest.raises(TypeError, match="engine"):
            fractional_loads(
                table,
                np.ones((table.n_flows, table.n_alternatives)),
                "a",
                engine="nope",
            )


class TestUnilateral:
    def test_upstream_only_objective(self, table, caps):
        """Unilateral never beats the joint LP on the joint objective but is
        at least as good for the upstream alone."""
        caps_a, caps_b = caps
        joint = solve_min_max_load_lp(table, caps_a, caps_b)
        uni = solve_min_max_load_lp(table, caps_a, caps_b, sides=("a",))
        mel_uni_a = max_excess_load(
            fractional_loads(table, uni.fractions, "a"), caps_a
        )
        mel_joint_a = max_excess_load(
            fractional_loads(table, joint.fractions, "a"), caps_a
        )
        assert mel_uni_a <= mel_joint_a + 1e-9


class TestDistanceOptimal:
    def test_beats_early_exit(self, table):
        from repro.metrics.distance import total_km

        early = total_km(table, early_exit_choices(table))
        optimal = total_km(table, optimal_exit_choices(table))
        assert optimal <= early + 1e-12
