"""The scale-out core spine: batched SSSP, batched table builds, pluggable LPs.

Covers the PR 8 contracts end to end:

* batched csgraph SSSP is bit-identical to the per-source networkx
  reference on every public routing surface (distances, paths, dense
  per-source views);
* ``build_scale_pair`` manufactures deterministic grid pairs beyond the
  city database's ~136-city ceiling;
* the batched table build is bit-identical to the cell-by-cell reference
  build;
* disconnected PoPs surface as a typed :class:`RoutingError` naming the
  pair (satellite 2);
* the LP solver registry resolves, validates and injects backends, with
  the default backend bit-identical to the historical hardwired call;
* a 200-PoP-per-ISP pair flows through the whole spine — table build,
  early-exit defaults, failure, negotiation, joint and unilateral LPs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.loads import link_loads
from repro.capacity.provisioning import ProportionalCapacity
from repro.errors import ConfigurationError, RoutingError, TopologyError
from repro.experiments.bandwidth import _negotiate_bandwidth
from repro.experiments.config import ExperimentConfig
from repro.metrics.mel import max_excess_load
from repro.optimal.bandwidth_lp import solve_min_max_load_lp
from repro.optimal.solver import (
    DEFAULT_LP_SOLVER,
    LpSolution,
    LpSolver,
    available_lp_solvers,
    register_lp_solver,
    resolve_lp_solver,
)
from repro.optimal.unilateral import solve_upstream_unilateral_lp
from repro.routing.costs import build_pair_cost_table
from repro.routing.exits import early_exit_choices
from repro.routing.flows import Flow, FlowSet, build_full_flowset
from repro.routing.paths import IntradomainRouting
from repro.topology.builders import build_scale_pair

from reference import tables as reference_tables
from reference.sssp import NetworkxRouting


def _assert_tables_equal(left, right) -> None:
    """Bit-exact equality over every array, path and per-flow row of two
    tables."""
    for name in ("up_weight", "down_weight", "up_km", "down_km", "ic_km"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.shape == b.shape
        assert np.array_equal(a, b), name
    for name in ("up_paths", "down_paths"):
        a, b = getattr(left, name), getattr(right, name)
        assert len(a) == len(b)
        for column_a, column_b in zip(a, b):
            assert len(column_a) == len(column_b)
            for cell_a, cell_b in zip(column_a, column_b):
                assert (cell_a is None) == (cell_b is None), name
                if cell_a is not None:
                    assert np.array_equal(cell_a, cell_b), name
    for side in "ab":
        got = left.incidence(side)
        want = reference_tables.incidence(right, side)
        for field in ("indptr", "indices", "entry_flow"):
            assert np.array_equal(
                getattr(got, field), getattr(want, field)
            ), (side, field)


def _strided_flowset(pair, target_flows: int) -> FlowSet:
    """A deterministic subsample of the full (src, dst) flow mesh."""
    n_a, n_b = pair.isp_a.n_pops(), pair.isp_b.n_pops()
    total = n_a * n_b
    stride = max(1, total // target_flows)
    flows = []
    for index, flat in enumerate(range(0, total, stride)):
        src, dst = divmod(flat, n_b)
        flows.append(
            Flow(index=index, src=src, dst=dst, size=1.0 + (flat % 7) * 0.25)
        )
    return FlowSet(pair, flows)


# ---------------------------------------------------------------------------
# csgraph SSSP vs the networkx reference
# ---------------------------------------------------------------------------


class TestCsgraphEngine:
    def test_unknown_engine_rejected(self, fig1):
        # One SSSP path: there is no engine to select any more.
        with pytest.raises(TypeError, match="engine"):
            IntradomainRouting(fig1.pair.isp_a, engine="dijkstra2000")

    def test_engine_property_and_default(self, fig1):
        import repro.routing.paths as paths

        assert not hasattr(IntradomainRouting(fig1.pair.isp_a), "engine")
        assert not hasattr(paths, "SSSP_ENGINES")

    def test_bit_identical_on_figure1_pair(self, fig1):
        for isp in (fig1.pair.isp_a, fig1.pair.isp_b):
            self._assert_engines_identical(isp)

    def test_distances_identical_under_ties(self, fig2):
        # Figure 2's hand-built integer weights contain equal-cost ties —
        # the one case where csgraph and networkx may legitimately route
        # different (equally short) paths. Distances must still agree.
        for isp in (fig2.pair.isp_a, fig2.pair.isp_b):
            fast = IntradomainRouting(isp)
            slow = NetworkxRouting(isp)
            for src in range(isp.n_pops()):
                assert fast.distances_to_all(src) == slow.distances_to_all(src)

    def test_bit_identical_on_scale_pair(self):
        pair = build_scale_pair(60, n_interconnections=5, seed=9)
        for isp in (pair.isp_a, pair.isp_b):
            self._assert_engines_identical(isp)

    @staticmethod
    def _assert_engines_identical(isp) -> None:
        fast = IntradomainRouting(isp)
        slow = NetworkxRouting(isp)
        sources = range(isp.n_pops())
        fast.warm(sources)  # one batched csgraph call for all sources
        slow.warm(sources)
        for src in sources:
            d_fast = fast.distances_to_all(src)
            d_slow = slow.distances_to_all(src)
            assert d_fast == d_slow  # exact float equality, same key set
            assert np.array_equal(
                fast.weight_distance_array(src),
                slow.weight_distance_array(src),
                equal_nan=True,
            )
            assert np.array_equal(
                fast.geo_distance_array(src),
                slow.geo_distance_array(src),
                equal_nan=True,
            )
            for dst in range(isp.n_pops()):
                assert fast.path(src, dst) == slow.path(src, dst)
                assert np.array_equal(
                    fast.path_links(src, dst), slow.path_links(src, dst)
                )

    def test_lazy_single_source_matches_warm_batch(self):
        pair = build_scale_pair(30, n_interconnections=3, seed=4)
        lazy = IntradomainRouting(pair.isp_a)
        warm = IntradomainRouting(pair.isp_a)
        warm.warm(range(pair.isp_a.n_pops()))
        for src in (0, 7, 29):
            assert lazy.distances_to_all(src) == warm.distances_to_all(src)

    def test_invalid_source_still_rejected(self, fig1):
        routing = IntradomainRouting(fig1.pair.isp_a)
        with pytest.raises(TopologyError):
            routing.warm([fig1.pair.isp_a.n_pops() + 3])


class TestLinkCsr:
    def test_symmetric_and_matches_link_weights(self, fig1):
        isp = fig1.pair.isp_a
        dense = isp.link_csr().toarray()
        assert np.array_equal(dense, dense.T)
        for link in isp.links:
            assert dense[link.u, link.v] == link.weight
        assert dense.diagonal().sum() == 0.0

    def test_compiled_once_and_read_only(self, fig1):
        isp = fig1.pair.isp_b
        matrix = isp.link_csr()
        assert isp.link_csr() is matrix
        assert not matrix.data.flags.writeable

    def test_non_positive_weight_rejected(self):
        pair = build_scale_pair(6, n_interconnections=2, seed=0)
        isp = pair.isp_a
        # Link validates weight > 0 at construction, so a zero weight can
        # only arrive via mutation — exactly the corruption the compile
        # guard exists to catch (csgraph drops stored zeros silently).
        object.__setattr__(isp.links[0], "weight", 0.0)
        with pytest.raises(TopologyError, match="non-positive"):
            isp.link_csr()


class TestBuildScalePair:
    def test_structure(self):
        pair = build_scale_pair(200, n_interconnections=6, seed=1)
        assert pair.isp_a.n_pops() == 200
        assert pair.isp_b.n_pops() == 200
        assert pair.n_interconnections() == 6
        for ic in pair.interconnections:
            assert ic.pop_a == ic.pop_b  # same grid city on both sides

    def test_deterministic_per_seed(self):
        one = build_scale_pair(40, n_interconnections=4, seed=7)
        two = build_scale_pair(40, n_interconnections=4, seed=7)
        other = build_scale_pair(40, n_interconnections=4, seed=8)
        weights = lambda isp: [link.weight for link in isp.links]
        assert weights(one.isp_a) == weights(two.isp_a)
        assert weights(one.isp_b) == weights(two.isp_b)
        assert weights(one.isp_a) != weights(other.isp_a)
        # Per-ISP jitter differs so shortest paths stay unique per side.
        assert weights(one.isp_a) != weights(one.isp_b)

    def test_validation(self):
        with pytest.raises(TopologyError):
            build_scale_pair(1)
        with pytest.raises(TopologyError):
            build_scale_pair(10, n_interconnections=0)
        with pytest.raises(TopologyError):
            build_scale_pair(10, n_interconnections=11)


# ---------------------------------------------------------------------------
# batched builds == the cell-by-cell reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_pair():
    return build_scale_pair(12, n_interconnections=3, seed=5)


@pytest.fixture(scope="module")
def grid_flowset(grid_pair):
    return build_full_flowset(
        grid_pair, lambda src, dst: 1.0 + ((src * 31 + dst) % 5) * 0.5
    )


@pytest.fixture(scope="module")
def grid_tables(grid_pair, grid_flowset):
    """(cell-by-cell, batched) tables over shared routing caches."""
    routing_a = IntradomainRouting(grid_pair.isp_a)
    routing_b = IntradomainRouting(grid_pair.isp_b)
    legacy = reference_tables.build_pair_cost_table(
        grid_pair, grid_flowset, routing_a, routing_b
    )
    batched = build_pair_cost_table(
        grid_pair, grid_flowset, routing_a, routing_b
    )
    return legacy, batched


class TestChunkedBuildEquivalence:
    def test_batched_matches_legacy(self, grid_tables):
        legacy, batched = grid_tables
        _assert_tables_equal(legacy, batched)


# ---------------------------------------------------------------------------
# disconnected PoPs raise a typed, pair-naming error (satellite 2)
# ---------------------------------------------------------------------------


class TestUnreachableDiagnostics:
    @pytest.fixture()
    def poisoned(self, monkeypatch):
        """A routing pair where upstream PoP 2 looks unreachable."""
        pair = build_scale_pair(9, n_interconnections=3, seed=2)
        flowset = build_full_flowset(pair)
        routing_a = IntradomainRouting(pair.isp_a)
        routing_b = IntradomainRouting(pair.isp_b)
        real = IntradomainRouting.weight_distance_array

        def poisoned_view(self, src):
            arr = real(self, src).copy()
            arr[2] = np.inf
            return arr

        monkeypatch.setattr(
            routing_a, "weight_distance_array", poisoned_view.__get__(routing_a)
        )
        return pair, flowset, routing_a, routing_b

    def test_build_names_pair_and_pops(self, poisoned):
        pair, flowset, routing_a, routing_b = poisoned
        with pytest.raises(RoutingError) as err:
            build_pair_cost_table(pair, flowset, routing_a, routing_b)
        message = str(err.value)
        assert f"pair {pair.name}" in message
        assert pair.isp_a.name in message
        assert "source PoPs [2]" in message


# ---------------------------------------------------------------------------
# LP solver registry and injection
# ---------------------------------------------------------------------------


class _RecordingSolver(LpSolver):
    """Delegates to the default backend, recording what it was handed."""

    def __init__(self, name="recording"):
        self.name = name
        self.problems = []
        self._inner = resolve_lp_solver(DEFAULT_LP_SOLVER)

    def solve(self, problem) -> LpSolution:
        self.problems.append(problem)
        return self._inner.solve(problem)


@pytest.fixture(scope="module")
def lp_setup():
    """A small scale pair with early-exit defaults and capacities."""
    pair = build_scale_pair(9, n_interconnections=3, seed=3)
    table = build_pair_cost_table(pair, build_full_flowset(pair))
    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    caps_b = ProportionalCapacity().capacities(link_loads(table, defaults, "b"))
    return table, defaults, caps_a, caps_b


class TestSolverRegistry:
    def test_default_is_first_and_highs(self):
        names = available_lp_solvers()
        assert names[0] == DEFAULT_LP_SOLVER == "highs"
        assert {"highs-ds", "highs-ipm"} <= set(names)

    def test_resolution(self):
        default = resolve_lp_solver(None)
        assert default.name == DEFAULT_LP_SOLVER
        assert resolve_lp_solver("highs-ds").name == "highs-ds"
        injected = _RecordingSolver()
        assert resolve_lp_solver(injected) is injected

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="highs"):
            resolve_lp_solver("cplex")

    def test_registration_rules(self):
        from repro.optimal import solver as solver_module

        with pytest.raises(ConfigurationError, match="concrete name"):
            register_lp_solver(LpSolver())
        probe = _RecordingSolver(name="probe-backend")
        try:
            register_lp_solver(probe)
            assert "probe-backend" in available_lp_solvers()
            with pytest.raises(ConfigurationError, match="already registered"):
                register_lp_solver(_RecordingSolver(name="probe-backend"))
            replacement = _RecordingSolver(name="probe-backend")
            assert (
                register_lp_solver(replacement, replace=True) is replacement
            )
            assert resolve_lp_solver("probe-backend") is replacement
        finally:
            solver_module._REGISTRY.pop("probe-backend", None)


class TestSolverInjection:
    def test_injected_solver_matches_default(self, lp_setup):
        table, _, caps_a, caps_b = lp_setup
        reference = solve_min_max_load_lp(table, caps_a, caps_b)
        recorder = _RecordingSolver()
        injected = solve_min_max_load_lp(table, caps_a, caps_b, solver=recorder)
        assert len(recorder.problems) == 1
        assert injected.t == reference.t
        assert np.array_equal(injected.fractions, reference.fractions)

    def test_cross_backend_objectives_agree(self, lp_setup):
        table, _, caps_a, caps_b = lp_setup
        reference = solve_min_max_load_lp(table, caps_a, caps_b)
        for name in ("highs-ds", "highs-ipm"):
            other = solve_min_max_load_lp(table, caps_a, caps_b, solver=name)
            assert other.t == pytest.approx(reference.t, rel=1e-7, abs=1e-9)

    def test_unilateral_lp_threads_solver(self, lp_setup):
        table, _, caps_a, caps_b = lp_setup
        reference = solve_upstream_unilateral_lp(table, caps_a, caps_b)
        recorder = _RecordingSolver()
        injected = solve_upstream_unilateral_lp(
            table, caps_a, caps_b, solver=recorder
        )
        assert len(recorder.problems) == 1
        assert injected.t == reference.t

    def test_unknown_solver_name_at_call_site(self, lp_setup):
        table, _, caps_a, caps_b = lp_setup
        with pytest.raises(ConfigurationError, match="solver"):
            solve_min_max_load_lp(table, caps_a, caps_b, solver="gurobi")


class TestConfigThreading:
    def test_config_validates_solver_and_engine(self):
        with pytest.raises(ConfigurationError, match="lp_solver"):
            ExperimentConfig(lp_solver="gurobi")
        # The SSSP engine is no longer a config field.
        with pytest.raises(TypeError, match="routing_engine"):
            ExperimentConfig(routing_engine="csgraph")
        config = ExperimentConfig(lp_solver="highs-ds")
        assert config.lp_solver == "highs-ds"

    def test_quick_defaults(self):
        config = ExperimentConfig.quick()
        assert config.lp_solver == DEFAULT_LP_SOLVER


# ---------------------------------------------------------------------------
# production-scale end-to-end (acceptance)
# ---------------------------------------------------------------------------


def _run_scale_spine(n_pops: int, target_flows: int):
    """Build -> fail -> negotiate -> joint + unilateral LPs at scale."""
    pair = build_scale_pair(n_pops, n_interconnections=6, seed=11)
    routing_a = IntradomainRouting(pair.isp_a)
    routing_b = IntradomainRouting(pair.isp_b)
    flowset = _strided_flowset(pair, target_flows)
    table = build_pair_cost_table(pair, flowset, routing_a, routing_b)
    assert table.up_weight.shape == (len(flowset), 6)
    assert np.isfinite(table.up_weight).all()
    assert np.isfinite(table.down_weight).all()

    defaults = early_exit_choices(table)
    caps_a = ProportionalCapacity().capacities(link_loads(table, defaults, "a"))
    caps_b = ProportionalCapacity().capacities(link_loads(table, defaults, "b"))

    # Fail the busiest interconnection so a real negotiation scope exists.
    failed = int(np.bincount(defaults, minlength=6).argmax())
    table_post = table.without_alternative(failed)
    assert table_post.n_alternatives == 5
    default_post = early_exit_choices(table_post)
    affected_idx = np.flatnonzero(defaults == failed)
    assert affected_idx.size > 0
    active = np.ones(len(flowset), dtype=bool)
    active[affected_idx] = False
    base_a = link_loads(table_post, default_post, "a", active=active)
    base_b = link_loads(table_post, default_post, "b", active=active)

    sub_table = table_post.subset(affected_idx)
    defaults_sub = default_post[affected_idx]
    config = ExperimentConfig.quick()

    choices = _negotiate_bandwidth(
        sub_table, defaults_sub, caps_a, caps_b, base_a, base_b, config
    )
    assert choices.shape == defaults_sub.shape
    assert np.all((choices >= 0) & (choices < 5))
    mel_neg = max(
        max_excess_load(link_loads(sub_table, choices, "a", base=base_a), caps_a),
        max_excess_load(link_loads(sub_table, choices, "b", base=base_b), caps_b),
    )

    lp = solve_min_max_load_lp(
        sub_table, caps_a, caps_b, base_a, base_b, solver=config.lp_solver
    )
    assert lp.fractions.shape == (affected_idx.size, 5)
    assert np.allclose(lp.fractions.sum(axis=1), 1.0, atol=1e-8)
    # The fractional joint optimum lower-bounds any integral negotiation.
    assert lp.t <= mel_neg + 1e-9

    uni = solve_upstream_unilateral_lp(
        sub_table, caps_a, caps_b, base_a, base_b, solver=config.lp_solver
    )
    assert np.isfinite(uni.t) and uni.t >= 0.0
    return lp.t, mel_neg


class TestScaleEndToEnd:
    def test_200_pop_pair_spine(self):
        """Acceptance: a 200-PoP-per-ISP pair crosses the whole new spine."""
        opt_t, neg_mel = _run_scale_spine(n_pops=200, target_flows=1200)
        assert np.isfinite(opt_t) and opt_t >= 0.0
        assert np.isfinite(neg_mel)

    @pytest.mark.slow
    def test_300_pop_pair_spine_slow(self):
        opt_t, neg_mel = _run_scale_spine(n_pops=300, target_flows=4000)
        assert np.isfinite(opt_t) and opt_t >= 0.0
        assert np.isfinite(neg_mel)

    @pytest.mark.slow
    def test_scale_pair_engines_identical_slow(self):
        pair = build_scale_pair(300, n_interconnections=6, seed=11)
        flowset = _strided_flowset(pair, 4000)
        fast = build_pair_cost_table(pair, flowset)
        slow = build_pair_cost_table(
            pair, flowset, NetworkxRouting(pair.isp_a),
            NetworkxRouting(pair.isp_b),
        )
        _assert_tables_equal(fast, slow)
