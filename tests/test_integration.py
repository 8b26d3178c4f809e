"""End-to-end integration tests spanning all layers."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    build_default_dataset,
    build_figure1_pair,
    negotiate_distance_pair,
)
from repro.experiments.distance import build_distance_problem
from repro.routing.exits import optimal_exit_choices

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestFigure1EndToEnd:
    """The paper's Figure 1 walkthrough through the public API."""

    def test_negotiation_finds_center(self):
        scenario = build_figure1_pair()
        outcome = negotiate_distance_pair(scenario.pair)
        ics = scenario.pair.interconnections
        src, dst = scenario.flow_a_to_b
        flow_index = src * scenario.pair.isp_b.n_pops() + dst
        assert ics[int(outcome.choices[flow_index])].city == "Center"
        assert outcome.gain_a > 0 and outcome.gain_b > 0

    def test_win_win_on_true_metric(self):
        scenario = build_figure1_pair()
        outcome = negotiate_distance_pair(scenario.pair)
        assert outcome.true_gain_a > 0
        assert outcome.true_gain_b > 0


class TestDatasetEndToEnd:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.experiments.config import ExperimentConfig

        return build_default_dataset(ExperimentConfig.quick().dataset)

    def test_negotiation_on_generated_pair(self, dataset):
        pair = dataset.pairs(min_interconnections=2, max_pairs=1)[0]
        outcome = negotiate_distance_pair(pair)
        assert outcome.gain_a >= 0
        assert outcome.gain_b >= 0
        assert outcome.true_gain_a >= -1e-9
        assert outcome.true_gain_b >= -1e-9

    def test_negotiated_between_default_and_optimal(self, dataset):
        pair = dataset.pairs(min_interconnections=2, max_pairs=1)[0]
        problem = build_distance_problem(pair)
        outcome = negotiate_distance_pair(pair)
        tot_def, _, _ = problem.totals(problem.defaults)
        opt = np.concatenate(
            [
                optimal_exit_choices(problem.table_ab),
                optimal_exit_choices(problem.table_ba),
            ]
        )
        tot_opt, _, _ = problem.totals(opt)
        tot_neg, _, _ = problem.totals(outcome.choices)
        assert tot_opt - 1e-9 <= tot_neg <= tot_def + 1e-9


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "failure_negotiation.py", "diverse_objectives.py",
     "cheating_demo.py", "bgp_exit_selection.py", "deployment_loop.py"],
)
def test_example_scripts_run(script):
    """Every shipped example must execute cleanly."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


#: SHA-256 of ``examples/ablations.py``'s stdout (45 lines, numpy 2.4.6).
#: The ablations are the only run of the best-local proposal rule, the
#: lower-gain and coin-toss turns, the credit runner and the grouped sweep,
#: so this pin is what holds their numbers. A digest that moves is a
#: behaviour change: re-pin it only in a change whose purpose is to alter
#: that output, and say so in its description.
ABLATIONS_SHA256 = "61ce76cae0b336958654ebd4e2707e3429af7d9b27d15fdcb5327fe1b3e01cfb"


def test_ablations_output_pinned(capsys):
    spec = importlib.util.spec_from_file_location(
        "_ablations", EXAMPLES / "ablations.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ABLATIONS_SHA256, out
