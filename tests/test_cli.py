"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_distance_defaults(self):
        args = build_parser().parse_args(["distance"])
        assert args.preset == "quick"
        assert not args.include_cheating

    def test_bandwidth_flags(self):
        args = build_parser().parse_args(
            ["bandwidth", "--unilateral", "--diverse", "--cheating"]
        )
        assert (args.include_unilateral and args.include_diverse
                and args.include_cheating)

    def test_bad_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["distance", "--preset", "huge"])

    def test_runner_flags(self):
        args = build_parser().parse_args(
            ["distance", "--workers", "-1",
             "--checkpoint-dir", "ck", "--resume"]
        )
        assert args.workers == -1
        assert args.checkpoint_dir == "ck"
        assert args.resume

    def test_sweep_scenarios(self):
        args = build_parser().parse_args(["sweep", "oscillation"])
        assert args.scenario == "oscillation"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "grouped"])

    @pytest.mark.parametrize("verb, scenario", [
        ("distance", "distance"),
        ("bandwidth", "bandwidth"),
        ("availability", "availability"),
        ("multi-isp", "multi_isp"),
        ("robust", "robust_negotiation"),
    ])
    def test_flag_defaults_are_the_spec_defaults(self, verb, scenario):
        from repro.experiments.runner import get_scenario

        args = build_parser().parse_args([verb])
        defaults = get_scenario(scenario).default_params
        flags = {
            name: getattr(args, name)
            for name in defaults if hasattr(args, name)
        }
        assert flags
        for name, value in flags.items():
            # None leaves the spec's default in place (the --srg append
            # flag needs a list, so it cannot start from the spec's ()).
            assert value == defaults[name] or value is None, name


class TestCommands:
    def test_figure1(self):
        out = io.StringIO()
        assert main(["figure1"], out=out) == 0
        assert "Center" in out.getvalue()

    def test_dataset(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "ds.json"
        code = main(
            ["dataset", "--preset", "quick", "--out", str(path)], out=out
        )
        assert code == 0
        assert path.exists()
        assert "pairs with >= 2 interconnections" in out.getvalue()

    def test_distance_quick(self):
        out = io.StringIO()
        assert main(["distance", "--preset", "quick"], out=out) == 0
        text = out.getvalue()
        for title in ("Figure 4a", "Figure 4b", "Figure 5", "Figure 6"):
            assert f"== {title}: " in text
        assert "Figure 10" not in text
        assert "interconnections:" in text

    def test_distance_with_cheating(self):
        out = io.StringIO()
        assert main(["distance", "--preset", "quick", "--cheating"],
                    out=out) == 0
        text = out.getvalue()
        assert "one cheater" in text
        for title in ("Figure 10a", "Figure 10b"):
            assert f"== {title}: " in text

    def test_bandwidth_quick(self):
        out = io.StringIO()
        code = main(
            ["bandwidth", "--preset", "quick", "--unilateral", "--diverse",
             "--cheating"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        for figure in (7, 9, 11):
            for panel in ("left", "right"):
                assert f"== Figure {figure} ({panel}): " in text
        assert "== Figure 8: " in text
        for figure in (7, 8, 9, 11):
            assert f"  * Figure {figure}: " in text

    @pytest.mark.parametrize("verb", ["distance", "bandwidth"])
    def test_verb_ends_with_the_sweep_claims(self, verb):
        figures, claims = io.StringIO(), io.StringIO()
        assert main([verb, "--preset", "quick"], out=figures) == 0
        assert main(["sweep", verb, "--preset", "quick"], out=claims) == 0
        assert claims.getvalue().startswith(f"-- sweep: {verb}: ")
        assert figures.getvalue().endswith(claims.getvalue())

    def test_seed_override_changes_nothing_structural(self):
        out = io.StringIO()
        assert main(["dataset", "--preset", "quick", "--seed", "3"],
                    out=out) == 0

    def test_sweep_oscillation(self):
        out = io.StringIO()
        assert main(["sweep", "oscillation", "--preset", "quick"],
                    out=out) == 0
        text = out.getvalue()
        assert "sweep: oscillation" in text
        assert "fraction cycled" in text

    def test_sweep_destination(self):
        out = io.StringIO()
        assert main(["sweep", "destination", "--preset", "quick"],
                    out=out) == 0
        assert "destination-negotiated" in out.getvalue()

    def test_distance_checkpoint_resume(self, tmp_path):
        out = io.StringIO()
        args = ["distance", "--preset", "quick",
                "--checkpoint-dir", str(tmp_path)]
        assert main(args, out=out) == 0
        shards = list(tmp_path.glob("distance/unit-*.pkl"))
        assert shards
        out2 = io.StringIO()
        assert main(args + ["--resume"], out=out2) == 0
        # The resumed run reproduces the report from shards alone.
        assert out2.getvalue() == out.getvalue()


class TestErrors:
    """A library error ends the command with one stderr line and exit 2."""

    def test_bad_link_probability_fails_once(self, capsys, monkeypatch):
        from repro.experiments import runner

        sleeps: list[float] = []
        monkeypatch.setattr(runner.time, "sleep", sleeps.append)
        out = io.StringIO()
        code = main(
            ["availability", "--preset", "quick", "--link-prob", "0.7"],
            out=out,
        )
        assert code == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert "link_probability=0.7" in lines[0]
        assert "Traceback" not in err
        assert out.getvalue() == ""
        assert sleeps == []  # a ConfigurationError is never retried

    @pytest.mark.parametrize("flags, knob", [
        (["multi-isp", "--transit-scale", "nan"], "transit_scale"),
        (["multi-isp", "--damping", "ladder", "--hysteresis-margin", "nan"],
         "hysteresis_margin"),
        (["availability", "--threshold", "nan"], "survivability_threshold"),
        (["availability", "--quantiles", "0.95,1.5"], "quantile"),
    ])
    def test_non_finite_coordinator_knob_fails_once(
        self, capsys, monkeypatch, flags, knob
    ):
        from repro.experiments import runner

        sleeps: list[float] = []
        monkeypatch.setattr(runner.time, "sleep", sleeps.append)
        out = io.StringIO()
        code = main([*flags, "--preset", "quick"], out=out)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert knob in lines[0]
        assert out.getvalue() == ""
        assert sleeps == []

    def test_removed_engine_flags_are_argparse_errors(self):
        for argv in (
            ["multi-isp", "--transit-engine", "legacy"],
            ["distance", "--routing-engine", "legacy"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
