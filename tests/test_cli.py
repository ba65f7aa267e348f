"""Tests for the lard-repro command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig7"])
        assert args.experiment == "fig7"
        assert args.scale == "standard"

    def test_run_scale_choice(self):
        args = build_parser().parse_args(["run", "fig7", "--scale", "smoke"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7", "--scale", "huge"])

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--policy", "lard", "--nodes", "4", "--disks", "2"]
        )
        assert args.policy == "lard"
        assert args.nodes == 4
        assert args.disks == 2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "sec4.4-delay" in out

    def test_trace_chess(self, capsys):
        assert main(["trace", "chess", "--requests", "5000"]) == 0
        out = capsys.readouterr().out
        assert "chess-like" in out
        assert "memory to cover" in out

    def test_trace_rice_scaled(self, capsys):
        assert main(["trace", "rice", "--requests", "2000", "--scale-factor", "0.05"]) == 0
        assert "rice-like" in capsys.readouterr().out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "wrr",
                "--nodes",
                "2",
                "--trace",
                "chess",
                "--requests",
                "2000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tput" in out
        assert "disk reads" in out

    def test_run_smoke_experiment(self, capsys):
        # Exit code may be 1 (shape checks need larger scale); the render
        # must still appear.
        code = main(["run", "fig5", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert code in (0, 1)

    def test_run_with_chart(self, capsys):
        code = main(["run", "fig7", "--scale", "smoke", "--chart"])
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "o wrr" in out  # chart legend
        assert code in (0, 1)


class TestPerfFlags:
    def test_run_with_jobs(self, capsys):
        code = main(["run", "fig8", "--scale", "smoke", "--jobs", "2"])
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert code in (0, 1)

    def test_run_with_profile(self, capsys, tmp_path):
        pstats_path = tmp_path / "fig5.pstats"
        code = main(["run", "fig5", "--scale", "smoke", "--profile", str(pstats_path)])
        assert code in (0, 1)
        assert pstats_path.exists()
        import pstats

        stats = pstats.Stats(str(pstats_path))
        assert stats.total_calls > 0

    def test_simulate_with_profile(self, capsys, tmp_path):
        pstats_path = tmp_path / "sim.pstats"
        code = main(
            [
                "simulate",
                "--policy",
                "wrr",
                "--nodes",
                "2",
                "--requests",
                "2000",
                "--scale-factor",
                "0.05",
                "--profile",
                str(pstats_path),
            ]
        )
        assert code == 0
        assert pstats_path.exists()
        assert "profile written" in capsys.readouterr().out


class TestErrorExitCodes:
    """Operator errors exit 2 with a one-line message, not a traceback."""

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope", "--scale", "smoke"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lard-repro: error:")
        assert "unknown experiment" in err
        assert "Traceback" not in err

    def test_missing_span_file(self, capsys):
        assert main(["spans", "/nonexistent/span.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lard-repro: error:")
        assert "Traceback" not in err

    def test_unknown_chaos_policy(self, capsys):
        assert main(["chaos", "--policies", "lard,bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        assert "Traceback" not in err

    def test_corrupt_span_log(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "meta", "schema": 99, "source": "sim"}\n')
        assert main(["spans", str(bad)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_sample_interval_without_spans(self, capsys):
        """Samples go to the span log: the flag alone was a silent no-op."""
        assert main(["simulate", "--requests", "200", "--sample-interval", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lard-repro: error: --sample-interval needs --spans")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
    def test_unusable_sample_interval(self, capsys, tmp_path, interval):
        code = main(
            [
                "simulate", "--requests", "200", "--nodes", "2",
                "--scale-factor", "0.05", "--spans", str(tmp_path / "s.jsonl"),
                "--sample-interval", interval,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sample_interval_s must be positive and finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spans, interval, message",
        [
            ("/nonexistent/dir/s.jsonl", None, "No such file or directory"),
            (None, "0", "sample_interval_s must be positive and finite"),
        ],
        ids=["unopenable-span-log", "zero-sample-interval"],
    )
    def test_span_flags_rejected_before_the_trace_is_generated(
        self, capsys, tmp_path, monkeypatch, spans, interval, message
    ):
        """Both used to exit 2 only after generation: seconds at the
        default 200k requests."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
        argv = ["simulate", "--requests", "300", "--scale-factor", "0.05"]
        argv += ["--spans", spans or str(tmp_path / "s.jsonl")]
        if interval is not None:
            argv += ["--sample-interval", interval]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("lard-repro: error:") and message in err
        assert "Traceback" not in err
        assert not cache.exists() or not any(cache.iterdir())


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.trace == "rice"
        assert args.nodes == 4
        assert args.seed == 0
        assert args.policies is None

    def test_small_campaign_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scorecard.csv"
        code = main(
            [
                "chaos",
                "--requests",
                "3000",
                "--scale-factor",
                "0.05",
                "--nodes",
                "3",
                "--policies",
                "lard,wrr",
                "--seed",
                "3",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out
        assert "availability" in out
        for scenario in ("none", "churn", "burst", "brownout"):
            assert scenario in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("scenario,policy,")
        assert len(csv_path.read_text().splitlines()) == 1 + 8  # 4 scenarios x 2

    def test_ci_smoke_campaign_matches_golden_scorecard(self, capsys, tmp_path):
        """CI's ``chaos-sim-smoke`` campaign, against the scorecard the
        generator lifecycle produced on 3bf1082: crashes, detection lag,
        retries, rejoins and brownouts pinned across commits."""
        csv_path = tmp_path / "scorecard.csv"
        args = "chaos --requests 6000 --scale-factor 0.06 --nodes 3 --policies lard,wrr --seed 7"
        assert main(args.split() + ["--csv", str(csv_path)]) == 0
        capsys.readouterr()
        golden = Path(__file__).parent / "golden" / "chaos_smoke.csv"
        assert csv_path.read_bytes() == golden.read_bytes()
