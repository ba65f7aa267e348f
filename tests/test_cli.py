"""Tests for the lard-repro command-line interface."""

import json
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

    def test_scale_choices_are_the_scale_table(self):
        """The parser spells the names out so that building it does not
        load the experiment registry; they must stay the registry's."""
        from repro.analysis.experiments import SCALES
        from repro.cli import _SCALE_NAMES

        assert list(_SCALE_NAMES) == sorted(SCALES)

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

    @pytest.mark.parametrize("factor", ["0.5", "0.01"])
    def test_trace_chess_refuses_a_scale_factor(self, capsys, monkeypatch, factor):
        """The chess catalog does not scale: an explicit factor exits 2
        before any trace is built, instead of describing the same
        800-file catalog for every value."""
        import repro.cli

        def build(*args):
            raise AssertionError(f"trace built for {args}")

        monkeypatch.setattr(repro.cli, "_make_trace", build)
        assert main(["trace", "chess", "--scale-factor", factor]) == 2
        assert "--scale-factor" in capsys.readouterr().err

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

    def test_simulate_without_nodes(self, capsys):
        argv = ["simulate", "--requests", "200", "--scale-factor", "0.05", "--nodes", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "lard-repro: error: need at least one node, got 0\n"

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

    @pytest.mark.parametrize("speed", ["nan", "inf", "0", "-2"])
    def test_unusable_cpu_speed_is_rejected_before_the_trace_is_generated(
        self, capsys, tmp_path, monkeypatch, speed
    ):
        """``--cpu-speed nan`` used to print ``idle= nan% delay= nan ms``
        and exit 0; ``inf`` ran a zero-time CPU."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
        argv = ["simulate", "--requests", "300", "--scale-factor", "0.05"]
        assert main(argv + ["--cpu-speed", speed]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "lard-repro: error: cpu_speed must be positive and finite"
        )
        assert "Traceback" not in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())


class TestLintCommand:
    """``lint`` declares no flags of its own: the linter parses the rest
    of the line."""

    def test_a_flag_and_its_value_survive_the_hop(self, capsys):
        fixture = Path(__file__).parent / "lint_fixtures" / "hyg_bad.py"
        assert main(["lint", "--format", "json", str(fixture)]) == 1
        records = json.loads(capsys.readouterr().out)
        assert any(record["rule"] == "bare-except" for record in records)

    def test_help_is_the_linters(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--help"])
        assert exit_info.value.code == 0
        assert "--list-rules" in capsys.readouterr().out

    def test_other_verbs_still_refuse_unknown_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["list", "--format", "json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


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


_SMALL = ["--requests", "300", "--scale-factor", "0.05"]
#: Each campaign verb, sized so that *running* it would still be quick.
_CAMPAIGNS = {
    "chaos": ["chaos", *_SMALL, "--nodes", "2", "--policies", "wrr"],
    "scaleout": ["scaleout", *_SMALL, "--sizes", "2", "--policies", "wrr"],
    "matrix": ["matrix", "--name", "dynamic-smoke"],
}


class TestCampaignContract:
    """``chaos``, ``scaleout`` and ``matrix`` are one runner behind three
    flag sets: what it refuses, it refuses before any trace exists."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        """An empty trace cache: still empty afterwards means the verb
        stopped before generating (or loading) a trace."""
        path = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(path))
        return path

    @staticmethod
    def _refused(capsys, cache, argv, *needles):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("lard-repro: error:") and err.count("\n") == 1
        for needle in needles:
            assert needle in err
        assert "Traceback" not in err
        assert not cache.exists() or not any(cache.iterdir())
        return captured.out

    @pytest.mark.parametrize("verb", sorted(_CAMPAIGNS))
    def test_unwritable_csv_sink_is_found_before_the_campaign_runs(
        self, capsys, cache, tmp_path, verb
    ):
        """A directory as ``--csv`` used to cost the whole campaign
        (minutes at the default ``scaleout``) and then exit 2."""
        self._refused(
            capsys, cache, _CAMPAIGNS[verb] + ["--csv", str(tmp_path)], "Is a directory"
        )

    def test_an_existing_scorecard_survives_the_sink_check(self, capsys, cache, tmp_path):
        scorecard = tmp_path / "kept.csv"
        scorecard.write_text("policy\nwrr\n")
        argv = _CAMPAIGNS["chaos"] + ["--jobs", "-1", "--csv", str(scorecard)]
        self._refused(capsys, cache, argv, "--jobs")
        assert scorecard.read_text() == "policy\nwrr\n"

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig5", "--scale", "smoke"], *(_CAMPAIGNS[v] for v in sorted(_CAMPAIGNS))],
        ids=["run", *sorted(_CAMPAIGNS)],
    )
    def test_negative_jobs_rejected(self, capsys, cache, argv):
        """``--jobs -3`` used to run serially without a word."""
        self._refused(capsys, cache, argv + ["--jobs", "-3"], "--jobs must be >= 0", "-3")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["scaleout", "--requests", "0", "--sizes", "2"], "--requests"),
            (["chaos", "--requests", "0"], "--requests"),
            (["chaos", *_SMALL, "--nodes", "0"], "--nodes"),
            (["scaleout", *_SMALL, "--sizes", "4,0"], "--sizes"),
        ],
        ids=["scaleout-requests", "chaos-requests", "chaos-nodes", "scaleout-sizes"],
    )
    def test_counts_below_one_rejected_naming_the_flag(self, capsys, cache, argv, flag):
        """``--requests 0`` used to die after trace generation with an
        error about percentiles or durations, ``--nodes 0`` only once
        the first cell was built."""
        self._refused(capsys, cache, argv, flag)

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["chaos", *_SMALL, "--policies", "wrr,wrr"], "duplicate policies"),
            (["scaleout", *_SMALL, "--sizes", "2", "--policies", "wrr,lard,wrr"],
             "duplicate policies"),
            (["scaleout", *_SMALL, "--sizes", "2,2"], "duplicate cluster sizes"),
        ],
        ids=["chaos-policies", "scaleout-policies", "scaleout-sizes"],
    )
    def test_repeated_axis_values_rejected(self, capsys, cache, argv, what):
        """They used to run every cell twice and print every row twice."""
        self._refused(capsys, cache, argv, what)

    @pytest.mark.parametrize(
        "argv, profile, needle",
        [
            (["run", "fig5", "--scale", "smoke"], "missing/x.pstats", "No such file or directory"),
            (["simulate", *_SMALL], "missing/x.pstats", "No such file or directory"),
            (["run", "fig5", "--scale", "smoke", "--jobs", "2"], "x.pstats", "not profiled"),
            (["run", "fig5", "--scale", "smoke", "--jobs", "0"], "x.pstats", "not profiled"),
        ],
        ids=["run-sink", "simulate-sink", "run-jobs-2", "run-jobs-0"],
    )
    def test_profile_is_checked_before_anything_runs(
        self, capsys, cache, tmp_path, argv, profile, needle
    ):
        """``run --profile`` into a directory that is not there used to
        run and print the whole experiment, then exit 2 on the dump
        (``simulate`` likewise); with ``--jobs 2`` it profiled the parent
        waiting on the pool."""
        argv = argv + ["--profile", str(tmp_path / profile)]
        assert self._refused(capsys, cache, argv, needle) == ""

    def test_jobs_zero_is_one_worker_per_cpu(self, capsys, tmp_path):
        one, auto = tmp_path / "one.csv", tmp_path / "auto.csv"
        assert main(_CAMPAIGNS["scaleout"] + ["--csv", str(one)]) == 0
        assert main(_CAMPAIGNS["scaleout"] + ["--jobs", "0", "--csv", str(auto)]) == 0
        assert one.read_bytes() == auto.read_bytes()


class TestScaleoutCommand:
    def test_small_sweep_prints_the_rounded_table(self, capsys, tmp_path):
        csv_path = tmp_path / "zoo.csv"
        argv = ["scaleout", "--requests", "3000", "--scale-factor", "0.05",
                "--sizes", "2,4", "--policies", "wrr,pod/lc", "--csv", str(csv_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scale-out sweep: trace=rice requests=3000 sizes=2,4 seed=0"
        assert out[1].split() == [
            "policy", "num_nodes", "num_requests", "throughput_rps",
            "cache_miss_ratio", "idle_fraction", "mean_delay_ms", "p99_delay_ms",
        ]
        assert [line.split()[:2] for line in out[3:7]] == [
            ["wrr", "2"], ["pod/lc", "2"], ["wrr", "4"], ["pod/lc", "4"],
        ]
        assert csv_path.read_text().splitlines()[0] == ",".join(out[1].split())

    def test_ci_1024_node_sweep_matches_golden_scorecard(self, capsys, tmp_path):
        """CI's 1024-node sweep, against the scorecard recorded on
        b141770: a policy decision that changes at 1024 nodes fails here,
        not only in the ``campaign-smoke`` job."""
        csv_path = tmp_path / "scorecard.csv"
        args = "scaleout --requests 20000 --sizes 1024 --policies wrr,lard/r,chash,pod/lc"
        assert main(args.split() + ["--csv", str(csv_path)]) == 0
        capsys.readouterr()
        golden = Path(__file__).parent / "golden" / "scaleout_1024.csv"
        assert csv_path.read_bytes() == golden.read_bytes()
