"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--env", "cartpole"])
        assert args.backend == "inax"
        assert args.population == 100

    def test_sweep_axis_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--axis", "dsp"])

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--env", "cartpole"],
            ["resume", "--checkpoint", "ckpt.json", "--env", "cartpole"],
        ],
        ids=["run", "resume"],
    )
    def test_negative_workers_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--workers", "-1"])
        assert exit_info.value.code == 2
        assert "--workers: must be >= 0, got -1" in capsys.readouterr().err


class TestEnvsCommand:
    def test_lists_suite(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for name in ("cartpole", "pendulum", "bipedal_walker"):
            assert name in out
        assert "Env1" in out


class TestResourcesCommand:
    def test_fitting_config(self, capsys):
        assert main(["resources", "--pus", "50", "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "fits" in out and "DSP" in out

    def test_oversized_config_exit_code(self, capsys):
        code = main(["resources", "--pus", "2000", "--pes", "8"])
        assert code == 3
        assert "DOES NOT FIT" in capsys.readouterr().out

    def test_invalid_config_exit_code(self, capsys):
        assert main(["resources", "--pus", "0", "--pes", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweepCommand:
    def test_pe_sweep_output(self, capsys):
        code = main(
            [
                "sweep", "--axis", "pe", "--individuals", "20",
                "--outputs", "3", "--steps", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "U(PE)" in out
        assert "heuristic ladder [3, 2, 1]" in out

    def test_pu_sweep_output(self, capsys):
        code = main(
            [
                "sweep", "--axis", "pu", "--individuals", "12",
                "--steps", "3", "--max", "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "U(PU)" in out


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        csv = tmp_path / "log.csv"
        code = main(
            [
                "run", "--env", "cartpole", "--population", "40",
                "--generations", "5", "--seed", "2", "--quiet",
                "--checkpoint", str(checkpoint), "--csv", str(csv),
            ]
        )
        out = capsys.readouterr().out
        assert "cartpole" in out
        assert checkpoint.exists()
        assert csv.read_text().startswith("generation,")
        assert code in (0, 2)  # solved or honest non-solve

    def test_run_checkpoint_resumable(self, tmp_path):
        from repro.neat.checkpoint import load_checkpoint

        checkpoint = tmp_path / "ckpt.json"
        main(
            [
                "run", "--env", "cartpole", "--population", "30",
                "--generations", "2", "--seed", "1", "--quiet",
                "--checkpoint", str(checkpoint),
            ]
        )
        population = load_checkpoint(checkpoint)
        assert len(population.population) == 30


class TestCompareCommand:
    def test_compare_prints_platforms(self, capsys):
        code = main(
            [
                "compare", "--env", "cartpole", "--population", "30",
                "--generations", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for token in ("E3-CPU", "E3-GPU", "E3-INAX", "speedup"):
            assert token in out


class TestResumeCommand:
    def test_resume_continues_run(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        main(
            [
                "run", "--env", "cartpole", "--population", "30",
                "--generations", "2", "--seed", "1", "--quiet",
                "--checkpoint", str(checkpoint),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "resume", "--checkpoint", str(checkpoint),
                "--env", "cartpole", "--generations", "2", "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert "resumed cartpole" in out
        assert "checkpoint updated" in out
        assert code in (0, 2)

    def test_resume_env_mismatch_rejected(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        main(
            [
                "run", "--env", "cartpole", "--population", "20",
                "--generations", "1", "--seed", "1", "--quiet",
                "--checkpoint", str(checkpoint),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "resume", "--checkpoint", str(checkpoint),
                "--env", "bipedal_walker", "--generations", "1", "--quiet",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.telemetry.export import validate_trace_jsonl

        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "m.json"
        code = main(
            [
                "run", "--env", "cartpole", "--population", "24",
                "--generations", "2", "--seed", "1", "--quiet",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        )
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert validate_trace_jsonl(trace) == []
        chrome = trace.with_suffix(".chrome.json")
        assert chrome.exists()
        payload = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        snapshot = json.loads(metrics.read_text())
        assert snapshot["manifest"]["command"] == "run"
        assert "phase.evaluate_seconds" in snapshot["metrics"]
        assert "trace written to" in out
        assert "metrics written to" in out

    def test_run_without_flags_writes_nothing(self, tmp_path, capsys):
        code = main(
            [
                "run", "--env", "cartpole", "--population", "20",
                "--generations", "1", "--seed", "1", "--quiet",
            ]
        )
        assert code in (0, 2)
        assert "trace written" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_run_prints_cache_summary(self, tmp_path, capsys):
        code = main(
            [
                "run", "--env", "cartpole", "--backend", "cpu-fast",
                "--population", "24", "--generations", "2", "--seed", "1",
                "--quiet", "--metrics", str(tmp_path / "m.json"),
            ]
        )
        assert code in (0, 2)
        assert "compile cache:" in capsys.readouterr().out

    def test_resume_appends_csv_and_traces(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        csv = tmp_path / "log.csv"
        main(
            [
                "run", "--env", "cartpole", "--population", "24",
                "--generations", "2", "--seed", "1", "--quiet",
                "--checkpoint", str(checkpoint), "--csv", str(csv),
            ]
        )
        rows_before = csv.read_text().strip().splitlines()
        capsys.readouterr()
        trace = tmp_path / "resume.jsonl"
        code = main(
            [
                "resume", "--checkpoint", str(checkpoint),
                "--env", "cartpole", "--generations", "2", "--quiet",
                "--csv", str(csv), "--trace", str(trace),
            ]
        )
        assert code in (0, 2)
        rows_after = csv.read_text().strip().splitlines()
        # resume extended the CSV in place: same single header, more rows
        assert rows_after[: len(rows_before)] == rows_before
        assert len(rows_after) > len(rows_before)
        assert sum(r.startswith("generation,") for r in rows_after) == 1
        assert trace.exists()


class TestTraceSummaryCommand:
    def test_summarizes_run_trace(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        main(
            [
                "run", "--env", "cartpole", "--population", "24",
                "--generations", "2", "--seed", "1", "--quiet",
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "host phases" in out
        assert "evaluate" in out
        assert "INAX PU timeline" in out

    def test_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "wat"}\n')
        assert main(["trace-summary", str(bad)]) == 2
        assert "unknown row type" in capsys.readouterr().err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestDotCommand:
    def test_dot_to_stdout(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        main(
            [
                "run", "--env", "cartpole", "--population", "20",
                "--generations", "2", "--seed", "3", "--quiet",
                "--checkpoint", str(checkpoint),
            ]
        )
        capsys.readouterr()
        assert main(["dot", "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph champion {")
        assert "->" in out

    def test_dot_to_file(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        main(
            [
                "run", "--env", "cartpole", "--population", "20",
                "--generations", "1", "--seed", "3", "--quiet",
                "--checkpoint", str(checkpoint),
            ]
        )
        out_file = tmp_path / "champ.dot"
        assert main(
            ["dot", "--checkpoint", str(checkpoint), "--out", str(out_file)]
        ) == 0
        assert out_file.read_text().startswith("digraph champion {")


class TestHealthFlag:
    def test_run_writes_health_json(self, tmp_path, capsys):
        import json

        from repro.obs.events import validate_health_report

        health = tmp_path / "health.json"
        code = main(
            [
                "run", "--env", "cartpole", "--population", "24",
                "--generations", "2", "--seed", "1", "--quiet",
                "--health", str(health),
            ]
        )
        assert code in (0, 2)
        assert "health:" in capsys.readouterr().out
        payload = json.loads(health.read_text())
        assert validate_health_report(payload) == []
        assert payload["generations"] >= 1  # may solve before the cap
        assert payload["run"]["command"] == "run"
        assert payload["run"]["seed"] == 1

    def test_health_json_replay_identical(self, tmp_path, capsys):
        def run_once(name):
            path = tmp_path / name
            main(
                [
                    "run", "--env", "cartpole", "--population", "20",
                    "--generations", "2", "--seed", "4", "--quiet",
                    "--health", str(path),
                ]
            )
            return path.read_bytes()

        assert run_once("a.json") == run_once("b.json")


class TestDoctorCommand:
    def _trace(self, tmp_path, with_health=True):
        trace = tmp_path / "trace.jsonl"
        argv = [
            "run", "--env", "cartpole", "--population", "24",
            "--generations", "2", "--seed", "1", "--quiet",
            "--trace", str(trace),
        ]
        if with_health:
            argv += ["--health", str(tmp_path / "live.json")]
        main(argv)
        return trace

    def test_doctor_healthy_run(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        code = main(["doctor", str(trace)])
        out = capsys.readouterr().out
        assert code in (0, 3, 4)
        assert "verdict:" in out
        assert "hot spots: host phases" in out

    def test_doctor_health_out_matches_live(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        replayed = tmp_path / "replayed.json"
        main(["doctor", str(trace), "--health-out", str(replayed)])
        assert replayed.read_bytes() == (tmp_path / "live.json").read_bytes()

    def test_doctor_json_output(self, tmp_path, capsys):
        import json

        trace = self._trace(tmp_path)
        capsys.readouterr()
        main(["doctor", str(trace), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["schema"] == "repro.health/v1"
        assert "hotspots" in payload

    def test_doctor_invalid_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["doctor", str(empty)]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["doctor", str(tmp_path / "missing.jsonl")]) == 2


class TestBenchDiffCommand:
    def _seed_store(self, tmp_path, value):
        import json

        from repro.obs.trajectory import load_trajectory, record, \
            save_trajectory

        bench_dir = tmp_path / "output"
        bench_dir.mkdir()
        (bench_dir / "BENCH_pipeline.json").write_text(
            json.dumps({"workload": "skewed", "reduction_vs_arrival": 0.6})
        )
        store = tmp_path / "BENCH_trajectory.json"
        trajectory = load_trajectory(store)
        record(
            trajectory, "pipeline",
            {"reduction_vs_arrival": value}, "baseline-commit",
        )
        save_trajectory(store, trajectory)
        return store, bench_dir

    def test_regression_exits_three(self, tmp_path, capsys):
        store, bench_dir = self._seed_store(tmp_path, 0.75)
        code = main(
            [
                "bench-diff", "--trajectory", str(store),
                "--bench-dir", str(bench_dir), "--threshold", "0.1",
            ]
        )
        assert code == 3
        assert "REGRESSED" in capsys.readouterr().out

    def test_within_threshold_passes(self, tmp_path, capsys):
        store, bench_dir = self._seed_store(tmp_path, 0.62)
        code = main(
            [
                "bench-diff", "--trajectory", str(store),
                "--bench-dir", str(bench_dir), "--threshold", "0.1",
            ]
        )
        assert code == 0

    def test_record_appends_current_commit(self, tmp_path, capsys):
        import json

        store, bench_dir = self._seed_store(tmp_path, 0.62)
        code = main(
            [
                "bench-diff", "--trajectory", str(store),
                "--bench-dir", str(bench_dir), "--record",
            ]
        )
        assert code == 0
        entries = json.loads(store.read_text())["entries"]
        assert len(entries) == 2  # baseline + the freshly recorded run

    def test_no_bench_files_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            [
                "bench-diff", "--trajectory",
                str(tmp_path / "BENCH_trajectory.json"),
                "--bench-dir", str(empty),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        import json

        store, bench_dir = self._seed_store(tmp_path, 0.62)
        main(
            [
                "bench-diff", "--trajectory", str(store),
                "--bench-dir", str(bench_dir), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["metric"] == "reduction_vs_arrival"


class TestTraceSummaryJson:
    def test_json_flag_emits_machine_form(self, tmp_path, capsys):
        import json

        trace = tmp_path / "out.jsonl"
        main(
            [
                "run", "--env", "cartpole", "--population", "24",
                "--generations", "2", "--seed", "1", "--quiet",
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        assert main(["trace-summary", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["command"] == "run"
        assert "evaluate" in payload["phase_fractions"]
        assert payload["span_count"] > 0
