"""CLI surface for the fabric backend and the island-model run path."""

import json

from repro.cli import build_parser, main


def _read_trace(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _manifest(rows):
    return next(row for row in rows if row.get("type") == "manifest")


class TestParser:
    def test_fabric_flag_defaults(self):
        args = build_parser().parse_args(["run", "--env", "cartpole"])
        assert args.devices == 1
        assert args.islands == 1
        assert args.migration_interval == 0
        assert args.migration_size == 0

    def test_fabric_backend_choice(self):
        args = build_parser().parse_args(
            ["run", "--env", "cartpole", "--backend", "fabric",
             "--devices", "4"]
        )
        assert args.backend == "fabric"
        assert args.devices == 4

    def test_resume_accepts_devices(self):
        args = build_parser().parse_args(
            ["resume", "--checkpoint", "x.json", "--env", "cartpole",
             "--backend", "fabric", "--devices", "2"]
        )
        assert args.devices == 2


class TestFabricRun:
    def test_devices_auto_upgrade_inax_to_fabric(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--env", "cartpole", "--population", "30",
             "--generations", "2", "--seed", "2", "--quiet",
             "--devices", "2", "--trace", str(trace)]
        )
        assert code in (0, 2)
        manifest = _manifest(_read_trace(trace))
        assert manifest["backend"] == "fabric"
        assert manifest["devices"] == 2
        assert manifest["supervisor"]["max_retries"] >= 0

    def test_devices_rejected_for_software_backends(self, capsys):
        code = main(
            ["run", "--env", "cartpole", "--backend", "cpu",
             "--devices", "2", "--quiet"]
        )
        assert code == 2
        assert "--devices needs the fabric backend" in capsys.readouterr().out

    def test_resume_rejects_devices_for_software_backends(
        self, capsys, tmp_path
    ):
        checkpoint = tmp_path / "ckpt.json"
        code = main(
            ["run", "--env", "cartpole", "--backend", "cpu",
             "--population", "12", "--generations", "1", "--seed", "2",
             "--quiet", "--checkpoint", str(checkpoint)]
        )
        assert code in (0, 2)
        capsys.readouterr()
        saved = checkpoint.read_text()
        code = main(
            ["resume", "--checkpoint", str(checkpoint), "--env", "cartpole",
             "--backend", "cpu", "--devices", "3", "--generations", "1",
             "--seed", "2", "--quiet"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "--devices needs the fabric backend, not 'cpu'" in out
        # rejected before anything ran: the checkpoint was not resaved
        assert checkpoint.read_text() == saved

    def test_chaos_run_prints_resilience_summary(self, capsys):
        code = main(
            ["run", "--env", "cartpole", "--backend", "fabric",
             "--devices", "2", "--population", "30", "--generations", "2",
             "--seed", "2", "--quiet",
             "--faults", "seed=0,fabric.device_drop@1.0"]
        )
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert "device evictions" in out
        assert "devices up" in out


class TestIslandRun:
    ARGS = [
        "run", "--env", "cartpole", "--population", "24",
        "--generations", "3", "--seed", "2", "--quiet",
        "--devices", "2", "--islands", "2",
        "--migration-interval", "1", "--migration-size", "1",
    ]

    def test_island_run_completes_and_reports(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(self.ARGS + ["--trace", str(trace)])
        assert code in (0, 2)
        out = capsys.readouterr().out
        assert "island" in out
        assert "migration:" in out
        manifest = _manifest(_read_trace(trace))
        assert manifest["command"] == "run"
        # the farm flags upgrade the default inax backend
        assert manifest["backend"] == "fabric"
        assert manifest["islands"] == 2
        assert manifest["migration_interval"] == 1

    def test_checkpoint_is_rejected_with_islands(self, capsys, tmp_path):
        code = main(
            self.ARGS + ["--checkpoint", str(tmp_path / "ckpt.json")]
        )
        assert code == 2
        assert "--checkpoint is not supported" in capsys.readouterr().out

    def test_islands_rejected_for_software_backends(self, capsys):
        # --islands follows the --devices rule: an island run needs the
        # farm, and a software backend is refused, not replaced
        code = main(
            ["run", "--env", "cartpole", "--backend", "cpu-compiled",
             "--islands", "2", "--quiet"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "--islands needs the fabric backend, not 'cpu-compiled'" in out


class TestDoctorOnFabricTrace:
    def test_doctor_reconstructs_fabric_run_from_trace(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--env", "cartpole", "--backend", "fabric",
             "--devices", "2", "--population", "30", "--generations", "2",
             "--seed", "2", "--quiet",
             "--faults", "seed=0,fabric.device_drop@1.0",
             "--trace", str(trace)]
        )
        assert code in (0, 2)
        capsys.readouterr()
        # the trace has no health.sample markers, so the doctor must
        # rebuild the eviction history from fabric.gen / resilience.*
        doctor_code = main(["doctor", str(trace)])
        out = capsys.readouterr().out
        assert "[reconstructed from bare trace]" in out
        assert "fabric.instability" in out
        assert doctor_code != 0  # an eviction fired: not a clean bill
