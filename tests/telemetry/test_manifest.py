"""Unit tests for the run manifest."""

from repro.telemetry.manifest import RunManifest


class TestRunManifest:
    def test_collect_fills_platform_fields(self):
        manifest = RunManifest.collect(
            command="run", env="cartpole", backend="inax", seed=3
        )
        assert manifest.command == "run"
        assert manifest.env == "cartpole"
        assert manifest.seed == 3
        assert manifest.python_version
        assert manifest.platform
        assert manifest.numpy_version
        assert manifest.created_unix > 0

    def test_to_dict_is_typed_row(self):
        row = RunManifest.collect(command="run", backend="cpu").to_dict()
        assert row["type"] == "manifest"
        assert row["backend"] == "cpu"
        assert "python_version" in row

    def test_roundtrip_ignores_unknown_keys(self):
        original = RunManifest.collect(
            command="run", backend="cpu", extra={"checkpoint": "x.json"}
        )
        row = original.to_dict()
        row["type"] = "manifest"  # discriminator is not a dataclass field
        row["future_field"] = 123
        restored = RunManifest.from_dict(row)
        assert restored == original


class TestGitAndPipelineAttribution:
    def test_collect_captures_git_state(self):
        # the repo under test *is* a git checkout, so collect() must
        # resolve a 40-hex commit for it
        manifest = RunManifest.collect(command="run", backend="cpu")
        assert len(manifest.git_commit) == 40
        assert all(c in "0123456789abcdef" for c in manifest.git_commit)
        assert isinstance(manifest.git_dirty, bool)

    def test_git_revision_outside_checkout(self, tmp_path):
        from repro.telemetry.manifest import git_revision

        commit, dirty = git_revision(cwd=str(tmp_path))
        assert commit == ""
        assert dirty is False

    def test_pipeline_config_fields(self):
        manifest = RunManifest.collect(
            command="run", backend="inax",
            schedule="lpt", prefetch=True,
        )
        row = manifest.to_dict()
        assert row["schedule"] == "lpt"
        assert row["prefetch"] is True

    def test_pipeline_defaults_are_paper_baseline(self):
        manifest = RunManifest()
        assert manifest.schedule == "arrival"
        assert manifest.prefetch is False


class TestFabricAttribution:
    def test_fabric_fields(self):
        from dataclasses import asdict

        from repro.resilience.supervisor import SupervisorConfig

        manifest = RunManifest.collect(
            command="islands.run", backend="fabric",
            devices=4, islands=4, migration_interval=5, migration_size=2,
            supervisor=asdict(SupervisorConfig()),
        )
        row = manifest.to_dict()
        assert row["devices"] == 4
        assert row["islands"] == 4
        assert row["migration_interval"] == 5
        assert row["migration_size"] == 2
        assert row["supervisor"]["max_retries"] == 2
        assert row["supervisor"]["probation_generations"] == 1
        row["type"] = "manifest"
        assert RunManifest.from_dict(row) == manifest

    def test_fabric_defaults_are_single_device(self):
        manifest = RunManifest()
        assert manifest.devices == 1
        assert manifest.islands == 1
        assert manifest.migration_interval == 0
        assert manifest.migration_size == 0
        assert manifest.supervisor == {}


class TestApiRunAttribution:
    def test_e3_and_island_runs_record_the_backend_pipeline(self):
        """API drivers build their own manifest; it must carry the
        pipeline the backend actually ran, not the paper defaults."""
        from repro.core.platform import E3
        from repro.fabric.topology import FarmTopology
        from repro.inax.pipeline import PipelineConfig
        from repro.neat.config import NEATConfig
        from repro.obs.monitor import run_attribution
        from repro.telemetry import TelemetrySession

        pipeline = PipelineConfig(schedule="lpt", prefetch=True)
        neat_config = NEATConfig(population_size=20)
        single, farm = TelemetrySession(), TelemetrySession()
        E3(
            "cartpole", backend="inax", neat_config=neat_config, seed=3,
            pipeline=pipeline, telemetry=single,
        ).run(max_generations=1)
        E3(
            "cartpole", backend="fabric",
            topology=FarmTopology(devices=2, islands=2),
            neat_config=neat_config, seed=3, pipeline=pipeline,
            telemetry=farm,
        ).run(max_generations=1)
        for session in (single, farm):
            run = run_attribution(session.manifest.to_dict())
            assert (run["schedule"], run["prefetch"]) == ("lpt", True)
