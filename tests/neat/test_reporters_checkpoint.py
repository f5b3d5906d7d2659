"""Unit tests for reporters and checkpointing."""

import io

import numpy as np
import pytest

from repro.neat.checkpoint import (
    checkpoint_to_dict,
    load_checkpoint,
    population_from_dict,
    save_checkpoint,
)
from repro.neat.config import NEATConfig
from repro.neat.population import GenerationStats, Population
from repro.neat.reporters import (
    CSVReporter,
    ConsoleReporter,
    ReporterSet,
)


def _rechecksum(payload):
    """Re-embed a valid checksum after deliberately tampering a payload."""
    from repro.neat.checkpoint import _payload_checksum

    payload["checksum"] = _payload_checksum(payload)
    return payload


def _stats(gen=0, best=1.0):
    return GenerationStats(
        generation=gen,
        best_fitness=best,
        mean_fitness=0.5,
        num_species=2,
        best_genome_key=3,
        mean_nodes=4.0,
        mean_connections=5.0,
        population_size=10,
    )


class TestReporters:
    def test_console_reporter_prints(self, capsys):
        reporter = ConsoleReporter()
        reporter.on_generation(_stats(gen=7, best=42.0))
        out = capsys.readouterr().out
        assert "gen    7" in out
        assert "42.00" in out

    def test_console_every(self, capsys):
        reporter = ConsoleReporter(every=5)
        for g in range(10):
            reporter.on_generation(_stats(gen=g))
        out = capsys.readouterr().out
        assert out.count("gen") == 2  # generations 0 and 5

    def test_console_invalid_every(self):
        with pytest.raises(ValueError):
            ConsoleReporter(every=0)

    def test_csv_reporter_stream(self):
        buffer = io.StringIO()
        reporter = CSVReporter(buffer)
        reporter.on_generation(_stats(gen=1))
        reporter.on_generation(_stats(gen=2))
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("generation,best_fitness")
        assert len(lines) == 3

    def test_csv_reporter_path(self, tmp_path):
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats())
        assert path.read_text().count("\n") == 2

    def test_csv_reporter_append_skips_header(self, tmp_path):
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats(gen=0))
            reporter.on_generation(_stats(gen=1))
        with CSVReporter(path, append=True) as reporter:
            reporter.on_generation(_stats(gen=2))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # one header + three rows
        assert lines[0].startswith("generation,")
        assert sum(line.startswith("generation,") for line in lines) == 1
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_csv_reporter_append_fresh_file_writes_header(self, tmp_path):
        path = tmp_path / "new.csv"
        with CSVReporter(path, append=True) as reporter:
            reporter.on_generation(_stats(gen=0))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("generation,")
        assert len(lines) == 2

    def test_csv_reporter_append_stream(self):
        buffer = io.StringIO()
        CSVReporter(buffer).on_generation(_stats(gen=0))
        CSVReporter(buffer, append=True).on_generation(_stats(gen=1))
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert sum(line.startswith("generation,") for line in lines) == 1

    def test_csv_reporter_default_truncates(self, tmp_path):
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats(gen=0))
            reporter.on_generation(_stats(gen=1))
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats(gen=5))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row: old history gone
        assert lines[1].split(",")[0] == "5"

    def test_reporter_set_fans_out(self):
        received = []

        class Probe:
            def on_generation(self, stats):
                received.append(stats.generation)

        rs = ReporterSet([Probe()])
        rs.add(Probe())
        rs.on_generation(_stats(gen=4))
        assert received == [4, 4]
        assert len(rs) == 2

    def test_population_notifies_reporters(self):
        cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=10)
        pop = Population(cfg, seed=0)
        seen = []

        class Probe:
            def on_generation(self, stats):
                seen.append(stats.generation)

        pop.reporters.add(Probe())

        def evaluate(genomes):
            for g in genomes:
                g.fitness = 1.0

        pop.run(evaluate, max_generations=3)
        assert seen == [0, 1, 2]


class TestCheckpoint:
    def _evolved_population(self, generations=3):
        cfg = NEATConfig(num_inputs=3, num_outputs=2, population_size=15)
        pop = Population(cfg, seed=4)
        rng = np.random.default_rng(0)

        def evaluate(genomes):
            for g in genomes:
                g.fitness = float(rng.normal())

        for _ in range(generations):
            pop.advance(evaluate)
        return pop, evaluate

    def test_round_trip_preserves_state(self, tmp_path):
        pop, _ = self._evolved_population()
        path = tmp_path / "ckpt.json"
        save_checkpoint(pop, path)
        restored = load_checkpoint(path)
        assert restored.generation == pop.generation
        assert len(restored.population) == len(pop.population)
        assert {g.key for g in restored.population} == {
            g.key for g in pop.population
        }
        assert len(restored.species_set) == len(pop.species_set)
        assert restored.best_genome.fitness == pop.best_genome.fitness

    def test_resume_is_exact(self, tmp_path):
        """Resuming from a checkpoint reproduces the original run."""
        pop_a, _ = self._evolved_population()
        payload = checkpoint_to_dict(pop_a)
        pop_b = population_from_dict(payload)

        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)

        def eval_a(genomes):
            for g in genomes:
                g.fitness = float(rng_a.normal())

        def eval_b(genomes):
            for g in genomes:
                g.fitness = float(rng_b.normal())

        for _ in range(2):
            best_a = pop_a.advance(eval_a)
            best_b = pop_b.advance(eval_b)
            assert best_a.fitness == best_b.fitness
            assert [g.key for g in pop_a.population] == [
                g.key for g in pop_b.population
            ]

    def test_innovation_counters_restored(self, tmp_path):
        pop, _ = self._evolved_population()
        restored = population_from_dict(checkpoint_to_dict(pop))
        assert (
            restored.tracker.innovation_count
            == pop.tracker.innovation_count
        )
        assert restored.tracker.node_count == pop.tracker.node_count

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            population_from_dict({"format_version": 99})

    def test_checkpoint_survives_json(self, tmp_path):
        # -inf best_fitness on a never-improved species must round-trip
        cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=5)
        pop = Population(cfg, seed=1)
        path = tmp_path / "fresh.json"
        save_checkpoint(pop, path)
        restored = load_checkpoint(path)
        for species in restored.species_set.species.values():
            assert species.best_fitness == float("-inf")


class TestCheckpointValidation:
    def test_corrupted_checkpoint_rejected(self, tmp_path):
        import json

        from repro.neat.validate import GenomeValidationError

        cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=5)
        pop = Population(cfg, seed=1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(pop, path)

        payload = json.loads(path.read_text())
        # corrupt one genome: point a connection at a missing node
        # (recompute the checksum so only validation catches it)
        payload["population"][0]["connections"][0]["out"] = 999
        path.write_text(json.dumps(_rechecksum(payload)))
        with pytest.raises(GenomeValidationError):
            load_checkpoint(path)

    def test_validation_can_be_skipped(self, tmp_path):
        import json

        cfg = NEATConfig(num_inputs=2, num_outputs=1, population_size=5)
        pop = Population(cfg, seed=1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(pop, path)
        payload = json.loads(path.read_text())
        payload["population"][0]["connections"][0]["out"] = 999
        path.write_text(json.dumps(_rechecksum(payload)))
        restored = load_checkpoint(path, validate=False)
        assert len(restored.population) == 5


def _stats_extra(gen, **extras):
    stats = _stats(gen=gen)
    stats.extras.update(extras)
    return stats


class TestCSVReporterMigration:
    """S2: columns appearing after the header is fixed must not be
    silently dropped — owned files migrate in place, streams warn."""

    def test_resume_with_new_extras_migrates_file(self, tmp_path):
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats(gen=0))
            reporter.on_generation(_stats(gen=1))
        # the resumed run's backend contributes columns the original
        # header lacks (the fallback_waves/pack_eff scenario)
        with CSVReporter(path, append=True) as reporter:
            reporter.on_generation(
                _stats_extra(2, fallback_waves=1.0, pack_eff=0.75)
            )
            reporter.on_generation(
                _stats_extra(3, fallback_waves=0.0, pack_eff=0.5)
            )
        import csv as _csv

        with open(path, newline="") as handle:
            rows = list(_csv.DictReader(handle))
        assert len(rows) == 4
        header = path.read_text().splitlines()[0].split(",")
        assert "fallback_waves" in header and "pack_eff" in header
        # old rows pad the new columns with 0
        assert rows[0]["fallback_waves"] == "0"
        assert rows[1]["pack_eff"] == "0"
        # new rows carry the real values, correctly aligned
        assert rows[2]["fallback_waves"] == "1.0"
        assert rows[3]["pack_eff"] == "0.5"
        assert [row["generation"] for row in rows] == ["0", "1", "2", "3"]

    def test_resume_keeps_existing_column_order(self, tmp_path):
        """Appended rows follow the *file's* header order even when the
        resumed run reports extras in a different iteration order."""
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats_extra(0, zeta=1.0, alpha=2.0))
        with CSVReporter(path, append=True) as reporter:
            reporter.on_generation(_stats_extra(1, zeta=3.0, alpha=4.0))
        import csv as _csv

        with open(path, newline="") as handle:
            rows = list(_csv.DictReader(handle))
        assert rows[0]["alpha"] == "2.0" and rows[0]["zeta"] == "1.0"
        assert rows[1]["alpha"] == "4.0" and rows[1]["zeta"] == "3.0"

    def test_mid_run_new_extras_migrate_too(self, tmp_path):
        path = tmp_path / "run.csv"
        with CSVReporter(path) as reporter:
            reporter.on_generation(_stats(gen=0))
            reporter.on_generation(_stats_extra(1, fallback_waves=2.0))
        import csv as _csv

        with open(path, newline="") as handle:
            rows = list(_csv.DictReader(handle))
        assert rows[0]["fallback_waves"] == "0"
        assert rows[1]["fallback_waves"] == "2.0"

    def test_stream_target_warns_loudly_once(self):
        buffer = io.StringIO()
        reporter = CSVReporter(buffer)
        reporter.on_generation(_stats(gen=0))
        with pytest.warns(RuntimeWarning, match="pack_eff"):
            reporter.on_generation(_stats_extra(1, pack_eff=0.5))
        # the same column does not warn twice
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            reporter.on_generation(_stats_extra(2, pack_eff=0.25))
        lines = buffer.getvalue().strip().splitlines()
        # rows stay aligned with the original header (column dropped)
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_resume_roundtrip_via_population(self, tmp_path):
        """End-to-end: run, checkpoint, resume with a CSV append —
        the resumed history extends the file without misalignment."""
        path = tmp_path / "history.csv"
        config = NEATConfig(num_inputs=2, num_outputs=1, population_size=8)

        def evaluate(genomes):
            for genome in genomes:
                genome.fitness = float(genome.key % 5)

        population = Population(config, seed=3)
        with CSVReporter(path) as reporter:
            population.reporters.add(reporter)
            population.run(evaluate, max_generations=2)
        checkpoint = tmp_path / "ckpt.json"
        save_checkpoint(population, checkpoint)

        resumed = load_checkpoint(checkpoint)
        resumed.stat_sources.append(lambda: {"pack_eff": 1.0})
        with CSVReporter(path, append=True) as reporter:
            resumed.reporters.add(reporter)
            resumed.run(evaluate, max_generations=2)

        import csv as _csv

        with open(path, newline="") as handle:
            rows = list(_csv.DictReader(handle))
        assert len(rows) == 4
        assert [row["pack_eff"] for row in rows] == ["0", "0", "1.0", "1.0"]
        assert rows[-1]["generation"] == str(resumed.generation - 1)
