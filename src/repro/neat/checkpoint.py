"""Checkpointing: save and restore a NEAT run.

An edge deployment of E3 is long-lived — the model-tuning use-case (§I)
continuously adapts a deployed population, and a power cycle must not
lose the evolved state.  A checkpoint captures everything needed to
resume: config, population genomes, innovation bookkeeping, species
structure, RNG state, the generation counter, and — when the caller
passes it — the run seed that keys every per-episode draw, so a resume
can continue the run without being told it again.

The format is plain JSON so checkpoints are diffable and portable
across hosts (the genome payload reuses :meth:`Genome.to_dict`).

Crash safety
------------

A power cycle can land *during* a checkpoint write, and a truncated
checkpoint is worse than none — it silently breaks the next resume.
:func:`save_checkpoint` is therefore atomic: the payload (with an
embedded SHA-256 ``checksum``) is written to a temp file in the same
directory, fsync'd, and renamed over the target, so the target path
always holds either the old complete checkpoint or the new complete
one.  ``keep > 1`` rotates predecessors to ``<path>.1``, ``<path>.2``,
... and :func:`load_checkpoint` falls back to the newest intact rotated
file when the primary is corrupt (:class:`ChecksumMismatchError`,
truncation, bad version), warning about what it skipped.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.population import Population
from repro.neat.species import Species

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_to_dict",
    "checkpoint_candidates",
    "rotated_path",
    "CheckpointError",
    "ChecksumMismatchError",
]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file could not be used."""


class ChecksumMismatchError(CheckpointError):
    """The checkpoint's embedded SHA-256 does not match its payload."""


def checkpoint_to_dict(
    population: Population, seed: int | None = None
) -> dict:
    """Snapshot a population into a JSON-serializable dict.

    ``seed`` records the run seed (the backend's per-episode seed
    base) under the optional ``seed`` key; the restored population
    carries it as :attr:`~repro.neat.population.Population.run_seed`.
    """
    config_dict = asdict(population.config)
    # tuples serialize as lists; restore handles the round trip
    species_payload = []
    for species in population.species_set.species.values():
        species_payload.append(
            {
                "key": species.key,
                "created_generation": species.created_generation,
                "representative": species.representative.to_dict(),
                "member_keys": [g.key for g in species.members],
                "best_fitness": _encode_float(species.best_fitness),
                "last_improved_generation": species.last_improved_generation,
            }
        )
    tracker = population.tracker
    payload = {
        "format_version": _FORMAT_VERSION,
        "generation": population.generation,
        "config": config_dict,
        "population": [g.to_dict() for g in population.population],
        "best_genome": (
            population.best_genome.to_dict()
            if population.best_genome is not None
            else None
        ),
        "species": species_payload,
        "next_species_key": population.species_set._next_key,
        "innovation": {
            "next_node_key": tracker._next_node_key,
            "next_innovation": tracker._next_innovation,
            "connections": [
                [list(key), value]
                for key, value in tracker._connection_innovations.items()
            ],
        },
        "next_genome_key": population.reproduction._next_genome_key,
        "rng_state": _encode_rng(population.rng),
    }
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def _payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of everything but ``checksum``."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def rotated_path(path: str | Path, index: int) -> Path:
    """The ``index``-generations-old rotated sibling of ``path``."""
    target = Path(path)
    if index == 0:
        return target
    return target.with_name(f"{target.name}.{index}")


def _rotate(target: Path, keep: int) -> None:
    """Shift ``target`` and its rotated siblings one slot older."""
    if keep <= 1 or not target.exists():
        return
    oldest = rotated_path(target, keep - 1)
    if oldest.exists():
        oldest.unlink()
    for index in range(keep - 2, 0, -1):
        source = rotated_path(target, index)
        if source.exists():
            os.replace(source, rotated_path(target, index + 1))
    os.replace(target, rotated_path(target, 1))


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that refuse O_RDONLY on directories
    try:
        os.fsync(fd)
    except OSError:
        pass  # durability is best-effort; atomicity already holds
    finally:
        os.close(fd)


def save_checkpoint(
    population: Population,
    path: str | Path,
    keep: int = 1,
    seed: int | None = None,
) -> None:
    """Atomically write a checkpoint file, rotating ``keep`` total copies.

    The payload carries an embedded SHA-256 ``checksum``.  The write
    goes to a same-directory temp file (write + flush + fsync) and is
    renamed over ``path``, so a crash at any byte offset leaves either
    the previous complete checkpoint or the new complete one — never a
    truncated hybrid.  With ``keep > 1`` the previous checkpoint is
    first rotated to ``<path>.1`` (and so on up to ``<path>.{keep-1}``),
    giving :func:`load_checkpoint` intact fallbacks.  ``seed`` is the
    run seed to record (see :func:`checkpoint_to_dict`); the checksum
    covers it.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    target = Path(path)
    payload = checkpoint_to_dict(population, seed=seed)
    payload["checksum"] = _payload_checksum(payload)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    _rotate(target, keep)
    os.replace(tmp, target)
    _fsync_dir(target.parent)


def checkpoint_candidates(path: str | Path) -> list[Path]:
    """``path`` plus its existing rotated siblings, newest first."""
    target = Path(path)
    candidates = [target]
    index = 1
    while True:
        rotated = rotated_path(target, index)
        if not rotated.exists():
            break
        candidates.append(rotated)
        index += 1
    return candidates


def _load_one(path: Path, validate: bool) -> Population:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    stored = payload.pop("checksum", None)
    if stored is not None:  # legacy checkpoints predate the checksum
        computed = _payload_checksum(payload)
        if computed != stored:
            raise ChecksumMismatchError(
                f"checkpoint {path} is corrupt: stored checksum "
                f"{stored[:12]}... != computed {computed[:12]}..."
            )
    population = population_from_dict(payload)
    if validate:
        from repro.neat.validate import validate_genome

        for genome in population.population:
            validate_genome(genome, population.config)
    return population


def load_checkpoint(
    path: str | Path, validate: bool = True, fallback: bool = True
) -> Population:
    """Restore a population from a checkpoint file.

    The restored population resumes exactly: same genomes, same species
    partition, same innovation counters, and the same RNG stream.  With
    ``validate`` (default) every restored genome is checked against the
    structural invariants (:mod:`repro.neat.validate`) — checkpoints
    cross a trust boundary and a corrupted one should fail loudly here,
    not deep inside a later decode.

    With ``fallback`` (default), a primary file that fails to load —
    truncated JSON, :class:`ChecksumMismatchError`, bad
    ``format_version``, failed validation — falls back to the newest
    intact rotated sibling (``<path>.1``, ``<path>.2``, ...), emitting a
    :class:`RuntimeWarning` per skipped file.  When every candidate
    fails, the *primary* file's error is raised.
    """
    candidates = checkpoint_candidates(path) if fallback else [Path(path)]
    failures: list[tuple[Path, Exception]] = []
    for candidate in candidates:
        try:
            population = _load_one(candidate, validate=validate)
        except (OSError, ValueError, KeyError, TypeError, CheckpointError) as error:
            failures.append((candidate, error))
            continue
        for failed_path, error in failures:
            warnings.warn(
                f"skipped corrupt checkpoint {failed_path} "
                f"({type(error).__name__}: {error}); "
                f"restored from {candidate}",
                RuntimeWarning,
                stacklevel=2,
            )
        return population
    raise failures[0][1]


def population_from_dict(payload: dict) -> Population:
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('format_version')}"
        )
    config_dict = dict(payload["config"])
    # dataclass fields that were tuples arrive as lists
    for name in ("activation_options", "aggregation_options"):
        config_dict[name] = tuple(config_dict[name])
    valid = {f.name for f in fields(NEATConfig)}
    config = NEATConfig(**{k: v for k, v in config_dict.items() if k in valid})

    population = Population(config, seed=0)
    population.generation = payload["generation"]
    population.population = [
        Genome.from_dict(g) for g in payload["population"]
    ]
    by_key = {g.key: g for g in population.population}
    if payload["best_genome"] is not None:
        population.best_genome = Genome.from_dict(payload["best_genome"])

    # --- species ---
    population.species_set._species = {}
    for entry in payload["species"]:
        species = Species(
            key=entry["key"],
            created_generation=entry["created_generation"],
            representative=Genome.from_dict(entry["representative"]),
            members=[by_key[k] for k in entry["member_keys"] if k in by_key],
            best_fitness=_decode_float(entry["best_fitness"]),
            last_improved_generation=entry["last_improved_generation"],
        )
        population.species_set._species[species.key] = species
    population.species_set._next_key = payload["next_species_key"]

    # --- innovation bookkeeping ---
    tracker = population.tracker
    tracker._next_node_key = payload["innovation"]["next_node_key"]
    tracker._next_innovation = payload["innovation"]["next_innovation"]
    tracker._connection_innovations = {
        tuple(key): value for key, value in payload["innovation"]["connections"]
    }
    population.reproduction._next_genome_key = payload["next_genome_key"]

    population.rng = _decode_rng(payload["rng_state"])
    seed = payload.get("seed")
    population.run_seed = None if seed is None else int(seed)
    return population


def _encode_rng(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def _decode_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _encode_float(value: float):
    if value == float("-inf"):
        return "-inf"
    if value == float("inf"):
        return "inf"
    return value


def _decode_float(value) -> float:
    if value in ("-inf", "inf"):
        return float(value)
    return float(value)
