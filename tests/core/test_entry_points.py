"""Every entry point builds the same backend for the same name.

``E3``, the serve layer's ``BackendPool`` and ``repro resume`` all
build through :func:`repro.core.backends.create_backend`.  For every
registered name and every alias they must agree on the backend's
class, reported name, INAX config and device count, and a resumed
run's cycle reports must equal a continuous run's, field for field.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core.backends import ALIASES, BACKENDS, EvaluationBackend
from repro.core.platform import E3, effective_neat_config
from repro.neat.config import NEATConfig
from repro.serve.pool import BackendPool

ENV = "acrobot"
POPULATION = 12
SEED = 1
NAMES = sorted(BACKENDS) + sorted(ALIASES)


def _identity(backend):
    return (
        type(backend),
        backend.name,
        backend.inax_config,
        getattr(backend, "num_devices", 1),
    )


def _cli(monkeypatch, argv):
    """Run one CLI command; return the backend that evaluated for it."""
    built = []
    evaluate = EvaluationBackend.evaluate

    def capture(self, genomes):
        if self not in built:
            built.append(self)
        return evaluate(self, genomes)

    with monkeypatch.context() as patch:
        patch.setattr(EvaluationBackend, "evaluate", capture)
        code = main(argv)
    assert code in (0, 2)
    (backend,) = built
    return backend


def _reports(records):
    return [dataclasses.asdict(record.cycle_report) for record in records]


def test_every_alias_names_a_backend():
    assert set(ALIASES.values()) <= set(BACKENDS)
    assert not set(ALIASES) & set(BACKENDS)


@pytest.mark.parametrize("name", NAMES)
def test_pool_builds_what_e3_builds(name):
    neat_config = NEATConfig(population_size=POPULATION)
    platform = E3(ENV, backend=name, neat_config=neat_config, seed=SEED)
    pool = BackendPool(max_leases=1)
    lease = pool.lease(
        ENV, name, effective_neat_config(ENV, neat_config), base_seed=SEED
    )
    try:
        assert _identity(lease.backend) == _identity(platform.backend)
    finally:
        lease.release(discard=True)
        platform.backend.close()


@pytest.mark.parametrize("name", NAMES)
def test_resume_builds_what_run_builds(name, monkeypatch, tmp_path):
    common = ["--env", ENV, "--backend", name, "--seed", str(SEED), "--quiet"]
    population = ["--population", str(POPULATION)]
    continuous = _cli(
        monkeypatch, ["run", *common, *population, "--generations", "4"]
    )
    checkpoint = str(tmp_path / "ckpt.json")
    first = _cli(
        monkeypatch,
        ["run", *common, *population, "--generations", "2",
         "--checkpoint", checkpoint],
    )
    resumed = _cli(
        monkeypatch,
        ["resume", *common, "--checkpoint", checkpoint, "--generations", "2"],
    )
    assert _identity(resumed) == _identity(first) == _identity(continuous)
    # the run may solve before generation 4; the resumed tail stops at
    # the same generation
    assert resumed.records
    assert _reports(first.records) == _reports(continuous.records[:2])
    assert _reports(resumed.records) == _reports(continuous.records[2:])
