"""Software pricing equals the device at several episodes per genome.

The device packs a generation's waves once and dispatches each wave
once per episode, in queue order ``(wave, episode)``; with prefetch,
every wave-episode after the first hides its set-up behind the one
before it.  The software backends price that same order in closed form
from each genome's per-episode steps.  On generated populations, with
one to three episodes, under arrival and LPT packing, with and without
prefetch, the records of ``cpu``, ``cpu-compiled``, ``inax`` and a
one-device ``fabric`` must carry the same cycle report, field for
field, the same episode lengths and the same predictions.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.fabric  # noqa: F401 - registers the "fabric" backend
from repro.core.backends import create_backend
from repro.inax.accelerator import INAXConfig
from repro.inax.pipeline import PipelineConfig
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker

from tests.conftest import evolved_genome

CONFIG = NEATConfig(num_inputs=4, num_outputs=2)


def _records(kind, genomes, episodes, pipeline, seed):
    """Two generations of the same genomes: the second packs by LPT
    from the first's lengths, since its keys repeat."""
    backend = create_backend(
        kind,
        "cartpole",
        CONFIG,
        episodes_per_genome=episodes,
        base_seed=seed,
        inax_config=INAXConfig(num_pus=4, num_pes_per_pu=2),
        pipeline=pipeline,
        devices=1,
    )
    try:
        for _ in range(2):
            backend.evaluate([genome.copy() for genome in genomes])
    finally:
        backend.close()
    return [
        (
            record.episode_lengths,
            record.predicted_costs,
            dataclasses.asdict(record.cycle_report),
        )
        for record in backend.records
    ]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16 - 1),
    size=st.integers(1, 11),
    mutations=st.integers(0, 8),
    episodes=st.integers(1, 3),
    schedule=st.sampled_from(["arrival", "lpt"]),
    prefetch=st.booleans(),
)
# shrunk against pricing one wave of summed lengths: one genome's two
# episodes are two waves on the device, each with its own set-up
@example(
    seed=0, size=1, mutations=0, episodes=2, schedule="arrival",
    prefetch=False,
)
@example(
    seed=3, size=11, mutations=6, episodes=3, schedule="lpt", prefetch=True
)
def test_software_reports_equal_the_device(
    seed, size, mutations, episodes, schedule, prefetch
):
    tracker = InnovationTracker(CONFIG.num_outputs)
    rng = np.random.default_rng(seed)
    genomes = [
        evolved_genome(CONFIG, tracker, rng, mutations=mutations, key=key)
        for key in range(size)
    ]
    pipeline = PipelineConfig(schedule=schedule, prefetch=prefetch)
    device = _records("inax", genomes, episodes, pipeline, seed)
    for kind in ("cpu", "cpu-compiled", "fabric"):
        assert _records(kind, genomes, episodes, pipeline, seed) == device, kind
