"""Every lock-step inference function enforces one ``(slots, obs)`` contract.

``run_lockstep`` hands each :data:`repro.envs.rollout.InferFn` the
ascending live slots and a ``(len(slots), num_inputs)`` observation
block.  The compiled population evaluator (``cpu-compiled``'s engine,
and the flattened engine the ``inax`` backend's one lock-step pass runs
before its device replays the cycles) and the INAX device's per-PU
step must all reject anything else — a short observation in particular
must fail, never broadcast across a network's inputs — and answer a
well-formed call with the interpreted network's outputs bit for bit.
"""

import numpy as np
import pytest

from repro.compile import CompileCache, CompiledPopulationEvaluator
from repro.core.backends import INAXBackend
from repro.inax.accelerator import INAX, INAXConfig
from repro.inax.compiler import compile_genome
from repro.neat.config import NEATConfig
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork

from tests.conftest import evolved_genome

CFG = NEATConfig(num_inputs=4, num_outputs=2)
#: slots per contract check; a wide call must hold as well as a narrow one
WIDTH = 4


def _genomes():
    tracker = InnovationTracker(CFG.num_outputs)
    rng = np.random.default_rng(3)
    return [
        evolved_genome(CFG, tracker, rng, mutations=6, key=key)
        for key in range(WIDTH)
    ]


def _compiled(genomes):
    cache = CompileCache(len(genomes))
    return CompiledPopulationEvaluator(
        [(cache.get(genome, CFG), genome) for genome in genomes]
    ).infer


def _inax_pass(genomes):
    """The engine of the ``inax`` backend's one lock-step pass, built
    from that backend's own compile cache and recipe lowering."""
    backend = INAXBackend(
        "cartpole",
        CFG,
        inax_config=INAXConfig(num_pus=len(genomes), num_pes_per_pu=2),
    )
    entries, _ = backend._lower(genomes)
    return CompiledPopulationEvaluator(list(zip(entries, genomes))).infer


def _device(genomes):
    device = INAX(num_pus=len(genomes), num_pes_per_pu=2)
    device.begin_wave([compile_genome(genome, CFG) for genome in genomes])
    return device.step


#: name -> (InferFn builder, live slots of a well-formed call)
INFER_FNS = {
    "cpu-compiled": (_compiled, [0]),
    "inax-per-pu": (_device, list(range(WIDTH))),
    "inax-flattened": (_inax_pass, list(range(WIDTH))),
}


@pytest.fixture(params=sorted(INFER_FNS))
def contract(request):
    build, live = INFER_FNS[request.param]
    genomes = _genomes()
    return build(genomes), live, genomes


def test_well_formed_call_matches_interpreted(contract):
    infer, live, genomes = contract
    obs = np.random.default_rng(0).standard_normal((len(live), 4))
    out = infer(live, obs)
    assert out.shape == (len(live), CFG.num_outputs)
    for row, slot in enumerate(live):
        net = FeedForwardNetwork.create(genomes[slot], CFG)
        assert out[row].tobytes() == net.activate(obs[row]).tobytes()


def test_short_observation_rejected(contract):
    """A 1-wide observation for a 4-input network must not broadcast."""
    infer, live, _ = contract
    with pytest.raises(ValueError, match="expected"):
        infer(live, np.full((len(live), 1), 0.5))


@pytest.mark.parametrize(
    "shape",
    [(4,), (WIDTH + 1, 4), (1, 4, 1)],
    ids=["flat", "extra-row", "3d"],
)
def test_misshapen_block_rejected(contract, shape):
    infer, live, _ = contract
    with pytest.raises(ValueError):
        infer(live, np.zeros(shape))


@pytest.mark.parametrize(
    "slots, error",
    [
        ([], ValueError),
        ([1, 0], ValueError),
        ([0, 0], ValueError),
        ([0, WIDTH], IndexError),
        ([-1, 0], IndexError),
    ],
    ids=["empty", "descending", "duplicate", "past-end", "negative"],
)
def test_malformed_slots_rejected(contract, slots, error):
    infer, _, _ = contract
    with pytest.raises(error):
        infer(slots, np.zeros((len(slots), 4)))
