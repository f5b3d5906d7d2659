"""Generated parity of a shape's cost descriptor with its HW config.

A :class:`~repro.compile.structure.ShapeCost` is built once per shape
from the compiled recipes, and the compiled backends price, gate and
record every genome of the shape from it.  On generated genomes —
hidden nodes, disabled and unreachable connections, outputs without
ingress, non-``sum`` aggregations that leave the shape without a plan —
and generated INAX timing configurations, every number it carries must
equal the one computed from :func:`~repro.inax.compiler.compile_genome`'s
configuration: the sizes a workload records, the buffer words, and the
device's own ``_static_step_cycles`` and ``_static_pe_active``.  A
genome's compact parameters, the form a ``cpu-compiled`` record keeps,
lower through the descriptor to that same configuration.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compile import CompileCache, hw_configs
from repro.hw.workload import IndividualWork
from repro.inax.accelerator import INAXConfig, _static_pe_active
from repro.inax.compiler import compile_genome
from repro.inax.pe import PECosts
from repro.inax.pu import PUCosts, _static_step_cycles
from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome

NUM_INPUTS = 3
NUM_OUTPUTS = 2
CONFIG = NEATConfig(num_inputs=NUM_INPUTS, num_outputs=NUM_OUTPUTS)

SIZES = (
    "num_inputs",
    "num_outputs",
    "num_nodes",
    "num_connections",
    "num_layers",
    "config_words",
    "weight_buffer_words",
    "value_buffer_words",
)


@st.composite
def genomes(draw):
    """A feed-forward genome over a random topological node order.

    Connections run only forward in that order (outputs may feed hidden
    nodes), each present or not and enabled or not, so some hidden
    nodes reach no output, some outputs have no ingress, and an odd
    node aggregates with ``max`` or ``product``.
    """
    hidden = draw(st.integers(min_value=0, max_value=5))
    nodes = list(range(NUM_OUTPUTS + hidden))
    order = draw(st.permutations(nodes))
    sources = [-(i + 1) for i in range(NUM_INPUTS)]
    genome = Genome(key=0)
    for key in nodes:
        genome.nodes[key] = NodeGene(
            key=key,
            bias=draw(st.floats(-3.0, 3.0)),
            activation=draw(st.sampled_from(["tanh", "relu", "sigmoid"])),
            aggregation=draw(
                st.sampled_from(["sum"] * 6 + ["max", "product"])
            ),
        )
    innovation = 0
    for position, target in enumerate(order):
        for source in sources + list(order[:position]):
            if draw(st.integers(0, 2)) == 0:
                continue
            genome.connections[(source, target)] = ConnectionGene(
                key=(source, target),
                weight=draw(st.floats(-3.0, 3.0)),
                enabled=draw(st.integers(0, 3)) > 0,
                innovation=innovation,
            )
            innovation += 1
    return genome


timing_configs = st.builds(
    INAXConfig,
    num_pus=st.just(4),
    num_pes_per_pu=st.integers(1, 5),
    pe_costs=st.builds(
        PECosts,
        mac_cycles=st.integers(1, 3),
        pipeline_depth=st.integers(0, 6),
    ),
    pu_costs=st.builds(
        PUCosts,
        layer_sync_cycles=st.integers(0, 3),
        input_load_cycles=st.integers(0, 2),
        schedule=st.sampled_from(["inorder", "lpt"]),
    ),
)


@settings(max_examples=80, deadline=None)
@given(genome=genomes(), configs=st.lists(timing_configs, min_size=1, max_size=3))
def test_descriptor_equals_the_compiled_config(genome, configs):
    structure = CompileCache(4).get(genome, CONFIG)
    cost = structure.cost
    hw = compile_genome(genome, CONFIG)
    parameters = np.array(structure.parameters(genome), dtype=np.float64)
    assert hw_configs([cost], parameters) == [hw]
    assert {name: getattr(cost, name) for name in SIZES} == {
        name: getattr(hw, name) for name in SIZES
    }
    assert IndividualWork.from_config(cost, 17) == IndividualWork.from_config(
        hw, 17
    )
    # configs twice over: the memo must follow every switch of config
    for inax in configs + configs[::-1]:
        assert cost.timing(inax) == (
            _static_step_cycles(
                hw, inax.num_pes_per_pu, inax.pe_costs, inax.pu_costs
            ),
            _static_pe_active(hw, inax.pe_costs),
        )


@settings(max_examples=30, deadline=None)
@given(genome=genomes(), shift=st.floats(0.125, 2.0))
def test_same_shape_genomes_share_one_descriptor(genome, shift):
    reweighted = genome.copy(new_key=1)
    for connection in reweighted.connections.values():
        connection.weight += shift
    for node in reweighted.nodes.values():
        node.bias -= shift
    cache = CompileCache(4)
    assert cache.get(genome, CONFIG).cost is cache.get(reweighted, CONFIG).cost
    assert cache.info()["misses"] == 1
