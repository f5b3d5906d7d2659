"""Compile decoded networks into INAX hardware configurations.

The set-up phase (§IV-C2) ships each individual's NN configuration over
the weight channel: topology description, per-node bias/activation, and
per-connection weights.  :class:`HWNetConfig` is that payload — a
layered, ingress-annotated form the PU can execute directly, plus the
word counts the DMA and set-up cost models use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import FeedForwardNetwork, NodeEval

__all__ = [
    "ConfigWords",
    "HWNetConfig",
    "compile_network",
    "compile_genome",
    "compile_mlp",
]


class ConfigWords:
    """Weight-channel and buffer word counts from a network's sizes.

    Shared by a weighted :class:`HWNetConfig` and a shape's
    weight-independent cost (:class:`repro.compile.structure.ShapeCost`),
    so the sizing rules live once.  Subclasses provide ``num_inputs``,
    ``num_nodes`` and ``num_connections``.
    """

    __slots__ = ()

    @property
    def config_words(self) -> int:
        """Weight-channel words for the set-up phase.

        One word per connection (weight + packed ids) plus two words per
        node (bias, activation/aggregation selectors + layer tag).
        """
        return self.num_connections + 2 * self.num_nodes

    @property
    def weight_buffer_words(self) -> int:
        """Words resident in the PU's weight buffer after decode."""
        return self.config_words

    @property
    def value_buffer_words(self) -> int:
        """Value-buffer footprint: every intermediate activation may be
        consumed by any later layer (§IV-D), so all node values plus the
        inputs stay resident."""
        return self.num_inputs + self.num_nodes

    def timing(self, hw) -> tuple[int, int]:
        """``(cycles, PE-active cycles)`` of one inference on a PU of
        ``hw`` (an :class:`~repro.inax.accelerator.INAXConfig`): the
        PU's static latency and activity, which read only ``layers``
        and each node's ``fan_in``."""
        from repro.inax.accelerator import _static_pe_active
        from repro.inax.pu import _static_step_cycles

        return (
            _static_step_cycles(
                self, hw.num_pes_per_pu, hw.pe_costs, hw.pu_costs
            ),
            _static_pe_active(self, hw.pe_costs),
        )


@dataclass(frozen=True)
class HWNetConfig(ConfigWords):
    """One individual's configuration as shipped to a PU."""

    input_keys: tuple[int, ...]
    output_keys: tuple[int, ...]
    #: node evaluation plans grouped by topological layer
    layers: tuple[tuple[NodeEval, ...], ...]

    # ----------------------------------------------------------- queries
    @property
    def num_inputs(self) -> int:
        return len(self.input_keys)

    @property
    def num_outputs(self) -> int:
        return len(self.output_keys)

    @property
    def num_nodes(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def num_connections(self) -> int:
        return sum(plan.fan_in for layer in self.layers for plan in layer)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def max_layer_width(self) -> int:
        return max((len(layer) for layer in self.layers), default=0)

    @property
    def max_fan_in(self) -> int:
        return max(
            (plan.fan_in for layer in self.layers for plan in layer), default=0
        )

    def layer_sizes(self) -> list[int]:
        """Width per layer, inputs included."""
        return [self.num_inputs] + [len(layer) for layer in self.layers]


def compile_network(net: FeedForwardNetwork) -> HWNetConfig:
    """Lower a decoded feed-forward network to a HW configuration."""
    layers = tuple(
        tuple(net.node_evals[key] for key in layer) for layer in net.layers
    )
    return HWNetConfig(
        input_keys=tuple(net.input_keys),
        output_keys=tuple(net.output_keys),
        layers=layers,
    )


def compile_genome(genome: Genome, config: NEATConfig) -> HWNetConfig:
    """CreateNet + lowering in one call (the E3 per-individual path)."""
    return compile_network(FeedForwardNetwork.create(genome, config))


def compile_mlp(
    mlp,
    activation: str = "mlp_tanh",
    output_activation: str = "identity",
) -> HWNetConfig:
    """Lower a dense :class:`repro.rl.nn.MLP` to a HW configuration.

    INAX is "efficient for both regular and irregular NN" (Table VI);
    this is the regular path: a fixed-topology policy (RL or ES/GA)
    becomes a fully-connected layered configuration the same PUs can
    execute.  Hidden layers use ``activation`` (matching the MLP's own
    nonlinearity), the final layer ``output_activation`` (the MLP's
    last layer is linear).
    """
    from repro.neat.network import NodeEval

    sizes = mlp.sizes
    input_keys = tuple(-(i + 1) for i in range(sizes[0]))
    # node keys: outputs first (0..n_out-1), hidden numbered after
    num_outputs = sizes[-1]
    next_hidden = num_outputs
    previous: list[int] = list(input_keys)
    layers: list[tuple[NodeEval, ...]] = []
    for layer_index, layer in enumerate(mlp.layers):
        is_output = layer_index == len(mlp.layers) - 1
        width = layer.weight.shape[1]
        keys = (
            list(range(num_outputs))
            if is_output
            else list(range(next_hidden, next_hidden + width))
        )
        if not is_output:
            next_hidden += width
        plans = []
        for column, key in enumerate(keys):
            ingress = tuple(
                (previous[row], float(layer.weight[row, column]))
                for row in range(layer.weight.shape[0])
            )
            plans.append(
                NodeEval(
                    key=key,
                    bias=float(layer.bias[column]),
                    activation=output_activation if is_output else activation,
                    aggregation="sum",
                    ingress=ingress,
                )
            )
        layers.append(tuple(plans))
        previous = keys
    return HWNetConfig(
        input_keys=input_keys,
        output_keys=tuple(range(num_outputs)),
        layers=tuple(layers),
    )
