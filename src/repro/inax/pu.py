"""Processing Unit (PU) model (§IV-D).

A PU runs the full "evaluate" for one individual: it decodes the NN
configuration into its **weight buffer** (set-up phase), then executes
inference layer-by-layer across its PE cluster, keeping every
intermediate activation in its **value buffer** — a requirement specific
to irregular NNs, "because the intermediate activations could be used by
all the subsequent layers".

Timing semantics (the source of §V-A's three utilization issues):

* a layer of ``m`` nodes on ``n`` PEs takes ``ceil(m / n)`` iterations
  (*PE alignment*);
* within an iteration the PEs synchronize on the slowest node — cycles
  are ``max(fan_in)``-bound while activity is ``sum(fan_in)``-bound
  (*synchronization*);
* layers synchronize before the next begins (feed-forward correctness),
  adding a fixed sync cost per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.inax.compiler import ConfigWords, HWNetConfig
from repro.inax.pe import PECosts, ProcessingElement

__all__ = ["PUCosts", "BufferOverflowError", "ProcessingUnit", "StepTiming"]


class BufferOverflowError(RuntimeError):
    """An individual's configuration exceeds a PU buffer capacity."""


@dataclass(frozen=True)
class PUCosts:
    """Per-PU timing parameters (cycles)."""

    #: decode cycles per weight-channel word during set-up
    decode_cycles_per_word: int = 1
    #: barrier cost between consecutive layers
    layer_sync_cycles: int = 2
    #: fixed cost to latch a new input vector into the value buffer
    input_load_cycles: int = 1
    #: PE-assignment order within a layer: "inorder" issues nodes as the
    #: configuration lists them (the baseline behaviour §V-A assumes);
    #: "lpt" sorts by descending fan-in first, which packs similar-cost
    #: nodes into the same iteration and shrinks the synchronization
    #: stalls of §V-A3 (set-up-time sort, one extra pass over the layer)
    schedule: str = "inorder"

    def __post_init__(self) -> None:
        if self.schedule not in ("inorder", "lpt"):
            raise ValueError(
                f"unknown schedule {self.schedule!r}; use 'inorder' or 'lpt'"
            )


def _schedule_layer(layer, schedule: str):
    """Order a layer's node plans for PE assignment."""
    if schedule == "lpt":
        return sorted(layer, key=lambda plan: plan.fan_in, reverse=True)
    return list(layer)


@dataclass
class StepTiming:
    """Timing of one inference (one env step) inside a PU."""

    cycles: int
    pe_active_cycles: int
    pe_provisioned_cycles: int
    iterations_per_layer: list[int]


class ProcessingUnit:
    """Functional + timing model of one PU (a cluster of PEs)."""

    def __init__(
        self,
        num_pes: int,
        pe_costs: PECosts | None = None,
        pu_costs: PUCosts | None = None,
        weight_buffer_capacity: int | None = None,
        value_buffer_capacity: int | None = None,
        datapath=None,
        skip_zero_activations: bool = False,
    ):
        if num_pes < 1:
            raise ValueError("a PU needs at least one PE")
        self.num_pes = num_pes
        self.pe_costs = pe_costs or PECosts()
        self.pu_costs = pu_costs or PUCosts()
        self.weight_buffer_capacity = weight_buffer_capacity
        self.value_buffer_capacity = value_buffer_capacity
        self.datapath = datapath
        self.skip_zero_activations = skip_zero_activations
        self.pes = [
            ProcessingElement(
                self.pe_costs,
                datapath=datapath,
                skip_zero_activations=skip_zero_activations,
            )
            for _ in range(num_pes)
        ]
        self._config: HWNetConfig | None = None
        self._values: dict[int, float] = {}

    # -------------------------------------------------------------- load
    def load(self, config: HWNetConfig) -> int:
        """Set-up phase: decode a configuration into the weight buffer.

        Returns the decode cycle count.  Raises
        :class:`BufferOverflowError` if the individual does not fit
        (:meth:`check_fits`).
        """
        self.check_fits(config)
        self._config = config
        self._values = {}
        return config.config_words * self.pu_costs.decode_cycles_per_word

    def check_fits(self, config: ConfigWords) -> None:
        """Raise :class:`BufferOverflowError` unless ``config``'s words
        fit the weight and value buffers — the design-time constraint
        FPGA BRAM sizing imposes."""
        if (
            self.weight_buffer_capacity is not None
            and config.weight_buffer_words > self.weight_buffer_capacity
        ):
            raise BufferOverflowError(
                f"weight buffer needs {config.weight_buffer_words} words, "
                f"capacity is {self.weight_buffer_capacity}"
            )
        if (
            self.value_buffer_capacity is not None
            and config.value_buffer_words > self.value_buffer_capacity
        ):
            raise BufferOverflowError(
                f"value buffer needs {config.value_buffer_words} words, "
                f"capacity is {self.value_buffer_capacity}"
            )

    @property
    def loaded(self) -> HWNetConfig | None:
        return self._config

    # ---------------------------------------------------- fault injection
    def flip_weight_bit(self, rng) -> dict | None:
        """Flip one bit of one loaded weight/bias (soft-error model).

        Picks a uniformly random target among every connection weight
        and node bias in the loaded configuration, then a random bit of
        its float64 representation.  Copy-on-corrupt: compiled
        :class:`HWNetConfig` objects are shared across waves/episodes
        (and cached), so the corruption lands on a replaced copy held
        only by this PU until the next :meth:`load`.  Returns a detail
        dict describing the flip, or ``None`` when nothing is loaded.
        """
        config = self._config
        if config is None:
            return None
        # (layer, node, ingress index) with -1 meaning the node's bias
        targets: list[tuple[int, int, int]] = []
        for layer_index, layer in enumerate(config.layers):
            for node_index, plan in enumerate(layer):
                targets.append((layer_index, node_index, -1))
                for conn_index in range(plan.fan_in):
                    targets.append((layer_index, node_index, conn_index))
        if not targets:
            return None
        from repro.resilience.faults import flip_float64_bit

        layer_index, node_index, conn_index = targets[
            int(rng.integers(len(targets)))
        ]
        bit = int(rng.integers(64))
        plan = config.layers[layer_index][node_index]
        if conn_index < 0:
            before = plan.bias
            after = flip_float64_bit(before, bit)
            new_plan = replace(plan, bias=after)
            target = f"bias[{plan.key}]"
        else:
            source, before = plan.ingress[conn_index]
            after = flip_float64_bit(before, bit)
            ingress = list(plan.ingress)
            ingress[conn_index] = (source, after)
            new_plan = replace(plan, ingress=tuple(ingress))
            target = f"weight[{source}->{plan.key}]"
        layer = list(config.layers[layer_index])
        layer[node_index] = new_plan
        layers = list(config.layers)
        layers[layer_index] = tuple(layer)
        self._config = replace(config, layers=tuple(layers))
        return {
            "target": target,
            "layer": layer_index,
            "bit": bit,
            "before": before,
            "after": after,
        }

    # ------------------------------------------------------------- infer
    def infer(self, inputs: np.ndarray) -> tuple[np.ndarray, StepTiming]:
        """One inference on the loaded individual.

        The same NN is reused across a series of inputs (the weight
        buffer's reuse opportunity, §IV-D1); only the input values are
        re-latched per step.
        """
        config = self._config
        if config is None:
            raise RuntimeError("PU has no individual loaded; call load() first")
        x = np.asarray(inputs, dtype=np.float64).reshape(-1)
        if x.shape[0] != config.num_inputs:
            raise ValueError(
                f"expected {config.num_inputs} inputs, got {x.shape[0]}"
            )

        values = self._values
        values.clear()
        for key, value in zip(config.input_keys, x):
            values[key] = float(value)

        cycles = self.pu_costs.input_load_cycles
        pe_active = 0
        iterations_per_layer: list[int] = []
        for raw_layer in config.layers:
            layer = _schedule_layer(raw_layer, self.pu_costs.schedule)
            iterations = math.ceil(len(layer) / self.num_pes)
            iterations_per_layer.append(iterations)
            for it in range(iterations):
                chunk = layer[it * self.num_pes : (it + 1) * self.num_pes]
                chunk_cycles = 0
                for pe, plan in zip(self.pes, chunk):
                    result, node_cycles = pe.compute_with_cycles(plan, values)
                    values[plan.key] = result
                    pe_active += node_cycles
                    chunk_cycles = max(chunk_cycles, node_cycles)
                cycles += chunk_cycles
            cycles += self.pu_costs.layer_sync_cycles

        outputs = np.array(
            [values.get(k, 0.0) for k in config.output_keys], dtype=np.float64
        )
        timing = StepTiming(
            cycles=cycles,
            pe_active_cycles=pe_active,
            pe_provisioned_cycles=self.num_pes * cycles,
            iterations_per_layer=iterations_per_layer,
        )
        return outputs, timing

    # ------------------------------------------------------ timing-only
    def step_cycles(self) -> int:
        """Cycles one inference takes, without functional execution.

        Used by schedulers that need latency estimates before running.
        """
        config = self._config
        if config is None:
            raise RuntimeError("PU has no individual loaded; call load() first")
        return _static_step_cycles(config, self.num_pes, self.pe_costs, self.pu_costs)


def _static_step_cycles(
    config: HWNetConfig,
    num_pes: int,
    pe_costs: PECosts,
    pu_costs: PUCosts,
) -> int:
    """Closed-form per-inference latency of a configuration on n PEs.

    Reads only ``config.layers`` and each node plan's ``fan_in``, so a
    shape's weight-independent :class:`~repro.compile.structure.ShapeCost`
    is timed here too.
    """
    cycles = pu_costs.input_load_cycles
    for raw_layer in config.layers:
        layer = _schedule_layer(raw_layer, pu_costs.schedule)
        for start in range(0, len(layer), num_pes):
            chunk = layer[start : start + num_pes]
            cycles += max(pe_costs.node_cycles(p.fan_in) for p in chunk)
        cycles += pu_costs.layer_sync_cycles
    return cycles
