"""Vectorized batch evaluation of decoded networks.

The interpreted per-node forward pass (:class:`FeedForwardNetwork`) is
the *reference* — INAX's PEs match it bit-for-bit.  For software-side
throughput (the ``cpu-compiled`` backend, batch inference, Monte-Carlo
fitness over many rollouts), this module compiles the same layered plan
into padded per-layer index/weight matrices and replays the reference
computation with NumPy:

* each layer becomes ``(fan_out, max_fan_in)`` source-slot and weight
  matrices over a flat value buffer (inputs first, then every node in
  layer order, then one always-zero padding slot — the value-buffer
  view, so skip connections cost nothing extra);
* pre-activations accumulate **term by term in ingress order** — the
  same left-to-right order the interpreted path and a hardware MAC
  accumulator use — rather than via a BLAS dot whose summation order is
  opaque, so results are bit-identical to the reference;
* activation functions apply via NumPy's value-pure ufunc kernels, the
  exact functions :mod:`repro.neat.activations` evaluates for scalars;
  clamps are written ``np.fmax(lo, np.fmin(hi, x))`` because the scalar
  ``max(lo, min(hi, x))`` maps NaN to ``hi`` (``np.clip`` keeps NaN).

Two evaluators share that compiled plan:

* :class:`VectorizedNetwork` — one network over a batch of observations;
* :class:`PopulationEvaluator` — many networks in lock-step, one
  observation each, flattened into a single value buffer so a whole
  population's forward pass costs a handful of NumPy ops per layer.
  This is the inference engine behind ``cpu-compiled``
  (:class:`repro.compile.CompiledPopulationEvaluator`) and the INAX
  device's flattened step (:meth:`repro.inax.accelerator.INAX.step`).

Only ``sum`` aggregation is supported (the default and the only one
NEAT's evolved networks use here); anything else falls back to the
reference implementation.

Padded fan-in entries read an always-zero slot with weight ``0.0``, so
each one adds ``+0.0`` to a node's accumulation.  That is an exact
no-op: the accumulator starts at ``+0.0`` and a round-to-nearest sum
never produces ``-0.0`` from it.  Because padding never reads a real
value, a NaN/inf observation reaches only the nodes that are wired to
it (``NaN * 0.0`` is NaN), exactly as in the interpreted pass.
"""

from __future__ import annotations

import numpy as np

from repro.envs.rollout import check_observations, check_slots
from repro.neat.network import FeedForwardNetwork

__all__ = ["VectorizedNetwork", "PopulationEvaluator", "vectorize"]


def _clamp(x, lo, hi):
    # the scalar max(lo, min(hi, x)), NaN -> hi included
    return np.fmax(lo, np.fmin(hi, x))


def _vec_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-_clamp(4.9 * x, -60.0, 60.0)))


def _vec_tanh(x):
    return np.tanh(_clamp(2.5 * x, -60.0, 60.0))


def _vec_gauss(x):
    z = _clamp(x, -3.4, 3.4)
    # ((-5.0 * z) * z), matching the scalar registry's evaluation order
    return np.exp(-5.0 * z * z)


# NumPy twins of repro.neat.activations: same constants, same clamping,
# and crucially the same operation *order* (clamp before scale, multiply
# chains associated identically), so each is bit-identical to its scalar
# counterpart elementwise.
_VECTOR_ACTIVATIONS = {
    "sigmoid": _vec_sigmoid,
    "tanh": _vec_tanh,
    "relu": lambda x: np.where(x > 0.0, x, 0.0),
    "leaky_relu": lambda x: np.where(x > 0.0, x, 0.005 * x),
    "identity": lambda x: x,
    "mlp_tanh": np.tanh,
    "clamped": lambda x: _clamp(x, -1.0, 1.0),
    "gauss": _vec_gauss,
    "sin": lambda x: np.sin(_clamp(5.0 * x, -60.0, 60.0)),
    "abs": np.abs,
    "step": lambda x: (x > 0.0).astype(np.float64),
}


class _LayerPlan:
    """One layer's padded execution plan over the flat value buffer.

    ``sources``/``weights`` are ``(rows, max_fan_in)``; rows with fewer
    ingress terms are padded with ``(zero slot, weight 0.0)`` entries so
    a layer evaluates with dense array ops.  ``act_groups`` maps each
    distinct activation to the row indices using it.
    """

    __slots__ = ("sources", "weights", "biases", "act_groups", "slots")

    def __init__(self, sources, weights, biases, act_groups, slots):
        self.sources = sources
        self.weights = weights
        self.biases = biases
        self.act_groups = act_groups
        self.slots = slots


class _NetPlan:
    """A full network compiled to layered padded matrices."""

    __slots__ = ("num_inputs", "num_outputs", "num_slots", "layers",
                 "output_slots")

    def __init__(self, net: FeedForwardNetwork):
        for plan in net.node_evals.values():
            if plan.aggregation != "sum":
                raise ValueError(
                    f"vectorization supports 'sum' aggregation only; node "
                    f"{plan.key} uses {plan.aggregation!r}"
                )
            if plan.activation not in _VECTOR_ACTIVATIONS:
                raise ValueError(
                    f"no vectorized activation {plan.activation!r}"
                )
        self.num_inputs = len(net.input_keys)
        self.num_outputs = len(net.output_keys)

        # value-buffer slot index for every key, inputs first; the slot
        # after the last node is never written, so it stays 0.0
        index: dict[int, int] = {
            key: i for i, key in enumerate(net.input_keys)
        }
        zero_slot = self.num_inputs + sum(len(layer) for layer in net.layers)
        self.layers: list[_LayerPlan] = []
        for layer in net.layers:
            rows = len(layer)
            fan_in = max(
                (net.node_evals[key].fan_in for key in layer), default=0
            )
            sources = np.full((rows, fan_in), zero_slot, dtype=np.intp)
            weights = np.zeros((rows, fan_in))
            biases = np.empty(rows)
            act_rows: dict[str, list[int]] = {}
            for row, key in enumerate(layer):
                plan = net.node_evals[key]
                biases[row] = plan.bias
                act_rows.setdefault(plan.activation, []).append(row)
                for term, (src, w) in enumerate(plan.ingress):
                    sources[row, term] = index[src]
                    weights[row, term] = w
            slots = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                index[key] = len(index)
                slots[row] = index[key]
            act_groups = [
                (_VECTOR_ACTIVATIONS[name], np.array(r, dtype=np.intp))
                for name, r in act_rows.items()
            ]
            self.layers.append(
                _LayerPlan(sources, weights, biases, act_groups, slots)
            )
        self.num_slots = zero_slot + 1
        self.output_slots = np.array(
            [index.get(k, -1) for k in net.output_keys], dtype=np.intp
        )


def _apply_activations(layer: _LayerPlan, pre: np.ndarray) -> np.ndarray:
    """Apply per-row activations along the last axis of ``pre``."""
    if len(layer.act_groups) == 1:
        return layer.act_groups[0][0](pre)
    out = np.empty_like(pre)
    for fn, rows in layer.act_groups:
        out[..., rows] = fn(pre[..., rows])
    return out


class VectorizedNetwork:
    """A compiled batch evaluator for one decoded network."""

    def __init__(self, net: FeedForwardNetwork):
        self._reference = net
        self.input_keys = net.input_keys
        self.output_keys = net.output_keys
        self.plan = _NetPlan(net)

    # ---------------------------------------------------------- evaluate
    def activate_batch(self, inputs: np.ndarray) -> np.ndarray:
        """(batch, num_inputs) -> (batch, num_outputs)."""
        plan = self.plan
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != plan.num_inputs:
            raise ValueError(
                f"expected {plan.num_inputs} inputs, got {x.shape[1]}"
            )
        batch = x.shape[0]
        values = np.zeros((batch, plan.num_slots))
        values[:, : plan.num_inputs] = x
        for layer in plan.layers:
            gathered = values[:, layer.sources]  # (batch, rows, fan_in)
            products = gathered * layer.weights
            acc = np.zeros((batch, layer.sources.shape[0]))
            for term in range(products.shape[2]):
                acc += products[:, :, term]
            pre = acc + layer.biases
            values[:, layer.slots] = _apply_activations(layer, pre)
        out = np.zeros((batch, plan.num_outputs))
        visible = plan.output_slots >= 0
        out[:, visible] = values[:, plan.output_slots[visible]]
        return out

    def activate(self, inputs: np.ndarray) -> np.ndarray:
        """Single-observation convenience, matching the reference API."""
        return self.activate_batch(np.asarray(inputs).reshape(1, -1))[0]

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.activate(inputs)


class PopulationEvaluator:
    """Lock-step inference over many compiled networks at once.

    All member networks' value buffers concatenate into one flat vector;
    each "layer" of the population (every member's nodes at that depth)
    evaluates with a handful of NumPy ops regardless of population size.
    This is what makes software evaluation of a NEAT generation cheap:
    the per-step cost is a few microseconds per *population*, not per
    individual.

    The interface mirrors the INAX device's scatter/infer/gather step:
    :meth:`infer` is an :data:`repro.envs.rollout.InferFn`, taking the
    ascending still-alive slots and their ``(len(slots), num_inputs)``
    observation block and returning one output row per slot.  When
    episodes terminate and the alive set shrinks past a threshold, the
    flat tensors are rebuilt for the survivors so dead individuals stop
    costing inference work (the software analogue of the paper's
    idle-PU effect).  A member left out of a rebuild may come back
    later; that rebuilds again.
    """

    #: rebuild the flattened tensors once the alive set falls below this
    #: fraction of the currently built set
    REBUILD_FRACTION = 0.6

    def __init__(self, nets: list[VectorizedNetwork]):
        self._init_from_plans([net.plan for net in nets])

    @classmethod
    def from_plans(cls, plans: "list[_NetPlan]") -> "PopulationEvaluator":
        """Build directly from compiled plans (no network wrappers).

        The structural-batching compiler (:mod:`repro.compile`) produces
        per-member plans that *share* structure arrays and carry only
        per-member weight/bias views; this constructor lets it reuse the
        flattened lock-step engine without fabricating
        :class:`VectorizedNetwork` objects.
        """
        evaluator = cls.__new__(cls)
        evaluator._init_from_plans(list(plans))
        return evaluator

    def _init_from_plans(self, plans: "list[_NetPlan]") -> None:
        if not plans:
            raise ValueError("PopulationEvaluator needs at least one network")
        num_inputs = {p.num_inputs for p in plans}
        num_outputs = {p.num_outputs for p in plans}
        if len(num_inputs) != 1 or len(num_outputs) != 1:
            raise ValueError(
                "all member networks must share input/output arity; got "
                f"inputs {sorted(num_inputs)}, outputs {sorted(num_outputs)}"
            )
        self.num_inputs = num_inputs.pop()
        self.num_outputs = num_outputs.pop()
        self._plans = plans
        self.rebuilds = 0
        self._build(list(range(len(plans))))

    # ------------------------------------------------------------- build
    def _build(self, members: list[int]) -> None:
        """Flatten ``members``' plans into shared per-depth tensors."""
        plans = [self._plans[m] for m in members]
        offsets = np.zeros(len(plans), dtype=np.intp)
        total = 0
        for i, plan in enumerate(plans):
            offsets[i] = total
            total += plan.num_slots
        # always-zero scratch, read by absent outputs and level padding
        zero_slot = total

        depth = max(len(plan.layers) for plan in plans)
        layers: list[_LayerPlan] = []
        for level in range(depth):
            live = [
                (i, plan.layers[level])
                for i, plan in enumerate(plans)
                if len(plan.layers) > level
            ]
            fan_in = max(
                (layer.sources.shape[1] for _, layer in live), default=0
            )
            total_rows = sum(layer.sources.shape[0] for _, layer in live)
            # one preallocated tensor per level, filled by slice — not a
            # concatenate over hundreds of per-member scratch arrays,
            # which dominated build time for large populations.  Padding
            # columns read the zero slot with weight 0, contributing
            # exactly +0.0 whatever the members' observations hold.
            sources = np.full((total_rows, fan_in), zero_slot, dtype=np.intp)
            weights = np.zeros((total_rows, fan_in))
            biases = np.empty(total_rows)
            slots = np.empty(total_rows, dtype=np.intp)
            act_rows: dict[int, tuple] = {}
            row = 0
            for i, layer in live:
                rows, terms = layer.sources.shape
                block = slice(row, row + rows)
                sources[block, :terms] = layer.sources + offsets[i]
                weights[block, :terms] = layer.weights
                biases[block] = layer.biases
                slots[block] = layer.slots + offsets[i]
                for fn, local_rows in layer.act_groups:
                    bucket = act_rows.setdefault(id(fn), (fn, []))
                    bucket[1].extend(local_rows + row)
                row += rows
            act_groups = [
                (fn, np.array(r, dtype=np.intp))
                for fn, r in act_rows.values()
            ]
            layers.append(
                _LayerPlan(sources, weights, biases, act_groups, slots)
            )

        self._built = list(members)
        self._position = {m: i for i, m in enumerate(members)}
        self._layers = layers
        self._member_inputs = offsets[:, None] + np.arange(self.num_inputs)
        out_index = np.empty((len(plans), self.num_outputs), dtype=np.intp)
        for i, plan in enumerate(plans):
            out_index[i] = np.where(
                plan.output_slots >= 0,
                plan.output_slots + offsets[i],
                zero_slot,
            )
        self._member_outputs = out_index
        self._values = np.zeros(total + 1)
        self._live: list[int] | None = None
        self.rebuilds += 1

    def _select(self, slots: list[int]) -> None:
        """Point the per-tick index arrays at a new live set.

        Rebuilds for the live set when it shrank below
        :attr:`REBUILD_FRACTION` of the built set or holds a member
        the last rebuild left out (a revived slot).
        """
        check_slots(slots, len(self._plans))
        position = self._position
        if len(slots) < self.REBUILD_FRACTION * len(self._built) or any(
            slot not in position for slot in slots
        ):
            self._build(list(slots))
            position = self._position
        rows = [position[slot] for slot in slots]
        self._live = list(slots)
        self._input_index = self._member_inputs[rows].ravel()
        self._output_index = self._member_outputs[rows]

    # ------------------------------------------------------------- infer
    def infer(self, slots: list[int], obs: np.ndarray) -> np.ndarray:
        """One lock-step tick: ``(slots, obs)`` -> one output row per slot."""
        if slots != self._live:
            self._select(slots)
        obs = check_observations(obs, len(slots), self.num_inputs)
        # _values persists across ticks: stale non-input slots are always
        # rewritten before being read (every built member's every node
        # recomputes each tick, built-but-idle members on their last
        # inputs), and the trailing zero_slot is never written, so it
        # stays 0.0 for absent outputs.
        values = self._values
        values[self._input_index] = obs.ravel()
        for layer in self._layers:
            gathered = values[layer.sources]  # (rows, fan_in)
            # one elementwise product, then in-place column accumulation:
            # identical term order (and bits) to the scalar sum loop
            products = gathered * layer.weights
            acc = np.zeros(products.shape[0])
            for term in range(products.shape[1]):
                acc += products[:, term]
            pre = acc + layer.biases
            values[layer.slots] = _apply_activations(layer, pre)
        return values[self._output_index]


def vectorize(net: FeedForwardNetwork) -> VectorizedNetwork:
    """Compile a decoded network for batch evaluation."""
    return VectorizedNetwork(net)
