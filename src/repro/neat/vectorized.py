"""Vectorized batch evaluation of decoded networks.

The interpreted per-node forward pass (:class:`FeedForwardNetwork`) is
the *reference* — INAX's PEs match it bit-for-bit.  For software-side
throughput (the ``cpu-compiled`` backend, and the one lock-step pass
per generation the ``inax`` and ``fabric`` backends run before their
devices replay the cycle accounting), this module compiles the same
layered plan into padded per-layer index/weight matrices and replays
the reference computation with NumPy:

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

:class:`PopulationEvaluator` runs many such plans in lock-step, one
observation each, flattened into a single value buffer so a whole
population's forward pass costs a handful of NumPy ops per layer.  It
is the inference engine behind every compiled backend
(:class:`repro.compile.CompiledPopulationEvaluator`, through
:meth:`PopulationEvaluator.from_groups`);
:meth:`PopulationEvaluator.from_plans` builds one straight from
compiled plans.

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

import math

import numpy as np

from repro.envs.rollout import check_observations, check_slots
from repro.neat.activations import aggregations
from repro.neat.network import FeedForwardNetwork

__all__ = ["PopulationEvaluator"]


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


_ACTIVATION_FNS = tuple(_VECTOR_ACTIVATIONS.values())
#: activation name -> per-row code, an index into ``_ACTIVATION_FNS``
_ACTIVATION_CODES = {name: code for code, name in enumerate(_VECTOR_ACTIVATIONS)}


def _act_groups(codes: np.ndarray) -> list:
    """``(fn, rows)`` for each activation present in per-row ``codes``.

    ``rows`` is ``None`` when a single activation covers every row.
    Counting codes with ``np.bincount`` (rather than ``np.unique``,
    which imports ``numpy.ma`` on first use) keeps this cheap.
    """
    present = np.flatnonzero(
        np.bincount(codes, minlength=len(_ACTIVATION_FNS))
    )
    if len(present) == 1:
        return [(_ACTIVATION_FNS[present[0]], None)]
    return [
        (_ACTIVATION_FNS[code], np.flatnonzero(codes == code))
        for code in present
    ]


class _LayerPlan:
    """One layer's padded execution plan over the flat value buffer.

    ``sources``/``weights`` are ``(rows, max_fan_in)``; rows with fewer
    ingress terms are padded with ``(zero slot, weight 0.0)`` entries so
    a layer evaluates with dense array ops.  ``codes`` holds each row's
    activation code and ``act_groups`` maps each distinct activation to
    the row indices using it.
    """

    __slots__ = ("sources", "weights", "biases", "codes", "act_groups",
                 "slots")

    def __init__(self, sources, weights, biases, codes, slots):
        self.sources = sources
        self.weights = weights
        self.biases = biases
        self.codes = codes
        self.act_groups = _act_groups(codes)
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
            codes = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                plan = net.node_evals[key]
                biases[row] = plan.bias
                codes[row] = _ACTIVATION_CODES[plan.activation]
                for term, (src, w) in enumerate(plan.ingress):
                    sources[row, term] = index[src]
                    weights[row, term] = w
            slots = np.empty(rows, dtype=np.intp)
            for row, key in enumerate(layer):
                index[key] = len(index)
                slots[row] = index[key]
            self.layers.append(
                _LayerPlan(sources, weights, biases, codes, slots)
            )
        self.num_slots = zero_slot + 1
        self.output_slots = np.array(
            [index.get(k, -1) for k in net.output_keys], dtype=np.intp
        )


def _accumulate(products: np.ndarray) -> np.ndarray:
    """Sum ``products`` over its last axis, term by term in ingress order.

    One in-place column add per term: the interpreted ``sum``'s order,
    so the same bits.  The one thing NumPy does differently is which
    NaN survives when two NaNs meet: the interpreted ``sum`` keeps the
    first NaN it produces, NumPy's add may keep either operand's, and
    the two can differ in sign.  So a NaN row (a sensor fault reached
    it) is summed again with the interpreted aggregation itself.
    """
    acc = np.zeros(products.shape[:-1])
    for term in range(products.shape[-1]):
        acc += products[..., term]
    flat = acc.reshape(-1)
    if math.isnan(flat @ flat):  # cheaper than isnan().any(); inf**2 is inf
        rows = products.reshape(len(flat), -1)
        interpreted_sum = aggregations.get("sum")
        for row in np.flatnonzero(np.isnan(flat)):
            flat[row] = interpreted_sum(rows[row].tolist())
    return acc


def _apply_activations(layer: _LayerPlan, pre: np.ndarray) -> np.ndarray:
    """Apply per-row activations along the last axis of ``pre``."""
    if len(layer.act_groups) == 1:
        return layer.act_groups[0][0](pre)
    out = np.empty_like(pre)
    for fn, rows in layer.act_groups:
        out[..., rows] = fn(pre[..., rows])
    return out


class _LevelTable:
    """Every member's rows at one depth, with member-relative slots.

    ``sources`` and ``slots`` index a member's own value buffer (its
    plan's slots), so any subset of members lays out by adding its
    offsets; level padding beyond a shape's own fan-in reads the
    member's own zero slot with weight ``0.0``.  ``member`` and
    ``terms`` give each row's member and its shape's fan-in width.
    """

    __slots__ = ("sources", "weights", "biases", "codes", "slots",
                 "member", "terms")

    def __init__(self, groups: list, level: int):
        present = [group for group in groups if len(group[0].layers) > level]
        total = sum(
            len(members) * plan.layers[level].sources.shape[0]
            for plan, members, _, _ in present
        )
        width = max(plan.layers[level].sources.shape[1] for plan, *_ in present)
        self.sources = np.empty((total, width), dtype=np.intp)
        self.weights = np.zeros((total, width))
        self.biases = np.empty(total)
        self.codes = np.empty(total, dtype=np.intp)
        self.slots = np.empty(total, dtype=np.intp)
        self.member = np.empty(total, dtype=np.intp)
        self.terms = np.empty(total, dtype=np.intp)
        row = 0
        for plan, members, weights, biases in present:
            layer = plan.layers[level]
            rows, terms = layer.sources.shape
            count = len(members)
            block = slice(row, row + count * rows)
            # one broadcast per shape: its shared structure rows repeat
            # for every member, its parameter blocks copy in as they are
            sources = self.sources[block].reshape(count, rows, width)
            sources[:, :, :terms] = layer.sources
            sources[:, :, terms:] = plan.num_slots - 1
            self.weights[block].reshape(count, rows, width)[
                :, :, :terms
            ] = weights[level]
            self.biases[block] = biases[level].reshape(-1)
            self.codes[block].reshape(count, rows)[:] = layer.codes
            self.slots[block].reshape(count, rows)[:] = layer.slots
            self.member[block] = np.repeat(members, rows)
            self.terms[block] = terms
            row = block.stop


class PopulationEvaluator:
    """Lock-step inference over many compiled networks at once.

    All member networks' value buffers concatenate into one flat vector;
    each "layer" of the population (every member's nodes at that depth)
    evaluates with a handful of NumPy ops regardless of population size.
    This is what makes software evaluation of a NEAT generation cheap:
    the per-step cost is a few microseconds per *population*, not per
    individual.

    Members arrive in *groups* that share one plan's structure (see
    :meth:`from_groups`), and the evaluator keeps every member's rows in
    per-depth tables built once, one broadcast per group and depth.
    The flat tensors a tick runs on are laid out from those tables for
    the current live set.

    The interface mirrors the INAX device's scatter/infer/gather step:
    :meth:`infer` is an :data:`repro.envs.rollout.InferFn`, taking the
    ascending still-alive slots and their ``(len(slots), num_inputs)``
    observation block and returning one output row per slot.  When
    episodes terminate and the alive set shrinks past a threshold, the
    flat tensors are laid out again for the survivors alone, by
    gathering their rows from the tables, so dead individuals stop
    costing inference work (the software analogue of the paper's
    idle-PU effect).  A member left out of a rebuild may come back
    later; that rebuilds again the same way.
    """

    #: rebuild the flattened tensors once the alive set falls below this
    #: fraction of the currently built set
    REBUILD_FRACTION = 0.6

    @classmethod
    def from_plans(cls, plans: "list[_NetPlan]") -> "PopulationEvaluator":
        """Build directly from compiled plans, each its own group."""
        evaluator = cls.__new__(cls)
        evaluator._init_groups(_single_groups(list(plans)))
        return evaluator

    @classmethod
    def from_groups(cls, groups: list) -> "PopulationEvaluator":
        """Build from per-shape parameter blocks.

        Each group is ``(plan, members, weights, biases)``: a plan whose
        structure (``sources``, ``slots``, activation codes) all of the
        group's members share, the ascending member indices, and one
        ``(B, rows, terms)`` weight block and ``(B, rows)`` bias block
        per plan layer, row ``b`` holding ``members[b]``'s parameters.
        Together the groups' members must be exactly ``0..N-1``.
        """
        evaluator = cls.__new__(cls)
        evaluator._init_groups(list(groups))
        return evaluator

    def _init_groups(self, groups: list) -> None:
        if not groups:
            raise ValueError("PopulationEvaluator needs at least one network")
        num_inputs = {plan.num_inputs for plan, *_ in groups}
        num_outputs = {plan.num_outputs for plan, *_ in groups}
        if len(num_inputs) != 1 or len(num_outputs) != 1:
            raise ValueError(
                "all member networks must share input/output arity; got "
                f"inputs {sorted(num_inputs)}, outputs {sorted(num_outputs)}"
            )
        self.num_inputs = num_inputs.pop()
        self.num_outputs = num_outputs.pop()
        count = sum(len(members) for _, members, _, _ in groups)
        self._sizes = np.empty(count, dtype=np.intp)
        self._outputs = np.empty((count, self.num_outputs), dtype=np.intp)
        for plan, members, _, _ in groups:
            self._sizes[members] = plan.num_slots
            self._outputs[members] = plan.output_slots
        depth = max(len(plan.layers) for plan, *_ in groups)
        self._tables = [_LevelTable(groups, level) for level in range(depth)]
        self.rebuilds = 0
        self._layout(list(range(count)))

    # ------------------------------------------------------------ layout
    def _layout(self, members: list[int]) -> None:
        """Lay the flat tensors out for ``members`` (ascending).

        Gathers the members' rows from the level tables and re-bases
        their slots onto a value buffer holding only these members.
        Columns that are padding for every gathered row are trimmed;
        each adds an exact ``+0.0``, so the bits do not move.
        """
        live = np.asarray(members, dtype=np.intp)
        sizes = self._sizes[live]
        starts = np.cumsum(sizes) - sizes
        # always-zero scratch after the last member, read by absent outputs
        zero_slot = int(starts[-1] + sizes[-1])
        offsets = np.zeros(len(self._sizes), dtype=np.intp)
        offsets[live] = starts
        keep = np.zeros(len(self._sizes), dtype=bool)
        keep[live] = True
        layers: list[_LayerPlan] = []
        for table in self._tables:
            rows = np.flatnonzero(keep[table.member])
            if not len(rows):
                continue
            base = offsets[table.member[rows]]
            width = int(table.terms[rows].max())
            layers.append(
                _LayerPlan(
                    table.sources[rows, :width] + base[:, None],
                    table.weights[rows, :width],
                    table.biases[rows],
                    table.codes[rows],
                    table.slots[rows] + base,
                )
            )
        local = self._outputs[live]
        self._built = list(members)
        self._position = {m: i for i, m in enumerate(members)}
        self._layers = layers
        self._member_inputs = starts[:, None] + np.arange(self.num_inputs)
        self._member_outputs = np.where(
            local >= 0, local + starts[:, None], zero_slot
        )
        self._values = np.zeros(zero_slot + 1)
        self._live: list[int] | None = None
        self.rebuilds += 1

    def _select(self, slots: list[int]) -> None:
        """Point the per-tick index arrays at a new live set.

        Rebuilds for the live set when it shrank below
        :attr:`REBUILD_FRACTION` of the built set or holds a member
        the last rebuild left out (a revived slot).
        """
        check_slots(slots, len(self._sizes))
        position = self._position
        if len(slots) < self.REBUILD_FRACTION * len(self._built) or any(
            slot not in position for slot in slots
        ):
            self._layout(list(slots))
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
        # inputs), and zero slots are never written, so they stay 0.0
        # for padding terms and absent outputs.
        values = self._values
        values[self._input_index] = obs.ravel()
        for layer in self._layers:
            gathered = values[layer.sources]  # (rows, fan_in)
            pre = _accumulate(gathered * layer.weights) + layer.biases
            values[layer.slots] = _apply_activations(layer, pre)
        return values[self._output_index]


def _single_groups(plans: "list[_NetPlan]") -> list:
    """One group per plan: its own parameters as one-member blocks."""
    return [
        (
            plan,
            [member],
            [layer.weights[None] for layer in plan.layers],
            [layer.biases[None] for layer in plan.layers],
        )
        for member, plan in enumerate(plans)
    ]
