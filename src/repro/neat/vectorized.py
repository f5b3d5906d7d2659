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
(:class:`repro.compile.CompiledPopulationEvaluator`), and
:meth:`PopulationEvaluator.from_plans` builds one straight from decoded
networks' plans; both lay a generation out the same way, one shape
template per distinct topology (:class:`_ShapePlan`) and one parameter
vector per member.

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
from itertools import accumulate, chain

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


class _ShapePlan:
    """One shape's rows on the engine, flat per level and member-relative.

    A member-relative slot indexes one member's value buffer: its
    inputs, then every node in level order, then one always-zero slot
    (``num_slots - 1``).  ``levels`` holds, per depth, the rows'
    fan-ins, the source slots of every ingress term (row after row, in
    ingress order) and the rows' activation codes, then the level's
    first node slot and first weight position.  A row's node slot and
    its bias position follow from its place in the level, because a
    member's parameter vector holds every bias in node order, then
    every weight in row and ingress order (the order
    :meth:`repro.compile.CompiledStructure.parameters` reads them in).

    ``layers`` lists each depth's rows as ``(key, activation,
    aggregation, sources)``, sources in ingress order.  Raises
    ``ValueError`` for a row the engine cannot run.
    """

    __slots__ = ("num_inputs", "num_outputs", "num_slots", "output_slots",
                 "levels")

    def __init__(self, input_keys, output_keys, layers):
        slot_of = {key: slot for slot, key in enumerate(input_keys)}
        slot = len(slot_of)
        weight = sum(map(len, layers))
        self.levels = []
        for layer in layers:
            fans, sources, codes = [], [], []
            for key, activation, aggregation, row_sources in layer:
                if aggregation != "sum":
                    raise ValueError(
                        f"vectorization supports 'sum' aggregation only; "
                        f"node {key} uses {aggregation!r}"
                    )
                code = _ACTIVATION_CODES.get(activation)
                if code is None:
                    raise ValueError(
                        f"no vectorized activation {activation!r}"
                    )
                fans.append(len(row_sources))
                sources += map(slot_of.__getitem__, row_sources)
                codes.append(code)
            self.levels.append((fans, sources, codes, slot, weight))
            for row in layer:
                slot_of[row[0]] = slot
                slot += 1
            weight += len(sources)
        self.num_inputs = len(input_keys)
        self.num_outputs = len(output_keys)
        self.num_slots = slot + 1
        self.output_slots = [slot_of.get(key, -1) for key in output_keys]


class _NetPlan:
    """One decoded network on the engine: its shape and its parameters."""

    __slots__ = ("shape", "parameters")

    def __init__(self, net: FeedForwardNetwork):
        evals = [
            [net.node_evals[key] for key in layer] for layer in net.layers
        ]
        self.shape = _ShapePlan(
            net.input_keys,
            net.output_keys,
            [
                [
                    (node.key, node.activation, node.aggregation,
                     [src for src, _ in node.ingress])
                    for node in layer
                ]
                for layer in evals
            ],
        )
        nodes = [node for layer in evals for node in layer]
        self.parameters = np.array(
            [node.bias for node in nodes]
            + [weight for node in nodes for _, weight in node.ingress],
            dtype=np.float64,
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

    Built with a fixed number of NumPy calls, whatever the number of
    shapes: the distinct shapes' rows at this depth are laid one after
    another as padded templates, and every member's rows are gathered
    from them, its weights and biases from its parameter vector.
    ``sources`` and ``slots`` index the member's own value buffer, so
    any subset of members lays out by adding its offsets; padding
    beyond a row's fan-in reads the member's own zero slot with weight
    ``0.0``.  ``member`` and ``terms`` give each row's member and
    fan-in.
    """

    __slots__ = ("sources", "weights", "biases", "codes", "slots",
                 "member", "terms")

    def __init__(self, shapes, level, shape_of, parameters, starts):
        levels = [
            shape.levels[level] if level < len(shape.levels) else _ABSENT
            for shape in shapes
        ]
        # per shape: rows, ingress terms, first slot, first weight, and
        # its members' zero slot
        rows, terms, first_slot, first_weight, zero = np.array(
            [
                (len(codes), len(sources), slot, weight, shape.num_slots - 1)
                for (_, sources, codes, slot, weight), shape in zip(
                    levels, shapes
                )
            ],
            dtype=np.intp,
        ).T
        # the shapes' rows one after another, padded to the widest
        fans = _flat(levels, 0)
        width = int(fans.max())
        real = np.arange(width) < fans[:, None]
        template_sources = np.repeat(np.repeat(zero, rows), width).reshape(
            real.shape
        )
        template_sources[real] = _flat(levels, 1)
        template_weights = np.full(real.shape, -1, dtype=np.intp)
        template_weights[real] = np.arange(terms.sum()) + np.repeat(
            first_weight - (np.cumsum(terms) - terms), terms
        )

        # every member's rows, gathered from its shape's
        count = rows[shape_of]
        member = np.repeat(np.arange(len(count)), count)
        shape = shape_of[member]
        # each row's place among its member's rows at this depth
        local = np.arange(len(member)) - (np.cumsum(count) - count)[member]
        row = local + (np.cumsum(rows) - rows)[shape]
        self.slots = local + first_slot[shape]
        base = starts[member]
        at = template_weights[row]
        self.weights = parameters[at + base[:, None]]
        self.weights[at < 0] = 0.0
        self.biases = parameters[self.slots - shapes[0].num_inputs + base]
        self.sources = template_sources[row]
        self.codes = _flat(levels, 2)[row]
        self.member = member
        self.terms = fans[row]


#: the level of a shape that is not this deep
_ABSENT = ([], [], [], 0, 0)


def _flat(levels: list, field: int) -> np.ndarray:
    """One per-row or per-term list of every level, back to back."""
    return np.fromiter(
        chain.from_iterable([level[field] for level in levels]), np.intp
    )


class PopulationEvaluator:
    """Lock-step inference over many compiled networks at once.

    All member networks' value buffers concatenate into one flat vector;
    each "layer" of the population (every member's nodes at that depth)
    evaluates with a handful of NumPy ops regardless of population size.
    This is what makes software evaluation of a NEAT generation cheap:
    the per-step cost is a few microseconds per *population*, not per
    individual.

    Each member runs one shape (:class:`_ShapePlan`) with its own
    parameter vector, and the evaluator keeps every member's rows in
    per-depth tables, built with a fixed number of NumPy calls per
    depth however many shapes the members run.  The flat tensors a tick
    runs on are laid out from those tables for the current live set.

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

    def __init__(
        self,
        shapes: "list[_ShapePlan]",
        shape_of: list[int],
        parameters: np.ndarray,
        starts: list[int],
    ):
        """Members ``0..N-1``: member ``m`` runs ``shapes[shape_of[m]]``
        with its parameter vector at ``parameters[starts[m]:]``."""
        if not shapes:
            raise ValueError("PopulationEvaluator needs at least one network")
        num_inputs = {shape.num_inputs for shape in shapes}
        num_outputs = {shape.num_outputs for shape in shapes}
        if len(num_inputs) != 1 or len(num_outputs) != 1:
            raise ValueError(
                "all member networks must share input/output arity; got "
                f"inputs {sorted(num_inputs)}, outputs {sorted(num_outputs)}"
            )
        self.num_inputs = num_inputs.pop()
        self.num_outputs = num_outputs.pop()
        shape_of = np.asarray(shape_of, dtype=np.intp)
        starts = np.asarray(starts, dtype=np.intp)
        self._sizes = np.array(
            [shape.num_slots for shape in shapes], dtype=np.intp
        )[shape_of]
        self._outputs = np.array(
            [shape.output_slots for shape in shapes], dtype=np.intp
        ).reshape(len(shapes), self.num_outputs)[shape_of]
        depth = max(len(shape.levels) for shape in shapes)
        self._tables = [
            _LevelTable(shapes, level, shape_of, parameters, starts)
            for level in range(depth)
        ]
        self.rebuilds = 0
        self._layout(list(range(len(shape_of))))

    @classmethod
    def from_plans(cls, plans: "list[_NetPlan]") -> "PopulationEvaluator":
        """One member per plan, each its own shape."""
        plans = list(plans)
        sizes = [len(plan.parameters) for plan in plans]
        return cls(
            [plan.shape for plan in plans],
            range(len(plans)),
            np.concatenate([plan.parameters for plan in plans] or [[]]),
            [0, *accumulate(sizes)][:-1],
        )

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
