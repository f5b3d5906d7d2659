"""The NEAT genome: a sequence of node and connection genes (Table II).

A genome describes one complete irregular feed-forward network.  This
module owns structural and parametric mutation ("Mutate" in Table III)
and the compatibility distance speciation uses.  Crossover lives in
:mod:`repro.neat.crossover`; decoding to an executable network
("CreateNet") lives in :mod:`repro.neat.network`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.neat.config import NEATConfig
from repro.neat.draws import Draws
from repro.neat.genes import (
    ConnectionGene,
    MutationRules,
    NodeGene,
    mutation_rules,
)
from repro.neat.innovation import InnovationTracker

__all__ = ["Genome", "creates_cycle", "signature_digest"]

#: A genome's connection genes keyed by innovation number, plus the
#: largest number (-1 without connections).
InnovationIndex = tuple[dict[int, ConnectionGene], int]


def signature_digest(signature: tuple) -> str:
    """The SHA-256 hex digest of a :meth:`Genome.shape_signature`: one
    ``n|key|activation|aggregation`` line per node, then one
    ``c|in|out`` line per enabled connection."""
    text = "".join(
        [
            f"n|{entry[0]}|{entry[1]}|{entry[2]}\n"
            if len(entry) == 3
            else f"c|{entry[0]}|{entry[1]}\n"
            for entry in signature
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def creates_cycle(
    connections: Iterable[tuple[int, int]], candidate: tuple[int, int]
) -> bool:
    """Would adding ``candidate`` to ``connections`` create a cycle?

    The networks E3 evolves are feed-forward ("Evolution generates
    irregular feed-forward MLP NNs", §IV-E), so every add-connection
    mutation must be rejected if it closes a loop.  Checks reachability
    of the candidate's source from its destination.
    """
    src, dst = candidate
    if src == dst:
        return True
    adjacency: dict[int, list[int]] = {}
    for a, b in connections:
        adjacency.setdefault(a, []).append(b)
    visited = {dst}
    frontier = [dst]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt == src:
                return True
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return False


@dataclass
class Genome:
    """One individual: genes describing a complete irregular NN."""

    key: int
    nodes: dict[int, NodeGene] = field(default_factory=dict)
    connections: dict[tuple[int, int], ConnectionGene] = field(default_factory=dict)
    fitness: float | None = None

    # ------------------------------------------------------ construction
    @classmethod
    def initial(
        cls,
        key: int,
        config: NEATConfig,
        tracker: InnovationTracker,
        rng: Draws,
    ) -> "Genome":
        """A generation-0 genome: inputs wired (fully or partially)
        straight to outputs, no hidden nodes (paper §VI-C: "start with
        no hidden nodes")."""
        genome = cls(key=key)
        for out_key in config.output_keys:
            genome.nodes[out_key] = NodeGene.random(out_key, config, rng)
        for in_key in config.input_keys:
            for out_key in config.output_keys:
                if (
                    config.initial_connection_fraction >= 1.0
                    or rng.random() < config.initial_connection_fraction
                ):
                    conn_key = (in_key, out_key)
                    genome.connections[conn_key] = ConnectionGene.random(
                        conn_key,
                        tracker.connection_innovation(conn_key),
                        config,
                        rng,
                    )
        return genome

    def copy(self, new_key: int | None = None) -> "Genome":
        clone = Genome(key=self.key if new_key is None else new_key)
        clone.nodes = {k: g.copy() for k, g in self.nodes.items()}
        clone.connections = {k: g.copy() for k, g in self.connections.items()}
        clone.fitness = self.fitness
        return clone

    # ------------------------------------------------------------- sizes
    def num_nodes(self, config: NEATConfig) -> int:
        """Total node count including input nodes (Table V convention)."""
        return config.num_inputs + len(self.nodes)

    def num_hidden(self, config: NEATConfig) -> int:
        """Hidden-node count (hidden keys start at ``num_outputs``)."""
        return sum(1 for k in self.nodes if k >= config.num_outputs)

    @property
    def num_connections(self) -> int:
        return len(self.connections)

    @property
    def num_enabled_connections(self) -> int:
        return sum(1 for c in self.connections.values() if c.enabled)

    def size(self, config: NEATConfig) -> tuple[int, int]:
        """(nodes, enabled connections) — the Table V complexity pair."""
        return self.num_nodes(config), self.num_enabled_connections

    # ------------------------------------------------------------ hashing
    def structural_hash(self) -> str:
        """SHA-256 digest of everything that shapes the decoded network.

        Covers every node's (key, bias, activation, aggregation) and
        every connection's (endpoints, weight, enabled) — the full input
        of ``CreateNet`` — but **not** ``key``, ``fitness`` or innovation
        numbers, so an elite copied unchanged across generations hashes
        identically: equal hashes ⇒ bit-identical decoded networks
        under one config.  Floats hash by exact bit pattern
        (``float.hex``), matching the bit-for-bit evaluation guarantees.
        """
        hasher = hashlib.sha256()
        for key in sorted(self.nodes):
            node = self.nodes[key]
            hasher.update(
                f"n|{key}|{float(node.bias).hex()}|{node.activation}"
                f"|{node.aggregation}\n".encode()
            )
        for key in sorted(self.connections):
            conn = self.connections[key]
            hasher.update(
                f"c|{conn.in_node}|{conn.out_node}|{float(conn.weight).hex()}"
                f"|{int(conn.enabled)}\n".encode()
            )
        return hasher.hexdigest()

    def shape_signature(self) -> tuple:
        """The genome's *topology signature*: each node's ``(key,
        activation, aggregation)``, sorted by key, then every **enabled**
        connection's key, sorted.

        Equal signatures are equal topologies, exactly, so the compile
        cache keys on this tuple; :meth:`shape_key` is its digest.
        """
        nodes = self.nodes
        connections = self.connections
        return tuple(
            [
                (key, (node := nodes[key]).activation, node.aggregation)
                for key in sorted(nodes)
            ]
            + [key for key in sorted(connections) if connections[key].enabled]
        )

    def shape_key(self) -> str:
        """SHA-256 digest of the genome's topology signature
        (:meth:`shape_signature`) — the weights-excluded companion of
        :meth:`structural_hash`.

        Covers every node's (key, activation, aggregation) and every
        **enabled** connection's endpoints, but *not* biases, weights,
        or disabled connections.  Those are exactly the inputs that
        determine the decoded network's *structure* under one config:
        ``required_nodes`` pruning walks enabled endpoints, ASAP
        layering depends only on the dependency graph, and each node's
        ingress order (``sorted`` by unique source key) is
        weight-independent.  Hence the contract the structural-batching
        compiler (:mod:`repro.compile`) relies on:

        * equal ``structural_hash()`` ⇒ equal ``shape_key()``;
        * equal ``shape_key()`` ⇒ identical decoded layering, ingress
          slots, activations, and vectorizability — the two genomes
          differ at most in weight/bias *values*, so they can share one
          compiled structure with per-member parameter vectors.

        Weight-only mutation (by far the most common NEAT mutation)
        preserves the shape key, which is why a shape-keyed compile
        cache keeps hitting where a cache keyed on
        :meth:`structural_hash` would miss.
        """
        return signature_digest(self.shape_signature())

    # ---------------------------------------------------------- mutation
    def mutate(
        self,
        config: NEATConfig,
        tracker: InnovationTracker,
        rng: Draws,
        rules: MutationRules | None = None,
    ) -> None:
        """Apply structural then parametric mutation in place.

        ``rules`` are :func:`~repro.neat.genes.mutation_rules` over
        ``rng``; a caller that mutates many genomes builds them once.
        """
        random = rng.random
        if random() < config.node_add_rate:
            self.mutate_add_node(config, tracker, rng)
        if random() < config.node_delete_rate:
            self.mutate_delete_node(config, rng)
        if random() < config.conn_add_rate:
            self.mutate_add_connection(config, tracker, rng)
        if random() < config.conn_delete_rate:
            self.mutate_delete_connection(rng)
        mutate_node, mutate_weight = rules or mutation_rules(config, rng)
        for node in self.nodes.values():
            mutate_node(node)
        enable_rate = config.enable_mutate_rate
        for conn in self.connections.values():
            conn.weight = mutate_weight(conn.weight)
            if not conn.enabled and random() < enable_rate:
                conn.enabled = True

    def mutate_add_connection(
        self,
        config: NEATConfig,
        tracker: InnovationTracker,
        rng: Draws,
    ) -> bool:
        """Add one new connection; returns True if a connection was added.

        Sources may be inputs, hidden, or output nodes; destinations may
        be hidden or output nodes.  Cycles are rejected so the network
        stays feed-forward, which is what makes the "irregular links
        across layers" of Fig 4(a)(c) — but never recurrence.
        """
        sources = list(config.input_keys) + list(self.nodes)
        destinations = list(self.nodes)
        rng.shuffle(sources)
        rng.shuffle(destinations)
        existing = set(self.connections)
        for src in sources:
            for dst in destinations:
                key = (src, dst)
                if src == dst or key in existing:
                    continue
                if creates_cycle(existing, key):
                    continue
                self.connections[key] = ConnectionGene.random(
                    key, tracker.connection_innovation(key), config, rng
                )
                return True
        return False

    def mutate_delete_connection(self, rng: Draws) -> bool:
        """Remove a random connection; returns True if one was removed."""
        if not self.connections:
            return False
        keys = sorted(self.connections)
        key = keys[int(rng.integers(len(keys)))]
        del self.connections[key]
        return True

    def mutate_add_node(
        self,
        config: NEATConfig,
        tracker: InnovationTracker,
        rng: Draws,
    ) -> bool:
        """Split an enabled connection with a new hidden node.

        The classic NEAT split: the old connection is disabled, the
        in-half gets weight 1.0, the out-half inherits the old weight, so
        the network's function is (nearly) preserved at the moment of the
        structural change.
        """
        enabled = [c for c in self.connections.values() if c.enabled]
        if not enabled:
            return False
        enabled.sort(key=lambda c: c.key)
        conn = enabled[int(rng.integers(len(enabled)))]
        new_key = tracker.node_for_split(conn.key)
        if new_key in self.nodes:
            # this genome already split this connection this generation
            return False
        conn.enabled = False
        self.nodes[new_key] = NodeGene.random(new_key, config, rng)
        first = (conn.in_node, new_key)
        second = (new_key, conn.out_node)
        self.connections[first] = ConnectionGene(
            first, 1.0, True, tracker.connection_innovation(first)
        )
        self.connections[second] = ConnectionGene(
            second, conn.weight, True, tracker.connection_innovation(second)
        )
        return True

    def mutate_delete_node(
        self, config: NEATConfig, rng: Draws
    ) -> bool:
        """Remove a random hidden node and its incident connections."""
        output_keys = set(config.output_keys)
        hidden = sorted(k for k in self.nodes if k not in output_keys)
        if not hidden:
            return False
        victim = hidden[int(rng.integers(len(hidden)))]
        del self.nodes[victim]
        for key in [k for k in self.connections if victim in k]:
            del self.connections[key]
        return True

    # ---------------------------------------------------------- distance
    def distance(self, other: "Genome", config: NEATConfig) -> float:
        """NEAT compatibility distance.

        ``c1*E/N + c2*D/N + c3*W`` with excess/disjoint split by
        innovation number and W the mean attribute distance of matching
        genes (connections and nodes).
        """
        return compatibility(
            self, self.innovation_index(), other, other.innovation_index(), config
        )

    def innovation_index(self) -> InnovationIndex:
        """This genome's connections by innovation number (see
        :func:`compatibility`)."""
        by_innovation = {c.innovation: c for c in self.connections.values()}
        return by_innovation, max(by_innovation, default=-1)

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the genome.

        Genes are emitted in the genome's live insertion order, NOT
        sorted: crossover and mutation iterate the gene dicts in that
        order while consuming the population RNG, so a checkpoint that
        re-sorted genes would silently change every post-resume RNG
        draw and fork the resumed trajectory away from the continuous
        one.  ``from_dict`` preserves file order, making
        live -> dict -> live an exact round trip.
        """
        return {
            "key": self.key,
            "fitness": self.fitness,
            "nodes": [
                {
                    "key": n.key,
                    "bias": n.bias,
                    "activation": n.activation,
                    "aggregation": n.aggregation,
                }
                for n in self.nodes.values()
            ],
            "connections": [
                {
                    "in": c.in_node,
                    "out": c.out_node,
                    "weight": c.weight,
                    "enabled": c.enabled,
                    "innovation": c.innovation,
                }
                for c in self.connections.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Genome":
        genome = cls(key=data["key"], fitness=data.get("fitness"))
        for n in data["nodes"]:
            genome.nodes[n["key"]] = NodeGene(
                n["key"], n["bias"], n["activation"], n["aggregation"]
            )
        for c in data["connections"]:
            key = (c["in"], c["out"])
            genome.connections[key] = ConnectionGene(
                key, c["weight"], c["enabled"], c["innovation"]
            )
        return genome

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Genome(key={self.key}, nodes={len(self.nodes)}, "
            f"connections={len(self.connections)}, fitness={self.fitness})"
        )


def compatibility(
    a: Genome,
    a_index: InnovationIndex,
    b: Genome,
    b_index: InnovationIndex,
    config: NEATConfig,
) -> float:
    """``a.distance(b, config)`` given both genomes' innovation indexes.

    :class:`~repro.neat.species.SpeciesSet` builds each genome's index
    once per speciation pass and calls this directly; the argument order
    is part of the result, as in ``a.distance(b)``.
    """
    return _connection_distance(a_index, b_index, config) + _node_distance(
        a.nodes, b.nodes, config
    )


def _connection_distance(
    a_index: InnovationIndex, b_index: InnovationIndex, config: NEATConfig
) -> float:
    mine, max_mine = a_index
    theirs, max_theirs = b_index
    if not mine and not theirs:
        return 0.0
    boundary = min(max_mine, max_theirs)
    mine_get, theirs_get = mine.get, theirs.get
    matching, weight_diff = 0, 0.0
    disjoint, excess = 0, 0
    # DET004 reviewed: the union's order is a fixed function of both
    # dicts' insertion order and sets the order the weight differences
    # are summed in; sorting it could change the distance's bits and so
    # species assignments (pinned by tests/neat/test_evolve_golden.py)
    for innovation in mine.keys() | theirs.keys():  # repro: noqa[DET004]
        a, b = mine_get(innovation), theirs_get(innovation)
        if a is not None and b is not None:
            matching += 1
            weight_diff += a.distance(b)
        elif innovation <= boundary:
            disjoint += 1
        else:
            excess += 1
    n = max(len(mine), len(theirs), 1)
    dist = (
        config.excess_coefficient * excess / n
        + config.disjoint_coefficient * disjoint / n
    )
    if matching:
        dist += config.weight_coefficient * weight_diff / matching
    return dist


def _node_distance(
    mine: dict[int, NodeGene], theirs: dict[int, NodeGene], config: NEATConfig
) -> float:
    if not mine and not theirs:
        return 0.0
    mine_get, theirs_get = mine.get, theirs.get
    matching, attr_diff = 0, 0.0
    disjoint = 0
    # DET004 reviewed: same order argument as in _connection_distance
    for key in mine.keys() | theirs.keys():  # repro: noqa[DET004]
        a, b = mine_get(key), theirs_get(key)
        if a is not None and b is not None:
            matching += 1
            attr_diff += a.distance(b)
        else:
            disjoint += 1
    n = max(len(mine), len(theirs), 1)
    dist = config.disjoint_coefficient * disjoint / n
    if matching:
        dist += config.weight_coefficient * attr_diff / matching
    return dist
