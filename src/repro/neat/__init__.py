"""NEAT substrate: Neuro-Evolution of Augmenting Topologies, from scratch.

Implements the algorithm of Stanley & Miikkulainen [42] as profiled by
the paper (§II-C, §III-B): genomes of node/connection genes with global
innovation numbers, structural and parametric mutation, gene-aligned
crossover, speciation with fitness sharing and stagnation, and the
CreateNet decoder that turns a genome into an executable irregular
feed-forward network.
"""

from repro.neat.activations import activations, aggregations
from repro.neat.checkpoint import (
    load_checkpoint,
    population_from_dict,
    save_checkpoint,
)
from repro.neat.config import NEATConfig
from repro.neat.crossover import crossover
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, creates_cycle
from repro.neat.innovation import InnovationTracker
from repro.neat.network import FeedForwardNetwork, NodeEval, required_nodes
from repro.neat.population import GenerationStats, Population, RunResult
from repro.neat.reporters import (
    ConsoleReporter,
    CSVReporter,
    Reporter,
    ReporterSet,
)
from repro.neat.reproduction import Reproduction, allocate_offspring
from repro.neat.species import Species, SpeciesSet
from repro.neat.validate import (
    GenomeValidationError,
    iter_violations,
    validate_genome,
)
from repro.neat.vectorized import PopulationEvaluator

__all__ = [
    "CSVReporter",
    "ConnectionGene",
    "ConsoleReporter",
    "FeedForwardNetwork",
    "GenerationStats",
    "Genome",
    "GenomeValidationError",
    "InnovationTracker",
    "NEATConfig",
    "NodeEval",
    "NodeGene",
    "Population",
    "PopulationEvaluator",
    "Reporter",
    "ReporterSet",
    "Reproduction",
    "RunResult",
    "Species",
    "SpeciesSet",
    "activations",
    "aggregations",
    "allocate_offspring",
    "creates_cycle",
    "crossover",
    "iter_violations",
    "load_checkpoint",
    "population_from_dict",
    "required_nodes",
    "save_checkpoint",
    "validate_genome",
]
