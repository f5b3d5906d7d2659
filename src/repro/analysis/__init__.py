"""Analysis: the profiling and topology statistics of §III and Fig 4."""

from repro.analysis.convergence import normalize_fitness, random_policy_baseline
from repro.analysis.render import render_network, sparkline
from repro.analysis.timing_profile import (
    neat_profile,
    normalized_platform_breakdown,
    rl_profile,
)
from repro.analysis.topology import (
    DensityTrace,
    TopologyStats,
    degree_distribution,
    layer_size_histogram,
    population_density,
    population_topology_stats,
)

__all__ = [
    "DensityTrace",
    "TopologyStats",
    "degree_distribution",
    "layer_size_histogram",
    "neat_profile",
    "normalize_fitness",
    "normalized_platform_breakdown",
    "population_density",
    "random_policy_baseline",
    "population_topology_stats",
    "render_network",
    "rl_profile",
    "sparkline",
]
