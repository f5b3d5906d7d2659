"""Plain-text rendering of evolved networks and fitness traces.

The platform is terminal-first (an edge device has no display), so the
visual artifacts of the paper — evolved topologies like Fig 4(c),
fitness traces like Fig 2 — render as text:

* :func:`render_network` draws the layered irregular topology with
  per-node fan-in annotations;
* :func:`sparkline` compresses a numeric series into one line of block
  characters.
"""

from __future__ import annotations

from typing import Sequence

from repro.neat.network import FeedForwardNetwork

__all__ = ["render_network", "sparkline", "to_dot"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def render_network(net: FeedForwardNetwork, max_width: int = 72) -> str:
    """One line per layer: node keys with fan-in, inputs first.

    Example output::

        inputs : [-1] [-2] [-3]
        layer 1: 4(<2) 7(<1)
        outputs: 0(<3) 1(<2)
    """
    def clip(line: str) -> str:
        if len(line) > max_width:
            return line[: max_width - 3] + "..."
        return line

    lines = []
    inputs = " ".join(f"[{key}]" for key in net.input_keys)
    lines.append(clip(f"inputs : {inputs}"))
    output_set = set(net.output_keys)
    for depth, layer in enumerate(net.layers, start=1):
        cells = []
        for key in layer:
            plan = net.node_evals[key]
            cells.append(f"{key}(<{plan.fan_in})")
        label = (
            "outputs" if all(k in output_set for k in layer) else f"layer {depth}"
        )
        lines.append(clip(f"{label:7s}: " + " ".join(cells)))
    lines.append(
        clip(
            f"total  : {net.num_evaluated_nodes} nodes, {net.num_macs} "
            f"connections, density {net.density():.2f}"
        )
    )
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int | None = None) -> str:
    """Compress a numeric series into one line of block characters.

    ``width`` resamples the series (by bucketing) when it is longer.
    Constant series render as a flat middle band.
    """
    series = [float(v) for v in values]
    if not series:
        return ""
    if width is not None and width > 0 and len(series) > width:
        bucket = len(series) / width
        series = [
            max(series[int(i * bucket): max(int((i + 1) * bucket), int(i * bucket) + 1)])
            for i in range(width)
        ]
    lo, hi = min(series), max(series)
    if hi == lo:
        return _BLOCKS[3] * len(series)
    span = hi - lo
    out = []
    for value in series:
        idx = int((value - lo) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[idx])
    return "".join(out)


def to_dot(net: FeedForwardNetwork, name: str = "evolved") -> str:
    """Graphviz DOT source for a decoded network (Fig 4(c)-style).

    Inputs render as boxes on one rank, outputs as doublecircles on
    another; edge labels carry the weights.  Paste into any Graphviz
    viewer — nothing here needs graphviz installed.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    lines.append("  { rank=source;")
    for key in net.input_keys:
        lines.append(f'    "{key}" [shape=box, label="in {key}"];')
    lines.append("  }")
    lines.append("  { rank=sink;")
    for key in net.output_keys:
        lines.append(f'    "{key}" [shape=doublecircle, label="out {key}"];')
    lines.append("  }")
    output_set = set(net.output_keys)
    for key, plan in sorted(net.node_evals.items()):
        if key not in output_set:
            lines.append(
                f'  "{key}" [shape=circle, label="{key}\\n{plan.activation}"];'
            )
    for key, plan in sorted(net.node_evals.items()):
        for src, weight in plan.ingress:
            lines.append(f'  "{src}" -> "{key}" [label="{weight:.2f}"];')
    lines.append("}")
    return "\n".join(lines)
