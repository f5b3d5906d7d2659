"""Unit tests for text rendering."""

import numpy as np

from repro.analysis.render import render_network, sparkline
from repro.neat.config import NEATConfig
from repro.neat.network import FeedForwardNetwork

from tests.neat.test_network import _genome_from_edges


def _simple_network():
    cfg = NEATConfig(num_inputs=2, num_outputs=1)
    edges = [(-1, 2, 1.0), (-2, 2, 1.0), (2, 0, 1.0), (-1, 0, 1.0)]
    return FeedForwardNetwork.create(_genome_from_edges(cfg, edges), cfg)


class TestRenderNetwork:
    def test_structure(self):
        text = render_network(_simple_network())
        lines = text.splitlines()
        assert lines[0].startswith("inputs : [-1] [-2]")
        assert "2(<2)" in text  # hidden node with fan-in 2
        assert "0(<2)" in text  # output consumes hidden + skip input
        assert "density" in lines[-1]

    def test_output_layer_labelled(self):
        text = render_network(_simple_network())
        assert "outputs: " in text

    def test_width_truncation(self):
        cfg = NEATConfig(num_inputs=1, num_outputs=30)
        edges = [(-1, o, 1.0) for o in range(30)]
        net = FeedForwardNetwork.create(_genome_from_edges(cfg, edges), cfg)
        text = render_network(net, max_width=40)
        assert all(len(line) <= 40 for line in text.splitlines())
        assert "..." in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_resampling_to_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] != line[-1]

    def test_extremes_hit_min_max_blocks(self):
        line = sparkline([0.0, 100.0])
        assert line[0] == "▁" and line[1] == "█"


class TestToDot:
    def test_structure(self):
        from repro.analysis.render import to_dot

        dot = to_dot(_simple_network(), name="champ")
        assert dot.startswith("digraph champ {")
        assert dot.rstrip().endswith("}")
        assert '"-1" [shape=box' in dot
        assert '"0" [shape=doublecircle' in dot
        assert '"-1" -> "2"' in dot  # an actual evolved edge
        assert "label=\"1.00\"" in dot  # weight label

    def test_hidden_nodes_carry_activation(self):
        from repro.analysis.render import to_dot

        dot = to_dot(_simple_network())
        assert "identity" in dot  # the test genome's activation

    def test_edge_count_matches_network(self):
        from repro.analysis.render import to_dot

        net = _simple_network()
        dot = to_dot(net)
        assert dot.count("->") == net.num_macs
