"""INAX internals, step by step.

A guided tour of the accelerator's execution model on one evolved
individual: compile (CreateNet -> HW config), the set-up phase (weight
channel + decode), per-step inference across PEs, the cycle accounting
behind Fig 9(a)'s breakdown, and the fixed-point datapath's numeric
behaviour vs the float reference.

    python examples/accelerator_deep_dive.py
"""

import numpy as np

from repro.analysis import render_network
from repro.inax import (
    FixedPointFormat,
    INAX,
    INAXConfig,
    compile_genome,
    random_irregular_genome,
)
from repro.inax.pu import ProcessingUnit
from repro.neat import FeedForwardNetwork, InnovationTracker, NEATConfig


def main() -> None:
    # --- one irregular individual (footnote-3 shape, small) ---
    cfg = NEATConfig(num_inputs=8, num_outputs=4)
    rng = np.random.default_rng(42)
    genome = random_irregular_genome(
        0, cfg, num_hidden=12, sparsity=0.25, rng=rng,
        tracker=InnovationTracker(4), num_hidden_layers=2,
    )
    net = FeedForwardNetwork.create(genome, cfg)
    hw = compile_genome(genome, cfg)

    print("=== the individual ===")
    print(render_network(net))
    print(f"\nHW config payload: {hw.config_words} weight-channel words "
          f"({hw.num_connections} connections + 2 x {hw.num_nodes} nodes)")
    print(f"value buffer footprint: {hw.value_buffer_words} words "
          "(every activation stays resident for later layers)")

    # --- one PU, several PE counts: the §V-A trade ---
    print("\n=== per-inference latency vs PE count (one PU) ===")
    for num_pes in (1, 2, 4, 8):
        pu = ProcessingUnit(num_pes)
        setup = pu.load(hw)
        out, timing = pu.infer(np.ones(8))
        print(f"  {num_pes} PE: setup {setup:3d} cycles, "
              f"inference {timing.cycles:3d} cycles, "
              f"PE-active {timing.pe_active_cycles:3d}, "
              f"iterations/layer {timing.iterations_per_layer}")

    # --- the full device: a wave of individuals, a few env steps ---
    print("\n=== device-level accounting (4 PUs x 4 PEs, 3 copies) ===")
    device = INAX(INAXConfig(num_pus=4, num_pes_per_pu=4))
    device.begin_wave([hw, hw, hw])
    for step in range(5):
        device.step([0, 1, 2], rng.uniform(-1, 1, (3, 8)))
    device.end_wave()
    report = device.report
    print(f"  total {report.total_cycles:,.0f} cycles over {report.steps} "
          "synchronized steps")
    breakdown = report.breakdown()
    print(f"  set-up {breakdown['setup'] * 100:.1f}% | "
          f"PE active {breakdown['pe_active'] * 100:.1f}% | "
          f"evaluate control {breakdown['evaluate_control'] * 100:.1f}%")
    print(f"  U(PE) = {report.u_pe:.2f}, U(PU) = {report.u_pu:.2f} "
          "(3 individuals on 4 provisioned PUs)")

    # --- fixed point vs float ---
    print("\n=== fixed-point datapath vs float64 reference ===")
    x = rng.uniform(-1, 1, 8)
    exact = net.activate(x)
    for fmt in (FixedPointFormat(8, 4), FixedPointFormat(8, 8),
                FixedPointFormat(8, 12)):
        pu = ProcessingUnit(4, datapath=fmt)
        pu.load(hw)
        quant, _ = pu.infer(x)
        err = float(np.max(np.abs(exact - quant)))
        print(f"  {fmt}: max |error| = {err:.6f}")
    reference_pu = ProcessingUnit(4)
    reference_pu.load(hw)
    hw_out, _ = reference_pu.infer(x)
    print(f"  float64 PU output == software forward pass: "
          f"{np.array_equal(exact, hw_out)}")


if __name__ == "__main__":
    main()
