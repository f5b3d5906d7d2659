"""Fixed-window end-to-end generation benchmark for the E3 reproduction.

``python3 genbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives the public ``E3`` / ``Population.advance`` loop
over a fixed generation window and prints the end-to-end metrics (or,
with ``--trace 1``, the per-layer ledger) as its last output line.  See
``genbench/README.md`` for the workloads, metrics and layer table.
"""
