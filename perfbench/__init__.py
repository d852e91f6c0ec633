"""Benchmark for the vcsqse pipeline: four workloads and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_channels_m4 --seed 1 \
        --seconds 20 --trace 0

See perfbench/README.md for the workloads, metrics and recorded baseline.
"""
