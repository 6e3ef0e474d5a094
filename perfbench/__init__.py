"""Wall-clock serving benchmark for the OpenSearch-SQL reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload cold_unique --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and the layer
prediction table.
"""
