"""Benchmark of the EXOCHI reproduction: three workloads, end-to-end
metrics and a traced per-layer run.  Entry point: ``perfbench/run.py``;
metric definitions: ``perfbench/METRICS.md``."""
