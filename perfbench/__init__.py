"""Benchmark of polymatkit: workloads, independent checks, tracing, comparison.

Entry points: ``python3 perfbench/run.py`` (one workload, one run) and
``python3 perfbench/compare.py`` (parent against change). See README.md.
"""
