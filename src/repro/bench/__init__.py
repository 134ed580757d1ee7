"""Benchmark harness: workloads, mode timings and table reporting."""

from repro.bench.harness import ModeTimings, measure_query_modes, timed
from repro.bench.reporting import format_table, publish, results_dir
from repro.bench.workloads import (
    BENCH_WEB_SCALE,
    NAIVE_DATASETS,
    PAGERANK_SUPERSTEPS,
    analytic_for,
    bench_scale,
    capture_seconds,
    captured_store,
    ml20_for,
    web_graph_for,
)

__all__ = [
    "ModeTimings",
    "measure_query_modes",
    "timed",
    "format_table",
    "publish",
    "results_dir",
    "BENCH_WEB_SCALE",
    "NAIVE_DATASETS",
    "PAGERANK_SUPERSTEPS",
    "analytic_for",
    "bench_scale",
    "capture_seconds",
    "captured_store",
    "ml20_for",
    "web_graph_for",
]
