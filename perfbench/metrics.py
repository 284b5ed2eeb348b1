"""Metric names, units and the arithmetic that fills them.

``END_TO_END`` and ``PER_LAYER`` are the only metric lists; the
self-test checks that ``BENCHMARK.json`` names exactly these.
"""

from __future__ import annotations

import math
import os
import platform
import resource

import numpy as np

from repro.analysis.metrics import budget_stats, power_volatility
from repro.sim import PAPER_BUDGETS_WATTS

import inputs

END_TO_END = {
    "setup_s": "s",
    "periods_per_s": "1/s",
    "period_p50_ms": "ms",
    "req_p50_ms": "ms",
    "cost_usd": "USD",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.decide_ms_p50": "ms",
    "core.decide_ms_p95": "ms",
    "core.model_s": "s",
    "core.reference_s": "s",
    "core.mpc_solve_s": "s",
    "core.ref_cache_hit_ratio": "ratio",
    "core.ref_cache_lookups": "count",
    "core.self_ms_per_period": "ms",
    "optim.qp_solves": "count",
    "optim.qp_iters_per_solve": "count",
    "optim.kkt_refactorizations": "count",
    "optim.warm_start_hit_ratio": "ratio",
    "optim.warm_start_lookups": "count",
    "optim.solve_qp_ms_p50": "ms",
    "optim.lp_solves": "count",
    "optim.lp_ms_p50": "ms",
    "optim.self_ms_per_period": "ms",
    "control.horizon_reuse_ratio": "ratio",
    "control.horizon_lookups": "count",
    "control.model_cache_hit_ratio": "ratio",
    "control.model_cache_lookups": "count",
    "control.constraint_cache_hit_ratio": "ratio",
    "control.constraint_cache_lookups": "count",
    "control.self_ms_per_period": "ms",
    "datacenter.plant_ms_per_period": "ms",
    "datacenter.qos_violations": "count",
    "analysis.ramp_mean_kw": "kW",
    "analysis.budget_excess_kwh": "kWh",
    "pricing.market_ms_per_period": "ms",
    "sim.self_ms_per_period": "ms",
    "sim.period_ms_p95": "ms",
    "resilience.wal_records": "count",
    "resilience.wal_bytes": "bytes",
    "resilience.wal_fsyncs": "count",
    "resilience.wal_append_ms_p50": "ms",
    "resilience.checkpoints_written": "count",
    "resilience.checkpoint_ms_p50": "ms",
    "resilience.checkpoint_ms_p95": "ms",
    "resilience.checkpoint_bytes_last": "bytes",
    "resilience.self_ms_per_period": "ms",
    "service.req_ms_p99": "ms",
    "service.status_ms_p99": "ms",
    "service.decisions_ms_p99": "ms",
    "service.perf_ms_p99": "ms",
    "service.decisions_bytes_mean": "bytes",
    "service.shed_503": "count",
    "service.peak_inflight": "count",
    "service.generator_lag_p99_ms": "ms",
    "trace.period_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.spans_per_period": "count",
}

#: Reported in place of a latency percentile that lands on a failed or
#: refused request (those count as missing every latency limit).
MISSING_MS = 1e6


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``; 0 for no samples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    value = float(np.percentile(values, q))
    return MISSING_MS if math.isinf(value) else value


def ratio(hits: float, total: float) -> float:
    return float(hits) / float(total) if total else 0.0


def quality(result) -> dict:
    """Smoothing, shaving, cost and QoS figures of one engine result."""
    powers = result.powers_watts
    n = powers.shape[1]
    excess_j = sum(
        budget_stats(powers[:, j], PAPER_BUDGETS_WATTS[j],
                     result.dt).excess_energy_joules for j in range(n))
    return {
        "cost_usd": float(result.total_cost_usd),
        "ramp_mean_kw": float(np.mean(
            [power_volatility(powers[:, j]) for j in range(n)])) / 1e3,
        "budget_excess_kwh": excess_j / 3.6e6,
        "qos_violations": qos_violations(result.latencies),
    }


def qos_violations(latencies) -> int:
    """IDC-periods whose latency is unbounded or above the 1 ms bound."""
    lat = np.asarray(latencies, dtype=float)
    bad = ~np.isfinite(lat) | (lat > inputs.LATENCY_BOUND_S * (1 + 1e-6))
    return int(np.count_nonzero(bad))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def perf_layers(perf: dict) -> dict:
    """Per-layer figures from the counters the program already returns."""
    counters = perf.get("counters", {})
    stages = perf.get("stage_seconds") or {}

    def c(name):
        return float(counters.get(name, 0))

    ref = c("ref_cache_hits") + c("ref_cache_misses")
    warm = c("warm_start_hits") + c("warm_start_misses") \
        + c("warm_start_rejections")
    horizon = c("horizon_reuses") + c("horizon_rebuilds") \
        + c("horizon_offset_refreshes")
    model = c("model_cache_hits") + c("model_cache_misses")
    cons = c("constraint_cache_hits") + c("constraint_cache_misses")
    return {
        "core.model_s": float(stages.get("model", 0.0)),
        "core.reference_s": float(stages.get("reference", 0.0)),
        "core.mpc_solve_s": float(stages.get("mpc_solve", 0.0)),
        "core.ref_cache_hit_ratio": ratio(c("ref_cache_hits"), ref),
        "core.ref_cache_lookups": ref,
        "optim.qp_solves": c("qp_solves"),
        "optim.qp_iters_per_solve": ratio(c("qp_iterations"),
                                          c("qp_solves")),
        "optim.kkt_refactorizations": c("kkt_refactorizations"),
        "optim.warm_start_hit_ratio": ratio(c("warm_start_hits"), warm),
        "optim.warm_start_lookups": warm,
        "control.horizon_reuse_ratio": ratio(c("horizon_reuses"), horizon),
        "control.horizon_lookups": horizon,
        "control.model_cache_hit_ratio": ratio(c("model_cache_hits"), model),
        "control.model_cache_lookups": model,
        "control.constraint_cache_hit_ratio": ratio(
            c("constraint_cache_hits"), cons),
        "control.constraint_cache_lookups": cons,
    }


def trace_layers(summary: dict, n_runs: int) -> dict:
    """Per-layer figures from a :func:`tracing.summarize` result."""
    periods = max(summary["periods"], 1)
    durations = summary["durations"]

    def per_period_ms(layer):
        return summary["self_s"].get(layer, 0.0) / periods * 1e3

    def ms(name, q):
        return pct(durations.get(name, []), q) * 1e3

    n_spans = sum(len(v) for v in durations.values())
    run_s = summary["run_s"]
    return {
        "core.decide_ms_p50": ms("core.decide", 50),
        "core.decide_ms_p95": ms("core.decide", 95),
        "core.self_ms_per_period": per_period_ms("core"),
        "optim.solve_qp_ms_p50": ms("optim.solve_qp", 50),
        "optim.lp_solves": len(durations.get("optim.lp", [])) / max(n_runs, 1),
        "optim.lp_ms_p50": ms("optim.lp", 50),
        "optim.self_ms_per_period": per_period_ms("optim"),
        "control.self_ms_per_period": per_period_ms("control"),
        "datacenter.plant_ms_per_period": per_period_ms("datacenter"),
        "pricing.market_ms_per_period": per_period_ms("pricing"),
        "sim.self_ms_per_period": per_period_ms("sim"),
        "resilience.wal_append_ms_p50": ms("resilience.wal_append", 50),
        "resilience.checkpoint_ms_p50": ms("resilience.checkpoint", 50),
        "resilience.checkpoint_ms_p95": ms("resilience.checkpoint", 95),
        "resilience.self_ms_per_period": per_period_ms("resilience"),
        "trace.period_ms": summary["period_s"] / periods * 1e3,
        "trace.unattributed_pct": (
            (run_s - summary["period_s"]) / run_s * 100.0 if run_s else 0.0),
        "trace.spans_per_period": n_spans / periods,
    }


def fingerprint() -> dict:
    """Machine and toolchain identity recorded with every output."""
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas_env = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": blas_env,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports (``None`` if unknown)."""
    import ctypes

    import numpy
    numpy.linalg.inv(np.eye(2))      # make sure the BLAS library is mapped
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None
