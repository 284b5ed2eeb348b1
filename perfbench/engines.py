"""The in-process workloads: ``paper_day`` and ``diurnal_day``.

Each measured unit is one simulation of the workload's span on fresh
inputs (a "day", though ``diurnal_day`` simulates 1.5 hours of one);
a run repeats days until another would overrun ``--seconds`` (at least
:data:`MIN_DAYS`).  The calibration kernel of :mod:`hostspeed` is timed
before every day.  Period times come from the engine's ``step_hook``,
which fires once per control period.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core import CostMPCPolicy
from repro.sim import run_simulation

import checks
import hostspeed
import inputs
import metrics
import tracing

SETUP_REPEATS = 5                 # timed input builds before each day
#: Days a run always measures, even past ``--seconds``: each period's
#: fastest time needs several repeats.
MIN_DAYS = 3
MAX_DAYS = 256
#: Opening periods of a diurnal day re-run on the ADMM backend.
REFERENCE_PERIODS = 24


class PeriodClock:
    """Stamps each control period."""

    def __init__(self, tracer: tracing.Tracer | None = None) -> None:
        self.times: list[float] = []
        self.tracer = tracer

    def tick(self, _info=None) -> None:
        self.times.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.mark_period()


@dataclass
class Day:
    result: object | None     # kept for a run's first day only
    period_s: np.ndarray      # wall per control period
    wall_s: float
    cost: float


@dataclass
class Workload:
    """How to build and run one day of an in-process workload."""

    name: str
    build: object             # () -> inputs
    run: object               # (inputs, tracer) -> Day
    extra_checks: object = None   # (seed, days, size) -> problems
    golden_key: str | None = None


def _scalar_day(built, tracer) -> Day:
    scenario, policy = built
    clock = PeriodClock(tracer)
    if tracer is not None:
        tracer.begin_run()
    t0 = time.perf_counter()
    result = run_simulation(scenario, policy, step_hook=clock.tick)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_run()
    return Day(result, np.diff([t0] + clock.times), wall,
               result.total_cost_usd)


def _diurnal_checks(seed: int, days: list[Day], size: str) -> list[str]:
    """The span's opening periods against the ADMM backend.

    The measured span runs the active-set QP cold on nearly every
    period, so a looser solver moves its bill; the ADMM backend on the
    same inputs is the reference.
    """
    measured = days[0].result
    n = min(REFERENCE_PERIODS, len(measured.times))
    scenario, policy = inputs.diurnal_day(seed, size)
    config = dataclasses.replace(policy.config, backend="admm")
    reference = run_simulation(
        scenario, CostMPCPolicy(scenario.cluster, config),
        step_hook=lambda info: info["period"] >= n - 1)
    return checks.bill_agreement(
        checks.window_cost(measured, n), checks.window_cost(reference, n),
        f"diurnal_day first {n} periods, active-set vs ADMM")


def workload(name: str, seed: int, size: str) -> Workload:
    if name == "paper_day":
        return Workload(name, lambda: inputs.paper_day(size), _scalar_day,
                        golden_key=f"paper_day/{size}")
    if name == "diurnal_day":
        return Workload(name, lambda: inputs.diurnal_day(seed, size),
                        _scalar_day, extra_checks=_diurnal_checks)
    raise KeyError(name)


def timed_build(build, setup_s: list):
    """Build a day's inputs :data:`SETUP_REPEATS` times, timing each."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = build()
        setup_s.append(time.perf_counter() - t0)
    return built


def run_days(wl: Workload, seconds: float, setup_s: list,
             host: hostspeed.HostSpeed) -> list[Day]:
    """Whole days until another would overrun ``seconds``.

    Set-up and the calibration kernel are timed before every day and
    once more after the last, so their samples span the run.  Only the
    first day keeps its results, so memory does not grow with the
    number of days a faster program fits in.
    """
    days = []
    t_start = time.perf_counter()
    while True:
        host.sample()
        days.append(wl.run(timed_build(wl.build, setup_s), None))
        if len(days) > 1:
            days[-1].result = None
        elapsed = time.perf_counter() - t_start
        if len(days) >= MIN_DAYS and (elapsed + days[-1].wall_s > seconds
                                      or len(days) >= MAX_DAYS):
            timed_build(wl.build, setup_s)
            host.sample()
            return days


def period_ms(days: list[Day], factor: float) -> np.ndarray:
    """Each period's fastest time over the days, at reference speed."""
    return np.min([d.period_s for d in days], axis=0) * 1e3 * factor


def end_to_end(days: list[Day], setup_s: list,
               host: hostspeed.HostSpeed) -> dict:
    """Timings at the reference host speed (``hostspeed``): fastest
    times against the kernel's fastest, the set-up median against its
    median."""
    fastest = period_ms(days, host.factor())
    return {
        "setup_s": statistics.median(setup_s) * host.median_factor(),
        "periods_per_s": len(fastest) / (fastest.sum() / 1e3),
        "period_p50_ms": metrics.pct(fastest, 50),
        # the operation of an engine workload is one control period
        "req_p50_ms": metrics.pct(fastest, 50),
        "cost_usd": float(days[0].cost),
    }


def problems_of(wl: Workload, seed: int, days: list[Day], size: str,
                golden: dict) -> list[str]:
    first = days[0].result
    problems = checks.result_problems(first, wl.name)
    problems += checks.same_days([d.cost for d in days], wl.name)
    if wl.extra_checks is not None:
        problems += wl.extra_checks(seed, days, size)
    quality = metrics.quality(first)
    observed = {key: quality[key] for key in checks.GOLDEN_QUALITY}
    observed["digest"] = checks.digest_list([checks.servers_digest(first)])
    key = wl.golden_key
    if size == "tiny" and seed == golden.get("held_out_seed"):
        key = f"{wl.name}/tiny"
    problems += checks.golden_problems(observed, golden.get(key), wl.name)
    return problems


def run_pairs(wl: Workload, seconds: float, tracer,
              host: hostspeed.HostSpeed) -> tuple[list, list]:
    """Alternate untraced and traced days, so drift hits both alike."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        host.sample()
        plain.append(wl.run(wl.build(), None))
        patches = tracing.install(tracer)
        try:
            traced.append(wl.run(wl.build(), tracer))
        finally:
            tracing.uninstall(patches)
        for days in (plain, traced):
            if len(days) > 1:
                days[-1].result = None
        elapsed = time.perf_counter() - t_start
        pair = plain[-1].wall_s + traced[-1].wall_s
        if elapsed + pair > seconds or len(plain) >= MAX_DAYS:
            return plain, traced


def run(name: str, seed: int, seconds: float, trace: bool, size: str,
        golden: dict) -> dict:
    """One benchmark run of an in-process workload."""
    wl = workload(name, seed, size)
    cpu = hostspeed.cpus()[0]
    os.sched_setaffinity(0, {cpu})    # the kernel's core (hostspeed)
    wl.build()                    # lazy imports and first-call caches
    with hostspeed.HostSpeed(cpu) as host:
        if not trace:
            setup_s: list[float] = []
            days = run_days(wl, seconds, setup_s, host)
            out_metrics = end_to_end(days, setup_s, host)
            out_metrics["peak_rss_mb"] = metrics.own_peak_rss_mb()
            traced_days = []
        else:
            tracer = tracing.Tracer()
            days, traced_days = run_pairs(wl, seconds, tracer, host)
            out_metrics = per_layer(days, traced_days, tracer,
                                    host.factor())
    all_days = days + traced_days
    problems = problems_of(wl, seed, all_days, size, golden)
    if trace:
        problems += checks.coverage_problems(
            out_metrics["trace.unattributed_pct"], name)
    return {
        "metrics": out_metrics,
        "attempted": sum(len(d.period_s) for d in all_days),
        "failed": 0,
        "problems": problems,
    }


def per_layer(days: list[Day], traced: list[Day], tracer,
              factor: float) -> dict:
    out = {name: 0.0 for name in metrics.PER_LAYER}
    out["sim.period_ms_p95"] = metrics.pct(period_ms(days, factor), 95)
    out.update(metrics.perf_layers(traced[0].result.perf))
    summary = tracing.summarize(tracer.dump())
    out.update(metrics.trace_layers(summary, len(traced)))
    quality = metrics.quality(traced[0].result)
    out.update({
        "datacenter.qos_violations": float(quality["qos_violations"]),
        "analysis.ramp_mean_kw": quality["ramp_mean_kw"],
        "analysis.budget_excess_kwh": quality["budget_excess_kwh"],
    })
    untraced = sum(d.wall_s for d in days) / sum(len(d.period_s) for d in days)
    traced_ = sum(d.wall_s for d in traced) / sum(len(d.period_s)
                                                  for d in traced)
    out["trace.overhead_pct"] = (traced_ / untraced - 1.0) * 100.0
    return out
