"""Seeded inputs of the benchmark workloads.

Everything the program receives is built here from the workload seed and
a size (``full`` for measured runs, ``tiny`` for the self-test); the
program itself never sees the seed.  See ``NOTES.md`` for why each
workload exists.
"""

from __future__ import annotations

import numpy as np

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.sim import (
    PAPER_BUDGETS_WATTS,
    PAPER_IDC_SPECS,
    PAPER_PORTAL_LOADS,
    paper_scenario,
)
from repro.workload import PortalSet, PortalWorkload
from repro.workload.traces import epa_like_trace

DAY_SECONDS = 86400.0
R_WEIGHT = 0.01
LATENCY_BOUND_S = 0.001            # Table II
#: Share of the Table I total that the diurnal span offers on average.
DIURNAL_LOAD_SHARE = 0.6
#: Cap on the offered total, as a share of the latency-bounded capacity
#: (the same cap ``monte_carlo_scenarios`` applies).
MAX_UTILIZATION = 0.85
SERVICE_RATE_RPS = 50.0            # open-loop read rate on the daemon
TRACE_STEP_S = 300.0               # one diurnal trace sample per 5 min

#: Per workload and size: control period, simulated span and, for the
#: diurnal day, the hour its span starts at (default 00:00).
SIZES = {
    "paper_day": {"full": {"dt": 300.0, "duration": DAY_SECONDS},
                  "tiny": {"dt": 300.0, "duration": 7200.0}},
    "diurnal_day": {"full": {"dt": 300.0, "duration": 1.5 * 3600.0,
                             "start_hour": 6.0},
                    "tiny": {"dt": 300.0, "duration": 7200.0}},
    "durable_service": {"full": {"dt": 300.0, "duration": DAY_SECONDS / 2},
                        "tiny": {"dt": 300.0, "duration": 3600.0}},
}


def latency_capacity() -> float:
    """Latency-bounded capacity of the Table II fleet (req/s)."""
    return sum(mu * fleet - 1.0 / LATENCY_BOUND_S
               for _name, fleet, mu in PAPER_IDC_SPECS)


def fleet_sizes() -> np.ndarray:
    return np.array([fleet for _name, fleet, _mu in PAPER_IDC_SPECS])


def budgeted_config(dt: float) -> MPCPolicyConfig:
    """The paper's MPC with the Sec. V-C budgets."""
    return MPCPolicyConfig(dt=dt, r_weight=R_WEIGHT,
                           budgets_watts=PAPER_BUDGETS_WATTS)


def paper_day(size: str = "full"):
    """``(scenario, policy)``: Tables I-II, LMP day from 00:00, budgets."""
    s = SIZES["paper_day"][size]
    scenario = paper_scenario(dt=s["dt"], duration=s["duration"],
                              start_hour=0.0, with_budgets=True)
    return scenario, CostMPCPolicy(scenario.cluster, budgeted_config(s["dt"]))


def diurnal_loads(seed: int, n_periods: int,
                  start_hour: float = 0.0) -> np.ndarray:
    """``(T, C)`` portal loads of ``n_periods`` of one seeded EPA-like
    day from ``start_hour``.

    The span of the trace (one sample per 5-minute period) is
    normalised to mean 1 and scaled so its mean total is 60% of
    Table I; periods whose total would exceed 85% of the
    latency-bounded capacity are scaled down to that cap.  Normalising
    the span rather than the day keeps the seed from moving the span's
    load level (and bill) along with the day's.
    """
    trace = epa_like_trace(rng=np.random.default_rng(seed), hours=24.0)
    first = int(round(start_hour * 3600.0 / TRACE_STEP_S))
    trace = trace[first:first + n_periods]
    trace = trace / trace.mean()
    loads = np.outer(trace, np.asarray(PAPER_PORTAL_LOADS, dtype=float))
    loads *= DIURNAL_LOAD_SHARE
    totals = loads.sum(axis=1)
    limit = MAX_UTILIZATION * latency_capacity()
    loads *= np.minimum(1.0, limit / totals)[:, None]
    return loads


def diurnal_day(seed: int, size: str = "full",
                start_hour: float | None = None,
                duration: float | None = None):
    """``(scenario, policy)``: the paper plant under a diurnal load
    (from ``start_hour`` over ``duration`` seconds instead of the size's
    span if given)."""
    s = SIZES["diurnal_day"][size]
    if start_hour is None:
        start_hour = s.get("start_hour", 0.0)
    scenario = paper_scenario(dt=s["dt"], duration=duration or s["duration"],
                              start_hour=start_hour, with_budgets=True)
    loads = diurnal_loads(seed, scenario.n_periods, start_hour)
    names = scenario.cluster.portals.names
    scenario.cluster.portals = PortalSet(portals=[
        PortalWorkload(name=name, trace=loads[:, i])
        for i, name in enumerate(names)])
    return scenario, CostMPCPolicy(scenario.cluster, budgeted_config(s["dt"]))


def service_spec(run_id: str, size: str = "full") -> dict:
    """The run spec POSTed to the daemon: supervised paper day, budgets.

    Durability is left at the service defaults (a checkpoint every
    period, an fsync on every WAL record).
    """
    s = SIZES["durable_service"][size]
    return {"kind": "scalar", "run_id": run_id,
            "scenario": {"name": "paper", "dt": s["dt"],
                         "duration": s["duration"], "start_hour": 0.0,
                         "budgets": True},
            "policy": {"name": "mpc", "supervised": True,
                       "fallback_ladder": True}}
