"""Correctness checks on the program's outputs.

Every check returns a list of problems (empty = correct), so one run can
report all of them before it fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import inputs
import metrics

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: Bill agreement between two solvers on the same inputs: a diurnal
#: span's opening periods against the ADMM backend.  On eleven seeds of
#: whole diurnal days the two differed by 3e-8 to 1.4e-5 over 24
#: periods (NOTES.md).
REFERENCE_RTOL = 1e-4
#: Most of a traced run's wall time that may fall outside every period.
UNATTRIBUTED_MAX_PCT = 5.0
#: Deterministic quality figures a golden entry may pin, and how tightly.
GOLDEN_QUALITY = ("cost_usd", "ramp_mean_kw", "budget_excess_kwh")
GOLDEN_RTOL = 1e-6


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def result_problems(result, label: str) -> list[str]:
    """Conservation, fleet bounds and the latency bound on one result."""
    problems = []
    T, n = result.powers_watts.shape
    c = result.loads.shape[1]
    if T == 0:
        return [f"{label}: no periods recorded"]
    # allocation vectors are IDC-grouped: u[j * C + i] routes portal i
    # to IDC j
    routed = np.asarray(result.allocations).reshape(T, n, c).sum(axis=1)
    loads = np.asarray(result.loads, dtype=float)
    gap = float(np.max(np.abs(routed - loads)))
    if gap > 1e-6 * max(1.0, float(loads.max())):
        problems.append(f"{label}: allocation misses the offered load by "
                        f"{gap:.3g} req/s")
    if np.any(np.asarray(result.allocations) < -1e-9):
        problems.append(f"{label}: negative allocation")
    servers = np.asarray(result.servers)
    if np.any(servers < 0) or np.any(servers > inputs.fleet_sizes()):
        problems.append(f"{label}: server counts outside the fleet sizes")
    qos = metrics.qos_violations(result.latencies)
    if qos:
        problems.append(f"{label}: {qos} IDC-periods over the latency bound")
    return problems


def same_days(costs: list[float], label: str) -> list[str]:
    """Repeated days on the same inputs must bill the same."""
    if len(set(costs)) > 1:
        return [f"{label}: repeated days differ in cost: {sorted(set(costs))}"]
    return []


def close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), 1e-12)


def bill_agreement(measured: float, reference: float,
                   label: str) -> list[str]:
    """A measured bill against a reference solver's on the same inputs."""
    if not close(measured, reference, REFERENCE_RTOL):
        rel = abs(measured - reference) / abs(reference)
        return [f"{label}: cost {measured!r} vs reference {reference!r} "
                f"(rel {rel:.3g} > {REFERENCE_RTOL:g})"]
    return []


def window_cost(result, n: int) -> float:
    """Energy bill (USD) of a run's first ``n`` periods at their prices."""
    energy_mwh = np.asarray(result.powers_watts[:n]) * result.dt / 3.6e9
    return float(np.sum(energy_mwh * np.asarray(result.prices[:n])))


def coverage_problems(unattributed_pct: float, label: str) -> list[str]:
    """The traced run's periods must hold nearly all of its wall time."""
    if unattributed_pct > UNATTRIBUTED_MAX_PCT:
        return [f"{label}: {unattributed_pct:.2f}% of the traced wall time "
                f"is outside every period (> {UNATTRIBUTED_MAX_PCT:g}%)"]
    return []


def servers_digest(result) -> str:
    """Digest of a run's integer server trajectory."""
    servers = np.ascontiguousarray(np.asarray(result.servers, dtype=np.int64))
    return hashlib.sha256(servers.tobytes()).hexdigest()


def digest_list(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def golden_problems(observed: dict, golden: dict | None,
                    label: str) -> list[str]:
    """Observed quality figures and digest against a golden entry."""
    if golden is None:
        return []
    problems = []
    for key in GOLDEN_QUALITY:
        if key in golden and not close(observed[key], golden[key],
                                       GOLDEN_RTOL):
            problems.append(f"{label}: {key} {observed[key]!r} differs "
                            f"from golden {golden[key]!r}")
    if "digest" in golden and observed.get("digest") != golden["digest"]:
        problems.append(f"{label}: decision digest differs from golden")
    return problems


def service_run_problems(run_id: str, status: dict, decisions: list[dict],
                         reference: dict, total_load: float) -> list[str]:
    """A daemon run against the in-process run of the same spec."""
    label = f"service run {run_id}"
    problems = []
    if status.get("state") != "completed":
        problems.append(f"{label}: state {status.get('state')!r}")
    periods = [int(d["period"]) for d in decisions]
    expected = list(range(len(reference["digests"])))
    if periods != expected:
        problems.append(f"{label}: /decisions holds {len(periods)} periods, "
                        f"expected {len(expected)}")
        return problems
    got = [d["decision_sha256"] for d in decisions]
    if digest_list(got) != digest_list(reference["digests"]):
        bad = sum(g != r for g, r in zip(got, reference["digests"]))
        problems.append(f"{label}: {bad} decision digests differ from the "
                        "in-process run")
    if float(status.get("cost_usd_total", float("nan"))) \
            != reference["cost_usd"]:
        problems.append(f"{label}: cost {status.get('cost_usd_total')!r} vs "
                        f"in-process {reference['cost_usd']!r}")
    fleets = inputs.fleet_sizes()
    for d in decisions:
        if abs(float(d["u_total"]) - total_load) > 1e-6 * total_load:
            problems.append(f"{label}: period {d['period']} routes "
                            f"{d['u_total']} of {total_load} req/s")
            break
        servers = np.asarray(d["servers"])
        if np.any(servers < 0) or np.any(servers > fleets):
            problems.append(f"{label}: period {d['period']} server counts "
                            "outside the fleet sizes")
            break
    return problems
