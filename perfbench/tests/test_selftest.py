"""Self-test of the benchmark on its held-out seed, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.

* Every workload, untraced and traced, emits exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit, and passes its checks.
* A tampered golden digest makes the correctness check fail.
* Known program defects are recorded as strict expected failures, so
  the fix that removes one turns its test red until the marker goes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError

import checks
import inputs
import metrics

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("paper_day", "diurnal_day", "durable_service")
HELD_OUT = checks.load_golden()["held_out_seed"]
#: A lane of the seed-0 Monte-Carlo fleet whose day-long bill drifts
#: past 1e-6.
DRIFT_LANE = 55


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stdout


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, stdout = bench(workload, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, value in result["metrics"].items():
        assert np.isfinite(value["value"]), name
        assert f" {name} " in stdout          # printed by name, too
    assert "fingerprint {" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_golden_digest_fails_the_check(workload, tmp_path):
    golden = checks.load_golden()
    entry = golden[f"{workload}/tiny"]
    entry["digest"] = entry["digest"][::-1]
    if workload == "durable_service":
        import service
        out = service.run(ROOT, tmp_path, HELD_OUT, 1.0, False, "tiny",
                          golden)
    else:
        import engines
        out = engines.run(workload, HELD_OUT, 1.0, False, "tiny", golden)
    assert any("digest" in problem for problem in out["problems"]), \
        out["problems"]


@pytest.mark.xfail(strict=True, raises=InfeasibleProblemError, reason=(
    "RLS-AR warm-up forecasts an offered total above the latency-bounded "
    "capacity and the reference LP gets it unclamped"))
def test_diurnal_day_with_load_prediction():
    """Seed 7's diurnal day, run from 00:00, raises InfeasibleProblemError
    at period 9."""
    from repro.sim import run_simulation
    scenario, policy = inputs.diurnal_day(7, "full", start_hour=0.0,
                                          duration=inputs.DAY_SECONDS)
    seen = []

    def hook(info):
        seen.append(info["period"])
        return "stop" if info["period"] >= 23 else None

    run_simulation(scenario, policy, predict_loads=True, step_hook=hook)
    assert seen[-1] == 23


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "over a 288-period day the batched ADMM lane drifts from the scalar "
    "active-set run by more than the 1e-6 bound set on 20-period windows"))
def test_fleet_lane_matches_scalar_within_1e6_over_a_day():
    from repro.core import CostMPCPolicy, MPCPolicyConfig
    from repro.sim import monte_carlo_scenarios, run_batch, run_simulation

    def fleet():
        """64 lanes, a day at Ts = 300 s, demand-coupled markets."""
        return monte_carlo_scenarios(64, seed=0, dt=300.0,
                                     duration=inputs.DAY_SECONDS,
                                     demand_sensitivity=0.05)

    config = MPCPolicyConfig(dt=300.0, r_weight=inputs.R_WEIGHT)
    batched = run_batch(fleet(), config)[DRIFT_LANE]
    sc = fleet()[DRIFT_LANE]
    scalar = run_simulation(sc, CostMPCPolicy(sc.cluster, config))
    rel = abs(batched.total_cost_usd - scalar.total_cost_usd) \
        / abs(scalar.total_cost_usd)
    assert rel <= 1e-6, rel
