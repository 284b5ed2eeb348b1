"""The ``durable_service`` workload: a ``repro serve`` daemon under reads.

One client process (this one) spawns the daemon, submits the paper day
and, until the run completes, drives a single-connection open-loop
generator at a fixed rate through a round robin of ``GET /runs/<id>``,
``GET /runs/<id>/decisions?start=<next unseen>`` and
``GET /runs/<id>/perf``.  Each request is timed from when it was due, so
a stall also delays the requests queued behind it.  A second connection
follows ``/runs/<id>/stream``; record arrivals give the period times.
Runs repeat back to back until another would overrun ``--seconds``.
The calibration kernel of :mod:`hostspeed` is timed before each daemon
spawn and before each run, while the daemon is idle; the read schedule
restarts after it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.resilience.durability import checkpoint_path_for, read_wal
from repro.service.client import ServiceClient
from repro.service.protocol import build_scalar_run, spec_from_dict
from repro.sim import PAPER_PORTAL_LOADS, run_simulation

import checks
import hostspeed
import inputs
import metrics
import tracing

SETUP_REPEATS = 5
READY_TIMEOUT_S = 60.0
#: A run still going this long after ``--seconds`` counts as hung.
RUN_GRACE_S = 60.0
STOP_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 10.0
#: Runs a session always measures, even past ``--seconds``, so its
#: medians rest on several runs.
MIN_RUNS = 3
MAX_RUNS = 64
ROUTES = ("status", "decisions", "perf")
ACTIVE = ("pending", "running", "draining")
HERE = Path(__file__).resolve().parent


class Daemon:
    """A ``repro serve`` subprocess over its own data directory, pinned
    to ``cpu``."""

    def __init__(self, root: Path, data_dir: Path, cpu: int,
                 spans_out: Path | None = None) -> None:
        self.root, self.data_dir, self.spans_out = root, data_dir, spans_out
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> None:
        self.data_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        argv = ["serve", "--data-dir", str(self.data_dir)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + argv
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(self.spans_out)] + argv
        self.log = open(self.data_dir.parent / f"{self.data_dir.name}.log",
                        "wb")
        self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.proc.pid, {self.cpu})

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        discovery = self.data_dir / "service.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            if discovery.exists():
                try:
                    doc = json.loads(discovery.read_text())
                    self.host, self.port = doc["host"], int(doc["port"])
                    status, _ = get(self.host, self.port, "/readyz")
                    if status == 200:
                        return
                except (OSError, ValueError, KeyError,
                        http.client.HTTPException):
                    pass
            time.sleep(0.005)
        raise RuntimeError("daemon not ready in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it hangs; always reaps."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def submit(host: str, port: int, spec: dict) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("POST", "/runs", body=json.dumps(spec).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 201:
            raise RuntimeError(f"submit refused: {resp.status} {body[:200]!r}")
    finally:
        conn.close()


class Follower(threading.Thread):
    """Follows one run's telemetry stream; stamps each record's arrival."""

    def __init__(self, host: str, port: int, run_id: str) -> None:
        super().__init__(daemon=True)
        self.client = ServiceClient(host, port, timeout=HTTP_TIMEOUT_S)
        self.run_id = run_id
        self.arrivals: list[float] = []
        self.error: str | None = None
        self.ended: float | None = None

    def run(self) -> None:
        try:
            for rec in self.client.stream(self.run_id):
                if rec.get("type") == "telemetry":
                    self.arrivals.append(time.perf_counter())
        except Exception as exc:  # reported as a failed check, not lost
            self.error = f"{type(exc).__name__}: {exc}"
        self.ended = time.perf_counter()


@dataclass
class RunRecord:
    run_id: str
    submitted: float
    follower: Follower
    wall_s: float = 0.0
    #: ``(route, seconds from due time)``; ``inf`` for a failed request
    requests: list = field(default_factory=list)


@dataclass
class Load:
    """Everything one daemon session measured."""

    setup_s: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    decisions_bytes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    admission: dict = field(default_factory=dict)
    perf: list = field(default_factory=list)
    checkpoint_bytes: list = field(default_factory=list)
    spans: dict | None = None
    host: hostspeed.HostSpeed | None = None


def start_run(daemon: Daemon, spec: dict) -> RunRecord:
    submit(daemon.host, daemon.port, spec)
    record = RunRecord(spec["run_id"], time.perf_counter(),
                       Follower(daemon.host, daemon.port, spec["run_id"]))
    record.follower.start()
    return record


def drive(daemon: Daemon, first: RunRecord, load: Load, seconds: float,
          size: str, phase: float) -> None:
    """Open-loop reads at :data:`inputs.SERVICE_RATE_RPS` while runs go."""
    interval = 1.0 / inputs.SERVICE_RATE_RPS
    conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                      timeout=HTTP_TIMEOUT_S)
    t_start = time.perf_counter()
    current, next_unseen, i = first, 0, 0
    due = t_start + phase * interval
    try:
        while True:
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            route = ROUTES[i % len(ROUTES)]
            path = f"/runs/{current.run_id}"
            if route == "decisions":
                path += f"/decisions?start={next_unseen}"
            elif route == "perf":
                path += "/perf"
            ok, body = False, b""
            try:
                conn.request("GET", path)
                resp = conn.getresponse()
                body = resp.read()
                ok = resp.status == 200
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(
                    daemon.host, daemon.port, timeout=HTTP_TIMEOUT_S)
            done = time.perf_counter()
            load.attempted += 1
            load.lag_s.append(sent - due)
            current.requests.append((route, done - due if ok else math.inf))
            if time.perf_counter() - t_start > seconds + RUN_GRACE_S \
                    or daemon.proc.poll() is not None:
                load.problems.append(f"run {current.run_id} did not complete")
                return
            if not ok:
                load.failed += 1
            elif route == "decisions":
                load.decisions_bytes.append(len(body))
                got = json.loads(body)["decisions"]
                if got:
                    next_unseen = int(got[-1]["period"]) + 1
            elif route == "status" \
                    and json.loads(body)["state"] not in ACTIVE:
                current.follower.join(HTTP_TIMEOUT_S)
                if current.follower.ended is None:
                    load.problems.append(
                        f"stream of {current.run_id} did not end")
                    current.follower.ended = time.perf_counter()
                current.wall_s = current.follower.ended - current.submitted
                load.runs.append(current)
                elapsed = time.perf_counter() - t_start
                if len(load.runs) >= MIN_RUNS and (
                        elapsed + current.wall_s > seconds
                        or len(load.runs) >= MAX_RUNS):
                    return
                run_id = f"bench-{len(load.runs):03d}"
                load.host.sample()
                current = start_run(daemon, inputs.service_spec(run_id, size))
                next_unseen = 0
                due = time.perf_counter() - interval
            i += 1
            due += interval
    finally:
        conn.close()


def reference_run(size: str, workdir: Path) -> dict:
    """The same spec in process, with a WAL: digests, cost, quality."""
    spec = spec_from_dict({k: v for k, v in
                           inputs.service_spec("reference", size).items()
                           if k != "run_id"})
    scenario, policy, _ = build_scalar_run(spec)
    wal = workdir / "reference.wal"
    result = run_simulation(scenario, policy, wal_path=str(wal))
    digests = [r["decision_sha256"] for r in read_wal(str(wal))
               if r.get("type") == "decision"]
    return {"digests": digests, "cost_usd": float(result.total_cost_usd),
            "quality": metrics.quality(result),
            "problems": checks.result_problems(result, "service reference")}


def session(root: Path, workdir: Path, seed: int, seconds: float, size: str,
            traced: bool, tag: str, setup_repeats: int,
            daemon_cpu: int) -> Load:
    """Spawn daemons for set-up timing, then measure on the last one."""
    load = Load()
    rng = np.random.default_rng(seed)
    daemon = None
    try:
        load.host = hostspeed.HostSpeed(daemon_cpu)
        for k in range(setup_repeats):
            spans = workdir / f"{tag}-spans-{k}.json" if traced else None
            daemon = Daemon(root, workdir / f"{tag}-daemon-{k}", daemon_cpu,
                            spans)
            load.host.sample()
            t0 = time.perf_counter()
            daemon.start()
            daemon.wait_ready()
            first = start_run(daemon, inputs.service_spec("bench-000", size))
            load.setup_s.append(time.perf_counter() - t0)
            if k < setup_repeats - 1:
                daemon.stop()
                first.follower.join(HTTP_TIMEOUT_S)
        drive(daemon, first, load, seconds, size, float(rng.uniform()))
        collect(daemon, load)
    finally:
        if daemon is not None:
            daemon.stop()
        if load.host is not None:
            load.host.close()
    if traced:
        with open(daemon.spans_out) as fh:
            load.spans = json.load(fh)
    return load


def collect(daemon: Daemon, load: Load) -> None:
    """After the load: health stats, RSS, per-run verification reads."""
    status, body = get(daemon.host, daemon.port, "/healthz")
    load.admission = json.loads(body)["admission"] if status == 200 else {}
    load.peak_rss_mb = daemon.peak_rss_mb()
    for run in load.runs:
        if run.follower.error:
            load.problems.append(f"stream of {run.run_id}: "
                                 f"{run.follower.error}")
        _, body = get(daemon.host, daemon.port, f"/runs/{run.run_id}")
        run.status = json.loads(body)
        _, body = get(daemon.host, daemon.port,
                      f"/runs/{run.run_id}/decisions")
        run.decisions = json.loads(body)["decisions"]
        _, body = get(daemon.host, daemon.port, f"/runs/{run.run_id}/perf")
        load.perf.append(json.loads(body).get("counters", {}))
        ckpt = checkpoint_path_for(str(daemon.data_dir / "runs" / run.run_id
                                       / "wal.jsonl"))
        load.checkpoint_bytes.append(os.path.getsize(ckpt)
                                     if os.path.exists(ckpt) else 0)


def verify(load: Load, reference: dict) -> list[str]:
    problems = list(load.problems) + list(reference["problems"])
    total = float(sum(PAPER_PORTAL_LOADS))
    for run in load.runs:
        problems += checks.service_run_problems(
            run.run_id, run.status, run.decisions, reference, total)
    if not load.runs:
        problems.append("no service run completed")
    return problems


def period_ms(runs: list[RunRecord]) -> np.ndarray:
    """Every period's stream gap, pooled over the runs."""
    return np.concatenate([np.diff([r.submitted] + r.follower.arrivals)
                           for r in runs]) * 1e3


def requests_ms(runs: list[RunRecord], route: str | None = None
                ) -> np.ndarray:
    return np.array([s for r in runs for rt, s in r.requests
                     if route in (None, rt)]) * 1e3


def end_to_end(load: Load) -> dict:
    """Medians over the session at the reference host speed.

    Unlike the engine days, runs are not filtered period by period: a
    period's time also depends on how many reads land in it, which
    differs from run to run.  Medians are scaled by the kernel's median
    time (``hostspeed``).
    """
    factor = load.host.median_factor()
    run_s = statistics.median(r.wall_s for r in load.runs) * factor
    return {
        "setup_s": statistics.median(load.setup_s) * factor,
        "periods_per_s": len(load.runs[0].decisions) / run_s,
        "period_p50_ms": metrics.pct(period_ms(load.runs), 50) * factor,
        "req_p50_ms": metrics.pct(requests_ms(load.runs), 50) * factor,
        "cost_usd": float(np.mean([r.status["cost_usd_total"]
                                   for r in load.runs])),
        "peak_rss_mb": load.peak_rss_mb,
    }


def per_layer(plain: Load, traced: Load, reference: dict) -> dict:
    out = {name: 0.0 for name in metrics.PER_LAYER}
    spans = traced.spans
    out.update(metrics.perf_layers(spans["perf"][0]))
    summary = tracing.summarize(spans)
    out.update(metrics.trace_layers(summary, len(spans["perf"])))
    counters = traced.perf[0]
    out.update({
        "datacenter.qos_violations": float(
            reference["quality"]["qos_violations"]),
        "analysis.ramp_mean_kw": reference["quality"]["ramp_mean_kw"],
        "analysis.budget_excess_kwh": reference["quality"][
            "budget_excess_kwh"],
        "resilience.wal_records": float(counters.get("wal_records", 0)),
        "resilience.wal_bytes": float(counters.get("wal_bytes", 0)),
        "resilience.wal_fsyncs": float(counters.get("wal_fsyncs", 0)),
        "resilience.checkpoints_written": float(
            counters.get("checkpoints_written", 0)),
        "resilience.checkpoint_bytes_last": float(traced.checkpoint_bytes[0]),
        "sim.period_ms_p95": metrics.pct(period_ms(plain.runs), 95)
        * plain.host.median_factor(),
        "service.req_ms_p99": metrics.pct(requests_ms(plain.runs), 99)
        * plain.host.median_factor(),
        "service.status_ms_p99": metrics.pct(
            requests_ms(traced.runs, "status"), 99),
        "service.decisions_ms_p99": metrics.pct(
            requests_ms(traced.runs, "decisions"), 99),
        "service.perf_ms_p99": metrics.pct(
            requests_ms(traced.runs, "perf"), 99),
        "service.decisions_bytes_mean": float(np.mean(
            traced.decisions_bytes)) if traced.decisions_bytes else 0.0,
        "service.shed_503": float(traced.admission.get("shed", 0)),
        "service.peak_inflight": float(
            traced.admission.get("peak_inflight", 0)),
        "service.generator_lag_p99_ms": metrics.pct(traced.lag_s, 99) * 1e3,
    })
    untraced = sum(r.wall_s for r in plain.runs) / len(period_ms(plain.runs))
    traced_ = sum(r.wall_s for r in traced.runs) / len(period_ms(traced.runs))
    out["trace.overhead_pct"] = (traced_ / untraced - 1.0) * 100.0
    return out


def run(root: Path, workdir: Path, seed: int, seconds: float, trace: bool,
        size: str, golden: dict) -> dict:
    """One benchmark run of ``durable_service``."""
    # the daemon and the calibration kernel share one core; this client
    # (the load generator) takes another when there is one
    daemon_cpu, client_cpu = hostspeed.cpus()[0], hostspeed.cpus()[-1]
    os.sched_setaffinity(0, {client_cpu})
    reference = reference_run(size, workdir)
    if not trace:
        load = session(root, workdir, seed, seconds, size, False, "plain",
                       SETUP_REPEATS, daemon_cpu)
        out_metrics = end_to_end(load)
        loads = [load]
    else:
        plain = session(root, workdir, seed, seconds / 2.0, size, False,
                        "plain", 1, daemon_cpu)
        traced = session(root, workdir, seed, seconds / 2.0, size, True,
                         "traced", 1, daemon_cpu)
        out_metrics = per_layer(plain, traced, reference)
        loads = [plain, traced]
    problems = []
    if trace:
        problems += checks.coverage_problems(
            out_metrics["trace.unattributed_pct"], "durable_service")
    for load in loads:
        problems += verify(load, reference)
    observed = {key: reference["quality"][key]
                for key in checks.GOLDEN_QUALITY}
    observed["digest"] = checks.digest_list(reference["digests"])
    key = f"durable_service/{size}"
    problems += checks.golden_problems(observed, golden.get(key),
                                       "durable_service")
    return {
        "metrics": out_metrics,
        "attempted": sum(ld.attempted for ld in loads),
        "failed": sum(ld.failed for ld in loads),
        "problems": problems,
    }
