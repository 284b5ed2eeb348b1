"""Span recording around calls into the program's layers.

Traced runs only: :func:`install` replaces public functions and methods
of ``repro`` with wrappers that record one span per call — name, start,
end, parent span and control period — in memory.  Control periods are marked
from the engine's own seam (``step_hook``), and engine calls are
bracketed as runs.  :func:`summarize` turns the spans into
per-layer self times: a span's self time is its duration minus that of
its direct children, ``sim.self`` is the part of each period no
wrapped call covers, and the ``unattributed`` share is run time outside
any period.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

import numpy as np

#: ``(span name, module, attribute)``; ``Class.method`` patches a method.
TARGETS = (
    ("core.decide", "repro.core.controller", "CostMPCPolicy.decide"),
    ("control.mpc", "repro.control.mpc", "ModelPredictiveController.control"),
    ("optim.solve_qp", "repro.optim.qp_activeset", "solve_qp"),
    ("optim.solve_qp", "repro.optim.qp_admm", "solve_qp_admm"),
    ("optim.lp", "repro.core.reference_opt", "solve_optimal_allocation"),
    ("datacenter.plant", "repro.datacenter.cluster",
     "IDCCluster.apply_allocation"),
    ("datacenter.plant", "repro.datacenter.cluster",
     "IDCCluster.powers_watts"),
    ("datacenter.plant", "repro.datacenter.queueing",
     "simplified_latency_batch"),
    ("pricing.market", "repro.pricing.market", "RealTimeMarket.price"),
    ("pricing.market", "repro.pricing.market",
     "RealTimeMarket.record_demand"),
    ("resilience.supervisor", "repro.resilience.supervisor",
     "PolicySupervisor.decide"),
    ("resilience.wal_append", "repro.resilience.durability",
     "WriteAheadLog.append"),
    ("resilience.checkpoint", "repro.resilience.durability",
     "ControllerCheckpoint.save"),
)

#: Modules imported before patching, so every ``from x import f``
#: binding of a wrapped function already exists and gets replaced too.
PRELOAD = ("repro.sim", "repro.sim.batch", "repro.core", "repro.control",
           "repro.optim", "repro.pricing", "repro.datacenter",
           "repro.resilience", "repro.service")


class Tracer:
    """In-memory spans plus period and run brackets, per thread.

    Every span carries the id of the control period open on its thread
    when it started (-1 outside a run); that id is what ties a span to
    its period.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent, period]
        self.periods: list[tuple] = []  # (period id, start, end)
        self.runs: list[tuple] = []     # (start, end)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, local, lock = self.spans, self._local, self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   getattr(local, "period", -1)]
            with lock:
                index = len(spans)
                spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def begin_run(self) -> None:
        self._local.run_start = self._local.mark = time.perf_counter()
        self._local.period = next(self._ids)

    def mark_period(self) -> None:
        """Close the current period at now (called once per period)."""
        now = time.perf_counter()
        self.periods.append((self._local.period, self._local.mark, now))
        self._local.mark = now
        self._local.period = next(self._ids)

    def end_run(self) -> None:
        self.runs.append((self._local.run_start, time.perf_counter()))
        self._local.period = -1

    def dump(self) -> dict:
        return {"spans": self.spans, "periods": self.periods,
                "runs": self.runs}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target in :data:`TARGETS`, wherever it is bound.

    Returns the replaced bindings for :func:`uninstall`.
    """
    for name in PRELOAD:
        importlib.import_module(name)
    patches = []
    for span, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owners, attr = [getattr(module, cls_name)], meth
            original = getattr(owners[0], attr)
        else:
            original = getattr(module, attr)
            owners = [m for m in list(sys.modules.values())
                      if getattr(m, "__name__", "").startswith("repro")
                      and getattr(m, attr, None) is original]
        wrapped = tracer.wrap(span, original)
        for owner in owners:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def summarize(dump: dict) -> dict:
    """Per-layer figures from one tracer dump (times in seconds).

    Returns ``periods`` (count), ``period_s`` and ``run_s`` (summed
    walls), ``self_s`` (layer -> self time inside periods, including
    ``sim``), and ``durations`` (span name -> array of inclusive
    durations of the spans inside periods).
    """
    spans = dump["spans"]
    periods = dump["periods"]
    out = {"periods": len(periods),
           "period_s": float(sum(e - s for _, s, e in periods)),
           "run_s": float(sum(e - s for s, e in dump["runs"])),
           "self_s": {}, "durations": {}}
    closed = {pid for pid, _, _ in periods}
    top_level = 0.0
    child = [0.0] * len(spans)
    for name, start, end, parent, _period in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, period) in enumerate(spans):
        if period not in closed:
            continue
        layer = name.split(".")[0]
        out["self_s"][layer] = out["self_s"].get(layer, 0.0) \
            + (end - start) - child[i]
        out["durations"].setdefault(name, []).append(end - start)
        if parent < 0:
            top_level += end - start
    out["self_s"]["sim"] = out["period_s"] - top_level
    out["durations"] = {k: np.asarray(v)
                        for k, v in out["durations"].items()}
    return out
