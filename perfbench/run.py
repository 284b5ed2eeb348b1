"""The repo benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper_day``, ``diurnal_day``, ``durable_service`` (see
``NOTES.md``); ``all`` runs the three in turn,
each in its own process, and prefixes metric names with the workload.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced work (span wrappers
installed) and reports the per-layer metrics.  Every metric is printed
by name with its unit, then the machine fingerprint, and as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and the daemon it spawns (set before
# numpy loads): the program's matrices are small, and a second thread
# only spins against the other process on a two-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_day", "diurnal_day", "durable_service")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the self-test")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    argv = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload] + argv,
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import metrics

    golden = checks.load_golden()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "durable_service":
            import service
            out = service.run(ROOT, workdir, args.seed, args.seconds,
                              bool(args.trace), args.size, golden)
        else:
            import engines
            out = engines.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:16s} {name:38s} {out['metrics'][name]:14.6g} "
              f"{unit}")
    for problem in out["problems"]:
        print(f"INCORRECT: {problem}")
    print("fingerprint " + json.dumps(metrics.fingerprint(), sort_keys=True))
    correct = not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": float(out["metrics"][name]),
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
