"""Regenerate ``golden.json`` (run from the root of a checkout).

Usage: ``python3 perfbench/make_golden.py [HELD_OUT_SEED]``

Full-size entries hold the bill, mean ramp and budget excess of the
seed-independent workloads (``paper_day`` and ``durable_service``,
relative tolerance 1e-6).  Tiny entries, used by the self-test, add a
decision digest, for every workload at the held-out seed.  Regenerate
only when a change is meant to alter the controller's decisions, and
say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.sim import run_simulation  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import service  # noqa: E402


def engine_entry(result) -> dict:
    quality = metrics.quality(result)
    entry = {key: quality[key] for key in checks.GOLDEN_QUALITY}
    entry["digest"] = checks.digest_list([checks.servers_digest(result)])
    return entry


def service_entry(size: str) -> dict:
    workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        ref = service.reference_run(size, workdir)
    finally:
        shutil.rmtree(workdir)
    entry = {key: ref["quality"][key] for key in checks.GOLDEN_QUALITY}
    entry["digest"] = checks.digest_list(ref["digests"])
    return entry


def main(argv) -> int:
    old = checks.load_golden()
    seed = int(argv[0]) if argv else int(old["held_out_seed"])
    golden = {"held_out_seed": seed}
    for size in ("full", "tiny"):
        scenario, policy = inputs.paper_day(size)
        golden[f"paper_day/{size}"] = engine_entry(
            run_simulation(scenario, policy))
        golden[f"durable_service/{size}"] = service_entry(size)
    scenario, policy = inputs.diurnal_day(seed, "tiny")
    golden["diurnal_day/tiny"] = engine_entry(
        run_simulation(scenario, policy))
    for key in ("paper_day/full", "durable_service/full"):
        del golden[key]["digest"]     # quality figures only at full size
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
