"""Host-speed normalisation of the end-to-end timings.

The benchmark shares a few cores of a host with other tenants, whose
load slows every process on it by 20-70% for minutes at a time (see
``NOTES.md``, Steadiness).  Each run repeats its unit of work several
times and keeps, for every period of the unit, its fastest time: the
cost of that period when the host was least in the way.  A slow phase
that covers the whole run still slows even the fastest repeat, so each
run also times a fixed calibration kernel that belongs to the
benchmark, never to the program: interpreter work (a loop over a dict
and floats), small dense numpy algebra, and serialising and reading a
working set larger than a core's private cache (the host's shared cache
is where other tenants get in the way).  The end-to-end times are
reported at the reference host speed, like against like.  The engine
workloads report each period's fastest time, so those are scaled by
the kernel's fastest time; set-up times and the service's figures are
medians, so they are scaled by the kernel's median time::

    reported = measured * REFERENCE_S / min(kernel times of the run)
    reported = measured * REFERENCE_MEDIAN_S / median(kernel times)

A program change moves the measured time and leaves the kernel alone,
so it shows in full; a slow host phase moves both and cancels.  The
kernel runs in a helper process, so its memory stays out of the
measured process's peak RSS, pinned to the CPU the measured process is
pinned to (other tenants slow one core at a time: a helper free to run
on the other core followed the program's speed far less closely), and
only between measured units, never while the program runs.

Run as a script, this module is that helper: ``hostspeed.py CPU`` pins
itself to ``CPU``, and for each line ``N`` on standard input times the
kernel ``N`` times and prints the times.
"""

from __future__ import annotations

import os
import pickle
import statistics
import subprocess
import sys
import time

import numpy as np

#: Kernel time (s) that defines the reference host speed: the fastest
#: on the 2-core Intel Xeon box the benchmark was tuned on.
REFERENCE_S = 0.018
#: The same for scaling medians: the median kernel time on that box
#: (about 30 ms, slower than the fastest because of the host's bursts).
REFERENCE_MEDIAN_S = 0.030
#: Kernel timings per :meth:`HostSpeed.sample` call.
SAMPLES = 3
STOP_TIMEOUT_S = 10.0


def _data():
    rng = np.random.default_rng(20120618)
    m = rng.standard_normal((24, 24))
    big = rng.standard_normal(2_000_000)
    return {
        "a": m @ m.T + 24.0 * np.eye(24),
        "b": rng.standard_normal(24),
        # about 6 MB of Python floats and a 16 MB array read at random,
        # more than a core's 4 MB L2
        "floats": [float(v) for v in rng.standard_normal(200_000)],
        "big": big,
        "gather": rng.integers(0, len(big), 300_000),
    }


def kernel(data: dict) -> float:
    """The fixed calibration work; returns a value so none is skipped."""
    table: dict = {}
    acc = 0.0
    for i in range(40_000):
        table[i & 255] = acc
        acc += (i * 0.5) / (1 + (i & 7))
    x = data["b"]
    for _ in range(400):
        x = np.linalg.solve(data["a"], np.maximum(data["b"], 0.0) + 1e-3 * x)
    blob = pickle.dumps(data["floats"], protocol=pickle.HIGHEST_PROTOCOL)
    return acc + float(x[0]) + len(blob) \
        + float(data["big"][data["gather"]].sum())


def cpus() -> list[int]:
    """The CPUs this process may run on, lowest first."""
    return sorted(os.sched_getaffinity(0))


class HostSpeed:
    """Kernel timings of one run, taken in a helper process on ``cpu``."""

    def __init__(self, cpu: int) -> None:
        self.samples: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self, n: int = SAMPLES) -> None:
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.samples += [float(v) for v in line.split()]

    def factor(self) -> float:
        """Multiplier that brings this run's fastest times to reference
        speed."""
        return REFERENCE_S / min(self.samples)

    def median_factor(self) -> float:
        """Multiplier that brings this run's median times to reference
        speed."""
        return REFERENCE_MEDIAN_S / statistics.median(self.samples)

    def close(self) -> None:
        """End the helper (EOF, then kill if it hangs); always reaps."""
        try:
            self.proc.stdin.close()
            self.proc.wait(STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    data = _data()
    kernel(data)                      # first-call costs out of the samples
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            kernel(data)
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]))
