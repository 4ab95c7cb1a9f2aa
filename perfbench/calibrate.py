"""Host-speed calibration: a fixed kernel timed next to every run.

On a small shared host each vCPU switches, every few seconds to every
few tens of seconds, between running at full speed and running about
1.7 times slower, as other tenants come and go on the physical core
beneath it; the share of slow time drifts over minutes.  A run's raw
time measures that share as much as the program.  So the benchmark
times this kernel on the CPUs a run is pinned to, right before and
right after the run, and scales the run's times by
:data:`REFERENCE_WALL_S` (or :data:`REFERENCE_CPU_S`) over the mean of
the two: a time is reported as it would read on a host of the
reference speed.

The kernel mixes what the program spends its time on: interpreted
Python over small containers, NumPy calls on short arrays (call
overhead, not arithmetic) and small dense linear algebra (GP fits).  It
imports nothing from the program, so a change to the program never
changes the scale.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Per-CPU time of one :func:`measure` on the reference host, a 2-vCPU
#: KVM guest on an Intel Xeon with AVX-512, at full speed.
REFERENCE_WALL_S = 0.5
REFERENCE_CPU_S = 0.5
#: Kernel repetitions timed on each CPU in one :func:`measure`.
REPEATS = 200


def inputs() -> dict:
    """The kernel's fixed inputs."""
    import numpy as np

    rng = np.random.default_rng(7)
    points = rng.random((48, 6))
    return {"np": np, "short": rng.random(16), "long": rng.random(2048),
            "gram": points @ points.T + 48 * np.eye(48),
            "rhs": rng.random((48, 3)),
            "keys": [tuple(row) for row in rng.integers(0, 9, (600, 3))],
            "values": [float(v) for v in rng.random(600)]}


def kernel(data: dict) -> float:
    """One repetition of the fixed calibration work; returns a checksum."""
    np = data["np"]

    table: dict = {}
    for key, value in zip(data["keys"], data["values"]):
        table[key] = table.get(key, 0.0) + value
    ranked = sorted(table.items(), key=lambda item: (item[1], item[0]))
    total = sum(value for _, value in ranked[::7])

    short = data["short"]
    for step in range(300):
        scaled = short * (1.0 + step * 1e-3) - 0.5
        total += float(np.maximum(scaled, 0.0).sum())
    long = data["long"]
    for _ in range(20):
        total += float(np.sort(long)[len(long) // 2] + np.cumsum(long)[-1])

    for _ in range(12):
        factor = np.linalg.cholesky(data["gram"])
        total += float(np.linalg.solve(factor, data["rhs"]).sum())
    return total


def _busy_ticks() -> Dict[int, int]:
    """Clock ticks each CPU has spent busy since boot (``/proc/stat``)."""
    ticks = {}
    with open("/proc/stat") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                values = [int(value) for value in fields]
                ticks[int(name[3:])] = sum(values) - values[3] - values[4]
    return ticks


def quietest(count: Optional[int], window_s: float = 0.25) -> List[int]:
    """The ``count`` CPUs this process may use that were least busy over
    the next ``window_s``; all of them when ``count`` is ``None``."""
    allowed = sorted(os.sched_getaffinity(0))
    if count is None or count >= len(allowed):
        return allowed
    try:
        first = _busy_ticks()
        time.sleep(window_s)
        second = _busy_ticks()
    except (OSError, ValueError, IndexError):
        return allowed[:count]
    busy = {cpu: second.get(cpu, 0) - first.get(cpu, 0) for cpu in allowed}
    return sorted(sorted(allowed, key=lambda cpu: (busy[cpu], cpu))[:count])


@contextlib.contextmanager
def pinned(cpus: Set[int]) -> Iterator[None]:
    """Run this process (and what it spawns meanwhile) on ``cpus`` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def measure(cpus: Sequence[int]) -> Tuple[float, float]:
    """Mean ``(wall_s, cpu_s)`` of :data:`REPEATS` kernel repetitions on
    each of ``cpus``, timed one CPU at a time."""
    data = inputs()
    walls, cpu_times = [], []
    for cpu in cpus:
        with pinned({cpu}):
            kernel(data)  # caches warm before the clock starts
            wall, cpu_time = time.perf_counter(), time.process_time()
            for _ in range(REPEATS):
                kernel(data)
            walls.append(time.perf_counter() - wall)
            cpu_times.append(time.process_time() - cpu_time)
    return statistics.fmean(walls), statistics.fmean(cpu_times)
