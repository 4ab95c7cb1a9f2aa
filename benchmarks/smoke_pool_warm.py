"""Warm worker-pool runtime smoke benchmark for CI.

Guards the persistent-runtime seam on its two production shapes:

* **Dispatch overhead** -- repeated small ``parallel_map`` calls (the
  q-point proposal groups a mid-run optimiser emits) must be at least
  ``MIN_DISPATCH_SPEEDUP`` cheaper per call under the warm pool than
  under the cold per-call pool.  Measurable on any core count: it
  compares executor spawn-per-call against reuse.
* **Shared-memory batch transport** -- a large warm ``evaluate_batch``
  must be bit-identical to the cold oracle, and the zero-copy design
  matrix must be smaller than the pickle payload it replaces.

Best of ``REPS`` repetitions per timed side; numbers land in the
``runtime`` section of ``BENCH_phase2.json``.

Run directly (exit code 0/1) or via pytest::

    PYTHONPATH=src python benchmarks/smoke_pool_warm.py
"""

from __future__ import annotations

import pickle
import sys
import time

import numpy as np

from _results import PHASE2_RESULTS, merge_results
from repro.core.evalcache import reset_shared_cache
from repro.core.parallel import (
    DEFAULT_CHUNKSIZE,
    BatchDssocEvaluator,
    parallel_map,
)
from repro.core.workers import shutdown_warm_pool, warm_pool
from repro.nn.template import PolicyHyperparams
from repro.scalesim.config import (
    PE_DIM_CHOICES,
    SRAM_KB_CHOICES,
    AcceleratorConfig,
    Dataflow,
)
from repro.soc.batch import pack_design_matrix
from repro.soc.dssoc import DssocDesign

BATCH_SIZE = 512
REPS = 5
DISPATCH_ITEMS = 64
DISPATCH_CHUNKSIZE = 8
MIN_DISPATCH_SPEEDUP = 3.0


def _square(x):
    return x * x


def _random_designs(seed: int, count: int) -> list:
    policy = PolicyHyperparams(num_layers=10, num_filters=64)
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(count):
        config = AcceleratorConfig(
            pe_rows=int(rng.choice(PE_DIM_CHOICES)),
            pe_cols=int(rng.choice(PE_DIM_CHOICES)),
            ifmap_sram_kb=int(rng.choice(SRAM_KB_CHOICES)),
            filter_sram_kb=int(rng.choice(SRAM_KB_CHOICES)),
            ofmap_sram_kb=int(rng.choice(SRAM_KB_CHOICES)),
            dataflow=list(Dataflow)[int(rng.integers(3))],
        )
        designs.append(DssocDesign(policy=policy, accelerator=config))
    return designs


def bench_dispatch() -> dict:
    """Per-call cost of small parallel_map batches, cold vs warm."""
    items = list(range(DISPATCH_ITEMS))
    chunks = -(-DISPATCH_ITEMS // DISPATCH_CHUNKSIZE)

    # Warm both paths so neither side pays first-call setup: the cold
    # path imports/forks once, the warm pool spawns its executor.
    parallel_map(_square, items, workers=2,
                 chunksize=DISPATCH_CHUNKSIZE, pool="cold")
    warm_pool().acquire(2)
    parallel_map(_square, items, workers=2,
                 chunksize=DISPATCH_CHUNKSIZE, pool="warm")

    per_call = {}
    for pool in ("cold", "warm"):
        best_s = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            parallel_map(_square, items, workers=2,
                         chunksize=DISPATCH_CHUNKSIZE, pool=pool)
            best_s = min(best_s, time.perf_counter() - start)
        per_call[pool] = best_s
    return {
        "items": DISPATCH_ITEMS,
        "chunksize": DISPATCH_CHUNKSIZE,
        "workers": 2,
        "reps": REPS,
        "cold_s_per_call": per_call["cold"],
        "warm_s_per_call": per_call["warm"],
        "cold_us_per_chunk": per_call["cold"] / chunks * 1e6,
        "warm_us_per_chunk": per_call["warm"] / chunks * 1e6,
        "dispatch_speedup": per_call["cold"] / per_call["warm"],
    }


def bench_shm_batch() -> dict:
    """Warm shared-memory evaluate_batch vs the cold oracle."""
    designs = _random_designs(seed=17, count=BATCH_SIZE)
    reset_shared_cache()
    cold = BatchDssocEvaluator(workers=2, pool="cold").evaluate_batch(
        designs)
    reset_shared_cache()
    warm = BatchDssocEvaluator(workers=2, pool="warm").evaluate_batch(
        designs)
    reset_shared_cache()
    shm_bytes = pack_design_matrix(designs).nbytes
    # What the cold path actually ships: each chunk pickles its designs
    # independently (no cross-chunk memoisation), so sum per-chunk.
    pickle_bytes = sum(
        len(pickle.dumps(designs[i:i + DEFAULT_CHUNKSIZE],
                         protocol=pickle.HIGHEST_PROTOCOL))
        for i in range(0, len(designs), DEFAULT_CHUNKSIZE))
    return {
        "batch_size": BATCH_SIZE,
        "bit_identical": warm == cold,
        "shm_bytes": shm_bytes,
        "pickle_bytes": pickle_bytes,
        "payload_ratio": pickle_bytes / shm_bytes,
    }


def run_smoke() -> dict:
    try:
        return {
            "dispatch": bench_dispatch(),
            "shm_batch": bench_shm_batch(),
        }
    finally:
        shutdown_warm_pool()


def check(measurements: dict) -> list:
    """Return a list of failure messages (empty when healthy)."""
    failures = []
    dispatch = measurements["dispatch"]
    if dispatch["dispatch_speedup"] < MIN_DISPATCH_SPEEDUP:
        failures.append(
            f"warm dispatch speedup {dispatch['dispatch_speedup']:.2f}x < "
            f"{MIN_DISPATCH_SPEEDUP:.1f}x")
    shm = measurements["shm_batch"]
    if not shm["bit_identical"]:
        failures.append("warm shm batch diverged from the cold oracle")
    if shm["shm_bytes"] >= shm["pickle_bytes"]:
        failures.append(
            f"shm payload ({shm['shm_bytes']} B) not smaller than the "
            f"pickle payload ({shm['pickle_bytes']} B)")
    return failures


def main() -> int:
    measurements = run_smoke()
    dispatch = measurements["dispatch"]
    shm = measurements["shm_batch"]
    print("Warm-pool runtime smoke benchmark")
    print(f"  dispatch ({dispatch['items']} items / "
          f"{dispatch['chunksize']} per chunk, best of "
          f"{dispatch['reps']}): cold "
          f"{dispatch['cold_us_per_chunk']:.0f} us/chunk, warm "
          f"{dispatch['warm_us_per_chunk']:.0f} us/chunk "
          f"-> {dispatch['dispatch_speedup']:.2f}x")
    print(f"  shm batch ({shm['batch_size']} designs): "
          f"bit-identical={shm['bit_identical']}, "
          f"{shm['shm_bytes']} B zero-copy vs "
          f"{shm['pickle_bytes']} B pickled "
          f"({shm['payload_ratio']:.1f}x smaller)")
    merge_results(PHASE2_RESULTS, measurements, section="runtime")
    print(f"  wrote {PHASE2_RESULTS.name}")
    failures = check(measurements)
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK")
    return 1 if failures else 0


def test_smoke_pool_warm():
    """Pytest entry point for the same checks."""
    assert check(run_smoke()) == []


if __name__ == "__main__":
    sys.exit(main())
