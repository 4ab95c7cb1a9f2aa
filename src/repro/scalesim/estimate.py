"""Tier-0 roofline estimator: closed-form lower bounds on the simulator.

The exact simulator
(:class:`~repro.scalesim.simulator.SystolicArraySimulator`) walks every
``(config, layer)`` pair: fold schedules, operand-fit tests and the
re-fetch orientation choice are all per-layer work.  For multi-fidelity
DSE the screening stage does not need any of that -- it needs *cheap,
certified lower bounds* on the quantities the objectives are built from,
so a candidate can be pruned only when even its most optimistic outcome
cannot beat the observed Pareto front.

This module reduces a workload to a handful of integer aggregates once
(:func:`lower_workload_aggregates`) and then evaluates every bound for a
whole config batch as ``(B,)`` array expressions -- no fold schedule, no
per-layer loop, no ``(B, L)`` intermediates.

Every column of :class:`BoundEstimate` is a certified lower bound of the
corresponding layer-sum of the exact simulator's report (the property
suite ``tests/scalesim/test_estimate.py`` enforces this over random
configs x the model zoo):

* **Compute cycles.**  Each dataflow computes ``folds * per_fold`` where
  ``folds = ceil(d1/r) * ceil(d2/c) >= d1*d2 / (r*c)`` and ``per_fold =
  pipe + 2r + c - 2`` with ``pipe`` the streamed GEMM dimension.  Summed
  over layers this is at least ``(total_macs + paired * (2r + c - 2)) /
  (r*c)`` where ``paired`` is the layer-sum of the two folded dimensions'
  product (``sum k*n`` for WS, ``m*n`` for OS, ``m*k`` for IS).  The
  exact total is an integer, so the integer ceiling of that ratio is
  still a lower bound.
* **DRAM traffic.**  Every operand is fetched from DRAM at least once
  and the ofmap writeback is exact, so the byte totals of the workload
  bound the re-fetch model from below; ``sum_l ceil(bytes_l / bw) >=
  ceil(sum_l bytes_l / bw)`` gives the DRAM-cycle bound.
* **SRAM traffic.**  The streaming reads of the two folded operands are
  at least ``macs / c`` and ``macs / r`` (a fold streams through the
  array once per occupied column/row), and the stationary operand's
  count is exact and config-independent.
* **Total cycles.**  ``sum_l max(compute_l, dram_l) + fill_l >=
  max(sum compute_l, sum dram_l) + L`` -- each layer's first-fill
  prologue costs at least one cycle.

Lower bounds here use exact *integer* ceiling division (``-(-a // b)``),
never the float-division ceil of the exact simulator: the bound argument is
arithmetic, not bit-equality with the scalar model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.nn.workload import NetworkWorkload
from repro.scalesim.config import AcceleratorConfig, Dataflow


def _ceil_div_exact(numerator: np.ndarray,
                    denominator: np.ndarray) -> np.ndarray:
    """Exact integer ``ceil(a / b)`` for non-negative ``int64`` operands."""
    return -(-np.asarray(numerator, dtype=np.int64)
             // np.asarray(denominator, dtype=np.int64))


@dataclass(frozen=True)
class WorkloadAggregates:
    """One workload reduced to the integer sums the bounds consume.

    ``macs`` is the total MAC count; ``sum_kn``/``sum_mn``/``sum_mk``
    are the layer-sums of the pairwise GEMM dimension products that the
    three dataflows fold over; the byte totals are the whole-network
    operand footprints (the DRAM-traffic floor).
    """

    workload: NetworkWorkload
    num_layers: int
    macs: int
    sum_kn: int
    sum_mn: int
    sum_mk: int
    ifmap_bytes: int
    filter_bytes: int
    ofmap_bytes: int

    @property
    def total_bytes(self) -> int:
        """Whole-network operand bytes -- the DRAM traffic floor."""
        return self.ifmap_bytes + self.filter_bytes + self.ofmap_bytes


def lower_workload_aggregates(workload: NetworkWorkload
                              ) -> WorkloadAggregates:
    """Reduce a workload to the aggregates of :class:`WorkloadAggregates`.

    One pass over the layers; every later :func:`estimate_batch` call
    for this workload is pure ``(B,)`` arithmetic.
    """
    if not workload.layers:
        raise SimulationError(f"workload {workload.name!r} has no layers")
    macs = sum_kn = sum_mn = sum_mk = 0
    ifmap_bytes = filter_bytes = ofmap_bytes = 0
    for layer in workload.layers:
        gemm = layer.gemm
        macs += gemm.macs
        sum_kn += gemm.k * gemm.n
        sum_mn += gemm.m * gemm.n
        sum_mk += gemm.m * gemm.k
        ifmap_bytes += layer.ifmap_bytes
        filter_bytes += layer.filter_bytes
        ofmap_bytes += layer.ofmap_bytes
    return WorkloadAggregates(
        workload=workload,
        num_layers=len(workload.layers),
        macs=macs,
        sum_kn=sum_kn,
        sum_mn=sum_mn,
        sum_mk=sum_mk,
        ifmap_bytes=ifmap_bytes,
        filter_bytes=filter_bytes,
        ofmap_bytes=ofmap_bytes,
    )


@dataclass(frozen=True)
class BoundEstimate:
    """``(B,)`` certified lower bounds for one workload x config batch.

    Every column bounds the corresponding layer-sum of the exact
    simulator's :class:`~repro.scalesim.report.RunReport` from below;
    ``dram_bytes`` is config-independent and broadcast to the batch.
    """

    configs: tuple
    compute_cycles: np.ndarray
    dram_cycles: np.ndarray
    total_cycles: np.ndarray
    dram_bytes: np.ndarray
    ifmap_sram_reads: np.ndarray
    filter_sram_reads: np.ndarray
    ofmap_sram_writes: np.ndarray

    def latency_seconds(self) -> np.ndarray:
        """Per-config latency floor (cycles over each config's clock)."""
        clocks = np.asarray([c.clock_hz for c in self.configs], dtype=float)
        return self.total_cycles / clocks


#: Per-dataflow selector: (paired-dims aggregate attribute,
#: streaming-read bound axes) -- see the module docstring derivation.
_PAIRED_AGGREGATE = {
    Dataflow.WEIGHT_STATIONARY: "sum_kn",
    Dataflow.OUTPUT_STATIONARY: "sum_mn",
    Dataflow.INPUT_STATIONARY: "sum_mk",
}


def estimate_batch(workload: Union[NetworkWorkload, WorkloadAggregates],
                   configs: Sequence[AcceleratorConfig]) -> BoundEstimate:
    """Evaluate every bound for one workload over a config batch.

    Configs are grouped by dataflow (one vectorised expression per
    distinct dataflow, scattered back into batch order).
    """
    if isinstance(workload, WorkloadAggregates):
        agg = workload
    else:
        agg = lower_workload_aggregates(workload)
    configs = tuple(configs)
    if not configs:
        raise SimulationError("config batch must not be empty")

    rows = np.asarray([c.pe_rows for c in configs], dtype=np.int64)
    cols = np.asarray([c.pe_cols for c in configs], dtype=np.int64)
    bandwidth = np.asarray([c.dram_bandwidth_bytes_per_cycle
                            for c in configs], dtype=np.int64)

    batch = len(configs)
    compute = np.empty(batch, dtype=np.int64)
    ifmap_reads = np.empty(batch, dtype=np.int64)
    filter_reads = np.empty(batch, dtype=np.int64)
    ofmap_writes = np.empty(batch, dtype=np.int64)

    dataflows = [c.dataflow for c in configs]
    for dataflow in set(dataflows):
        sel = np.flatnonzero([d is dataflow for d in dataflows])
        r, c = rows[sel], cols[sel]
        paired = getattr(agg, _PAIRED_AGGREGATE[dataflow])
        # folds * per_fold >= (macs + paired * (2r + c - 2)) / (r * c)
        compute[sel] = _ceil_div_exact(
            agg.macs + paired * (2 * r + c - 2), r * c)
        macs_over_c = _ceil_div_exact(agg.macs, c)
        macs_over_r = _ceil_div_exact(agg.macs, r)
        if dataflow is Dataflow.WEIGHT_STATIONARY:
            # ifmap streams: m*k*ceil(n/c) >= macs/c; filter is exact
            # (k*n per layer); ofmap writes: m*n*ceil(k/r) >= macs/r.
            ifmap_reads[sel] = macs_over_c
            filter_reads[sel] = agg.sum_kn
            ofmap_writes[sel] = macs_over_r
        elif dataflow is Dataflow.OUTPUT_STATIONARY:
            # ifmap: m*k*ceil(n/c) >= macs/c; filter: n*k*ceil(m/r)
            # >= macs/r; ofmap writes are exact (m*n per layer).
            ifmap_reads[sel] = macs_over_c
            filter_reads[sel] = macs_over_r
            ofmap_writes[sel] = agg.sum_mn
        elif dataflow is Dataflow.INPUT_STATIONARY:
            # ifmap is exact (m*k per layer); filter: k*n*ceil(m/c)
            # >= macs/c; ofmap writes: m*n*ceil(k/r) >= macs/r.
            ifmap_reads[sel] = agg.sum_mk
            filter_reads[sel] = macs_over_c
            ofmap_writes[sel] = macs_over_r
        else:  # pragma: no cover - the enum is closed
            raise SimulationError(f"unknown dataflow {dataflow!r}")

    dram_bytes = np.full(batch, agg.total_bytes, dtype=np.int64)
    dram_cycles = _ceil_div_exact(dram_bytes, bandwidth)
    # Each layer's first-fill prologue costs at least one cycle, and the
    # per-layer max(compute, dram) sum is bounded by the max of sums.
    total = np.maximum(compute, dram_cycles) + np.int64(agg.num_layers)

    return BoundEstimate(
        configs=configs,
        compute_cycles=compute,
        dram_cycles=dram_cycles,
        total_cycles=total,
        dram_bytes=dram_bytes,
        ifmap_sram_reads=ifmap_reads,
        filter_sram_reads=filter_reads,
        ofmap_sram_writes=ofmap_writes,
    )
