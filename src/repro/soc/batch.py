"""Batched DSSoC power/weight evaluation over the SoA simulator kernel.

Given a pool of design points, this module simulates every uncached
accelerator config through :mod:`repro.scalesim.batch` (one vectorised
pass per distinct policy network), then evaluates the power and weight
models as elementwise array expressions instead of per-design Python
walks.  Every float expression mirrors the scalar model's operation
order exactly (same groupings, same left-to-right chains), and the SRAM
energy coefficients are taken from the *scalar* ``sram_model`` per
distinct capacity, so batched evaluations are bit-identical to
:meth:`repro.soc.dssoc.DssocEvaluator.evaluate` -- the contract the
equivalence suite enforces per point.

The module-wide :class:`BatchStats` counters record how much work flows
through the batch path (batch calls, designs per batch, kernel-simulated
designs); :class:`repro.perf.Profiler` snapshots them per phase so
``autopilot design --profile`` can report the mean evaluation batch
size.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.perf.counters import DeltaCounters
from repro.power.cacti import sram_model
from repro.power.dram import (
    BACKGROUND_POWER_W,
    READ_ENERGY_PJ_PER_BYTE,
    WRITE_ENERGY_PJ_PER_BYTE,
)
from repro.power.pe import IDLE_ENERGY_PJ, MAC_ENERGY_PJ, PE_LEAKAGE_W
from repro.power.soc_power import AcceleratorPowerBreakdown
from repro.scalesim.batch import BatchSimulation, simulate_batch
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.report import RunReport
from repro.soc.components import fixed_components_power_w
from repro.soc.weight import (
    CONVECTION_CM3_K_PER_W,
    FIN_FILL_FACTOR,
    MOTHERBOARD_WEIGHT_G,
    T_AMBIENT_C,
    T_MAX_C,
    ComputeWeight,
)
from repro.units import ALUMINIUM_DENSITY_G_PER_CM3

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.soc.dssoc import DssocDesign, DssocEvaluation, DssocEvaluator


@dataclass
class BatchStats(DeltaCounters):
    """Process-wide counters for the batched evaluation path.

    The profiler snapshots the module-wide instance per phase and
    reports deltas (:class:`~repro.perf.counters.DeltaCounters`).
    """

    batch_calls: int = 0       # evaluate_batch invocations
    batched_designs: int = 0   # designs handed to evaluate_batch
    kernel_designs: int = 0    # uncached designs simulated by the kernel
    proposal_calls: int = 0    # optimiser proposal groups submitted batched
    proposal_designs: int = 0  # designs across those proposal groups
    kernel_wall_s: float = 0.0  # wall time inside the array-kernel calls

    @property
    def mean_batch_size(self) -> float:
        """Average designs per evaluate_batch call."""
        if self.batch_calls == 0:
            return 0.0
        return self.batched_designs / self.batch_calls

    @property
    def mean_proposal_batch(self) -> float:
        """Average designs per mid-run proposal-group submission."""
        if self.proposal_calls == 0:
            return 0.0
        return self.proposal_designs / self.proposal_calls


_batch_stats = BatchStats()


def batch_stats() -> BatchStats:
    """The process-wide batched-evaluation counters."""
    return _batch_stats


#: Per-design integer aggregates the power models consume, in the column
#: order used by the (B, len(_SUM_FIELDS)) staging matrix.  The access
#: and traffic sums are exactly the ``sum(... for l in report.layers)``
#: reductions ``accelerator_power`` performs (integers, hence exact in
#: any order); ``ifmap/filter_writes`` are DRAM fill *bytes*, matching
#: the scalar model's charging of fills as scratchpad writes.
_SUM_FIELDS = (
    "num_pes", "total_cycles", "macs",
    "ifmap_reads", "ifmap_writes", "filter_reads", "filter_writes",
    "ofmap_reads", "ofmap_writes", "read_bytes", "write_bytes",
)


def _sum_matrix_from_sim(sim: BatchSimulation) -> np.ndarray:
    """A ``(G, len(_SUM_FIELDS))`` aggregate matrix from the SoA arrays."""
    macs_total = int(np.sum(np.asarray(
        [l.gemm.macs for l in sim.workload.layers], dtype=np.int64)))
    return np.stack((
        np.asarray([c.num_pes for c in sim.configs], dtype=np.int64),
        np.sum(sim.total_cycles, axis=1),
        np.full(len(sim.configs), macs_total, dtype=np.int64),
        np.sum(sim.mapping.ifmap_sram_reads, axis=1),
        np.sum(sim.traffic.dram_ifmap_read_bytes, axis=1),
        np.sum(sim.mapping.filter_sram_reads, axis=1),
        np.sum(sim.traffic.dram_filter_read_bytes, axis=1),
        np.sum(sim.mapping.ofmap_sram_reads, axis=1),
        np.sum(sim.mapping.ofmap_sram_writes, axis=1),
        np.sum(sim.traffic.dram_read_bytes, axis=1),
        np.sum(sim.traffic.dram_ofmap_write_bytes, axis=1),
    ), axis=1)


def _sum_row_from_report(report: RunReport, num_pes: int) -> tuple:
    """The ``_SUM_FIELDS`` row for one already-materialised report."""
    layers = report.layers
    return (
        num_pes,
        sum(l.total_cycles for l in layers),
        sum(l.mapping.macs for l in layers),
        sum(l.mapping.ifmap_sram_reads for l in layers),
        sum(l.traffic.dram_ifmap_read_bytes for l in layers),
        sum(l.mapping.filter_sram_reads for l in layers),
        sum(l.traffic.dram_filter_read_bytes for l in layers),
        sum(l.mapping.ofmap_sram_reads for l in layers),
        sum(l.mapping.ofmap_sram_writes for l in layers),
        sum(l.traffic.dram_read_bytes for l in layers),
        sum(l.traffic.dram_write_bytes for l in layers),
    )


def _sram_coefficient_columns(
        configs: Sequence[AcceleratorConfig]) -> Dict[str, np.ndarray]:
    """Scalar ``sram_model`` coefficients per design, per scratchpad."""
    models = {}
    columns: Dict[str, np.ndarray] = {}
    for operand, attribute in (("ifmap", "ifmap_sram_kb"),
                               ("filter", "filter_sram_kb"),
                               ("ofmap", "ofmap_sram_kb")):
        capacities = [getattr(c, attribute) for c in configs]
        for kb in set(capacities):
            if kb not in models:
                models[kb] = sram_model(kb)
        columns[f"{operand}_read_pj"] = np.asarray(
            [models[kb].read_energy_pj for kb in capacities])
        columns[f"{operand}_write_pj"] = np.asarray(
            [models[kb].write_energy_pj for kb in capacities])
        columns[f"{operand}_leak_w"] = np.asarray(
            [models[kb].leakage_w for kb in capacities])
    return columns


def _accelerator_power_arrays(frames_per_second: np.ndarray,
                              clock_hz: np.ndarray,
                              sums: Dict[str, np.ndarray]) -> dict:
    """``accelerator_power`` over the batch, same float op order.

    ``sums`` carries the per-design aggregate access/traffic counts and
    the SRAM model coefficient columns; ``frames_per_second`` is the
    (already achievability-clamped) frame rate per design.
    """
    num_pes = sums["num_pes"]
    total_cycles = sums["total_cycles"]
    macs = sums["macs"]

    # --- PE array (repro.power.pe.array_power + average_power_w) ------
    pe_cycles = num_pes * total_cycles
    useful = np.minimum(macs, pe_cycles)
    idle = pe_cycles - useful
    array_dynamic_j = (useful * MAC_ENERGY_PJ + idle * IDLE_ENERGY_PJ) * 1e-12
    array_leakage_w = num_pes * PE_LEAKAGE_W
    inference_power = array_dynamic_j * frames_per_second
    busy_fraction = np.minimum(
        1.0, (total_cycles * frames_per_second) / clock_hz)
    idle_gap_power = ((1.0 - busy_fraction) * num_pes
                      * IDLE_ENERGY_PJ * 1e-12 * clock_hz)
    array_w = inference_power + idle_gap_power + array_leakage_w

    # --- Scratchpads (repro.power.cacti via scalar coefficients) ------
    ifmap_energy = (sums["ifmap_reads"] * sums["ifmap_read_pj"]
                    + sums["ifmap_writes"] * sums["ifmap_write_pj"]) * 1e-12
    filter_energy = (sums["filter_reads"] * sums["filter_read_pj"]
                     + sums["filter_writes"] * sums["filter_write_pj"]) * 1e-12
    ofmap_energy = (sums["ofmap_reads"] * sums["ofmap_read_pj"]
                    + sums["ofmap_writes"] * sums["ofmap_write_pj"]) * 1e-12
    ifmap_w = ifmap_energy * frames_per_second + sums["ifmap_leak_w"]
    filter_w = filter_energy * frames_per_second + sums["filter_leak_w"]
    ofmap_w = ofmap_energy * frames_per_second + sums["ofmap_leak_w"]

    # --- DRAM (repro.power.dram) --------------------------------------
    dram_dynamic_j = (sums["read_bytes"] * READ_ENERGY_PJ_PER_BYTE
                      + sums["write_bytes"] * WRITE_ENERGY_PJ_PER_BYTE) * 1e-12
    dram_w = dram_dynamic_j * frames_per_second + BACKGROUND_POWER_W

    per_inference = (array_dynamic_j + ifmap_energy
                     + filter_energy + ofmap_energy
                     + dram_dynamic_j)

    return {
        "frames_per_second": frames_per_second,
        "array_w": array_w,
        "ifmap_sram_w": ifmap_w,
        "filter_sram_w": filter_w,
        "ofmap_sram_w": ofmap_w,
        "dram_w": dram_w,
        "energy_per_inference_j": per_inference,
        # total_w with the scalar property's grouping:
        # (array + ((ifmap + filter) + ofmap)) + dram
        "total_w": (array_w + ((ifmap_w + filter_w) + ofmap_w)) + dram_w,
    }


def _materialise_breakdowns(power: dict) -> List[AcceleratorPowerBreakdown]:
    """Build per-design breakdown records from the power columns."""
    rows = zip(power["frames_per_second"].tolist(),
               power["array_w"].tolist(),
               power["ifmap_sram_w"].tolist(),
               power["filter_sram_w"].tolist(),
               power["ofmap_sram_w"].tolist(),
               power["dram_w"].tolist(),
               power["energy_per_inference_j"].tolist())
    new = object.__new__
    setdict = object.__setattr__
    out = []
    for fps, array_w, if_w, fil_w, of_w, dram_w, epi in rows:
        breakdown = new(AcceleratorPowerBreakdown)
        setdict(breakdown, "__dict__", {
            "frames_per_second": fps, "array_w": array_w,
            "ifmap_sram_w": if_w, "filter_sram_w": fil_w,
            "ofmap_sram_w": of_w, "dram_w": dram_w,
            "energy_per_inference_j": epi})
        out.append(breakdown)
    return out


@dataclass(frozen=True)
class _PowerColumns:
    """Per-design power/weight results for one evaluated batch."""

    operating: List[AcceleratorPowerBreakdown]
    soc_power_w: List[float]
    tdp_w: List[float]
    weight: List[ComputeWeight]


def _evaluate_power_columns(configs: Sequence[AcceleratorConfig],
                            staged: np.ndarray,
                            operating_fps: Optional[float]) -> _PowerColumns:
    """Power, SoC power, TDP and weight columns for a report batch.

    ``staged`` is the ``(B, len(_SUM_FIELDS))`` int64 aggregate matrix.
    """
    sums: Dict[str, np.ndarray] = {
        name: staged[:, i] for i, name in enumerate(_SUM_FIELDS)}
    sums.update(_sram_coefficient_columns(configs))
    clock_hz = np.asarray([c.clock_hz for c in configs])

    # RunReport.frames_per_second: 1 / (total_cycles / clock_hz); the
    # guard for non-positive latency can't trigger (cycles, clock > 0).
    latency = sums["total_cycles"] / clock_hz
    achievable = 1.0 / latency

    peak_power = _accelerator_power_arrays(achievable, clock_hz, sums)
    fixed_w = fixed_components_power_w()
    tdp_w = peak_power["total_w"] + fixed_w

    if operating_fps is not None:
        # accelerator_power clamps the requested rate to the achievable
        # throughput before evaluating the models.
        operating_rate = np.minimum(np.float64(operating_fps), achievable)
        operating_power = _accelerator_power_arrays(
            operating_rate, clock_hz, sums)
    else:
        operating_power = peak_power
    soc_power_w = operating_power["total_w"] + fixed_w

    # Weight model (repro.soc.weight.compute_weight), same op chains.
    thermal_resistance = (T_MAX_C - T_AMBIENT_C) / tdp_w
    volume = CONVECTION_CM3_K_PER_W / thermal_resistance
    heatsink_g = volume * ALUMINIUM_DENSITY_G_PER_CM3 * FIN_FILL_FACTOR

    new = object.__new__
    setdict = object.__setattr__
    weights = []
    for tdp, vol, sink in zip(tdp_w.tolist(), volume.tolist(),
                              heatsink_g.tolist()):
        weight = new(ComputeWeight)
        setdict(weight, "__dict__", {
            "tdp_w": tdp, "heatsink_volume_cm3": vol,
            "heatsink_weight_g": sink,
            "motherboard_weight_g": MOTHERBOARD_WEIGHT_G})
        weights.append(weight)

    return _PowerColumns(
        operating=_materialise_breakdowns(operating_power),
        soc_power_w=soc_power_w.tolist(),
        tdp_w=tdp_w.tolist(),
        weight=weights,
    )


def evaluate_design_batch(evaluator: "DssocEvaluator",
                          designs: Sequence["DssocDesign"]
                          ) -> List["DssocEvaluation"]:
    """Evaluate a pool of design points with the batched kernels.

    Reports for cache misses come from one :func:`simulate_batch` pass
    per distinct policy network (deduplicated by design key, results
    published to the shared report cache); the power/weight models then
    run once over the whole pool as array expressions.  The returned
    evaluations are bit-identical, field for field, to calling
    ``evaluator.evaluate`` on each design in turn.
    """
    from repro.core.evalcache import (design_key, shared_report_cache,
                                      workload_fingerprint)
    from repro.nn.workload import lower_network
    from repro.soc.dssoc import DssocEvaluation

    if not designs:
        return []

    _batch_stats.batch_calls += 1
    _batch_stats.batched_designs += len(designs)

    # The same process-wide cache SystolicArraySimulator.run consults,
    # so batch and scalar evaluations share every simulation result.
    cache = shared_report_cache()
    count = len(designs)
    reports: List[Optional[RunReport]] = [None] * count
    staged = np.empty((count, len(_SUM_FIELDS)), dtype=np.int64)
    from_cache: List[int] = []
    workloads = {}
    pending: Dict[str, List[tuple]] = {}

    fingerprints: Dict[str, tuple] = {}
    consult_cache = len(cache) > 0
    for i, design in enumerate(designs):
        identifier = design.policy.identifier
        workload = workloads.get(identifier)
        if workload is None:
            workload = lower_network(evaluator.network_for(design.policy))
            workloads[identifier] = workload
            fingerprints[identifier] = workload_fingerprint(workload)
        key = design_key(workload, design.accelerator,
                         workload_fp=fingerprints[identifier])
        cached = cache.get(key) if consult_cache else None
        if cached is not None:
            if cached.network_name != workload.name:
                cached = replace(cached, network_name=workload.name)
            reports[i] = cached
            from_cache.append(i)
        else:
            pending.setdefault(identifier, []).append((i, key))

    # Bulk materialisation allocates tens of objects per design; pausing
    # the cyclic collector for that burst avoids pointless generational
    # scans (nothing allocated here forms cycles).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for identifier, entries in pending.items():
            workload = workloads[identifier]
            slots: Dict[object, int] = {}
            group_configs: List[AcceleratorConfig] = []
            unique_keys = []
            for i, key in entries:
                if key not in slots:
                    slots[key] = len(group_configs)
                    group_configs.append(designs[i].accelerator)
                    unique_keys.append(key)
            kernel_start = time.perf_counter()
            sim = simulate_batch(workload, group_configs)
            _batch_stats.kernel_wall_s += time.perf_counter() - kernel_start
            _batch_stats.kernel_designs += len(group_configs)
            group_reports = sim.reports()
            group_matrix = _sum_matrix_from_sim(sim)
            cache.put_many(zip(unique_keys, group_reports))
            indices = np.asarray([i for i, _ in entries])
            row_slots = np.asarray([slots[key] for _, key in entries])
            staged[indices] = group_matrix[row_slots]
            for i, key in entries:
                reports[i] = group_reports[slots[key]]

        for i in from_cache:
            staged[i] = _sum_row_from_report(
                reports[i], designs[i].accelerator.num_pes)

        kernel_start = time.perf_counter()
        power = _evaluate_power_columns(
            [d.accelerator for d in designs], staged,
            evaluator.operating_fps)
        _batch_stats.kernel_wall_s += time.perf_counter() - kernel_start

        new = object.__new__
        setdict = object.__setattr__
        evaluations = []
        for i, design in enumerate(designs):
            evaluation = new(DssocEvaluation)
            setdict(evaluation, "__dict__", {
                "design": design, "report": reports[i],
                "power": power.operating[i],
                "soc_power_w": power.soc_power_w[i], "tdp_w": power.tdp_w[i],
                "weight": power.weight[i]})
            evaluations.append(evaluation)
    finally:
        if gc_was_enabled:
            gc.enable()
    return evaluations
