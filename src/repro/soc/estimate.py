"""Tier-0 SoC bounds: fast power/weight/latency floors for screening.

The counterpart of :mod:`repro.scalesim.estimate` one level up the
stack: given a pool of :class:`~repro.soc.dssoc.DssocDesign` points it
produces *certified lower bounds* on the three quantities Phase 2
minimises -- inference latency, SoC power and compute-payload weight --
without running the exact simulator or the full power model.

The power floor is workload-independent and holds for **both** frame
modes of :class:`~repro.soc.dssoc.DssocEvaluator` (peak throughput and
any clamped ``operating_fps >= 0``):

* PE array: the per-inference dynamic energy charges every PE-cycle at
  least ``IDLE_ENERGY_PJ`` (a useful MAC costs ``MAC_ENERGY_PJ >=
  IDLE_ENERGY_PJ``), so ``inference_power >= n_pe * IDLE * 1e-12 *
  (cycles * fps)``.  When ``busy = cycles * fps / clock < 1`` the idle
  gap adds ``(1 - busy) * n_pe * IDLE * 1e-12 * clock`` and the two
  terms sum to at least ``n_pe * IDLE * 1e-12 * clock``; when ``busy``
  saturates at 1 the inference term alone already clears that floor.
  Adding per-PE leakage: ``array_w >= n_pe * (IDLE * 1e-12 * clock +
  PE_LEAKAGE_W)``.
* Scratchpads: each of the three SRAMs burns at least its leakage.
* DRAM: at least the standby/refresh background power.
* Plus the always-on fixed components (MCUs, camera, MIPI).

TDP obeys the same floor (it *is* SoC power at peak throughput), and
``compute_weight`` is monotone increasing in TDP, so evaluating the
weight chain at the power floor bounds the true payload weight from
below.  The latency floor divides the tier-0 cycle bound by the clock.

``tests/soc/test_estimate.py`` enforces every floor against the exact
evaluator over random configs x the model zoo in both frame modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.template import PolicyHyperparams
from repro.power.cacti import sram_model
from repro.power.dram import BACKGROUND_POWER_W
from repro.power.pe import IDLE_ENERGY_PJ, PE_LEAKAGE_W
from repro.scalesim.config import AcceleratorConfig
from repro.scalesim.estimate import (
    WorkloadAggregates,
    estimate_batch,
    lower_workload_aggregates,
)
from repro.soc.components import fixed_components_power_w
from repro.soc.dssoc import DssocDesign, DssocEvaluator
from repro.soc.weight import (
    CONVECTION_CM3_K_PER_W,
    FIN_FILL_FACTOR,
    MOTHERBOARD_WEIGHT_G,
    T_AMBIENT_C,
    T_MAX_C,
)
from repro.units import ALUMINIUM_DENSITY_G_PER_CM3


@dataclass(frozen=True)
class DesignBounds:
    """``(B,)`` lower-bound columns for one screened design pool.

    Each column bounds the corresponding field of the exact
    :class:`~repro.soc.dssoc.DssocEvaluation` from below.
    """

    designs: tuple
    total_cycles: np.ndarray
    dram_bytes: np.ndarray
    latency_s: np.ndarray
    soc_power_w: np.ndarray
    compute_weight_g: np.ndarray

    @property
    def batch_size(self) -> int:
        """Design count B."""
        return len(self.designs)


def _sram_leakage_column(configs: Sequence[AcceleratorConfig]) -> np.ndarray:
    """Total scratchpad leakage (W) per config, scalar model per size."""
    leak: Dict[int, float] = {}
    kbs = [(c.ifmap_sram_kb, c.filter_sram_kb, c.ofmap_sram_kb)
           for c in configs]
    for triple in kbs:
        for kb in triple:
            if kb not in leak:
                leak[kb] = sram_model(kb).leakage_w
    return np.asarray([leak[i] + leak[f] + leak[o] for i, f, o in kbs])


def power_weight_floor(configs: Sequence[AcceleratorConfig]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """``(soc_power_lb, weight_lb)`` columns for a config batch.

    Workload-independent; see the module docstring for the derivation.
    """
    num_pes = np.asarray([c.num_pes for c in configs], dtype=float)
    clock_hz = np.asarray([c.clock_hz for c in configs], dtype=float)
    power_lb = (num_pes * (IDLE_ENERGY_PJ * 1e-12 * clock_hz + PE_LEAKAGE_W)
                + _sram_leakage_column(configs)
                + BACKGROUND_POWER_W + fixed_components_power_w())
    # compute_weight evaluated at the TDP floor (monotone in TDP).
    volume = CONVECTION_CM3_K_PER_W * power_lb / (T_MAX_C - T_AMBIENT_C)
    weight_lb = (volume * ALUMINIUM_DENSITY_G_PER_CM3 * FIN_FILL_FACTOR
                 + MOTHERBOARD_WEIGHT_G)
    return power_lb, weight_lb


class Tier0Estimator:
    """Pool-level lower bounds, cached per (workload, config) pair.

    Takes each policy's lowered workload from
    :meth:`~repro.soc.dssoc.DssocEvaluator.workload_for`, which lowers
    it once per process; workload aggregates are reduced once per
    policy and per-design results are published to the shared
    :class:`~repro.core.evalcache.EvalCache` under
    :func:`~repro.core.evalcache.estimate_key` -- a key family disjoint
    from the exact tier's ``evaluation_key`` entries, so the fidelity
    tiers can never alias.  Each screened design is one cache lookup,
    a hit or a miss, whether or not the cache is empty.
    """

    def __init__(self):
        self._aggregates: Dict[str, Tuple[WorkloadAggregates, tuple]] = {}

    def aggregates_for(self, policy: PolicyHyperparams
                       ) -> Tuple[WorkloadAggregates, tuple]:
        """``(aggregates, workload_fingerprint)`` for one policy, cached."""
        from repro.core.evalcache import workload_fingerprint
        cached = self._aggregates.get(policy.identifier)
        if cached is None:
            workload = DssocEvaluator.workload_for(policy)
            cached = (lower_workload_aggregates(workload),
                      workload_fingerprint(workload))
            self._aggregates[policy.identifier] = cached
        return cached

    def estimate_designs(self, designs: Sequence[DssocDesign]
                         ) -> DesignBounds:
        """Lower-bound columns for a design pool.

        One :func:`~repro.scalesim.estimate.estimate_batch` pass per
        distinct policy over the uncached designs; cached designs are
        served from the shared cache.
        """
        from repro.core.evalcache import estimate_key, shared_report_cache

        designs = tuple(designs)
        count = len(designs)
        cache = shared_report_cache()
        rows: List[Optional[tuple]] = [None] * count
        pending: Dict[str, List[int]] = {}
        keys: List[tuple] = []
        for i, design in enumerate(designs):
            _, workload_fp = self.aggregates_for(design.policy)
            key = estimate_key(None, design.accelerator,
                               workload_fp=workload_fp)
            keys.append(key)
            cached = cache.get(key)
            if cached is not None:
                rows[i] = cached
            else:
                pending.setdefault(design.policy.identifier, []).append(i)

        fresh: List[Tuple[tuple, tuple]] = []
        for identifier, indices in pending.items():
            aggregates, _ = self.aggregates_for(designs[indices[0]].policy)
            slots: Dict[tuple, int] = {}
            group_configs: List[AcceleratorConfig] = []
            for i in indices:
                if keys[i] not in slots:
                    slots[keys[i]] = len(group_configs)
                    group_configs.append(designs[i].accelerator)
            estimate = estimate_batch(aggregates, group_configs)
            power_lb, weight_lb = power_weight_floor(group_configs)
            latency_lb = estimate.latency_seconds()
            group_rows = list(zip(estimate.total_cycles.tolist(),
                                  estimate.dram_bytes.tolist(),
                                  latency_lb.tolist(),
                                  power_lb.tolist(),
                                  weight_lb.tolist()))
            for i in indices:
                row = group_rows[slots[keys[i]]]
                if rows[i] is None:
                    rows[i] = row
            fresh.extend((key, group_rows[slot])
                         for key, slot in slots.items())
        if fresh:
            cache.put_many(fresh)

        columns = np.asarray(rows, dtype=float)
        return DesignBounds(
            designs=designs,
            total_cycles=columns[:, 0].astype(np.int64),
            dram_bytes=columns[:, 1].astype(np.int64),
            latency_s=columns[:, 2],
            soc_power_w=columns[:, 3],
            compute_weight_g=columns[:, 4],
        )
