"""Systolic-array dataflow mapping math.

Implements the analytical cycle and access-count model of SCALE-Sim
(Samajdar et al., ISPASS 2020) for the three classic dataflows.  A GEMM
of shape (M x K) x (K x N) is tiled ("folded") onto an R x C array:

* **Output stationary (OS)** -- each PE owns one output; folds are
  ``ceil(M/R) * ceil(N/C)``; each fold streams the K-deep reduction
  through the array with fill/drain skew: ``2R + C + K - 2`` cycles.
* **Weight stationary (WS)** -- a K x N slice of the filter matrix is
  pinned (folds ``ceil(K/R) * ceil(N/C)``); each fold loads weights for
  R cycles and then streams M input rows: ``M + 2R + C - 2`` cycles.
  Folds along K produce partial sums that must be accumulated.
* **Input stationary (IS)** -- symmetric to WS with the input matrix
  pinned (folds ``ceil(K/R) * ceil(M/C)``), streaming N filter columns:
  ``N + 2R + C - 2`` cycles, accumulating along K.

Edge folds map fewer rows/columns; the model accounts for them exactly
(in closed form, without enumerating folds) when counting SRAM accesses
and utilisation, matching SCALE-Sim's per-fold bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.nn.layers import GemmShape
from repro.scalesim.config import AcceleratorConfig, Dataflow


@dataclass(frozen=True)
class MappingStats:
    """Result of mapping one GEMM onto the array.

    Access counts are in *elements* (multiply by bytes/element for bytes).
    ``ofmap_sram_reads`` covers partial-sum read-back during K-folding.
    """

    compute_cycles: int
    folds: int
    ifmap_sram_reads: int
    filter_sram_reads: int
    ofmap_sram_writes: int
    ofmap_sram_reads: int
    macs: int
    num_pes: int

    @property
    def pe_utilization(self) -> float:
        """Fraction of PE-cycles doing useful MACs (0, 1]."""
        total_pe_cycles = self.compute_cycles * self.num_pes
        if total_pe_cycles == 0:
            return 0.0
        return min(1.0, self.macs / total_pe_cycles)


def map_gemm(gemm: GemmShape, config: AcceleratorConfig) -> MappingStats:
    """Map a GEMM onto the configured array under its dataflow."""
    if config.dataflow is Dataflow.OUTPUT_STATIONARY:
        return _map_output_stationary(gemm, config)
    if config.dataflow is Dataflow.WEIGHT_STATIONARY:
        return _map_weight_stationary(gemm, config)
    if config.dataflow is Dataflow.INPUT_STATIONARY:
        return _map_input_stationary(gemm, config)
    raise SimulationError(f"unknown dataflow {config.dataflow!r}")


def _map_output_stationary(gemm: GemmShape,
                           config: AcceleratorConfig) -> MappingStats:
    rows, cols = config.pe_rows, config.pe_cols
    m_folds = math.ceil(gemm.m / rows)
    n_folds = math.ceil(gemm.n / cols)
    folds = m_folds * n_folds
    cycles_per_fold = 2 * rows + cols + gemm.k - 2
    compute_cycles = folds * cycles_per_fold

    # Each fold streams K elements per mapped row (ifmap) and per mapped
    # column (filter); mapped row/col sums across folds telescope to
    # m * n_folds and n * m_folds respectively.
    ifmap_reads = gemm.m * n_folds * gemm.k
    filter_reads = gemm.n * m_folds * gemm.k
    ofmap_writes = gemm.m * gemm.n  # each output produced exactly once
    return MappingStats(
        compute_cycles=compute_cycles,
        folds=folds,
        ifmap_sram_reads=ifmap_reads,
        filter_sram_reads=filter_reads,
        ofmap_sram_writes=ofmap_writes,
        ofmap_sram_reads=0,
        macs=gemm.macs,
        num_pes=config.num_pes,
    )


def _map_weight_stationary(gemm: GemmShape,
                           config: AcceleratorConfig) -> MappingStats:
    rows, cols = config.pe_rows, config.pe_cols
    k_folds = math.ceil(gemm.k / rows)
    n_folds = math.ceil(gemm.n / cols)
    folds = k_folds * n_folds
    cycles_per_fold = gemm.m + 2 * rows + cols - 2
    compute_cycles = folds * cycles_per_fold

    # Weights are loaded once per fold: total filter element loads equal
    # the filter matrix replicated once (sum of mapped tile areas = K*N).
    filter_reads = gemm.k * gemm.n
    # Each fold streams the M x K_tile slice of the input; summing the
    # mapped K tiles over k-folds gives K, and the stream repeats for
    # every n-fold.
    ifmap_reads = gemm.m * gemm.k * n_folds
    # Each fold emits M rows x C_tile columns of (partial) sums.
    ofmap_writes = gemm.m * gemm.n * k_folds
    # Accumulating across k-folds re-reads the previous partials.
    ofmap_reads = gemm.m * gemm.n * (k_folds - 1)
    return MappingStats(
        compute_cycles=compute_cycles,
        folds=folds,
        ifmap_sram_reads=ifmap_reads,
        filter_sram_reads=filter_reads,
        ofmap_sram_writes=ofmap_writes,
        ofmap_sram_reads=ofmap_reads,
        macs=gemm.macs,
        num_pes=config.num_pes,
    )


def _map_input_stationary(gemm: GemmShape,
                          config: AcceleratorConfig) -> MappingStats:
    rows, cols = config.pe_rows, config.pe_cols
    k_folds = math.ceil(gemm.k / rows)
    m_folds = math.ceil(gemm.m / cols)
    folds = k_folds * m_folds
    cycles_per_fold = gemm.n + 2 * rows + cols - 2
    compute_cycles = folds * cycles_per_fold

    ifmap_reads = gemm.m * gemm.k  # pinned once per fold, tiles tile the matrix
    filter_reads = gemm.k * gemm.n * m_folds
    ofmap_writes = gemm.m * gemm.n * k_folds
    ofmap_reads = gemm.m * gemm.n * (k_folds - 1)
    return MappingStats(
        compute_cycles=compute_cycles,
        folds=folds,
        ifmap_sram_reads=ifmap_reads,
        filter_sram_reads=filter_reads,
        ofmap_sram_writes=ofmap_writes,
        ofmap_sram_reads=ofmap_reads,
        macs=gemm.macs,
        num_pes=config.num_pes,
    )
