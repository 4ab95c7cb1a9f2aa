"""Lowering policy networks onto accelerator workloads.

The systolic-array simulator consumes a sequence of GEMM operations with
byte sizes attached.  This module performs that lowering, including the
quantisation assumption (8-bit weights/activations, as in the paper's
PULP/SCALE-Sim setting) and per-layer operand sizing.

Two distinct ifmap sizes matter:

* the **GEMM streaming size** (``M x K``, the im2col-expanded matrix)
  governs SRAM read counts -- every streamed element is a scratchpad read;
* the **stored feature-map size** (``H x W x C``) governs DRAM traffic --
  the im2col expansion is generated on the fly by the scratchpad
  address generators, so DRAM only ever sees the raw feature map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.nn.layers import ConvLayer, DenseLayer, GemmShape
from repro.nn.template import PolicyNetwork

#: Operand width in bytes (int8 inference).
DEFAULT_BYTES_PER_ELEMENT = 1


@dataclass(frozen=True)
class LayerWorkload:
    """One accelerator-executable layer: a GEMM plus operand byte sizes."""

    name: str
    gemm: GemmShape
    #: Elements of the layer input as stored in memory (H*W*C for convs,
    #: in_features for dense layers) -- the DRAM-facing footprint.
    stored_ifmap_elements: int
    bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT

    @property
    def ifmap_bytes(self) -> int:
        """Bytes of the stored input feature map (DRAM-facing)."""
        return self.stored_ifmap_elements * self.bytes_per_element

    @property
    def filter_bytes(self) -> int:
        """Bytes of the weight operand."""
        return self.gemm.filter_elements * self.bytes_per_element

    @property
    def ofmap_bytes(self) -> int:
        """Bytes of the output operand."""
        return self.gemm.ofmap_elements * self.bytes_per_element


@dataclass(frozen=True)
class NetworkWorkload:
    """A full network lowered to an ordered list of layer workloads."""

    name: str
    layers: Sequence[LayerWorkload]


def lower_network(network: PolicyNetwork,
                  bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT) -> NetworkWorkload:
    """Lower a policy network to an accelerator workload."""
    layers: List[LayerWorkload] = []
    for layer in network.compute_layers():
        if isinstance(layer, ConvLayer):
            stored = layer.ifmap_elements
        elif isinstance(layer, DenseLayer):
            stored = layer.in_features
        else:  # pragma: no cover - compute_layers() filters to these types
            continue
        layers.append(LayerWorkload(
            name=layer.name,
            gemm=layer.as_gemm(),
            stored_ifmap_elements=stored,
            bytes_per_element=bytes_per_element,
        ))
    return NetworkWorkload(name=network.name, layers=tuple(layers))
