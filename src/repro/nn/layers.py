"""Layer descriptors for the E2E policy networks.

These are *shape-level* descriptions: enough information to count
parameters and MACs and to lower each layer onto the systolic-array
simulator (as an im2col GEMM), but no weights.  The actual trainable
policies used by the Air Learning substitute live in
:mod:`repro.airlearning.policy`; the two representations are linked by
:func:`repro.nn.template.build_policy_network`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ConvLayer:
    """A 2-D convolution layer (NHWC, 'same' padding semantics).

    Attributes:
        name: Human-readable layer identifier.
        in_height: Input feature-map height (pixels).
        in_width: Input feature-map width (pixels).
        in_channels: Input channel count.
        num_filters: Number of output channels.
        kernel_size: Square kernel side length.
        stride: Spatial stride (same in both dimensions).
    """

    name: str
    in_height: int
    in_width: int
    in_channels: int
    num_filters: int
    kernel_size: int
    stride: int = 1

    def __post_init__(self) -> None:
        for field in ("in_height", "in_width", "in_channels", "num_filters",
                      "kernel_size", "stride"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{self.name}: {field} must be positive, "
                                  f"got {getattr(self, field)}")

    @property
    def out_height(self) -> int:
        """Output height under 'same' padding."""
        return math.ceil(self.in_height / self.stride)

    @property
    def out_width(self) -> int:
        """Output width under 'same' padding."""
        return math.ceil(self.in_width / self.stride)

    @property
    def out_channels(self) -> int:
        """Output channel count (alias for ``num_filters``)."""
        return self.num_filters

    @property
    def params(self) -> int:
        """Trainable parameter count (weights + bias)."""
        weights = (self.kernel_size ** 2) * self.in_channels * self.num_filters
        return weights + self.num_filters

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference."""
        per_output = (self.kernel_size ** 2) * self.in_channels
        return self.out_height * self.out_width * self.num_filters * per_output

    @property
    def ifmap_elements(self) -> int:
        """Input feature-map size in elements."""
        return self.in_height * self.in_width * self.in_channels

    def as_gemm(self) -> "GemmShape":
        """Lower to an im2col GEMM: (M=output pixels) x (K=kernel volume) x (N=filters)."""
        return GemmShape(
            m=self.out_height * self.out_width,
            k=(self.kernel_size ** 2) * self.in_channels,
            n=self.num_filters,
        )


@dataclass(frozen=True)
class DenseLayer:
    """A fully connected layer."""

    name: str
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ConfigError(f"{self.name}: feature counts must be positive")

    @property
    def params(self) -> int:
        """Trainable parameter count (weights + bias)."""
        return self.in_features * self.out_features + self.out_features

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations for one inference."""
        return self.in_features * self.out_features

    def as_gemm(self) -> "GemmShape":
        """Lower to a GEMM with a single output row."""
        return GemmShape(m=1, k=self.in_features, n=self.out_features)


@dataclass(frozen=True)
class PoolLayer:
    """A max/average pooling layer (no parameters, negligible MACs).

    Pooling layers are tracked for shape propagation but are not lowered
    onto the accelerator: their cost is folded into the surrounding
    layers, mirroring how SCALE-Sim workloads omit them.
    """

    name: str
    in_height: int
    in_width: int
    in_channels: int
    pool_size: int
    stride: int

    @property
    def out_height(self) -> int:
        """Output height (floor semantics, no padding)."""
        return max(1, self.in_height // self.stride)

    @property
    def out_width(self) -> int:
        """Output width (floor semantics, no padding)."""
        return max(1, self.in_width // self.stride)

    @property
    def out_channels(self) -> int:
        """Channel count is preserved by pooling."""
        return self.in_channels

    @property
    def params(self) -> int:
        """Pooling has no trainable parameters."""
        return 0

    @property
    def macs(self) -> int:
        """Pooling comparisons/additions are not counted as MACs."""
        return 0


@dataclass(frozen=True)
class GemmShape:
    """A GEMM of shape (M x K) * (K x N) used as the accelerator workload unit."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ConfigError(f"GEMM dims must be positive: {self}")

    @property
    def macs(self) -> int:
        """Total multiply-accumulates in the GEMM."""
        return self.m * self.k * self.n

    @property
    def filter_elements(self) -> int:
        """Elements of the stationary weight operand."""
        return self.k * self.n

    @property
    def ofmap_elements(self) -> int:
        """Elements of the output operand."""
        return self.m * self.n
