"""The parameterized E2E model template of Fig. 2a.

Air Learning's multi-modal policy template consumes an RGB image plus a
low-dimensional state vector (velocity and vector-to-goal) and emits a
discrete velocity command.  AutoPilot varies two hyper-parameters of the
template -- the number of (convolutional) layers and the per-layer filter
count -- to generate candidate policies (Table II):

    #layers  in [2..10]
    #filters in {32, 48, 64}

The template below mirrors that structure: a stack of ``num_layers``
convolutions (stride 2 on the first three to shrink the 84x84 input),
a 2x2 pooling stage, then a fixed fully connected head whose penultimate
layer is concatenated with the state vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

from repro.errors import ConfigError
from repro.nn.layers import ConvLayer, DenseLayer, GemmShape, PoolLayer

#: Hyper-parameter domain from Table II.
LAYER_CHOICES: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)
FILTER_CHOICES: Tuple[int, ...] = (32, 48, 64)

#: Input geometry of the visual front end: the OV9755 720p sensor stream
#: is downsampled 4x to 320x180 before entering the policy.
INPUT_HEIGHT = 180
INPUT_WIDTH = 320
INPUT_CHANNELS = 3

#: The conv stack output is adaptively pooled to this spatial size before
#: the fully connected head, keeping head size independent of depth.
POOLED_SIZE = 6

#: Dimensionality of the non-visual (state) input: 3-D velocity plus
#: 3-D vector-to-goal, as in the Air Learning multi-modal template.
STATE_DIM = 6

#: Discrete action set size (5 speeds x 5 yaw rates) used by Air Learning.
NUM_ACTIONS = 25

#: Fixed fully connected head widths.
FC1_WIDTH = 1024
FC2_WIDTH = 256

Layer = Union[ConvLayer, DenseLayer, PoolLayer]


@dataclass(frozen=True)
class PolicyHyperparams:
    """The two template hyper-parameters AutoPilot tunes (Table II)."""

    num_layers: int
    num_filters: int

    def __post_init__(self) -> None:
        if self.num_layers not in LAYER_CHOICES:
            raise ConfigError(
                f"num_layers must be one of {LAYER_CHOICES}, got {self.num_layers}")
        if self.num_filters not in FILTER_CHOICES:
            raise ConfigError(
                f"num_filters must be one of {FILTER_CHOICES}, got {self.num_filters}")

    @property
    def identifier(self) -> str:
        """Stable identifier used as the Air Learning database key."""
        return f"e2e-L{self.num_layers}-F{self.num_filters}"


@dataclass(frozen=True)
class PolicyNetwork:
    """A concrete instantiation of the Fig. 2a template."""

    hyperparams: PolicyHyperparams
    layers: Tuple[Layer, ...] = field(repr=False)

    @property
    def name(self) -> str:
        """Identifier shared with the Air Learning database."""
        return self.hyperparams.identifier

    @property
    def total_params(self) -> int:
        """Total trainable parameters across all layers."""
        return sum(layer.params for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """Total MACs per inference across all layers."""
        return sum(layer.macs for layer in self.layers)

    @property
    def conv_layers(self) -> List[ConvLayer]:
        """The convolutional layers, in order."""
        return [l for l in self.layers if isinstance(l, ConvLayer)]

    @property
    def dense_layers(self) -> List[DenseLayer]:
        """The fully connected layers, in order."""
        return [l for l in self.layers if isinstance(l, DenseLayer)]

    def compute_layers(self) -> List[Layer]:
        """Layers that carry MACs (conv + dense), in execution order."""
        return [l for l in self.layers
                if isinstance(l, (ConvLayer, DenseLayer))]

    def as_gemms(self) -> List[GemmShape]:
        """Lower every compute layer to its accelerator GEMM."""
        return [l.as_gemm() for l in self.compute_layers()]


def build_policy_network(hyperparams: PolicyHyperparams) -> PolicyNetwork:
    """Instantiate the Fig. 2a template for the given hyper-parameters.

    The conv stack applies stride 2 on the first layer (320x180 down to
    160x90) and stride 1 afterwards, all with 3x3 kernels and
    ``num_filters`` output channels; depth therefore scales compute almost
    linearly, which is the knob Phase 2 trades against success rate.  An
    adaptive pool to 6x6 then feeds the fixed FC head; the state vector
    joins at the second FC layer.
    """
    layers: List[Layer] = []
    height, width, channels = INPUT_HEIGHT, INPUT_WIDTH, INPUT_CHANNELS
    for index in range(hyperparams.num_layers):
        stride = 2 if index == 0 else 1
        conv = ConvLayer(
            name=f"conv{index + 1}",
            in_height=height,
            in_width=width,
            in_channels=channels,
            num_filters=hyperparams.num_filters,
            kernel_size=3,
            stride=stride,
        )
        layers.append(conv)
        height, width, channels = conv.out_height, conv.out_width, conv.out_channels

    pool = PoolLayer(
        name="pool",
        in_height=height,
        in_width=width,
        in_channels=channels,
        pool_size=max(1, height // POOLED_SIZE),
        stride=max(1, height // POOLED_SIZE),
    )
    layers.append(pool)
    flat = POOLED_SIZE * POOLED_SIZE * pool.out_channels

    layers.append(DenseLayer(name="fc1", in_features=flat, out_features=FC1_WIDTH))
    # The state vector is concatenated with fc1's output before fc2.
    layers.append(DenseLayer(name="fc2", in_features=FC1_WIDTH + STATE_DIM,
                             out_features=FC2_WIDTH))
    layers.append(DenseLayer(name="action", in_features=FC2_WIDTH,
                             out_features=NUM_ACTIONS))
    return PolicyNetwork(hyperparams=hyperparams, layers=tuple(layers))


def enumerate_template_space() -> List[PolicyHyperparams]:
    """All template points in Table II's NN sub-space (|L| x |F| = 27)."""
    return [PolicyHyperparams(num_layers=l, num_filters=f)
            for l in LAYER_CHOICES for f in FILTER_CHOICES]
