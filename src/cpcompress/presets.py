"""Built-in network definitions.

``toy_cnn`` is the desk-scale network the training pipeline exercises.

``alexnet`` / ``alexnet_decomposed`` reproduce the classic 5-conv/3-fc
architecture at 227x227 purely for analytic accounting (weights are zeros;
nothing here is trained).  The zeros are read-only ``np.zeros`` arrays that
the layers adopt, so their pages are never written and the ~490 MB of
weights cost next to no resident memory.  The decomposed variant follows
the replacement scheme the published totals for this architecture
correspond to, which differs from :func:`cpcompress.network.replace_layer`
in two documented ways:

  * the first convolution, whose 3 input channels are far below its rank,
    splits into TWO stages (a D x D convolution with R filters followed by
    a 1x1 mix), not three, because the published accounting counts it so.
    The three-stage form would count fewer multiplies (56.0M against the
    pair's 95.8M at 227x227), but its depthwise stage at stride 4 runs
    about 10x slower than the pair on the clock;
  * grouped convolutions keep their group structure and each group is
    factorized at the layer's full stated rank.

Multiply counts are for a single forward pass at the declared input shape,
counting kernel and fully-connected multiplications only (bias additions,
pooling and activations are free).  Under this convention the original
network costs ~724M multiplies and holds ~61.0M weights.
"""

import numpy as np

from .conv import ConvSpec
from .cp import CpFactors
from .data import TOY_CLASSES, TOY_INPUT_SHAPE
from .network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    MaxPool,
    NetworkSpec,
    ReLU,
)
from .svd import SvdFactors
from .tensor import _freeze

__all__ = [
    "ALEXNET_DEFAULT_RANKS",
    "alexnet",
    "alexnet_decomposed",
    "toy_cnn",
    "TOY_INPUT_SHAPE",
    "TOY_CLASSES",
]

# Per-layer ranks used by the built-in decomposed variant: sensitivity-
# proportional allocations against budgets of 750 (conv) and 900 (fc).
ALEXNET_DEFAULT_RANKS = {
    "conv1": 69,
    "conv2": 154,
    "conv3": 153,
    "conv4": 178,
    "conv5": 196,
    "fc6": 365,
    "fc7": 275,
    "fc8": 260,
}

_ALEXNET_CONVS = [
    # name, spec
    ("conv1", ConvSpec(96, 3, 11, stride=4, padding=0)),
    ("conv2", ConvSpec(256, 96, 5, stride=1, padding=2, groups=2)),
    ("conv3", ConvSpec(384, 256, 3, stride=1, padding=1)),
    ("conv4", ConvSpec(384, 384, 3, stride=1, padding=1, groups=2)),
    ("conv5", ConvSpec(256, 384, 3, stride=1, padding=1, groups=2)),
]
_ALEXNET_FCS = [("fc6", 4096, 9216), ("fc7", 4096, 4096), ("fc8", 1000, 4096)]
_ALEXNET_POOL_AFTER = {"conv1", "conv2", "conv5"}


def _zeros(*shape) -> np.ndarray:
    return _freeze(np.zeros(shape))


def _zeros_conv(name: str, spec: ConvSpec) -> Conv:
    return Conv(name, spec, _zeros(*spec.kernel_shape), _zeros(spec.out_channels))


def alexnet() -> NetworkSpec:
    """The original 5-conv / 3-fc architecture with zero weights."""
    layers = []
    for name, spec in _ALEXNET_CONVS:
        layers.append(_zeros_conv(name, spec))
        layers.append(ReLU(f"{name}.relu"))
        if name in _ALEXNET_POOL_AFTER:
            layers.append(MaxPool(f"{name}.pool", window=3, stride=2))
    layers.append(Flatten("flatten"))
    for name, m, n in _ALEXNET_FCS:
        layers.append(Fc(name, _zeros(m, n), _zeros(m)))
        if name != "fc8":
            layers.append(ReLU(f"{name}.relu"))
    return NetworkSpec((3, 227, 227), tuple(layers))


def _zero_factors(spec: ConvSpec, rank: int) -> tuple:
    s_g = spec.in_channels // spec.groups
    t_g = spec.out_channels // spec.groups
    d = spec.kernel_size
    return tuple(
        CpFactors(_zeros(rank, s_g), _zeros(rank, d, d), _zeros(t_g, rank))
        for _ in range(spec.groups)
    )


def alexnet_decomposed(ranks: dict | None = None) -> NetworkSpec:
    """The factorized variant under the documented accounting convention."""
    ranks = dict(ALEXNET_DEFAULT_RANKS if ranks is None else ranks)
    layers = []
    for name, spec in _ALEXNET_CONVS:
        rank = ranks[name]
        if spec.in_channels < rank and spec.groups == 1:
            # Narrow-input layer: D x D spatial stage straight to R channels,
            # then a 1x1 mix up to the original output channels.
            spatial = ConvSpec(
                rank, spec.in_channels, spec.kernel_size,
                stride=spec.stride, padding=spec.padding,
            )
            mix = ConvSpec(spec.out_channels, rank, 1)
            layers.append(Conv(f"{name}.spatial", spatial, _zeros(*spatial.kernel_shape)))
            layers.append(
                Conv(f"{name}.mix", mix, _zeros(*mix.kernel_shape),
                     _zeros(spec.out_channels))
            )
        else:
            layers.append(
                DecomposedConv(name, spec, _zero_factors(spec, rank),
                               _zeros(spec.out_channels))
            )
        layers.append(ReLU(f"{name}.relu"))
        if name in _ALEXNET_POOL_AFTER:
            layers.append(MaxPool(f"{name}.pool", window=3, stride=2))
    layers.append(Flatten("flatten"))
    for name, m, n in _ALEXNET_FCS:
        rank = ranks[name]
        factors = SvdFactors(_zeros(m, rank), _zeros(rank, n))
        layers.append(DecomposedFc(name, factors, _zeros(m)))
        if name != "fc8":
            layers.append(ReLU(f"{name}.relu"))
    return NetworkSpec((3, 227, 227), tuple(layers))


# ---------------------------------------------------------------------------
# desk-scale network (TOY_INPUT_SHAPE and TOY_CLASSES are the built-in task's)
# ---------------------------------------------------------------------------


def _he_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return _freeze(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))


def toy_cnn(seed: int = 0) -> NetworkSpec:
    """Two conv blocks and two fully connected layers on 3x16x16 inputs."""
    rng = np.random.default_rng(seed)
    conv1 = ConvSpec(8, 3, 3, stride=1, padding=1)
    conv2 = ConvSpec(16, 8, 3, stride=1, padding=1)
    fc1_in = 16 * 4 * 4
    fc1_out = 48
    layers = (
        Conv("conv1", conv1, _he_init(rng, conv1.kernel_shape, 3 * 9), _zeros(8)),
        ReLU("relu1"),
        MaxPool("pool1", window=2, stride=2),
        Conv("conv2", conv2, _he_init(rng, conv2.kernel_shape, 8 * 9), _zeros(16)),
        ReLU("relu2"),
        MaxPool("pool2", window=2, stride=2),
        Flatten("flatten"),
        Fc("fc1", _he_init(rng, (fc1_out, fc1_in), fc1_in), _zeros(fc1_out)),
        ReLU("relu3"),
        Fc("fc2", _he_init(rng, (TOY_CLASSES, fc1_out), fc1_out), _zeros(TOY_CLASSES)),
    )
    return NetworkSpec(TOY_INPUT_SHAPE, layers)
