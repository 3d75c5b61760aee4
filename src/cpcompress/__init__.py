"""Compress small CNNs by factorizing their weights into low-rank stages.

Convolution kernels are approximated as sums of rank-1 terms found by a
greedy deflating power method and evaluated as three cheap convolution
stages; fully connected weight matrices are split in two by truncated SVD.
Per-layer ranks come from sensitivity probes with proportional allocation,
and an iterative decompose-then-fine-tune schedule keeps accuracy close to
the uncompressed baseline.
"""

from .allocator import (
    LayerSensitivity,
    SensitivityReport,
    allocate_ranks,
    largest_remainder,
    measure_sensitivity,
    probe_sensitivity,
)
from .conv import ConvSpec, MultiplyCounter
from .cp import CpFactors, TpmConfig, decompose_kernel, reconstruct
from .data import Dataset, make_synthetic_dataset
from .network import (
    CompressionReport,
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    LayerReport,
    MaxPool,
    ModelFormatError,
    NetworkSpec,
    ReLU,
    check_rank,
    count_params,
    decomposable_layers,
    decompose_layer,
    forward,
    load,
    replace_layer,
    save,
)
from .presets import (
    ALEXNET_DEFAULT_RANKS,
    alexnet,
    alexnet_decomposed,
    toy_cnn,
)
from .svd import SvdFactors, truncated_svd
from .tensor import DenseTensor
from .train import (
    DivergedError,
    EpochStats,
    StageLog,
    StageRecord,
    TrainConfig,
    backward,
    batch_outputs,
    evaluate,
    finetune,
    iterative_compress,
    mean_squared_error,
    oneshot_compress,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
