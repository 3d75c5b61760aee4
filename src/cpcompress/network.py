"""Layer-graph model of a small CNN: layers, construction, replacement,
accounting, I/O.

Each layer kind is one class that owns everything about that kind: its
output shape, its named parameter arrays (and how to rebuild the layer from
them), its weight and multiply counts, its model-file fields, and a batched
forward and backward pass built on the array kernels in ``conv.py``.  The
functions below are loops over those members.

A :class:`NetworkSpec` is an immutable ordered list of layers whose shapes
are validated to compose at construction.  Compressing a network never
mutates it: :func:`replace_layer` swaps one named slot for its factorized
form and returns a new value.  :func:`forward` runs one input as a batch of
one through the same passes the trainer uses.

For a convolution layer, the factorized form needs R*S + R*D^2 + T*R weights
instead of T*S*D^2 and R*S*W*H + R*D^2*W'*H' + T*R*W'*H' multiplies instead
of T*S*D^2*W'*H'; for a fully connected layer both weight and multiply
counts go from M*N to M*R + R*N.  ``count_params`` measures the
materialized arrays; an instrumented ``forward`` counts the multiplies the
kernels perform.

Model files are a self-describing container: a one-line magic+version
header, a JSON manifest of layers, then raw little-endian float64 blobs,
each preceded by its byte length and CRC32.
"""

import json
import operator
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from math import ceil, prod

import numpy as np

from . import conv as conv_ops
from .conv import ConvSpec, MultiplyCounter
from .cp import CpFactors, TpmConfig, decompose_kernel
from .svd import SvdFactors, truncated_svd
from .tensor import DenseTensor, _freeze, _frozen, _same_bits

__all__ = [
    "Conv",
    "DecomposedConv",
    "Fc",
    "DecomposedFc",
    "ReLU",
    "MaxPool",
    "Flatten",
    "NetworkSpec",
    "LayerReport",
    "CompressionReport",
    "ModelFormatError",
    "count_params",
    "replace_layer",
    "decompose_layer",
    "check_rank",
    "forward",
    "save",
    "load",
]

_MAGIC = b"CPNET"
_FORMAT_VERSION = 1
# Values per finiteness check of a loaded blob, so the check's mask stays
# small beside the largest weight array.
_FINITE_CHUNK = 1 << 16


class _Layer:
    """What every layer kind provides.  The defaults suit a kind with no
    parameters and no multiplies.

    ``forward(params, x, cache, counter)`` maps a batch to a batch and
    ``backward(params, dy, cache, grads, input_grad)`` returns the input
    gradient and puts the parameter gradients in ``grads``; both take the
    parameters as a ``params()``-style dict so a trainer can update them in
    place of the layer's own read-only arrays.  With ``input_grad`` false a
    layer may skip the input gradient and return None.
    """

    stages = 1  # computational stages the slot holds
    # True when a sample's output is computed from that sample alone, the
    # same way at any batch size, so a pass may run the batch in slices.
    per_sample = False
    # "conv" or "fc" on a layer that can still be factorized; such a kind
    # also has decompose(rank, seed=...), factorized(factors), full_rank and
    # max_rank.
    rank_group = None

    @property
    def report_kind(self) -> str:
        """The kind column of the compression table."""
        return self.kind

    def params(self) -> dict:
        """Named parameter arrays, in the order the model file stores them."""
        return {}

    def with_params(self, params: dict):
        """The same layer holding `params` in place of its own arrays."""
        return self

    def fields(self) -> dict:
        """Manifest fields besides name, kind and blobs."""
        return {}

    @classmethod
    def build(cls, name, fields, params):
        """The layer a manifest entry's fields and named arrays describe."""
        return cls(name)

    def counts(self, in_shape) -> tuple:
        """(original weights, weights, original multiplies, multiplies) of one
        input of in_shape; a factorized slot's originals are the dense layer's."""
        return 0, 0, 0, 0


class _Weighted(_Layer):
    """A linear map plus an optional per-output bias."""

    def _freeze_bias(self, out_features: int):
        b = None if self.bias is None else _frozen(self.bias)
        if b is not None and b.shape != (out_features,):
            raise ValueError(f"{self.name}: bias shape {b.shape} is wrong")
        object.__setattr__(self, "bias", b)

    def _with_bias(self, params: dict) -> dict:
        if self.bias is not None:
            params["bias"] = self.bias
        return params

    def with_params(self, params: dict):
        return type(self).build(self.name, self.fields(), params)

    def forward(self, params, x, cache=None, counter=None):
        # Every _linear returns a fresh array that no cache holds, so the
        # bias is added in place.
        out = self._linear(params, x, cache, counter)
        bias = params.get("bias")
        if bias is not None:
            out += bias.reshape((-1,) + (1,) * (out.ndim - 2))
        return out

    def backward(self, params, dy, cache, grads, input_grad=True):
        if "bias" in params:
            grads["bias"] = dy.sum(axis=(0,) + tuple(range(2, dy.ndim)))
        return self._linear_backward(params, dy, cache, grads, input_grad)


class _ConvKind(_Weighted):
    """Shape and manifest fields of the dense and the factorized
    convolution."""

    per_sample = True

    def out_shape(self, shape) -> tuple:
        spec = self.spec
        if len(shape) != 3 or shape[0] != spec.in_channels:
            raise ValueError(
                f"{self.name}: expects {spec.in_channels} channels, "
                f"input shape is {shape}"
            )
        return (spec.out_channels, spec.output_extent(shape[1]),
                spec.output_extent(shape[2]))

    def fields(self) -> dict:
        return asdict(self.spec)

    def _dense_mults(self, in_shape) -> int:
        spec = self.spec
        wout = spec.output_extent(in_shape[1])
        hout = spec.output_extent(in_shape[2])
        return spec.weight_count * wout * hout


def _spec(fields) -> ConvSpec:
    return ConvSpec(**{f.name: fields[f.name] for f in dataclass_fields(ConvSpec)})


@dataclass(frozen=True, eq=False)
class Conv(_ConvKind):
    name: str
    spec: ConvSpec
    weights: np.ndarray  # (T, S/groups, D, D)
    bias: np.ndarray | None = None

    kind = "conv"
    rank_group = "conv"

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.shape != self.spec.kernel_shape:
            raise ValueError(
                f"{self.name}: kernel shape {w.shape} does not match "
                f"{self.spec.kernel_shape}"
            )
        object.__setattr__(self, "weights", w)
        self._freeze_bias(self.spec.out_channels)

    def params(self) -> dict:
        return self._with_bias({"weights": self.weights})

    @classmethod
    def build(cls, name, fields, params):
        return cls(name, _spec(fields), params["weights"], params.get("bias"))

    def counts(self, in_shape) -> tuple:
        mults = self._dense_mults(in_shape)
        return self.weights.size, self.weights.size, mults, mults

    @property
    def full_rank(self) -> int:
        """The smallest unfolding's bound on the kernel's rank."""
        t, s_g, d, _ = self.spec.kernel_shape
        return min(s_g * d * d, s_g * t, d * d * t)

    @property
    def max_rank(self) -> int:
        """The largest rank decompose takes: each group's ceil(rank / groups)
        stays within its kernel's trivial bound S_g*D^2*T_g, so the layer's
        bound is groups times that, the kernel's weight count."""
        return self.spec.weight_count

    def decompose(self, rank, *, seed=0) -> tuple:
        """One CpFactors per channel group, each at rank ceil(rank / groups)
        and seeded with seed + its group index."""
        check_rank(self, rank)
        groups = self.spec.groups
        t_g = self.spec.out_channels // groups
        return tuple(
            decompose_kernel(
                DenseTensor.from_array(self.weights[gi * t_g : (gi + 1) * t_g]),
                TpmConfig(rank=ceil(rank / groups), seed=seed + gi),
            )
            for gi in range(groups)
        )

    def factorized(self, factors):
        return DecomposedConv(self.name, self.spec, factors, self.bias)

    def _linear(self, params, x, cache, counter):
        return conv_ops.batch_conv(x, params["weights"], self.spec, cache, counter)

    def _linear_backward(self, params, dy, cache, grads, input_grad):
        dx, grads["weights"] = conv_ops.batch_conv_backward(
            dy, params["weights"], self.spec, cache, input_grad
        )
        return dx


@dataclass(frozen=True, eq=False)
class DecomposedConv(_ConvKind):
    """A convolution slot replaced by its three factorized stages.

    Occupies one slot under the original layer's name but counts as three
    stages.  ``factors`` holds one CpFactors per group.
    """

    name: str
    spec: ConvSpec
    factors: tuple
    bias: np.ndarray | None = None

    kind = "decomposed_conv"
    stages = 3

    def __post_init__(self):
        # One CpFactors, or one per group, each of the group's shape.
        spec = self.spec
        factors = tuple(self.factors) if isinstance(self.factors, (tuple, list)) else (self.factors,)
        if not all(isinstance(f, CpFactors) for f in factors):
            raise ValueError(f"{self.name}: decomposed conv needs CpFactors")
        if len(factors) != spec.groups:
            raise ValueError(
                f"{self.name}: expected {spec.groups} factor groups, got {len(factors)}"
            )
        group = (spec.out_channels // spec.groups, spec.in_channels // spec.groups,
                 spec.kernel_size)
        for f in factors:
            if (f.out_channels, f.in_channels, f.kernel_size) != group:
                raise ValueError(
                    f"{self.name}: factor shape ({f.out_channels}, {f.in_channels}, "
                    f"{f.kernel_size}) does not match the group shape {group}"
                )
        object.__setattr__(self, "factors", factors)
        self._freeze_bias(spec.out_channels)

    @property
    def ranks(self) -> tuple:
        return tuple(f.rank for f in self.factors)

    def fields(self) -> dict:
        return {**super().fields(), "ranks": list(self.ranks)}

    def params(self) -> dict:
        out = {}
        for gi, f in enumerate(self.factors):
            out[f"u1.{gi}"], out[f"u2.{gi}"], out[f"u3.{gi}"] = f.u1, f.u2, f.u3
        return self._with_bias(out)

    @classmethod
    def build(cls, name, fields, params):
        spec = _spec(fields)
        factors = tuple(
            CpFactors(params[f"u1.{gi}"], params[f"u2.{gi}"], params[f"u3.{gi}"])
            for gi in range(spec.groups)
        )
        return cls(name, spec, factors, params.get("bias"))

    def counts(self, in_shape) -> tuple:
        """Weights are measured (R*S + R*D^2 + T*R per group, which the
        constructor's shape checks guarantee); multiplies are
        R*S*W*H + R*D^2*W'*H' + T*R*W'*H'."""
        spec = self.spec
        w, h = in_shape[1], in_shape[2]
        wout, hout = spec.output_extent(w), spec.output_extent(h)
        s_g = spec.in_channels // spec.groups
        t_g = spec.out_channels // spec.groups
        d = spec.kernel_size
        params = 0
        mults = 0
        for f in self.factors:
            params += f.param_count
            mults += (
                f.rank * s_g * w * h
                + f.rank * d * d * wout * hout
                + t_g * f.rank * wout * hout
            )
        return spec.weight_count, params, self._dense_mults(in_shape), mults

    def _factors(self, params) -> list:
        return [(params[f"u1.{gi}"], params[f"u2.{gi}"], params[f"u3.{gi}"])
                for gi in range(self.spec.groups)]

    def _linear(self, params, x, cache, counter):
        return conv_ops.batch_cp_conv(x, self._factors(params), self.spec, cache, counter)

    def _linear_backward(self, params, dy, cache, grads, input_grad):
        dx, dfactors = conv_ops.batch_cp_conv_backward(
            dy, self._factors(params), self.spec, cache, input_grad
        )
        for gi, (du1, du2, du3) in enumerate(dfactors):
            grads[f"u1.{gi}"], grads[f"u2.{gi}"], grads[f"u3.{gi}"] = du1, du2, du3
        return dx


class _FcKind(_Weighted):
    """Shape and manifest fields of the dense and the factorized fc layer."""

    def out_shape(self, shape) -> tuple:
        if len(shape) != 1 or shape[0] != self.in_features:
            raise ValueError(
                f"{self.name}: expects a vector of {self.in_features}, "
                f"input shape is {shape}"
            )
        return (self.out_features,)

    def fields(self) -> dict:
        return {"out_features": self.out_features, "in_features": self.in_features}


@dataclass(frozen=True, eq=False)
class Fc(_FcKind):
    name: str
    weights: np.ndarray  # (out_features, in_features)
    bias: np.ndarray | None = None

    kind = "fc"
    rank_group = "fc"

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 2:
            raise ValueError(f"{self.name}: weights must be a matrix")
        object.__setattr__(self, "weights", w)
        self._freeze_bias(w.shape[0])

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]

    def params(self) -> dict:
        return self._with_bias({"weights": self.weights})

    @classmethod
    def build(cls, name, fields, params):
        return cls(name, params["weights"], params.get("bias"))

    def counts(self, in_shape) -> tuple:
        n = self.weights.size
        return n, n, n, n

    @property
    def full_rank(self) -> int:
        return min(self.out_features, self.in_features)

    @property
    def max_rank(self) -> int:
        """The largest rank decompose takes: the truncated SVD's min(M, N)."""
        return self.full_rank

    def decompose(self, rank, *, seed=0) -> SvdFactors:
        """The truncated SVD; it is deterministic, so the seed goes unused."""
        check_rank(self, rank)
        return truncated_svd(self.weights, rank)

    def factorized(self, factors):
        layer = DecomposedFc(self.name, factors, self.bias)
        if (layer.out_features, layer.in_features) != (self.out_features, self.in_features):
            raise ValueError(f"{self.name}: factor shape mismatch")
        return layer

    def _linear(self, params, x, cache, counter):
        if cache is not None:
            cache["x"] = x
        return conv_ops.batch_fc(x, params["weights"], counter)

    def _linear_backward(self, params, dy, cache, grads, input_grad):
        dx, grads["weights"] = conv_ops.batch_fc_backward(
            dy, params["weights"], cache["x"], input_grad
        )
        return dx


@dataclass(frozen=True, eq=False)
class DecomposedFc(_FcKind):
    """A fully connected slot replaced by its two factorized stages."""

    name: str
    factors: SvdFactors
    bias: np.ndarray | None = None

    kind = "decomposed_fc"
    stages = 2

    def __post_init__(self):
        if not isinstance(self.factors, SvdFactors):
            raise ValueError(f"{self.name}: fc replacement needs SvdFactors")
        self._freeze_bias(self.factors.out_features)

    @property
    def out_features(self) -> int:
        return self.factors.out_features

    @property
    def in_features(self) -> int:
        return self.factors.in_features

    @property
    def rank(self) -> int:
        return self.factors.rank

    def fields(self) -> dict:
        return {**super().fields(), "rank": self.rank}

    def params(self) -> dict:
        return self._with_bias({"ud": self.factors.ud, "vt": self.factors.vt})

    @classmethod
    def build(cls, name, fields, params):
        return cls(name, SvdFactors(params["ud"], params["vt"]), params.get("bias"))

    def counts(self, in_shape) -> tuple:
        dense = self.out_features * self.in_features
        measured = self.factors.param_count  # M*R + R*N
        return dense, measured, dense, measured

    def _linear(self, params, x, cache, counter):
        hidden = conv_ops.batch_fc(x, params["vt"], counter)
        if cache is not None:
            cache["x"] = x
            cache["hidden"] = hidden
        return conv_ops.batch_fc(hidden, params["ud"], counter)

    def _linear_backward(self, params, dy, cache, grads, input_grad):
        dhidden, grads["ud"] = conv_ops.batch_fc_backward(dy, params["ud"], cache["hidden"])
        dx, grads["vt"] = conv_ops.batch_fc_backward(
            dhidden, params["vt"], cache["x"], input_grad
        )
        return dx


@dataclass(frozen=True, eq=False)
class ReLU(_Layer):
    name: str

    kind = "relu"
    per_sample = True

    def out_shape(self, shape) -> tuple:
        return shape

    def forward(self, params, x, cache=None, counter=None):
        if cache is not None:
            cache["mask"] = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, params, dy, cache, grads, input_grad=True):
        return dy * cache["mask"]


@dataclass(frozen=True, eq=False)
class MaxPool(_Layer):
    """Max over window x window blocks; each block's gradient goes to its
    first maximum in row-major order."""

    name: str
    window: int
    stride: int

    kind = "max_pool"
    report_kind = "maxpool"
    per_sample = True

    def __post_init__(self):
        object.__setattr__(self, "window", operator.index(self.window))
        object.__setattr__(self, "stride", operator.index(self.stride))
        if self.window < 1 or self.stride < 1:
            raise ValueError(f"{self.name}: window and stride must be >= 1")

    def out_shape(self, shape) -> tuple:
        if len(shape) != 3:
            raise ValueError(f"{self.name}: pooling needs a 3-way input")
        _, w, h = shape
        if self.window > w or self.window > h:
            raise ValueError(f"{self.name}: window exceeds extent {shape}")
        return (
            shape[0],
            (w - self.window) // self.stride + 1,
            (h - self.window) // self.stride + 1,
        )

    def fields(self) -> dict:
        return {"window": self.window, "stride": self.stride}

    @classmethod
    def build(cls, name, fields, params):
        return cls(name, fields["window"], fields["stride"])

    def forward(self, params, x, cache=None, counter=None):
        return conv_ops.batch_max_pool(x, self.window, self.stride, cache)

    def backward(self, params, dy, cache, grads, input_grad=True):
        return conv_ops.batch_max_pool_backward(dy, self.window, self.stride, cache)


@dataclass(frozen=True, eq=False)
class Flatten(_Layer):
    name: str

    kind = "flatten"
    per_sample = True

    def out_shape(self, shape) -> tuple:
        return (int(np.prod(shape)),)

    def forward(self, params, x, cache=None, counter=None):
        if cache is not None:
            cache["shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, params, dy, cache, grads, input_grad=True):
        return dy.reshape(cache["shape"])


_KINDS = {
    cls.kind: cls
    for cls in (Conv, DecomposedConv, Fc, DecomposedFc, ReLU, MaxPool, Flatten)
}


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable ordered layer list with a fixed input shape."""

    input_shape: tuple
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(map(operator.index, self.input_shape)))
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        self.layer_shapes()  # raises if adjacent shapes do not compose

    def layer_shapes(self) -> list:
        """Output shape after each layer, in order."""
        shape = self.input_shape
        shapes = []
        for layer in self.layers:
            shape = layer.out_shape(shape)
            shapes.append(shape)
        return shapes

    def layer(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ValueError(f"no layer named {name!r}")

    def __eq__(self, other):
        """Bit-exact: the same manifest entries and the same blob bytes."""
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        if self.input_shape != other.input_shape:
            return False
        if len(self.layers) != len(other.layers):
            return False
        return all(_same_layer(a, b) for a, b in zip(self.layers, other.layers))


def _same_layer(a, b) -> bool:
    entry_a, blobs_a = _layer_manifest(a)
    entry_b, blobs_b = _layer_manifest(b)
    return entry_a == entry_b and all(map(_same_bits, blobs_a, blobs_b))


def forward(net: NetworkSpec, x, counter: MultiplyCounter | None = None) -> np.ndarray:
    """Forward pass of one input, run as a batch of one; `x` is an array
    matching net.input_shape.  Returns the final activation."""
    value = np.asarray(x, dtype=np.float64)
    if value.shape != net.input_shape:
        raise ValueError(f"input shape {value.shape} != {net.input_shape}")
    value = value[None]
    for layer in net.layers:
        value = layer.forward(layer.params(), value, None, counter)
    return value[0]


# ---------------------------------------------------------------------------
# compression accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerReport:
    name: str
    kind: str
    original_params: int
    compressed_params: int
    param_ratio: float
    original_mults: int
    compressed_mults: int
    mult_ratio: float


@dataclass(frozen=True)
class CompressionReport:
    """Per-layer and total weight/multiply accounting for one network.

    Multiply counts follow one forward pass of a single input at the
    network's declared input shape; activation, pooling, flatten and bias
    additions cost zero multiplies.  Weight counts exclude biases.
    """

    rows: tuple
    total_original_params: int
    total_compressed_params: int
    total_original_mults: int
    total_compressed_mults: int

    @property
    def overall_param_ratio(self) -> float:
        return self.total_original_params / self.total_compressed_params

    @property
    def overall_mult_ratio(self) -> float:
        return self.total_original_mults / self.total_compressed_mults

    def to_table(self) -> str:
        header = (
            "layer\tkind\torig_params\tcomp_params\tE\torig_mults\tcomp_mults\tC"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.name}\t{r.kind}\t{r.original_params}\t{r.compressed_params}"
                f"\t{r.param_ratio:.4f}\t{r.original_mults}\t{r.compressed_mults}"
                f"\t{r.mult_ratio:.4f}"
            )
        lines.append(
            f"TOTAL\t-\t{self.total_original_params}\t{self.total_compressed_params}"
            f"\t{self.overall_param_ratio:.4f}\t{self.total_original_mults}"
            f"\t{self.total_compressed_mults}\t{self.overall_mult_ratio:.4f}"
        )
        return "\n".join(lines)


def count_params(net: NetworkSpec) -> CompressionReport:
    """Exact integer weight and multiply accounting for every layer.

    Decomposed layers report their original slot's costs in the
    ``original_*`` columns; untouched layers repeat their own.
    """
    rows = []
    shape = net.input_shape
    for layer in net.layers:
        orig_params, params, orig_mults, mults = layer.counts(shape)
        shape = layer.out_shape(shape)
        rows.append(LayerReport(
            layer.name, layer.report_kind, orig_params, params,
            orig_params / params if params else 1.0,
            orig_mults, mults, orig_mults / mults if mults else 1.0,
        ))

    def total(field):
        return sum(getattr(r, field) for r in rows)

    return CompressionReport(
        tuple(rows),
        total("original_params"),
        total("compressed_params"),
        total("original_mults"),
        total("compressed_mults"),
    )


# ---------------------------------------------------------------------------
# layer replacement
# ---------------------------------------------------------------------------


def decompose_layer(layer, rank: int, *, seed: int = 0):
    """Factorize one layer's weights at the given rank.

    Convolutions: each channel group is decomposed independently at rank
    ceil(rank / groups); returns a tuple of CpFactors.  Fully connected
    layers: returns SvdFactors from the truncated SVD.
    """
    if layer.rank_group is None:
        raise ValueError(f"layer {layer.name!r} is not decomposable")
    return layer.decompose(rank, seed=seed)


def check_rank(layer, rank: int) -> None:
    """Raise ValueError, naming the layer, unless 1 <= rank <= layer.max_rank,
    the bound the layer's decompose enforces."""
    if not 1 <= rank <= layer.max_rank:
        raise ValueError(
            f"layer {layer.name!r}: rank must be in [1, {layer.max_rank}], got {rank}"
        )


def replace_layer(net: NetworkSpec, layer_name: str, factors) -> NetworkSpec:
    """Swap the named conv/fc slot for its factorized form.

    Every other layer object is shared unchanged; the input network is not
    modified.  Replacing an already-decomposed or unknown layer is an error.
    """
    layer = net.layer(layer_name)
    if layer.rank_group is None:
        state = "already decomposed" if layer.stages > 1 else "not decomposable"
        raise ValueError(f"layer {layer_name!r} is {state}")
    new = layer.factorized(factors)
    layers = tuple(new if other is layer else other for other in net.layers)
    return NetworkSpec(net.input_shape, layers)


def decomposable_layers(net: NetworkSpec) -> list:
    """Names of conv/fc layers still in their original form, in order."""
    return [layer.name for layer in net.layers if layer.rank_group is not None]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class ModelFormatError(ValueError):
    """Raised for any malformed, truncated, corrupt or unsupported model file."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _layer_manifest(layer):
    """(manifest dict, list of blob arrays) for one layer."""
    arrays = layer.params()
    entry = {
        "name": layer.name,
        "kind": layer.kind,
        **layer.fields(),
        "blobs": [{"tag": tag, "shape": list(arr.shape)} for tag, arr in arrays.items()],
    }
    return entry, list(arrays.values())


def save(net: NetworkSpec, path) -> None:
    """Write a network to `path` in the versioned container format."""
    entries = []
    blobs = []
    for layer in net.layers:
        entry, layer_blobs = _layer_manifest(layer)
        entries.append(entry)
        blobs.extend(layer_blobs)
    manifest = {
        "format": "cpnet",
        "version": _FORMAT_VERSION,
        "input_shape": list(net.input_shape),
        "layers": entries,
    }
    payload = json.dumps(manifest, indent=1).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + b" %d\n" % _FORMAT_VERSION)
        fh.write(b"%d %08x\n" % (len(payload), zlib.crc32(payload)))
        fh.write(payload)
        fh.write(b"\n")
        for arr in blobs:
            # The array's own buffer is checksummed and written: a layer's
            # arrays are C-ordered float64, so on a little-endian host
            # nothing is copied.
            arr = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<QI", arr.nbytes, zlib.crc32(arr)))
            fh.write(arr)


def _check_left(fh, n: int, what: str) -> None:
    # A declared length is checked against the bytes left before anything
    # is read or allocated, so a hostile length field never reaches either.
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if not 0 <= n <= left:
        raise ModelFormatError(
            f"truncated file: wanted {n} bytes of {what}, {left} left", offset
        )


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_left(fh, n, what)
    offset = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError(
            f"truncated file: wanted {n} bytes of {what}, got {len(data)}", offset
        )
    return data


def _read_blob(fh, shape, tag: str) -> np.ndarray:
    offset = fh.tell()
    if any(dim < 0 for dim in shape):
        raise ModelFormatError(f"blob {tag!r} has negative shape {shape}", offset)
    length, crc = struct.unpack("<QI", _read_exact(fh, 12, f"{tag} blob header"))
    expected = prod(shape) * 8
    if length != expected:
        raise ModelFormatError(
            f"blob {tag!r} length {length} does not match shape {shape}", offset
        )
    _check_left(fh, length, f"{tag} blob payload")
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError as exc:  # an empty blob whose other dims numpy cannot hold
        raise ModelFormatError(f"blob {tag!r} cannot take shape {shape}: {exc}", offset) from exc
    # The payload goes straight into the array the layer will adopt.
    got = fh.readinto(arr)
    if got != length:
        raise ModelFormatError(
            f"truncated file: wanted {length} bytes of {tag} blob payload, got {got}",
            offset,
        )
    if zlib.crc32(arr) != crc:
        raise ModelFormatError(f"checksum mismatch in blob {tag!r}", offset)
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_CHUNK):
        if not np.isfinite(flat[start : start + _FINITE_CHUNK]).all():
            raise ModelFormatError(f"blob {tag!r} holds non-finite values", offset)
    return _freeze(arr)


def _dims(values) -> tuple:
    """A JSON list of integers as a shape.  Booleans are refused, because
    operator.index takes them as 0 and 1."""
    values = list(values)
    if any(isinstance(v, bool) for v in values):
        raise TypeError(f"{values} holds a boolean")
    return tuple(map(operator.index, values))


def _layer_from_manifest(entry, fh):
    try:
        kind = entry["kind"]
        name = entry["name"]
        blob_specs = list(entry["blobs"])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"manifest layer entry missing field: {exc}") from exc

    arrays = {}
    for spec_entry in blob_specs:
        try:
            tag = spec_entry["tag"]
            shape = _dims(spec_entry["shape"])
            if not isinstance(tag, str):
                raise TypeError(f"tag {tag!r} is not a string")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad blob entry in layer {name!r}: {exc}") from exc
        arrays[tag] = _read_blob(fh, shape, tag)

    try:
        cls = _KINDS[kind]
    except (KeyError, TypeError):
        raise ModelFormatError(
            f"unknown layer kind {kind!r}; format version {_FORMAT_VERSION} "
            f"knows {', '.join(_KINDS)}"
        ) from None
    try:
        layer = cls.build(name, entry, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"inconsistent layer {name!r}: {exc}") from exc
    # Every field save would write must be in the entry as the same JSON
    # value, so a field the layer derives from its blobs (a rank, a feature
    # count) cannot disagree with them, and true does not pass for 1.
    for key, value in layer.fields().items():
        got = json.dumps(entry[key]) if key in entry else "missing"
        want = json.dumps(value)
        if got != want:
            raise ModelFormatError(f"inconsistent layer {name!r}: {key} is {got}, not {want}")
    return layer


def load(path) -> NetworkSpec:
    """Read a network written by :func:`save`; round-trips bit-exactly."""
    with open(path, "rb") as fh:
        header = fh.readline(64)
        if not header.startswith(_MAGIC + b" "):
            raise ModelFormatError("not a cpnet model file (bad magic)", 0)
        try:
            version = int(header[len(_MAGIC) + 1 :].strip())
        except ValueError:
            raise ModelFormatError("unreadable version in header", 0) from None
        if version != _FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported format version {version}; this reader handles "
                f"version {_FORMAT_VERSION}"
            )
        offset = fh.tell()
        size_line = fh.readline(64)
        try:
            length_field, crc_field = size_line.split()
            manifest_len = int(length_field)
            manifest_crc = int(crc_field, 16)
        except ValueError:
            raise ModelFormatError("unreadable manifest header", offset) from None
        offset = fh.tell()
        raw = _read_exact(fh, manifest_len, "manifest")
        if zlib.crc32(raw) != manifest_crc:
            raise ModelFormatError("manifest checksum mismatch", offset)
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"manifest is not valid JSON: {exc}", offset) from exc
        end = fh.tell()
        if _read_exact(fh, 1, "manifest terminator") != b"\n":
            raise ModelFormatError("manifest is not followed by a newline", end)

        try:
            input_shape = _dims(manifest["input_shape"])
            entries = list(manifest["layers"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad manifest: {exc}", offset) from exc

        layers = [_layer_from_manifest(entry, fh) for entry in entries]
        trailer_offset = fh.tell()
        if fh.read(1):
            raise ModelFormatError("trailing bytes after last blob", trailer_offset)
    try:
        return NetworkSpec(input_shape, tuple(layers))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"layers do not compose: {exc}") from exc
