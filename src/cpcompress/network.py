"""Layer-graph model of a small CNN: construction, replacement, accounting, I/O.

A :class:`NetworkSpec` is an immutable ordered list of layers whose shapes
are validated to compose at construction.  Compressing a network never
mutates it: :func:`replace_layer` swaps one named slot for its factorized
form and returns a new value.

Parameter and multiply accounting live here too.  For a convolution layer,
the factorized form needs R*S + R*D^2 + T*R weights instead of T*S*D^2 and
R*S*W*H + R*D^2*W'*H' + T*R*W'*H' multiplies instead of T*S*D^2*W'*H'; for
a fully connected layer both weight and multiply counts go from M*N to
M*R + R*N.  ``count_params`` measures the materialized arrays and
cross-asserts the closed-form counts against them.

Model files are a self-describing container: a one-line magic+version
header, a JSON manifest of layers, then raw little-endian float64 blobs,
each preceded by its byte length and CRC32.
"""

import json
import os
import struct
import zlib
from dataclasses import dataclass
from math import ceil, prod

import numpy as np

from . import conv as conv_ops
from .conv import ConvSpec, MultiplyCounter
from .cp import CpFactors, TpmConfig, decompose_kernel
from .svd import SvdFactors, truncated_svd
from .tensor import DenseTensor, _frozen

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
    "conv_ratios",
    "fc_ratios",
    "count_params",
    "replace_layer",
    "decompose_layer",
    "stage_count",
    "forward",
    "save",
    "load",
]

_MAGIC = b"CPNET"
_FORMAT_VERSION = 1


def _opt_frozen(arr):
    return None if arr is None else _frozen(arr)


@dataclass(frozen=True, eq=False)
class Conv:
    name: str
    spec: ConvSpec
    weights: np.ndarray  # (T, S/groups, D, D)
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.shape != self.spec.kernel_shape:
            raise ValueError(
                f"{self.name}: kernel shape {w.shape} does not match "
                f"{self.spec.kernel_shape}"
            )
        b = _opt_frozen(self.bias)
        if b is not None and b.shape != (self.spec.out_channels,):
            raise ValueError(f"{self.name}: bias shape {b.shape} is wrong")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True, eq=False)
class DecomposedConv:
    """A convolution slot replaced by its three factorized stages.

    Occupies one slot under the original layer's name but counts as three
    stages.  ``factors`` holds one CpFactors per group.
    """

    name: str
    spec: ConvSpec
    factors: tuple
    bias: np.ndarray | None = None

    def __post_init__(self):
        factors = self.factors
        if isinstance(factors, CpFactors):
            factors = (factors,)
        factors = tuple(factors)
        if len(factors) != self.spec.groups:
            raise ValueError(
                f"{self.name}: expected {self.spec.groups} factor groups, "
                f"got {len(factors)}"
            )
        s_g = self.spec.in_channels // self.spec.groups
        t_g = self.spec.out_channels // self.spec.groups
        for f in factors:
            if f.in_channels != s_g or f.out_channels != t_g:
                raise ValueError(f"{self.name}: factor channel shape mismatch")
            if f.kernel_size != self.spec.kernel_size:
                raise ValueError(f"{self.name}: factor kernel size mismatch")
        b = _opt_frozen(self.bias)
        if b is not None and b.shape != (self.spec.out_channels,):
            raise ValueError(f"{self.name}: bias shape {b.shape} is wrong")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "bias", b)

    @property
    def ranks(self) -> tuple:
        return tuple(f.rank for f in self.factors)


@dataclass(frozen=True, eq=False)
class Fc:
    name: str
    weights: np.ndarray  # (out_features, in_features)
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 2:
            raise ValueError(f"{self.name}: weights must be a matrix")
        b = _opt_frozen(self.bias)
        if b is not None and b.shape != (w.shape[0],):
            raise ValueError(f"{self.name}: bias shape {b.shape} is wrong")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class DecomposedFc:
    """A fully connected slot replaced by its two factorized stages."""

    name: str
    factors: SvdFactors
    bias: np.ndarray | None = None

    def __post_init__(self):
        b = _opt_frozen(self.bias)
        if b is not None and b.shape != (self.factors.out_features,):
            raise ValueError(f"{self.name}: bias shape {b.shape} is wrong")
        object.__setattr__(self, "bias", b)

    @property
    def out_features(self) -> int:
        return self.factors.out_features

    @property
    def in_features(self) -> int:
        return self.factors.in_features

    @property
    def rank(self) -> int:
        return self.factors.rank


@dataclass(frozen=True, eq=False)
class ReLU:
    name: str


@dataclass(frozen=True, eq=False)
class MaxPool:
    name: str
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise ValueError(f"{self.name}: window and stride must be >= 1")


@dataclass(frozen=True, eq=False)
class Flatten:
    name: str


_DECOMPOSABLE = (Conv, Fc)
_WEIGHTED = (Conv, DecomposedConv, Fc, DecomposedFc)


def _propagate_shape(layer, shape):
    """Output shape of `layer` applied to input `shape`; raises on mismatch."""
    if isinstance(layer, (Conv, DecomposedConv)):
        if len(shape) != 3 or shape[0] != layer.spec.in_channels:
            raise ValueError(
                f"{layer.name}: expects {layer.spec.in_channels} channels, "
                f"input shape is {shape}"
            )
        wout = layer.spec.output_extent(shape[1])
        hout = layer.spec.output_extent(shape[2])
        return (layer.spec.out_channels, wout, hout)
    if isinstance(layer, (Fc, DecomposedFc)):
        if len(shape) != 1 or shape[0] != layer.in_features:
            raise ValueError(
                f"{layer.name}: expects a vector of {layer.in_features}, "
                f"input shape is {shape}"
            )
        return (layer.out_features,)
    if isinstance(layer, ReLU):
        return shape
    if isinstance(layer, MaxPool):
        if len(shape) != 3:
            raise ValueError(f"{layer.name}: pooling needs a 3-way input")
        _, w, h = shape
        if layer.window > w or layer.window > h:
            raise ValueError(f"{layer.name}: window exceeds extent {shape}")
        return (
            shape[0],
            (w - layer.window) // layer.stride + 1,
            (h - layer.window) // layer.stride + 1,
        )
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Immutable ordered layer list with a fixed input shape."""

    input_shape: tuple
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
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
            shape = _propagate_shape(layer, shape)
            shapes.append(shape)
        return shapes

    def layer(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ValueError(f"no layer named {name!r}")

    def __eq__(self, other):
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        if self.input_shape != other.input_shape:
            return False
        if len(self.layers) != len(other.layers):
            return False
        return all(
            _layer_state(a) == _layer_state(b)
            for a, b in zip(self.layers, other.layers)
        )


def _arr_bytes(arr):
    return None if arr is None else (arr.shape, arr.tobytes())


def _layer_state(layer) -> tuple:
    """Canonical value of a layer, used for bit-exact equality."""
    if isinstance(layer, Conv):
        return ("conv", layer.name, layer.spec, _arr_bytes(layer.weights),
                _arr_bytes(layer.bias))
    if isinstance(layer, DecomposedConv):
        factor_state = tuple(
            (_arr_bytes(f.u1), _arr_bytes(f.u2), _arr_bytes(f.u3))
            for f in layer.factors
        )
        return ("decomposed_conv", layer.name, layer.spec, factor_state,
                _arr_bytes(layer.bias))
    if isinstance(layer, Fc):
        return ("fc", layer.name, _arr_bytes(layer.weights), _arr_bytes(layer.bias))
    if isinstance(layer, DecomposedFc):
        return ("decomposed_fc", layer.name, _arr_bytes(layer.factors.ud),
                _arr_bytes(layer.factors.vt), _arr_bytes(layer.bias))
    if isinstance(layer, ReLU):
        return ("relu", layer.name)
    if isinstance(layer, MaxPool):
        return ("max_pool", layer.name, layer.window, layer.stride)
    if isinstance(layer, Flatten):
        return ("flatten", layer.name)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def stage_count(net: NetworkSpec) -> int:
    """Number of computational stages: a factorized conv slot holds three,
    a factorized fc slot two, everything else one."""
    total = 0
    for layer in net.layers:
        if isinstance(layer, DecomposedConv):
            total += 3
        elif isinstance(layer, DecomposedFc):
            total += 2
        else:
            total += 1
    return total


def forward(net: NetworkSpec, x, counter: MultiplyCounter | None = None) -> np.ndarray:
    """Single-sample forward pass; `x` is an ndarray or DenseTensor matching
    net.input_shape.  Returns the final activation as an ndarray."""
    value = x.array if isinstance(x, DenseTensor) else np.asarray(x, dtype=np.float64)
    if value.shape != net.input_shape:
        raise ValueError(f"input shape {value.shape} != {net.input_shape}")
    for layer in net.layers:
        if isinstance(layer, Conv):
            out = conv_ops.conv_forward(
                DenseTensor.from_array(value),
                DenseTensor.from_array(layer.weights),
                layer.spec,
                counter,
            ).array
            if layer.bias is not None:
                out = out + layer.bias[:, None, None]
            value = out
        elif isinstance(layer, DecomposedConv):
            out = conv_ops.conv_forward_decomposed(
                DenseTensor.from_array(value), layer.factors, layer.spec, counter
            ).array
            if layer.bias is not None:
                out = out + layer.bias[:, None, None]
            value = out
        elif isinstance(layer, Fc):
            value = conv_ops.fc_forward(value, layer.weights, layer.bias, counter)
        elif isinstance(layer, DecomposedFc):
            hidden = conv_ops.fc_forward(value, layer.factors.vt, None, counter)
            value = conv_ops.fc_forward(hidden, layer.factors.ud, layer.bias, counter)
        elif isinstance(layer, ReLU):
            value = np.maximum(value, 0.0)
        elif isinstance(layer, MaxPool):
            value = conv_ops.max_pool(
                DenseTensor.from_array(value), layer.window, layer.stride
            ).array
        elif isinstance(layer, Flatten):
            value = value.reshape(-1)
        else:
            raise TypeError(f"unknown layer type {type(layer).__name__}")
    return value


# ---------------------------------------------------------------------------
# compression accounting
# ---------------------------------------------------------------------------


def conv_ratios(spec: ConvSpec, rank: int, w: int, h: int, wout: int, hout: int):
    """(weight ratio, multiply ratio) of factorizing one ungrouped convolution."""
    if rank < 1 or w < 1 or h < 1 or wout < 1 or hout < 1:
        raise ValueError("dimensions must be positive")
    t, s, d = spec.out_channels, spec.in_channels, spec.kernel_size
    e = (t * s * d * d) / (rank * s + rank * d * d + t * rank)
    c = (t * s * d * d * wout * hout) / (
        rank * s * w * h + rank * d * d * wout * hout + t * rank * wout * hout
    )
    return e, c


def fc_ratios(m: int, n: int, rank: int) -> float:
    """Weight ratio (= multiply ratio) of splitting one fully connected layer."""
    if m < 1 or n < 1 or rank < 1:
        raise ValueError("dimensions must be positive")
    return (m * n) / (m * rank + rank * n)


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


def _conv_mults(spec: ConvSpec, w: int, h: int) -> int:
    wout = spec.output_extent(w)
    hout = spec.output_extent(h)
    s_g = spec.in_channels // spec.groups
    return spec.out_channels * s_g * spec.kernel_size ** 2 * wout * hout


def _decomposed_conv_counts(layer: DecomposedConv, w: int, h: int):
    """(params, mults) of the three-stage form, measured and cross-checked."""
    spec = layer.spec
    wout = spec.output_extent(w)
    hout = spec.output_extent(h)
    s_g = spec.in_channels // spec.groups
    t_g = spec.out_channels // spec.groups
    d = spec.kernel_size
    params = 0
    mults = 0
    for f in layer.factors:
        measured = f.param_count
        analytic = f.rank * s_g + f.rank * d * d + t_g * f.rank
        if measured != analytic:
            raise AssertionError(
                f"{layer.name}: measured factor params {measured} != "
                f"closed-form {analytic}"
            )
        params += measured
        mults += (
            f.rank * s_g * w * h
            + f.rank * d * d * wout * hout
            + t_g * f.rank * wout * hout
        )
    return params, mults


def count_params(net: NetworkSpec) -> CompressionReport:
    """Exact integer weight and multiply accounting for every layer.

    Decomposed layers report their original slot's costs in the
    ``original_*`` columns; untouched layers repeat their own.
    """
    rows = []
    shape = net.input_shape
    for layer in net.layers:
        in_shape = shape
        shape = _propagate_shape(layer, shape)
        if isinstance(layer, Conv):
            params = layer.weights.size
            if params != layer.spec.weight_count:
                raise AssertionError(f"{layer.name}: weight count mismatch")
            mults = _conv_mults(layer.spec, in_shape[1], in_shape[2])
            row = LayerReport(layer.name, "conv", params, params, 1.0, mults, mults, 1.0)
        elif isinstance(layer, DecomposedConv):
            orig_params = layer.spec.weight_count
            orig_mults = _conv_mults(layer.spec, in_shape[1], in_shape[2])
            params, mults = _decomposed_conv_counts(layer, in_shape[1], in_shape[2])
            row = LayerReport(
                layer.name, "decomposed_conv", orig_params, params,
                orig_params / params, orig_mults, mults, orig_mults / mults,
            )
        elif isinstance(layer, Fc):
            params = layer.weights.size
            row = LayerReport(layer.name, "fc", params, params, 1.0, params, params, 1.0)
        elif isinstance(layer, DecomposedFc):
            m, n, r = layer.out_features, layer.in_features, layer.rank
            orig = m * n
            measured = layer.factors.param_count
            if measured != m * r + r * n:
                raise AssertionError(
                    f"{layer.name}: measured factor params {measured} != "
                    f"closed-form {m * r + r * n}"
                )
            row = LayerReport(
                layer.name, "decomposed_fc", orig, measured, orig / measured,
                orig, measured, orig / measured,
            )
        else:
            kind = type(layer).__name__.lower()
            row = LayerReport(layer.name, kind, 0, 0, 1.0, 0, 0, 1.0)
        rows.append(row)

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


def decompose_layer(
    layer,
    rank: int,
    *,
    seed: int = 0,
    max_inner_iters: int = 200,
    tol: float = 1e-8,
):
    """Factorize one layer's weights at the given rank.

    Convolutions: each channel group is decomposed independently at rank
    ceil(rank / groups); returns a tuple of CpFactors.  Fully connected
    layers: returns SvdFactors from the truncated SVD.
    """
    if isinstance(layer, Conv):
        group_rank = ceil(rank / layer.spec.groups)
        t_g = layer.spec.out_channels // layer.spec.groups
        out = []
        for gi in range(layer.spec.groups):
            kernel = DenseTensor.from_array(
                layer.weights[gi * t_g : (gi + 1) * t_g]
            )
            cfg = TpmConfig(
                rank=group_rank,
                max_inner_iters=max_inner_iters,
                tol=tol,
                seed=seed + gi,
            )
            out.append(decompose_kernel(kernel, cfg))
        return tuple(out)
    if isinstance(layer, Fc):
        return truncated_svd(layer.weights, rank)
    raise ValueError(f"layer {layer.name!r} is not decomposable")


def replace_layer(net: NetworkSpec, layer_name: str, factors) -> NetworkSpec:
    """Swap the named conv/fc slot for its factorized form.

    Every other layer object is shared unchanged; the input network is not
    modified.  Replacing an already-decomposed or unknown layer is an error.
    """
    found = False
    new_layers = []
    for layer in net.layers:
        if layer.name != layer_name:
            new_layers.append(layer)
            continue
        found = True
        if isinstance(layer, Conv):
            new_layers.append(
                DecomposedConv(layer.name, layer.spec, factors, layer.bias)
            )
        elif isinstance(layer, Fc):
            if not isinstance(factors, SvdFactors):
                raise ValueError(f"{layer_name}: fc replacement needs SvdFactors")
            if (
                factors.out_features != layer.out_features
                or factors.in_features != layer.in_features
            ):
                raise ValueError(f"{layer_name}: factor shape mismatch")
            new_layers.append(DecomposedFc(layer.name, factors, layer.bias))
        elif isinstance(layer, (DecomposedConv, DecomposedFc)):
            raise ValueError(f"layer {layer_name!r} is already decomposed")
        else:
            raise ValueError(f"layer {layer_name!r} is not decomposable")
    if not found:
        raise ValueError(f"no layer named {layer_name!r}")
    return NetworkSpec(net.input_shape, tuple(new_layers))


def decomposable_layers(net: NetworkSpec) -> list:
    """Names of conv/fc layers still in their original form, in order."""
    return [layer.name for layer in net.layers if isinstance(layer, _DECOMPOSABLE)]


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
    blobs = []

    def blob(tag, arr):
        blobs.append(arr)
        return {"tag": tag, "shape": list(arr.shape)}

    if isinstance(layer, Conv):
        entry = {
            "name": layer.name,
            "kind": "conv",
            "out_channels": layer.spec.out_channels,
            "in_channels": layer.spec.in_channels,
            "kernel_size": layer.spec.kernel_size,
            "stride": layer.spec.stride,
            "padding": layer.spec.padding,
            "groups": layer.spec.groups,
            "blobs": [blob("weights", layer.weights)],
        }
        if layer.bias is not None:
            entry["blobs"].append(blob("bias", layer.bias))
    elif isinstance(layer, DecomposedConv):
        entry = {
            "name": layer.name,
            "kind": "decomposed_conv",
            "out_channels": layer.spec.out_channels,
            "in_channels": layer.spec.in_channels,
            "kernel_size": layer.spec.kernel_size,
            "stride": layer.spec.stride,
            "padding": layer.spec.padding,
            "groups": layer.spec.groups,
            "ranks": list(layer.ranks),
            "blobs": [],
        }
        for gi, f in enumerate(layer.factors):
            entry["blobs"].append(blob(f"u1.{gi}", f.u1))
            entry["blobs"].append(blob(f"u2.{gi}", f.u2))
            entry["blobs"].append(blob(f"u3.{gi}", f.u3))
        if layer.bias is not None:
            entry["blobs"].append(blob("bias", layer.bias))
    elif isinstance(layer, Fc):
        entry = {
            "name": layer.name,
            "kind": "fc",
            "out_features": layer.out_features,
            "in_features": layer.in_features,
            "blobs": [blob("weights", layer.weights)],
        }
        if layer.bias is not None:
            entry["blobs"].append(blob("bias", layer.bias))
    elif isinstance(layer, DecomposedFc):
        entry = {
            "name": layer.name,
            "kind": "decomposed_fc",
            "out_features": layer.out_features,
            "in_features": layer.in_features,
            "rank": layer.rank,
            "blobs": [blob("ud", layer.factors.ud), blob("vt", layer.factors.vt)],
        }
        if layer.bias is not None:
            entry["blobs"].append(blob("bias", layer.bias))
    elif isinstance(layer, ReLU):
        entry = {"name": layer.name, "kind": "relu", "blobs": []}
    elif isinstance(layer, MaxPool):
        entry = {
            "name": layer.name,
            "kind": "max_pool",
            "window": layer.window,
            "stride": layer.stride,
            "blobs": [],
        }
    elif isinstance(layer, Flatten):
        entry = {"name": layer.name, "kind": "flatten", "blobs": []}
    else:
        raise TypeError(f"unknown layer type {type(layer).__name__}")
    return entry, blobs


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
            raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(struct.pack("<I", zlib.crc32(raw)))
            fh.write(raw)


def _read_exact(fh, n: int, what: str) -> bytes:
    # A declared length is checked against the bytes left before reading,
    # so a hostile length field never reaches read().
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    data = fh.read(n) if 0 <= n <= left else b""
    if len(data) != n:
        raise ModelFormatError(
            f"truncated file: wanted {n} bytes of {what}, {left} left", offset
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
    raw = _read_exact(fh, length, f"{tag} blob payload")
    if zlib.crc32(raw) != crc:
        raise ModelFormatError(f"checksum mismatch in blob {tag!r}", offset)
    try:
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except ValueError as exc:  # an empty blob whose other dims numpy cannot hold
        raise ModelFormatError(f"blob {tag!r} cannot take shape {shape}: {exc}", offset) from exc
    arr.flags.writeable = False
    return arr


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
            shape = tuple(int(s) for s in spec_entry["shape"])
            if not isinstance(tag, str):
                raise TypeError(f"tag {tag!r} is not a string")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"bad blob entry in layer {name!r}: {exc}") from exc
        arrays[tag] = _read_blob(fh, shape, tag)

    try:
        if kind == "conv":
            spec = ConvSpec(
                entry["out_channels"], entry["in_channels"], entry["kernel_size"],
                entry["stride"], entry["padding"], entry["groups"],
            )
            return Conv(name, spec, arrays["weights"], arrays.get("bias"))
        if kind == "decomposed_conv":
            spec = ConvSpec(
                entry["out_channels"], entry["in_channels"], entry["kernel_size"],
                entry["stride"], entry["padding"], entry["groups"],
            )
            factors = tuple(
                CpFactors(arrays[f"u1.{gi}"], arrays[f"u2.{gi}"], arrays[f"u3.{gi}"])
                for gi in range(spec.groups)
            )
            return DecomposedConv(name, spec, factors, arrays.get("bias"))
        if kind == "fc":
            return Fc(name, arrays["weights"], arrays.get("bias"))
        if kind == "decomposed_fc":
            return DecomposedFc(
                name, SvdFactors(arrays["ud"], arrays["vt"]), arrays.get("bias")
            )
        if kind == "relu":
            return ReLU(name)
        if kind == "max_pool":
            return MaxPool(name, entry["window"], entry["stride"])
        if kind == "flatten":
            return Flatten(name)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"inconsistent layer {name!r}: {exc}") from exc
    raise ModelFormatError(
        f"unknown layer kind {kind!r}; format version {_FORMAT_VERSION} "
        "knows conv, decomposed_conv, fc, decomposed_fc, relu, max_pool, flatten"
    )


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
        _read_exact(fh, 1, "manifest terminator")

        try:
            input_shape = tuple(int(s) for s in manifest["input_shape"])
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
