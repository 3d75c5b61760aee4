"""Array kernels for convolution, factorized convolution, fc and max-pooling.

Every kernel works on a whole batch: inputs are (B, C, W, H) for the spatial
layers and (B, N) for the fully connected ones.  The direct convolution
evaluates a (T, S, D, D) kernel as one matrix product over patch matrices.
The factorized convolution runs three cheaper stages instead:

  1. a 1x1 convolution mixing S input channels down to R (stride 1, no pad),
  2. a per-channel D x D spatial convolution carrying the stride and padding,
  3. a 1x1 convolution mixing R channels up to T outputs.

Stage 2 is depthwise: channel r of its output depends only on channel r of
its input.  For any factors, the pipeline output equals the direct
convolution with the reconstructed kernel, up to float rounding.

The matrix products (patch matrices, the 1x1 mixes, fc layers and every
weight gradient) are batched BLAS calls; the windowed stages (the depthwise
stage and max-pooling) are one whole-batch pass per kernel offset over
strided views.  A forward kernel fills an optional ``cache`` dict that its
backward kernel reads.  Forward kernels optionally take a
:class:`MultiplyCounter` and add the multiplies they perform, computed from
the shapes of the operands they multiply.

``conv_forward``, ``conv_forward_decomposed``, ``fc_forward`` and
``max_pool`` apply the same kernels to a single (unbatched) input.
"""

import operator
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cp import CpFactors
from .tensor import DenseTensor

__all__ = [
    "ConvSpec",
    "MultiplyCounter",
    "batch_conv",
    "batch_conv_backward",
    "batch_cp_conv",
    "batch_cp_conv_backward",
    "batch_fc",
    "batch_fc_backward",
    "batch_max_pool",
    "batch_max_pool_backward",
    "conv_forward",
    "conv_forward_decomposed",
    "fc_forward",
    "max_pool",
]


class MultiplyCounter:
    """Running total of scalar multiplications performed by instrumented ops."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)

    def __repr__(self):
        return f"MultiplyCounter(count={self.count})"


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution layer.

    Kernels are square with odd extent.  Output extents must come out as
    positive integers: (W + 2*padding - kernel_size) divisible by stride.
    With groups > 1 the input and output channels split into independent
    blocks; the kernel then has in_channels/groups channels per filter.
    """

    out_channels: int
    in_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        # operator.index refuses floats and strings instead of truncating them.
        for f in fields(self):
            object.__setattr__(self, f.name, operator.index(getattr(self, f.name)))
        if self.out_channels < 1 or self.in_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd and positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("channel counts must be divisible by groups")

    def output_extent(self, extent: int) -> int:
        span = extent + 2 * self.padding - self.kernel_size
        if span < 0 or span % self.stride:
            raise ValueError(
                f"input extent {extent} with kernel {self.kernel_size}, "
                f"stride {self.stride}, padding {self.padding} does not give "
                "an integral output extent"
            )
        return span // self.stride + 1

    @property
    def kernel_shape(self) -> tuple:
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.kernel_size,
            self.kernel_size,
        )

    @property
    def weight_count(self) -> int:
        t, s_g, d, _ = self.kernel_shape
        return t * s_g * d * d

    def group_factors(self, factors) -> tuple:
        """`factors` (one CpFactors, or one per group) as a tuple, checked
        against this geometry."""
        if isinstance(factors, CpFactors):
            factors = (factors,)
        factors = tuple(factors)
        if len(factors) != self.groups:
            raise ValueError(f"expected {self.groups} factor groups, got {len(factors)}")
        t_g = self.out_channels // self.groups
        s_g = self.in_channels // self.groups
        d = self.kernel_size
        for f in factors:
            if (f.out_channels, f.in_channels, f.kernel_size) != (t_g, s_g, d):
                raise ValueError(
                    f"factor shape ({f.out_channels}, {f.in_channels}, "
                    f"{f.kernel_size}) does not match the group shape ({t_g}, {s_g}, {d})"
                )
        return factors


def _count(counter, n: int):
    if counter is not None:
        counter.add(n)


# ---------------------------------------------------------------------------
# strided views and padding
# ---------------------------------------------------------------------------


def _batch_patches(xpad: np.ndarray, d: int, stride: int, wout: int, hout: int):
    """(B, C, Wp, Hp) -> (B, C*d*d, wout*hout) patch matrices."""
    win = sliding_window_view(xpad, (d, d), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win[:, :, :wout, :hout]
    b, c = xpad.shape[:2]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * d * d, wout * hout)


def _spatial(x: np.ndarray, rows: slice, cols: slice, axis: int):
    """x indexed by rows and cols on spatial axes (axis, axis + 1)."""
    index = [slice(None)] * x.ndim
    index[axis], index[axis + 1] = rows, cols
    return x[tuple(index)]


def _pad_batch(x: np.ndarray, p: int, axis: int = 2) -> np.ndarray:
    """Zero-pad spatial axes (axis, axis + 1) by p on each side."""
    if p == 0:
        return x
    shape = list(x.shape)
    shape[axis] += 2 * p
    shape[axis + 1] += 2 * p
    out = np.zeros(shape)
    _spatial(out, slice(p, -p), slice(p, -p), axis)[...] = x
    return out


def _unpad_batch(x: np.ndarray, p: int, axis: int = 2) -> np.ndarray:
    if p == 0:
        return x
    return _spatial(x, slice(p, -p), slice(p, -p), axis)


def _offsets(d: int) -> list:
    """Kernel offsets (j, i) of a d x d window in row-major order."""
    return [(j, i) for j in range(d) for i in range(d)]


def _strided(x: np.ndarray, j: int, i: int, stride: int, wout: int, hout: int,
             axis: int = 2):
    """The (wout, hout) view of spatial axes (axis, axis + 1) of x that kernel
    offset (j, i) reads for each output position."""
    return _spatial(
        x, slice(j, j + stride * wout, stride), slice(i, i + stride * hout, stride),
        axis,
    )


def _scatter_cols(dcols, shape, d, stride, p, wout, hout):
    """Adjoint of _batch_patches: accumulate patch gradients back onto the
    (unpadded) input.  Summation order is fixed: kernel offsets in row-major
    order."""
    b, c, w, h = shape
    dxpad = np.zeros((b, c, w + 2 * p, h + 2 * p))
    dcols = dcols.reshape(b, c, d, d, wout, hout)
    for j, i in _offsets(d):
        view = _strided(dxpad, j, i, stride, wout, hout)
        view += dcols[:, :, j, i]
    return _unpad_batch(dxpad, p)


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------


def batch_conv(x, weights, spec: ConvSpec, cache=None, counter=None) -> np.ndarray:
    """Direct convolution of a (B, S, W, H) batch with a (T, S/g, D, D) kernel."""
    b = x.shape[0]
    w, h = x.shape[2], x.shape[3]
    wout, hout = spec.output_extent(w), spec.output_extent(h)
    g = spec.groups
    s_g = spec.in_channels // g
    t_g = spec.out_channels // g
    xpad = _pad_batch(x, spec.padding)
    outs = []
    cols_all = []
    for gi in range(g):
        cols = _batch_patches(
            xpad[:, gi * s_g : (gi + 1) * s_g], spec.kernel_size, spec.stride,
            wout, hout,
        )
        kmat = weights[gi * t_g : (gi + 1) * t_g].reshape(t_g, -1)
        outs.append(np.matmul(kmat, cols).reshape(b, t_g, wout, hout))
        _count(counter, t_g * cols.size)
        cols_all.append(cols)
    if cache is not None:
        cache["cols"] = cols_all
        cache["x_shape"] = x.shape
    return np.concatenate(outs, axis=1)


def batch_conv_backward(dy, weights, spec: ConvSpec, cache, input_grad=True) -> tuple:
    """(d input, d weights) of batch_conv, from the cache its forward filled;
    d input is None unless input_grad."""
    g = spec.groups
    s_g = spec.in_channels // g
    t_g = spec.out_channels // g
    d = spec.kernel_size
    b, _, wout, hout = dy.shape
    dw = np.empty_like(weights)
    dx_groups = []
    for gi in range(g):
        dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
        cols = cache["cols"][gi]
        dw[gi * t_g : (gi + 1) * t_g] = (
            np.matmul(dy_g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(t_g, s_g, d, d)
        )
        if not input_grad:
            continue
        kmat = weights[gi * t_g : (gi + 1) * t_g].reshape(t_g, -1)
        dcols = np.matmul(kmat.T, dy_g)
        bshape = (b, s_g) + cache["x_shape"][2:]
        dx_groups.append(
            _scatter_cols(dcols, bshape, d, spec.stride, spec.padding, wout, hout)
        )
    return (np.concatenate(dx_groups, axis=1) if input_grad else None), dw


def batch_cp_conv(x, factors, spec: ConvSpec, cache=None, counter=None) -> np.ndarray:
    """Three-stage factorized convolution of a (B, S, W, H) batch.

    ``factors`` holds one (u1, u2, u3) triple per group.  Between the two
    1x1 mixes the activations are kept channels-last, (B, W, H, R), so that
    the depthwise stage and its adjoint run as D^2 shift-and-accumulate
    passes (kernel offsets in row-major order) over strided views of the
    padded intermediate with long contiguous inner loops.  The mixes and
    their weight gradients are batched matmuls that read the channels-first
    neighbours through transposed views.
    """
    b, _, w, h = x.shape
    wout, hout = spec.output_extent(w), spec.output_extent(h)
    s_g = spec.in_channels // spec.groups
    d, st, p = spec.kernel_size, spec.stride, spec.padding
    outs = []
    saved = []
    for gi, (u1, u2, u3) in enumerate(factors):
        r = u2.shape[0]
        xg = x[:, gi * s_g : (gi + 1) * s_g].reshape(b, s_g, w * h)
        z = np.matmul(xg.transpose(0, 2, 1), u1.T).reshape(b, w, h, r)
        zpad = _pad_batch(z, p, axis=1)
        # Each offset's filter taps, tiled along H so that a stride-1 view
        # and its taps share one contiguous (H, R) inner loop.
        taps = np.empty(u2.shape[1:] + (hout, r))
        taps[...] = u2.transpose(1, 2, 0)[:, :, None, :]
        z2 = _strided(zpad, 0, 0, st, wout, hout, axis=1) * taps[0, 0]
        term = np.empty_like(z2)
        for j, i in _offsets(d)[1:]:
            z2 += np.multiply(
                _strided(zpad, j, i, st, wout, hout, axis=1), taps[j, i], out=term
            )
        z2 = z2.reshape(b, wout * hout, r)
        outs.append(
            np.matmul(u3, z2.transpose(0, 2, 1)).reshape(b, -1, wout, hout)
        )
        _count(counter, r * xg.size + d * d * z2.size + u3.shape[0] * z2.size)
        if cache is not None:
            saved.append({"xg": xg, "zpad": zpad, "taps": taps, "z2": z2})
    if cache is not None:
        cache["groups"] = saved
        cache["hw"] = (w, h)
    return np.concatenate(outs, axis=1)


def batch_cp_conv_backward(dy, factors, spec: ConvSpec, cache, input_grad=True) -> tuple:
    """(d input, [(d u1, d u2, d u3) per group]) of batch_cp_conv; d input
    is None unless input_grad."""
    t_g = spec.out_channels // spec.groups
    s_g = spec.in_channels // spec.groups
    d, st, p = spec.kernel_size, spec.stride, spec.padding
    b, _, wout, hout = dy.shape
    w, h = cache["hw"]
    dx_groups = []
    dfactors = []
    for gi, (u1, u2, u3) in enumerate(factors):
        r = u2.shape[0]
        saved = cache["groups"][gi]
        dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
        du3 = np.matmul(dy_g, saved["z2"]).sum(axis=0)
        dz2 = np.matmul(dy_g.transpose(0, 2, 1), u3).reshape(b, wout, hout, r)

        zpad, taps = saved["zpad"], saved["taps"]
        du2 = np.empty_like(u2)
        dzpad = np.zeros(zpad.shape)
        term = np.empty_like(dz2)
        rows = term.reshape(b * wout, hout * r)
        for j, i in _offsets(d):
            np.multiply(_strided(zpad, j, i, st, wout, hout, axis=1), dz2, out=term)
            du2[:, j, i] = rows.sum(axis=0).reshape(hout, r).sum(axis=0)
            view = _strided(dzpad, j, i, st, wout, hout, axis=1)
            view += np.multiply(dz2, taps[j, i], out=term)
        dz = _unpad_batch(dzpad, p, axis=1).reshape(b, w * h, r).transpose(0, 2, 1)

        du1 = np.matmul(dz, saved["xg"].transpose(0, 2, 1)).sum(axis=0)
        dfactors.append((du1, du2, du3))
        if input_grad:
            dx_groups.append(np.matmul(u1.T, dz).reshape(b, s_g, w, h))
    return (np.concatenate(dx_groups, axis=1) if input_grad else None), dfactors


def batch_fc(x, weights, counter=None) -> np.ndarray:
    """(B, N) inputs through (M, N) weights: y = x W^T, so weights[m, n]
    connects input n to output m."""
    _count(counter, weights.shape[0] * x.size)
    return x @ weights.T


def batch_fc_backward(dy, weights, x, input_grad=True) -> tuple:
    """(d input, d weights) of batch_fc at input x; d input is None unless
    input_grad."""
    return (dy @ weights if input_grad else None), dy.T @ x


def batch_max_pool(x, window: int, stride: int, cache=None) -> np.ndarray:
    """Max over k x k windows of a (B, C, W, H) batch, taken over the k^2
    strided views of the input.

    With a cache, each window's first maximum in row-major window order
    (the rule ``argmax`` uses) is recorded for the backward pass: view n
    moves a window's index to n where it is greater than the running
    maximum.  Every index recorded so far is below n, so that move is
    max(index, n * greater)."""
    k, s = window, stride
    wout = (x.shape[2] - k) // s + 1
    hout = (x.shape[3] - k) // s + 1
    views = [_strided(x, j, i, s, wout, hout) for j, i in _offsets(k)]
    out = views[0].copy()
    if cache is not None:
        idx = cache["idx"] = np.zeros(out.shape, np.min_scalar_type(k * k - 1))
        cache["x_shape"] = x.shape
        greater = np.empty(out.shape, bool)
        moved = np.empty_like(idx)
    for n, view in enumerate(views[1:], start=1):
        if cache is not None:
            np.greater(view, out, out=greater)
            np.maximum(idx, np.multiply(greater, idx.dtype.type(n), out=moved), out=idx)
        np.maximum(out, view, out=out)
    return out


def batch_max_pool_backward(dy, window: int, stride: int, cache) -> np.ndarray:
    """Route each window's gradient to its first maximum; positions shared by
    overlapping windows sum their gradients."""
    k, s = window, stride
    idx = cache["idx"]
    wout, hout = idx.shape[2:]
    dx = np.zeros(cache["x_shape"])
    routed = np.empty_like(dy)
    for n, (j, i) in enumerate(_offsets(k)):
        np.multiply(dy, idx == n, out=routed)
        view = _strided(dx, j, i, s, wout, hout)
        view += routed
    return dx


# ---------------------------------------------------------------------------
# single inputs: batches of one
# ---------------------------------------------------------------------------


def _sample(x: DenseTensor, channels: int) -> np.ndarray:
    xa = x.array
    if xa.ndim != 3:
        raise ValueError(f"input must be 3-way, got {xa.ndim}-way")
    if xa.shape[0] != channels:
        raise ValueError(f"input has {xa.shape[0]} channels, spec wants {channels}")
    return xa[None]


def conv_forward(
    x: DenseTensor,
    kernel: DenseTensor,
    spec: ConvSpec,
    counter: MultiplyCounter | None = None,
) -> DenseTensor:
    """Direct convolution of a (S, W, H) input with a (T, S/g, D, D) kernel."""
    ka = kernel.array
    if ka.shape != spec.kernel_shape:
        raise ValueError(f"kernel shape {ka.shape} does not match {spec.kernel_shape}")
    out = batch_conv(_sample(x, spec.in_channels), ka, spec, None, counter)
    return DenseTensor.from_array(out[0])


def conv_forward_decomposed(
    x: DenseTensor,
    factors,
    spec: ConvSpec,
    counter: MultiplyCounter | None = None,
) -> DenseTensor:
    """Three-stage factorized convolution; matches conv_forward on the
    reconstructed kernel up to rounding.

    `factors` is a CpFactors, or a sequence of them (one per group) when
    spec.groups > 1.
    """
    xa = _sample(x, spec.in_channels)
    arrays = [(f.u1, f.u2, f.u3) for f in spec.group_factors(factors)]
    return DenseTensor.from_array(batch_cp_conv(xa, arrays, spec, None, counter)[0])


def fc_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    counter: MultiplyCounter | None = None,
) -> np.ndarray:
    """Fully connected map y = W x (+ bias) with W of shape (M out, N in).

    Orientation convention: weights[m, n] connects input n to output m.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 1 or w.ndim != 2 or w.shape[1] != x.size:
        raise ValueError(f"weights {w.shape} do not apply to input of length {x.size}")
    y = batch_fc(x[None], w, counter)[0]
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias length {b.size} does not match {w.shape[0]} outputs")
        y = y + b
    return y


def max_pool(x: DenseTensor, window: int, stride: int) -> DenseTensor:
    """Spatial max pooling over (C, W, H); windows stay fully inside the input."""
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    xa = x.array
    if xa.ndim != 3:
        raise ValueError(f"input must be 3-way, got {xa.ndim}-way")
    _, w, h = xa.shape
    if window > w or window > h:
        raise ValueError(f"window {window} exceeds spatial extent ({w}, {h})")
    return DenseTensor.from_array(batch_max_pool(xa[None], window, stride)[0])
