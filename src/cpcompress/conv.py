"""Array kernels for convolution, factorized convolution, fc and max-pooling.

Every kernel works on a whole batch: inputs are (B, C, W, H) for the spatial
layers and (B, N) for the fully connected ones.  The direct convolution
evaluates a (T, S/g, D, D) kernel with g channel groups as one matmul: the
batch's patch matrix over all S input channels, viewed as (B, g, S/g*D*D,
W'*H'), against the kernel viewed as (g, T/g, S/g*D*D), so the groups are a
batch axis of the product.  The factorized convolution runs three cheaper
stages instead:

  1. a 1x1 convolution mixing S input channels down to R (stride 1, no pad),
  2. a per-channel D x D spatial convolution carrying the stride and padding,
  3. a 1x1 convolution mixing R channels up to T outputs.

Stage 2 is depthwise: channel r of its output depends only on channel r of
its input.  For any factors, the pipeline output equals the direct
convolution with the reconstructed kernel, up to float rounding.

The matrix products (patch matrices, the 1x1 mixes, the depthwise stage's
banded kernel rows, fc layers and every weight gradient) are batched BLAS
calls; max-pooling is one whole-batch pass per window offset over strided
views.  A forward kernel fills an optional ``cache`` dict that its backward
kernel reads.  Forward kernels optionally take a :class:`MultiplyCounter`
and add the multiplies they perform, computed from the shapes of the
operands they multiply; the depthwise stage counts its D^2 taps per output
value, not the zeros of its banded matrices.

``conv_forward``, ``conv_forward_decomposed``, ``fc_forward`` and
``max_pool`` run a single (unbatched) input through their layer kind in
``network.py`` (``Conv``, ``DecomposedConv``, ``Fc``, ``MaxPool``) as a
batch of one, so the layer's own checks refuse a bad input.
"""

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import DenseTensor, _set_integers

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
        _set_integers(self, {f.name: 0 if f.name == "padding" else 1 for f in fields(self)})
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
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


def _pad_batch(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the spatial axes of a (B, C, W, H) batch by p on each side."""
    if p == 0:
        return x
    b, c, w, h = x.shape
    out = np.zeros((b, c, w + 2 * p, h + 2 * p))
    out[:, :, p:-p, p:-p] = x
    return out


def _unpad_batch(x: np.ndarray, p: int) -> np.ndarray:
    return x if p == 0 else x[:, :, p:-p, p:-p]


def _offsets(d: int) -> list:
    """Kernel offsets (j, i) of a d x d window in row-major order."""
    return [(j, i) for j in range(d) for i in range(d)]


def _strided(x: np.ndarray, j: int, i: int, stride: int, wout: int, hout: int):
    """The (wout, hout) view of the spatial axes of a (B, C, W, H) array that
    kernel offset (j, i) reads for each output position."""
    return x[:, :, j : j + stride * wout : stride, i : i + stride * hout : stride]


def _diagonals(m: np.ndarray, d: int, stride: int) -> np.ndarray:
    """Writable (..., d, Hout) view of the last two axes (Hp, Hout) of m:
    element (i, o) is m[..., stride * o + i, o], the entry a depthwise tap i
    holds in a banded matrix.  Hp must be stride * (Hout - 1) + d."""
    hout = m.shape[-1]
    s_row, s_col = m.strides[-2:]
    return as_strided(m, m.shape[:-2] + (d, hout),
                      m.strides[:-2] + (s_row, stride * s_row + s_col))


def _band(u2: np.ndarray, j: int, stride: int, band: np.ndarray) -> np.ndarray:
    """Fill `band`, an (R, Hp, Hout) buffer that is zero off the band, with
    the banded matrices of kernel row j's taps and return it: for a padded
    input row z of channel r, (z @ band[r])[o] is the sum over i of
    u2[r, j, i] * z[stride * o + i].  The stride sets where the band's
    columns go; every kernel row fills the same entries."""
    _diagonals(band, u2.shape[1], stride)[...] = u2[:, j, :, None]
    return band


class _RowStack:
    """A batch's zero-padded rows stacked per channel, for the depthwise
    stage.

    The (R, rows, Hp) buffer (``shape``) holds image b's padded rows from row b * blk,
    where blk is the padded extent rounded up to a multiple of the stride;
    the rows in between and D - stride spare rows at the end are zero.
    Output row q of the stack reads rows stride * q + j for kernel rows
    j < D, so image b's output row o is stack row b * blk / stride + o, and
    the rows past each image's Wout straddle two images.  Kernel row j's
    reads for the whole batch are then one (R, n, Hp) strided view.
    """

    def __init__(self, b: int, r: int, w: int, h: int, spec: ConvSpec):
        p, st = spec.padding, spec.stride
        self.batch, self.p, self.stride = (b, r, w, h), p, st
        self.wout = spec.output_extent(w)
        self.blk = -(-(w + 2 * p) // st) * st
        self.n = b * self.blk // st
        self.shape = (r, b * self.blk + max(spec.kernel_size - st, 0), h + 2 * p)

    def images(self, stack: np.ndarray) -> np.ndarray:
        """The (R, B, W, H) unpadded interior of a stack."""
        b, r, w, h = self.batch
        blocks = stack[:, : b * self.blk].reshape(r, b, self.blk, stack.shape[2])
        return blocks[:, :, self.p : self.p + w, self.p : self.p + h]

    def kernel_rows(self, stack: np.ndarray, j: int) -> np.ndarray:
        """The (R, n, Hp) rows kernel row j reads, one per output row."""
        return stack[:, j : j + self.stride * self.n : self.stride]

    def outputs(self, z2: np.ndarray) -> np.ndarray:
        """The (B, R, Wout * Hout) view of the valid rows of an (R, n, Hout)
        output."""
        b, r = self.batch[:2]
        blocks = z2.reshape(r, b, self.blk // self.stride, z2.shape[2])
        return blocks[:, :, : self.wout].reshape(r, b, -1).transpose(1, 0, 2)


def _scatter_cols(dcols, dxpad, d, stride, wout, hout):
    """Adjoint of _batch_patches: accumulate patch gradients onto the
    (B, C, Wp, Hp) gradient of the padded input, in place.  Summation order
    is fixed: kernel offsets in row-major order."""
    b, c = dxpad.shape[:2]
    dcols = dcols.reshape(b, c, d, d, wout, hout)
    for j, i in _offsets(d):
        view = _strided(dxpad, j, i, stride, wout, hout)
        view += dcols[:, :, j, i]


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------


def batch_conv(x, weights, spec: ConvSpec, cache=None, counter=None) -> np.ndarray:
    """Direct convolution of a (B, S, W, H) batch with a (T, S/g, D, D) kernel."""
    b = x.shape[0]
    wout, hout = spec.output_extent(x.shape[2]), spec.output_extent(x.shape[3])
    g = spec.groups
    cols = _batch_patches(_pad_batch(x, spec.padding), spec.kernel_size, spec.stride,
                          wout, hout)
    out = np.empty((b, spec.out_channels, wout, hout))
    np.matmul(weights.reshape(g, spec.out_channels // g, -1),
              cols.reshape(b, g, -1, wout * hout),
              out=out.reshape(b, g, -1, wout * hout))
    _count(counter, spec.out_channels // g * cols.size)
    if cache is not None:
        cache["cols"] = cols
        cache["x_shape"] = x.shape
    return out


def batch_conv_backward(dy, weights, spec: ConvSpec, cache, input_grad=True) -> tuple:
    """(d input, d weights) of batch_conv, from the cache its forward filled;
    d input is None unless input_grad."""
    g = spec.groups
    d, p = spec.kernel_size, spec.padding
    b, t, wout, hout = dy.shape
    w, h = cache["x_shape"][2:]
    cols = cache["cols"].reshape(b, g, -1, wout * hout)
    dy_g = dy.reshape(b, g, t // g, wout * hout)
    dw = np.matmul(dy_g, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weights.shape)
    if not input_grad:
        return None, dw
    dxpad = np.zeros((b, spec.in_channels, w + 2 * p, h + 2 * p))
    kmat = weights.reshape(g, t // g, -1)
    _scatter_cols(np.matmul(kmat.transpose(0, 2, 1), dy_g), dxpad, d, spec.stride,
                  wout, hout)
    return np.ascontiguousarray(_unpad_batch(dxpad, p)), dw


def batch_cp_conv(x, factors, spec: ConvSpec, cache=None, counter=None) -> np.ndarray:
    """Three-stage factorized convolution of a (B, S, W, H) batch.

    ``factors`` holds one (u1, u2, u3) triple per group.  The R-channel
    intermediate is channels-first, so the 1x1 mixes are plain matmuls per
    image (u1 @ xg, u3 @ z2).  For the depthwise stage the padded
    intermediate is stacked per channel (``_RowStack``), and kernel row j is
    one GEMM per channel over the whole batch's rows against the banded
    (Hp, Hout) matrices of that row's taps (``_band``); the D products are
    summed in kernel-row order.  Each output row is a dot product over one
    image's input row, so a sample's output does not depend on the batch it
    came in (the tests check this bit for bit at B = 1, 3 and 32).
    """
    b, _, w, h = x.shape
    wout, hout = spec.output_extent(w), spec.output_extent(h)
    s_g = spec.in_channels // spec.groups
    d, st = spec.kernel_size, spec.stride
    t_g = spec.out_channels // spec.groups
    out = np.empty((b, spec.out_channels, wout, hout))
    saved = []
    for gi, (u1, u2, u3) in enumerate(factors):
        r = u2.shape[0]
        xg = x[:, gi * s_g : (gi + 1) * s_g].reshape(b, s_g, w * h)
        rs = _RowStack(b, r, w, h, spec)
        stack = np.zeros(rs.shape)
        rs.images(stack)[...] = np.matmul(u1, xg).reshape(b, r, w, h).transpose(1, 0, 2, 3)
        band = np.zeros((r, rs.shape[2], hout))
        z2 = np.matmul(rs.kernel_rows(stack, 0), _band(u2, 0, st, band))
        term = np.empty_like(z2)
        for j in range(1, d):
            z2 += np.matmul(rs.kernel_rows(stack, j), _band(u2, j, st, band), out=term)
        z2 = rs.outputs(z2)
        np.matmul(u3, z2, out=out.reshape(b, spec.groups, t_g, -1)[:, gi])
        _count(counter, r * xg.size + d * d * z2.size + u3.shape[0] * z2.size)
        if cache is not None:
            saved.append({"xg": xg, "stack": stack, "z2": z2})
    if cache is not None:
        cache["groups"] = saved
        cache["hw"] = (w, h)
    return out


def batch_cp_conv_backward(dy, factors, spec: ConvSpec, cache, input_grad=True) -> tuple:
    """(d input, [(d u1, d u2, d u3) per group]) of batch_cp_conv; d input
    is None unless input_grad.

    The depthwise stage's output gradient is stacked like its input, with
    zeros on the rows that straddle two images.  Per kernel row j, the
    input gradient is that times the transposed bands, added onto the rows
    j reads in a zero buffer of the padded input's extent, and the tap
    gradient is the read rows' transpose times it, summed along the bands'
    diagonals; both are one GEMM per channel over the batch."""
    t_g = spec.out_channels // spec.groups
    s_g = spec.in_channels // spec.groups
    d, st = spec.kernel_size, spec.stride
    b, _, wout, hout = dy.shape
    w, h = cache["hw"]
    dx = np.empty((b, spec.in_channels, w, h)) if input_grad else None
    dfactors = []
    for gi, (u1, u2, u3) in enumerate(factors):
        r = u2.shape[0]
        saved = cache["groups"][gi]
        stack = saved["stack"]
        rs = _RowStack(b, r, w, h, spec)
        dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
        du3 = np.matmul(dy_g, saved["z2"].transpose(0, 2, 1)).sum(axis=0)
        dz2 = np.zeros((r, rs.n, hout))
        np.matmul(u3.T, dy_g, out=rs.outputs(dz2))

        dstack = np.zeros(rs.shape)
        du2 = np.empty_like(u2)
        band = np.zeros((r, rs.shape[2], hout))
        term = np.empty((r, rs.n, rs.shape[2]))
        for j in range(d):
            taps = np.matmul(rs.kernel_rows(stack, j).transpose(0, 2, 1), dz2)
            du2[:, j] = _diagonals(taps, d, st).sum(axis=-1)
            grad_rows = rs.kernel_rows(dstack, j)
            grad_rows += np.matmul(dz2, _band(u2, j, st, band).transpose(0, 2, 1), out=term)
        dz = np.ascontiguousarray(rs.images(dstack).transpose(1, 0, 2, 3)).reshape(b, r, w * h)

        du1 = np.matmul(dz, saved["xg"].transpose(0, 2, 1)).sum(axis=0)
        dfactors.append((du1, du2, du3))
        if input_grad:
            np.matmul(u1.T, dz, out=dx.reshape(b, spec.groups, s_g, -1)[:, gi])
    return dx, dfactors


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
# single inputs: each function is its layer kind at batch one
# ---------------------------------------------------------------------------
# network.py imports this module, so each function imports its kind when it
# is called.


def _run_one(layer, x: np.ndarray, counter) -> np.ndarray:
    """One input through `layer` as a batch of one, after the layer's own
    input shape check."""
    layer.out_shape(x.shape)
    return layer.forward(layer.params(), x[None], None, counter)[0]


def conv_forward(
    x: DenseTensor,
    kernel: DenseTensor,
    spec: ConvSpec,
    counter: MultiplyCounter | None = None,
) -> DenseTensor:
    """Direct convolution of a (S, W, H) input with a (T, S/g, D, D) kernel."""
    from .network import Conv
    layer = Conv("conv_forward", spec, kernel.array)
    return DenseTensor.from_array(_run_one(layer, x.array, counter))


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
    from .network import DecomposedConv
    layer = DecomposedConv("conv_forward_decomposed", spec, factors)
    return DenseTensor.from_array(_run_one(layer, x.array, counter))


def fc_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    counter: MultiplyCounter | None = None,
) -> np.ndarray:
    """Fully connected map y = W x (+ bias) with W of shape (M out, N in).

    Orientation convention: weights[m, n] connects input n to output m.
    """
    from .network import Fc
    layer = Fc("fc_forward", weights, bias)
    return _run_one(layer, np.asarray(x, dtype=np.float64), counter)


def max_pool(x: DenseTensor, window: int, stride: int) -> DenseTensor:
    """Spatial max pooling over (C, W, H); windows stay fully inside the input."""
    from .network import MaxPool
    layer = MaxPool("max_pool", window, stride)
    return DenseTensor.from_array(_run_one(layer, x.array, None))
