"""Reverse-mode gradients, SGD fine-tuning, and the compression schedules.

The trainer keeps its own batched forward/backward implementations (one per
layer kind) so a whole minibatch moves through each layer at once: the
matrix products (dense convolutions over patch matrices, the 1x1 mixes of
a factorized convolution, fully connected layers, and every weight
gradient) are batched BLAS calls, and the windowed stages (the depthwise
stage of a factorized convolution and max-pooling) are one whole-batch pass
per kernel offset over strided views.  Gradients are exact reverse-mode
derivatives for every trainable tensor, including all three factor tensors
of a factorized convolution and both matrices of a factorized fully
connected layer.

The per-layer states hold the network's own read-only parameter arrays;
an SGD step replaces an array with a new one instead of writing into it,
so training never copies or mutates its input network.

Two schedules are provided.  ``iterative_compress`` factorizes one layer,
fine-tunes the whole network (nothing is frozen), then moves to the next
layer.  ``oneshot_compress`` factorizes everything first and fine-tunes
once at the end with the same total epoch budget; it exists as the baseline
the iterative schedule is measured against.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset
from .network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    MaxPool,
    NetworkSpec,
    ReLU,
    decompose_layer,
    decomposable_layers,
    replace_layer,
)
from .cp import CpFactors
from .svd import SvdFactors

__all__ = [
    "TrainConfig",
    "EpochStats",
    "StageRecord",
    "StageLog",
    "DivergedError",
    "softmax_cross_entropy",
    "mean_squared_error",
    "backward",
    "batch_outputs",
    "evaluate",
    "finetune",
    "iterative_compress",
    "oneshot_compress",
]


class DivergedError(RuntimeError):
    """Training produced non-finite activations or loss."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = tuple(history or ())


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings.

    learning_rate applies to every layer unless overridden by name in
    lr_overrides.  The rate decays by a factor of 10 every lr_step epochs
    within one fine-tuning run.  epochs_per_stage is the budget each
    compression stage gets.
    """

    learning_rate: float = 0.05
    lr_overrides: dict = field(default_factory=dict)
    batch_size: int = 32
    epochs_per_stage: int = 4
    lr_step: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate and batch_size must be positive")
        if self.epochs_per_stage < 1 or self.lr_step < 1:
            raise ValueError("epochs_per_stage and lr_step must be >= 1")
        if any(lr <= 0 for lr in self.lr_overrides.values()):
            raise ValueError("lr overrides must be positive")

    def rate_for(self, layer_name: str, epoch: int) -> float:
        base = self.lr_overrides.get(layer_name, self.learning_rate)
        return base * 0.1 ** (epoch // self.lr_step)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    learning_rate: float
    train_loss: float
    train_accuracy: float
    test_loss: float
    test_accuracy: float


@dataclass(frozen=True)
class StageRecord:
    layer: str
    rank: int
    pre_loss: float
    pre_accuracy: float
    post_loss: float
    post_accuracy: float
    epochs: int

    def to_line(self) -> str:
        return (
            f"layer={self.layer}\trank={self.rank}\tpre_loss={self.pre_loss!r}"
            f"\tpre_accuracy={self.pre_accuracy!r}\tpost_loss={self.post_loss!r}"
            f"\tpost_accuracy={self.post_accuracy!r}\tepochs={self.epochs}"
        )


@dataclass(frozen=True)
class StageLog:
    """One record per compression stage, in network order."""

    records: tuple
    diverged: bool = False

    def to_text(self) -> str:
        lines = [r.to_line() for r in self.records]
        if self.diverged:
            lines.append("diverged=true")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StageLog":
        records = []
        diverged = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line == "diverged=true":
                diverged = True
                continue
            fields = dict(item.split("=", 1) for item in line.split("\t"))
            records.append(
                StageRecord(
                    fields["layer"], int(fields["rank"]),
                    float(fields["pre_loss"]), float(fields["pre_accuracy"]),
                    float(fields["post_loss"]), float(fields["post_accuracy"]),
                    int(fields["epochs"]),
                )
            )
        return cls(tuple(records), diverged)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, d loss / d logits).
    """
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels] - np.log(exp.sum(axis=1))
    loss = -float(picked.mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mean_squared_error(outputs: np.ndarray, targets: np.ndarray):
    """Mean (over the batch) squared error; returns (loss, d loss / d outputs)."""
    diff = outputs - targets
    n = outputs.shape[0]
    loss = float((diff * diff).sum() / n)
    return loss, 2.0 * diff / n


# ---------------------------------------------------------------------------
# batched per-layer forward/backward
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


class _ConvState:
    def __init__(self, layer: Conv):
        self.name = layer.name
        self.spec = layer.spec
        self.params = {"weights": layer.weights}
        if layer.bias is not None:
            self.params["bias"] = layer.bias

    def forward(self, x, cache):
        spec = self.spec
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
            kmat = self.params["weights"][gi * t_g : (gi + 1) * t_g].reshape(t_g, -1)
            outs.append(np.matmul(kmat, cols).reshape(b, t_g, wout, hout))
            cols_all.append(cols)
        out = np.concatenate(outs, axis=1)
        if "bias" in self.params:
            out = out + self.params["bias"][None, :, None, None]
        if cache is not None:
            cache["cols"] = cols_all
            cache["x_shape"] = x.shape
            cache["out_hw"] = (wout, hout)
        return out

    def backward(self, dy, cache, grads):
        spec = self.spec
        g = spec.groups
        s_g = spec.in_channels // g
        t_g = spec.out_channels // g
        d = spec.kernel_size
        b, _, wout, hout = dy.shape
        dw = np.empty_like(self.params["weights"])
        dx_groups = []
        for gi in range(g):
            dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
            cols = cache["cols"][gi]
            dw[gi * t_g : (gi + 1) * t_g] = (
                np.matmul(dy_g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(t_g, s_g, d, d)
            )
            kmat = self.params["weights"][gi * t_g : (gi + 1) * t_g].reshape(t_g, -1)
            dcols = np.matmul(kmat.T, dy_g)
            bshape = (b, s_g) + cache["x_shape"][2:]
            dx_groups.append(
                _scatter_cols(dcols, bshape, d, spec.stride, spec.padding, wout, hout)
            )
        grads["weights"] = dw
        if "bias" in self.params:
            grads["bias"] = dy.sum(axis=(0, 2, 3))
        return np.concatenate(dx_groups, axis=1)


class _DecomposedConvState:
    """1x1 mix (u1) -> depthwise D x D filter (u2) -> 1x1 mix (u3), per group.

    Between the two mixes the activations are kept channels-last,
    (B, W, H, R), so that the depthwise stage and its adjoint run as D^2
    shift-and-accumulate passes (kernel offsets in row-major order) over
    strided views of the padded intermediate with long contiguous inner
    loops.  The mixes and their weight gradients are batched matmuls that
    read the channels-first neighbours through transposed views."""

    def __init__(self, layer: DecomposedConv):
        self.name = layer.name
        self.spec = layer.spec
        self.params = {}
        for gi, f in enumerate(layer.factors):
            self.params[f"u1.{gi}"] = f.u1
            self.params[f"u2.{gi}"] = f.u2
            self.params[f"u3.{gi}"] = f.u3
        if layer.bias is not None:
            self.params["bias"] = layer.bias
        self.groups = layer.spec.groups

    def _factors(self, gi):
        return (self.params[f"u1.{gi}"], self.params[f"u2.{gi}"],
                self.params[f"u3.{gi}"])

    def forward(self, x, cache):
        spec = self.spec
        b, _, w, h = x.shape
        wout, hout = spec.output_extent(w), spec.output_extent(h)
        s_g = spec.in_channels // spec.groups
        d, st, p = spec.kernel_size, spec.stride, spec.padding
        outs = []
        saved = []
        for gi in range(self.groups):
            u1, u2, u3 = self._factors(gi)
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
            if cache is not None:
                saved.append({"xg": xg, "zpad": zpad, "taps": taps, "z2": z2})
        out = np.concatenate(outs, axis=1)
        if "bias" in self.params:
            out = out + self.params["bias"][None, :, None, None]
        if cache is not None:
            cache["groups"] = saved
            cache["hw"] = (w, h)
        return out

    def backward(self, dy, cache, grads):
        spec = self.spec
        t_g = spec.out_channels // spec.groups
        s_g = spec.in_channels // spec.groups
        d, st, p = spec.kernel_size, spec.stride, spec.padding
        b, _, wout, hout = dy.shape
        w, h = cache["hw"]
        dx_groups = []
        for gi in range(self.groups):
            u1, u2, u3 = self._factors(gi)
            r = u2.shape[0]
            saved = cache["groups"][gi]
            dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
            grads[f"u3.{gi}"] = np.matmul(dy_g, saved["z2"]).sum(axis=0)
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
            grads[f"u2.{gi}"] = du2
            dz = _unpad_batch(dzpad, p, axis=1).reshape(b, w * h, r).transpose(0, 2, 1)

            grads[f"u1.{gi}"] = np.matmul(dz, saved["xg"].transpose(0, 2, 1)).sum(axis=0)
            dx_groups.append(np.matmul(u1.T, dz).reshape(b, s_g, w, h))
        if "bias" in self.params:
            grads["bias"] = dy.sum(axis=(0, 2, 3))
        return np.concatenate(dx_groups, axis=1)


class _FcState:
    def __init__(self, layer: Fc):
        self.name = layer.name
        self.params = {"weights": layer.weights}
        if layer.bias is not None:
            self.params["bias"] = layer.bias

    def forward(self, x, cache):
        out = x @ self.params["weights"].T
        if "bias" in self.params:
            out = out + self.params["bias"]
        if cache is not None:
            cache["x"] = x
        return out

    def backward(self, dy, cache, grads):
        grads["weights"] = dy.T @ cache["x"]
        if "bias" in self.params:
            grads["bias"] = dy.sum(axis=0)
        return dy @ self.params["weights"]


class _DecomposedFcState:
    def __init__(self, layer: DecomposedFc):
        self.name = layer.name
        self.params = {"ud": layer.factors.ud, "vt": layer.factors.vt}
        if layer.bias is not None:
            self.params["bias"] = layer.bias

    def forward(self, x, cache):
        hidden = x @ self.params["vt"].T
        out = hidden @ self.params["ud"].T
        if "bias" in self.params:
            out = out + self.params["bias"]
        if cache is not None:
            cache["x"] = x
            cache["hidden"] = hidden
        return out

    def backward(self, dy, cache, grads):
        grads["ud"] = dy.T @ cache["hidden"]
        dhidden = dy @ self.params["ud"]
        grads["vt"] = dhidden.T @ cache["x"]
        if "bias" in self.params:
            grads["bias"] = dy.sum(axis=0)
        return dhidden @ self.params["vt"]


class _ReLUState:
    def __init__(self, layer: ReLU):
        self.name = layer.name
        self.params = {}

    def forward(self, x, cache):
        if cache is not None:
            cache["mask"] = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, dy, cache, grads):
        return dy * cache["mask"]


class _MaxPoolState:
    """Max over k x k windows, taken over the k^2 strided views of the input.

    The backward pass routes each window's gradient to its first maximum in
    row-major window order (the rule ``argmax`` uses); positions shared by
    overlapping windows sum their gradients."""

    def __init__(self, layer: MaxPool):
        self.name = layer.name
        self.window = layer.window
        self.stride = layer.stride
        self.params = {}

    def forward(self, x, cache):
        k, s = self.window, self.stride
        wout = (x.shape[2] - k) // s + 1
        hout = (x.shape[3] - k) // s + 1
        views = [_strided(x, j, i, s, wout, hout) for j, i in _offsets(k)]
        out = views[0].copy()
        idx = None if cache is None else np.zeros(out.shape, np.min_scalar_type(k * k - 1))
        for n, view in enumerate(views[1:], start=1):
            if idx is not None:
                np.copyto(idx, n, where=view > out)
            np.maximum(out, view, out=out)
        if cache is not None:
            cache["idx"] = idx
            cache["x_shape"] = x.shape
        return out

    def backward(self, dy, cache, grads):
        k, s = self.window, self.stride
        idx = cache["idx"]
        wout, hout = idx.shape[2:]
        dx = np.zeros(cache["x_shape"])
        routed = np.empty_like(dy)
        for n, (j, i) in enumerate(_offsets(k)):
            np.multiply(dy, idx == n, out=routed)
            view = _strided(dx, j, i, s, wout, hout)
            view += routed
        return dx


class _FlattenState:
    def __init__(self, layer: Flatten):
        self.name = layer.name
        self.params = {}

    def forward(self, x, cache):
        if cache is not None:
            cache["shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, cache, grads):
        return dy.reshape(cache["shape"])


_STATE_TYPES = {
    Conv: _ConvState,
    DecomposedConv: _DecomposedConvState,
    Fc: _FcState,
    DecomposedFc: _DecomposedFcState,
    ReLU: _ReLUState,
    MaxPool: _MaxPoolState,
    Flatten: _FlattenState,
}


def _build_states(net: NetworkSpec) -> list:
    """Per-layer states referencing the layers' arrays (no copies)."""
    return [_STATE_TYPES[type(layer)](layer) for layer in net.layers]


def _export_states(net: NetworkSpec, states: list) -> NetworkSpec:
    """Rebuild an immutable NetworkSpec from trained parameter arrays."""
    layers = []
    for layer, state in zip(net.layers, states):
        p = state.params
        if isinstance(layer, Conv):
            layers.append(Conv(layer.name, layer.spec, p["weights"], p.get("bias")))
        elif isinstance(layer, DecomposedConv):
            factors = tuple(
                CpFactors(p[f"u1.{gi}"], p[f"u2.{gi}"], p[f"u3.{gi}"])
                for gi in range(layer.spec.groups)
            )
            layers.append(
                DecomposedConv(layer.name, layer.spec, factors, p.get("bias"))
            )
        elif isinstance(layer, Fc):
            layers.append(Fc(layer.name, p["weights"], p.get("bias")))
        elif isinstance(layer, DecomposedFc):
            layers.append(
                DecomposedFc(layer.name, SvdFactors(p["ud"], p["vt"]), p.get("bias"))
            )
        else:
            layers.append(layer)
    return NetworkSpec(net.input_shape, tuple(layers))


def _forward_states(states, x, with_cache: bool):
    caches = []
    value = x
    for state in states:
        cache = {} if with_cache else None
        value = state.forward(value, cache)
        caches.append(cache)
    if not np.all(np.isfinite(value)):
        raise DivergedError("non-finite activations in forward pass")
    return value, caches


def _backward_states(states, caches, dout):
    grads_per_state = []
    dvalue = dout
    for state, cache in zip(reversed(states), reversed(caches)):
        grads = {}
        dvalue = state.backward(dvalue, cache, grads)
        grads_per_state.append(grads)
    return list(reversed(grads_per_state))


def _as_batch(inputs: np.ndarray, input_shape) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != tuple(input_shape):
        raise ValueError(f"batch shape {x.shape[1:]} != {tuple(input_shape)}")
    return x


def batch_outputs(net: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Forward a whole (B, ...) batch; returns the (B, K) outputs."""
    states = _build_states(net)
    out, _ = _forward_states(states, _as_batch(inputs, net.input_shape), False)
    return out


def _chunked_outputs(states, inputs: np.ndarray, chunk: int = 512) -> np.ndarray:
    parts = []
    for start in range(0, inputs.shape[0], chunk):
        out, _ = _forward_states(states, inputs[start : start + chunk], False)
        parts.append(out)
    return np.concatenate(parts, axis=0)


def backward(net: NetworkSpec, inputs, targets, loss_fn=softmax_cross_entropy) -> dict:
    """Exact gradients of the batch loss for every trainable tensor.

    Returns {(layer_name, param_name): gradient array}.  The default loss
    is softmax cross-entropy against integer labels.
    """
    states = _build_states(net)
    out, caches = _forward_states(states, _as_batch(inputs, net.input_shape), True)
    loss, dout = loss_fn(out, targets)
    if not np.isfinite(loss):
        raise DivergedError(f"non-finite loss {loss}")
    per_state = _backward_states(states, caches, dout)
    flat = {}
    for state, grads in zip(states, per_state):
        for key, grad in grads.items():
            flat[(state.name, key)] = grad
    return flat


def evaluate(net: NetworkSpec, inputs, labels) -> tuple:
    """(mean cross-entropy, accuracy) over a labeled set."""
    states = _build_states(net)
    logits = _chunked_outputs(states, _as_batch(inputs, net.input_shape))
    loss, _ = softmax_cross_entropy(logits, labels)
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, accuracy


def _run_sgd(states, data: Dataset, cfg: TrainConfig, epochs: int):
    rng = np.random.default_rng(cfg.seed)
    n = data.train_x.shape[0]
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb = data.train_x[batch]
            yb = data.train_y[batch]
            out, caches = _forward_states(states, xb, True)
            loss, dout = softmax_cross_entropy(out, yb)
            if not np.isfinite(loss):
                raise DivergedError(f"non-finite loss at epoch {epoch}", history)
            loss_sum += loss * batch.size
            hit_sum += int((out.argmax(axis=1) == yb).sum())
            per_state = _backward_states(states, caches, dout)
            for state, grads in zip(states, per_state):
                rate = cfg.rate_for(state.name, epoch)
                for key, grad in grads.items():
                    state.params[key] = state.params[key] - rate * grad
        test_logits = _chunked_outputs(states, data.test_x)
        test_loss, _ = softmax_cross_entropy(test_logits, data.test_y)
        test_acc = float((test_logits.argmax(axis=1) == data.test_y).mean())
        history.append(
            EpochStats(
                epoch, cfg.rate_for("", epoch), loss_sum / n, hit_sum / n,
                test_loss, test_acc,
            )
        )
    return history


def finetune(net: NetworkSpec, data: Dataset, cfg: TrainConfig, epochs: int | None = None):
    """SGD over every parameter of every layer; nothing is frozen.

    Runs ``epochs`` (default cfg.epochs_per_stage) epochs and returns
    (trained network, per-epoch stats).  Raises :class:`DivergedError`,
    with the stats so far attached, if the loss stops being finite.
    """
    states = _build_states(net)
    n_epochs = cfg.epochs_per_stage if epochs is None else int(epochs)
    history = _run_sgd(states, data, cfg, n_epochs)
    return _export_states(net, states), history


def _stage_seed(base: int, index: int) -> int:
    return base + 1000003 * (index + 1)


def iterative_compress(net: NetworkSpec, data: Dataset, ranks: dict, cfg: TrainConfig):
    """Factorize layers one at a time, fine-tuning the whole network after each.

    ``ranks`` must provide a rank for every decomposable layer.  Returns the
    fully factorized network and a :class:`StageLog`.  If a stage diverges,
    the log so far is returned with ``diverged`` set and the network as of
    the last completed stage.
    """
    names = decomposable_layers(net)
    missing = [n for n in names if n not in ranks]
    if missing:
        raise ValueError(f"ranks missing for layers: {missing}")

    current = net
    records = []
    for index, name in enumerate(names):
        factors = decompose_layer(
            current.layer(name), ranks[name], seed=_stage_seed(cfg.seed, index)
        )
        candidate = replace_layer(current, name, factors)
        pre_loss, pre_acc = evaluate(candidate, data.test_x, data.test_y)
        try:
            candidate, _ = finetune(candidate, data, cfg)
        except DivergedError:
            records.append(
                StageRecord(name, ranks[name], pre_loss, pre_acc,
                            float("nan"), float("nan"), cfg.epochs_per_stage)
            )
            return current, StageLog(tuple(records), diverged=True)
        post_loss, post_acc = evaluate(candidate, data.test_x, data.test_y)
        records.append(
            StageRecord(name, ranks[name], pre_loss, pre_acc, post_loss,
                        post_acc, cfg.epochs_per_stage)
        )
        current = candidate
    return current, StageLog(tuple(records))


def oneshot_compress(net: NetworkSpec, data: Dataset, ranks: dict, cfg: TrainConfig):
    """Factorize every layer first, then fine-tune once.

    The single fine-tune gets the same total budget iterative_compress
    would spend: epochs_per_stage times the number of stages.
    """
    names = decomposable_layers(net)
    missing = [n for n in names if n not in ranks]
    if missing:
        raise ValueError(f"ranks missing for layers: {missing}")

    current = net
    records = []
    for index, name in enumerate(names):
        factors = decompose_layer(
            current.layer(name), ranks[name], seed=_stage_seed(cfg.seed, index)
        )
        current = replace_layer(current, name, factors)
        loss, acc = evaluate(current, data.test_x, data.test_y)
        records.append(StageRecord(name, ranks[name], loss, acc, loss, acc, 0))

    budget = cfg.epochs_per_stage * len(names)
    try:
        current, _ = finetune(current, data, cfg, epochs=budget)
    except DivergedError:
        records.append(
            StageRecord("finetune", 0, records[-1].post_loss,
                        records[-1].post_accuracy, float("nan"), float("nan"), budget)
        )
        return current, StageLog(tuple(records), diverged=True)
    post_loss, post_acc = evaluate(current, data.test_x, data.test_y)
    records.append(
        StageRecord("finetune", 0, records[-1].post_loss,
                    records[-1].post_accuracy, post_loss, post_acc, budget)
    )
    return current, StageLog(tuple(records))
