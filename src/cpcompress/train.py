"""Reverse-mode gradients, SGD fine-tuning, and the compression schedules.

A whole minibatch moves through each layer at once, through the batched
forward and backward passes each layer kind defines (``network.py``) on top
of the array kernels in ``conv.py``.  Gradients are exact reverse-mode
derivatives for every trainable tensor, including all three factor tensors
of a factorized convolution and both matrices of a factorized fully
connected layer.

The trainer holds one dict of named parameter arrays per layer, as the
layer's ``params()`` returns them: at first the network's own read-only
arrays.  An SGD step replaces an array with a new one instead of writing
into it, so training never copies or mutates its input network, and
``with_params`` turns the trained dicts back into layers, which adopt the
trained arrays rather than copy them.

Two schedules are provided.  ``iterative_compress`` factorizes one layer,
fine-tunes the whole network (nothing is frozen), then moves to the next
layer.  ``oneshot_compress`` factorizes everything first and fine-tunes
once at the end with the same total epoch budget; it exists as the baseline
the iterative schedule is measured against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import NetworkSpec, decompose_layer, decomposable_layers, replace_layer
from .tensor import _freeze, _set_integers

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


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings.

    learning_rate applies to every layer.  It decays by a factor of 10 every
    lr_step epochs within one fine-tuning run.  epochs_per_stage is the
    budget each compression stage gets.

    learning_rate must be positive and finite.  The other settings must be
    integers (``operator.index``), not booleans: seed >= 0, the rest >= 1.
    Anything else is refused here rather than deep inside a run.
    """

    learning_rate: float = 0.05
    batch_size: int = 32
    epochs_per_stage: int = 4
    lr_step: int = 20
    seed: int = 0

    def __post_init__(self):
        _set_integers(self, ("batch_size", "epochs_per_stage", "lr_step", "seed"))
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1 or self.epochs_per_stage < 1 or self.lr_step < 1:
            raise ValueError("batch_size, epochs_per_stage and lr_step must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def rate_for(self, epoch: int) -> float:
        return self.learning_rate * 0.1 ** (epoch // self.lr_step)


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
# whole-network passes over per-layer parameter dicts
# ---------------------------------------------------------------------------


# Samples per slice of an uncached pass: the default training batch, so an
# evaluation's transient is no larger than a training step's.
_SLICE = 32


def _params(net: NetworkSpec) -> list:
    """One dict of named parameter arrays per layer (the layers' own arrays)."""
    return [layer.params() for layer in net.layers]


def _sliced(layers: list, x) -> np.ndarray:
    """`x` through (layer, params) pairs, _SLICE samples at a time, each
    slice's output written into one array for the whole batch."""
    out = None
    for start in range(0, x.shape[0], _SLICE):
        part = slice(start, start + _SLICE)
        value = x[part]
        for layer, p in layers:
            value = layer.forward(p, value)
        if out is None:
            out = np.empty((x.shape[0],) + value.shape[1:], value.dtype)
        out[part] = value
    return out


def _forward(net: NetworkSpec, params: list, x, with_cache: bool):
    """(output, per-layer caches) of a batch.

    An uncached pass over more than _SLICE samples runs the leading
    per-sample layers (``per_sample``) one slice at a time, so their patch
    matrices and activations span one slice, not the batch; their arithmetic
    is per sample, so the output is bit-identical to a whole-batch pass.
    The layers after them, and every cached pass, take the whole batch:
    backward reads whole-batch caches, and an fc product rounds differently
    with its row count.
    """
    layers = list(zip(net.layers, params))
    lead = 0
    if not with_cache and x.shape[0] > _SLICE:
        while lead < len(layers) and layers[lead][0].per_sample:
            lead += 1
    value = _sliced(layers[:lead], x) if lead else x
    caches = [None] * lead
    for layer, p in layers[lead:]:
        cache = {} if with_cache else None
        value = layer.forward(p, value, cache)
        caches.append(cache)
    if not np.all(np.isfinite(value)):
        raise DivergedError("non-finite activations in forward pass")
    return value, caches


def _step(net: NetworkSpec, params: list, x, targets, loss_fn) -> tuple:
    """(outputs, loss, per-layer gradient dicts in network order) of one
    batch.  Nothing reads the first layer's input gradient, so that layer is
    told to skip it."""
    out, caches = _forward(net, params, x, True)
    loss, dvalue = loss_fn(out, targets)
    if not np.isfinite(loss):
        raise DivergedError(f"non-finite loss {loss}")
    grads = [{} for _ in net.layers]
    for index in reversed(range(len(net.layers))):
        dvalue = net.layers[index].backward(
            params[index], dvalue, caches[index], grads[index], input_grad=index > 0
        )
    return out, loss, grads


def _as_batch(inputs: np.ndarray, input_shape) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != tuple(input_shape):
        raise ValueError(f"batch shape {x.shape[1:]} != {tuple(input_shape)}")
    return x


def batch_outputs(net: NetworkSpec, inputs: np.ndarray) -> np.ndarray:
    """Forward a whole (B, ...) batch; returns the (B, K) outputs."""
    out, _ = _forward(net, _params(net), _as_batch(inputs, net.input_shape), False)
    return out


def _scores(net, params, inputs: np.ndarray, labels) -> tuple:
    """(mean cross-entropy, accuracy) of one uncached pass over the set."""
    logits, _ = _forward(net, params, inputs, False)
    loss, _ = softmax_cross_entropy(logits, labels)
    return loss, float((logits.argmax(axis=1) == labels).mean())


def backward(net: NetworkSpec, inputs, targets, loss_fn=softmax_cross_entropy) -> dict:
    """Exact gradients of the batch loss for every trainable tensor.

    Returns {(layer_name, param_name): gradient array}.  The default loss
    is softmax cross-entropy against integer labels.
    """
    x = _as_batch(inputs, net.input_shape)
    _, _, grads = _step(net, _params(net), x, targets, loss_fn)
    return {
        (layer.name, key): grad
        for layer, layer_grads in zip(net.layers, grads)
        for key, grad in layer_grads.items()
    }


def evaluate(net: NetworkSpec, inputs, labels) -> tuple:
    """(mean cross-entropy, accuracy) over a labeled set."""
    return _scores(net, _params(net), _as_batch(inputs, net.input_shape), labels)


def finetune(net: NetworkSpec, data: Dataset, cfg: TrainConfig, epochs: int | None = None):
    """SGD over every parameter of every layer; nothing is frozen.

    Runs ``epochs`` (default cfg.epochs_per_stage) epochs and returns
    (trained network, per-epoch stats).  Raises :class:`DivergedError` if
    the activations or the loss stop being finite.
    """
    params = _params(net)
    rng = np.random.default_rng(cfg.seed)
    n = data.train_x.shape[0]
    history = []
    for epoch in range(cfg.epochs_per_stage if epochs is None else int(epochs)):
        rate = cfg.rate_for(epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            yb = data.train_y[batch]
            out, loss, per_layer = _step(
                net, params, data.train_x[batch], yb, softmax_cross_entropy
            )
            loss_sum += loss * batch.size
            hit_sum += int((out.argmax(axis=1) == yb).sum())
            for p, grads in zip(params, per_layer):
                for key, grad in grads.items():
                    p[key] = p[key] - rate * grad
        test_loss, test_acc = _scores(net, params, data.test_x, data.test_y)
        history.append(
            EpochStats(epoch, rate, loss_sum / n, hit_sum / n, test_loss, test_acc)
        )
    # The trained arrays are fresh and nothing else holds them: freezing them
    # in place lets the new layers adopt them instead of copying.
    layers = tuple(
        layer.with_params({key: _freeze(arr) for key, arr in p.items()})
        for layer, p in zip(net.layers, params)
    )
    return NetworkSpec(net.input_shape, layers), history


def _stage_names(net: NetworkSpec, ranks: dict) -> list:
    """The decomposable layers in order; `ranks` must give each a rank."""
    names = decomposable_layers(net)
    missing = [n for n in names if n not in ranks]
    if missing:
        raise ValueError(f"ranks missing for layers: {missing}")
    return names


def _factorize(net: NetworkSpec, name: str, rank: int, cfg: TrainConfig, index: int):
    """`net` with layer `name` factorized, seeded for stage `index`."""
    seed = cfg.seed + 1000003 * (index + 1)
    return replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=seed))


def _stage(candidate: NetworkSpec, data: Dataset, cfg: TrainConfig, name: str,
           rank: int, pre: tuple, epochs: int) -> tuple:
    """Fine-tune `candidate` for `epochs` epochs.  Returns the tuned network,
    or None if it diverged, and the stage's record from the (loss, accuracy)
    `pre` to the last epoch's test scores (NaN after a divergence)."""
    try:
        tuned, history = finetune(candidate, data, cfg, epochs=epochs)
    except DivergedError:
        return None, StageRecord(name, rank, *pre, float("nan"), float("nan"), epochs)
    last = history[-1]
    return tuned, StageRecord(name, rank, *pre, last.test_loss, last.test_accuracy, epochs)


def iterative_compress(net: NetworkSpec, data: Dataset, ranks: dict, cfg: TrainConfig):
    """Factorize layers one at a time, fine-tuning the whole network after each.

    ``ranks`` must provide a rank for every decomposable layer.  Returns the
    fully factorized network and a :class:`StageLog`.  If a stage diverges,
    the log so far is returned with ``diverged`` set and the network as of
    the last completed stage.
    """
    current = net
    records = []
    for index, name in enumerate(_stage_names(net, ranks)):
        candidate = _factorize(current, name, ranks[name], cfg, index)
        pre = evaluate(candidate, data.test_x, data.test_y)
        tuned, record = _stage(candidate, data, cfg, name, ranks[name], pre,
                               cfg.epochs_per_stage)
        records.append(record)
        if tuned is None:
            return current, StageLog(tuple(records), diverged=True)
        current = tuned
    return current, StageLog(tuple(records))


def oneshot_compress(net: NetworkSpec, data: Dataset, ranks: dict, cfg: TrainConfig):
    """Factorize every layer first, then fine-tune once.

    The single fine-tune gets the same total budget iterative_compress
    would spend: epochs_per_stage times the number of stages.  A network
    with no decomposable layers comes back as it is, with an empty log.
    If the fine-tune diverges, the factorized network comes back untuned
    with ``diverged`` set.
    """
    names = _stage_names(net, ranks)
    if not names:
        return net, StageLog(())
    current = net
    records = []
    for index, name in enumerate(names):
        current = _factorize(current, name, ranks[name], cfg, index)
        loss, acc = evaluate(current, data.test_x, data.test_y)
        records.append(StageRecord(name, ranks[name], loss, acc, loss, acc, 0))

    tuned, record = _stage(current, data, cfg, "finetune", 0, (loss, acc),
                           cfg.epochs_per_stage * len(names))
    records.append(record)
    if tuned is None:
        return current, StageLog(tuple(records), diverged=True)
    return tuned, StageLog(tuple(records))
