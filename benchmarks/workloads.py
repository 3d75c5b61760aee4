"""The three benchmark workloads and the per-layer profiles of their layers.

Each workload is a class with the same steps:

* ``setup()`` builds the inputs from the seed, several times, and adds
  each build time to ``setup_times``;
* ``measure(seconds)`` runs the timed closed loop -- one caller, each call
  issued when the previous one returned -- and returns the end-to-end
  metrics every workload reports, ``unit_s`` and ``throughput_per_s``.
  The workload's own figures (accuracies, latency percentiles, errors) go
  to ``self.details``;
* ``trace_overhead(tracer)`` runs one unit of work untraced and then with
  spans on; their difference is ``trace.overhead_s``;
* ``layer_profile()`` measures the per-layer metrics of the library layers
  the workload stresses.  A traced run of any workload runs the layer
  profiles of all three, so every traced run reports the same metrics.

Every call into the library and every correctness check counts as one
operation in ``self.outcomes``; a failed check or a ``DivergedError`` counts
as a failed one.
"""

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from cpcompress import allocator, conv, cp, data, network, presets, svd, train
from cpcompress.conv import ConvSpec, MultiplyCounter
from cpcompress.network import Conv, DecomposedConv, DecomposedFc, Fc, Flatten, MaxPool, NetworkSpec, ReLU
from cpcompress.tensor import DenseTensor
from cpcompress.train import DivergedError, TrainConfig

from harness import (
    Outcomes,
    metric,
    median,
    patched,
    percentile,
    rel_diff,
    repeat_setup,
    span_replacements,
    timed,
)

# ---------------------------------------------------------------------------
# toy-pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToySize:
    """Work done by one toy pipeline.

    The defaults shorten the CLI's schedule (16 baseline epochs decaying
    after 12, 4 epochs per stage decaying after 3) so that one pipeline fits
    in a run; all five stages stay.  Each schedule ends on a decayed rate so
    the accuracies it reports are settled ones.
    """

    n_train: int = 2000
    n_test: int = 500
    noise: float = 1.0
    baseline_epochs: int = 10
    baseline_lr_step: int = 7
    stage_epochs: int = 2
    stage_lr_step: int = 1
    probe_epochs: int = 1
    profile_reps: int = 15


# Criterion-8 ranks: fixed so the amount of work does not depend on the probe.
TOY_RANKS = {"conv1": 6, "conv2": 18, "fc1": 12, "fc2": 5}
TOY_BUDGETS = {"conv": 24, "fc": 17}
TOY_PROBE_RANK = 5
TOY_MAX_GAP = 0.05  # criterion 8: iterative accuracy within this of baseline
TOY_PROFILE_BATCH = 32
TOY_PROFILE_SLOTS = ("conv1", "pool1", "conv2", "pool2", "fc1", "fc2")


class FinetuneMeter:
    """Wraps train.finetune to count SGD steps and images and total its time."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0
        self.images = 0
        self.steps = 0

    def __call__(self, net, dataset, cfg, *args, **kwargs):
        start = perf_counter()
        result = self.fn(net, dataset, cfg, *args, **kwargs)
        self.seconds += perf_counter() - start
        epochs = len(result[1])
        n = dataset.train_x.shape[0]
        self.images += epochs * n
        self.steps += epochs * math.ceil(n / cfg.batch_size)
        return result


class ToyPipeline:
    name = "toy-pipeline"

    def __init__(self, seed: int, size: ToySize = ToySize()):
        self.seed = seed
        self.size = size
        self.outcomes = Outcomes()
        self.accuracies = []
        self.setup_times = []

    def close(self):
        pass

    def setup(self, reps: int = 11):
        def build():
            return data.make_synthetic_dataset(
                n_train=self.size.n_train, n_test=self.size.n_test,
                noise=self.size.noise, seed=self.seed,
            )

        self.data, times = repeat_setup(build, reps)
        self.setup_times += times

    def _pipeline(self):
        """baseline -> sensitivity probe -> allocation -> iterative -> one-shot."""
        seed, size, d, out = self.seed, self.size, self.data, self.outcomes
        base_cfg = TrainConfig(learning_rate=0.05, batch_size=32,
                               lr_step=size.baseline_lr_step, seed=seed)
        ft_cfg = TrainConfig(
            learning_rate=0.02, batch_size=32, epochs_per_stage=size.stage_epochs,
            lr_step=size.stage_lr_step, seed=seed,
        )

        def accuracy(net):
            return train.evaluate(net, d.test_x, d.test_y)[1]

        out.call(8)
        baseline, _ = train.finetune(presets.toy_cnn(seed=seed), d, base_cfg,
                                     epochs=size.baseline_epochs)
        base_acc = accuracy(baseline)
        report = allocator.measure_sensitivity(
            baseline, accuracy, probe_rank=TOY_PROBE_RANK, data=d, cfg=ft_cfg,
            epochs=size.probe_epochs, seed=seed,
        )
        allocated = allocator.allocate_ranks(report, TOY_BUDGETS)
        it_net, it_log = train.iterative_compress(baseline, d, TOY_RANKS, ft_cfg)
        os_net, os_log = train.oneshot_compress(baseline, d, TOY_RANKS, ft_cfg)
        it_acc, os_acc = accuracy(it_net), accuracy(os_net)

        out.check(set(allocated) == set(TOY_RANKS), f"allocation covers {sorted(allocated)}")
        for group, budget in TOY_BUDGETS.items():
            share = [allocated[e.name] for e in report.group_entries(group)]
            out.check(sum(share) == budget and min(share) >= 1,
                      f"{group} allocation {share} does not split budget {budget}")
        out.check(not it_log.diverged and not os_log.diverged, "a schedule diverged")
        out.check(base_acc - it_acc <= TOY_MAX_GAP,
                  f"iterative accuracy {it_acc} more than {TOY_MAX_GAP} below "
                  f"baseline {base_acc}")
        return base_acc, it_acc, os_acc

    def _run_once(self):
        try:
            accs, seconds = timed(self._pipeline)
        except DivergedError as exc:
            self.outcomes.check(False, f"pipeline diverged: {exc}")
            return None
        if self.accuracies:
            self.outcomes.check(accs == self.accuracies[0],
                                f"repeated pipeline gave {accs}, first gave {self.accuracies[0]}")
        self.accuracies.append(accs)
        return seconds

    def measure(self, seconds: float) -> dict:
        meter = FinetuneMeter(train.finetune)
        times = []
        start = perf_counter()
        with patched({train.finetune: meter}):
            while True:
                t = self._run_once()
                if t is None:
                    break
                times.append(t)
                # Start another pipeline only if it should end within budget.
                if perf_counter() - start + t > seconds:
                    break
        if not times:
            raise DivergedError("every pipeline diverged")
        base_acc, it_acc, os_acc = self.accuracies[0]
        self.samples = {"pipelines": len(times), "pipeline_s": times}
        self.details = {
            "pipeline_s": metric(median(times), "s"),
            "train_images_per_s": metric(meter.images / meter.seconds, "1/s"),
            "baseline_accuracy": metric(base_acc, "fraction"),
            "iterative_accuracy": metric(it_acc, "fraction"),
            "oneshot_accuracy": metric(os_acc, "fraction"),
        }
        return {
            "unit_s": self.details["pipeline_s"],
            "throughput_per_s": self.details["train_images_per_s"],
        }

    def trace_overhead(self, tracer) -> dict:
        untraced = self._run_once()
        with patched(span_replacements(tracer)):
            traced = self._run_once()
        if untraced is None or traced is None:
            return {}
        return {"trace.overhead_s": metric(traced - untraced, "s")}

    def layer_profile(self) -> dict:
        """The pipeline's stage calls timed one at a time, then each toy
        layer as a one-layer network through train.batch_outputs (forward)
        and train.backward (forward with caches, then backward) at batch 32;
        backward_ms is the difference of the two medians."""
        seed, size, d = self.seed, self.size, self.data
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, seed=seed)
        meter = FinetuneMeter(train.finetune)
        try:
            dense, _ = meter(presets.toy_cnn(seed=seed), d, cfg, epochs=size.probe_epochs)
            _, evaluate_s = timed(train.evaluate, dense, d.test_x, d.test_y)
            _, sensitivity_s = timed(
                allocator.measure_sensitivity, dense,
                lambda net: train.evaluate(net, d.test_x, d.test_y)[1],
                probe_rank=TOY_PROBE_RANK, data=d, cfg=cfg, epochs=size.probe_epochs,
                seed=seed,
            )
        except DivergedError as exc:
            self.outcomes.check(False, f"toy stage profile diverged: {exc}")
            return {}
        self.outcomes.call(3)
        factorized, decompose_s = dense, 0.0
        for name, rank in TOY_RANKS.items():
            factors, t = timed(network.decompose_layer, factorized.layer(name), rank, seed=seed)
            decompose_s += t
            factorized = network.replace_layer(factorized, name, factors)
        self.outcomes.call(2 * len(TOY_RANKS))
        metrics = {
            "train.finetune_s": metric(meter.seconds, "s"),
            "train.evaluate_s": metric(evaluate_s, "s"),
            "allocator.measure_sensitivity_s": metric(sensitivity_s, "s"),
            "network.decompose_layer_s": metric(decompose_s, "s"),
            "train.sgd_steps": metric(meter.steps, "count"),
            "train.images": metric(meter.images, "count"),
        }
        rng = np.random.default_rng(seed)
        for label, net in (("dense", dense), ("factorized", factorized)):
            shapes = [net.input_shape] + net.layer_shapes()
            index = {layer.name: i for i, layer in enumerate(net.layers)}
            for slot in TOY_PROFILE_SLOTS:
                i = index[slot]
                one = NetworkSpec(shapes[i], (net.layers[i],))
                x = rng.standard_normal((TOY_PROFILE_BATCH,) + shapes[i])
                target = rng.standard_normal((TOY_PROFILE_BATCH,) + shapes[i + 1])
                fwd, full = [], []
                for _ in range(size.profile_reps):
                    fwd.append(timed(train.batch_outputs, one, x)[1])
                    full.append(timed(train.backward, one, x, target,
                                      train.mean_squared_error)[1])
                self.outcomes.call(2 * size.profile_reps)
                metrics[f"toy.{label}.{slot}.forward_ms"] = metric(1e3 * median(fwd), "ms")
                metrics[f"toy.{label}.{slot}.backward_ms"] = metric(
                    1e3 * (median(full) - median(fwd)), "ms")
            for row in network.count_params(net).rows:
                if row.name in TOY_RANKS:
                    metrics[f"toy.{label}.{row.name}.mults"] = metric(row.compressed_mults, "count")
        return metrics


# ---------------------------------------------------------------------------
# alexnet-forward
# ---------------------------------------------------------------------------

ALEXNET_SLOTS = ("conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8")
ALEXNET_POOLS = {"conv1.pool": "pool1", "conv2.pool": "pool2", "conv5.pool": "pool5"}


def _slot(layer_name: str):
    """Slot a layer belongs to: 'conv1.spatial' -> 'conv1', 'conv1.pool' ->
    'pool1'; activations and flatten belong to none."""
    if layer_name in ALEXNET_POOLS:
        return ALEXNET_POOLS[layer_name]
    base = layer_name.split(".")[0]
    return base if base in ALEXNET_SLOTS and not layer_name.endswith(".relu") else None


def randomized(net: NetworkSpec, rng: np.random.Generator) -> NetworkSpec:
    """The same layers with seeded He-scaled random weights and small biases.

    The presets carry zero weights, which make every activation zero; the
    random factors are scaled so a factorized kernel has He variance too.
    """
    def bias(n):
        return 0.01 * rng.standard_normal(n)

    layers = []
    for layer in net.layers:
        if isinstance(layer, Conv):
            t, s, d, _ = layer.spec.kernel_shape
            w = rng.standard_normal((t, s, d, d)) * math.sqrt(2.0 / (s * d * d))
            layers.append(Conv(layer.name, layer.spec, w,
                               None if layer.bias is None else bias(t)))
        elif isinstance(layer, DecomposedConv):
            factors = []
            for f in layer.factors:
                r, s, d, t = f.rank, f.in_channels, f.kernel_size, f.out_channels
                factors.append(cp.CpFactors(
                    rng.standard_normal((r, s)) / math.sqrt(s),
                    rng.standard_normal((r, d, d)) / d,
                    rng.standard_normal((t, r)) * math.sqrt(2.0 / r),
                ))
            layers.append(DecomposedConv(layer.name, layer.spec, tuple(factors),
                                         None if layer.bias is None else bias(layer.spec.out_channels)))
        elif isinstance(layer, Fc):
            m, n = layer.weights.shape
            layers.append(Fc(layer.name, rng.standard_normal((m, n)) * math.sqrt(2.0 / n),
                             None if layer.bias is None else bias(m)))
        elif isinstance(layer, DecomposedFc):
            m, n, r = layer.out_features, layer.in_features, layer.rank
            factors = svd.SvdFactors(rng.standard_normal((m, r)) * math.sqrt(2.0 / r),
                                     rng.standard_normal((r, n)) / math.sqrt(n))
            layers.append(DecomposedFc(layer.name, factors,
                                       None if layer.bias is None else bias(m)))
        else:
            layers.append(layer)
    return NetworkSpec(net.input_shape, tuple(layers))


def walk(net: NetworkSpec, x: np.ndarray, seconds: dict, counters: dict) -> np.ndarray:
    """network.forward, layer by layer through the conv ops, adding each
    slot's time and multiplies into ``seconds`` and ``counters``."""
    value = x
    for layer in net.layers:
        slot = _slot(layer.name)
        counter = counters.setdefault(slot, MultiplyCounter())
        start = perf_counter()
        if isinstance(layer, Conv):
            value = conv.conv_forward(DenseTensor.from_array(value),
                                      DenseTensor.from_array(layer.weights),
                                      layer.spec, counter).array
            if layer.bias is not None:
                value = value + layer.bias[:, None, None]
        elif isinstance(layer, DecomposedConv):
            value = conv.conv_forward_decomposed(DenseTensor.from_array(value),
                                                 layer.factors, layer.spec, counter).array
            if layer.bias is not None:
                value = value + layer.bias[:, None, None]
        elif isinstance(layer, Fc):
            value = conv.fc_forward(value, layer.weights, layer.bias, counter)
        elif isinstance(layer, DecomposedFc):
            hidden = conv.fc_forward(value, layer.factors.vt, None, counter)
            value = conv.fc_forward(hidden, layer.factors.ud, layer.bias, counter)
        elif isinstance(layer, MaxPool):
            value = conv.max_pool(DenseTensor.from_array(value), layer.window,
                                  layer.stride).array
        elif isinstance(layer, ReLU):
            value = np.maximum(value, 0.0)
        elif isinstance(layer, Flatten):
            value = value.reshape(-1)
        else:
            raise TypeError(f"unknown layer type {type(layer).__name__}")
        seconds[slot] = seconds.get(slot, 0.0) + perf_counter() - start
    return value


@dataclass(frozen=True)
class AlexNetSize:
    min_forward_calls: int = 100  # per net, so p90 has ten samples above it
    batch: int = 4                # images per train.batch_outputs call
    batch_every: int = 10         # forward rounds between batch_outputs calls
    overhead_rounds: int = 10     # rounds timed untraced and traced
    profile_reps: int = 7
    inputs: int = 8               # distinct seeded inputs, cycled


class AlexNetForward:
    name = "alexnet-forward"

    def __init__(self, seed: int, size: AlexNetSize = AlexNetSize(),
                 builders=(presets.alexnet, presets.alexnet_decomposed)):
        self.seed = seed
        self.size = size
        self.builders = builders
        self.outcomes = Outcomes()
        self.setup_times = []

    def close(self):
        self.nets = self.inputs = None

    def setup(self, reps: int = 1):
        def build():
            rng = np.random.default_rng(self.seed)
            dense = randomized(self.builders[0](), rng)
            decomposed = randomized(self.builders[1](None), rng)
            inputs = rng.standard_normal((self.size.inputs,) + dense.input_shape)
            return dense, decomposed, inputs

        self.close()  # a second set-up does not hold two copies of the nets
        (dense, decomposed, self.inputs), times = repeat_setup(build, reps)
        self.setup_times += times
        self.nets = {"dense": dense, "decomposed": decomposed}

    def _round(self, i: int, forward_ms: dict, batch_s: dict):
        x = self.inputs[i % len(self.inputs)]
        for label, net in self.nets.items():
            _, t = timed(network.forward, net, x)
            forward_ms[label].append(1e3 * t)
        self.outcomes.call(2)
        if i % self.size.batch_every == 0:
            xb = np.stack([self.inputs[(i + k) % len(self.inputs)]
                           for k in range(self.size.batch)])
            for label, net in self.nets.items():
                try:
                    _, t = timed(train.batch_outputs, net, xb)
                except DivergedError as exc:
                    self.outcomes.check(False, f"{label} batch_outputs diverged: {exc}")
                    continue
                batch_s[label].append(t)
            self.outcomes.call(2)

    def measure(self, seconds: float) -> dict:
        forward_ms = {label: [] for label in self.nets}
        batch_s = {label: [] for label in self.nets}
        start = perf_counter()
        i = 0
        while i < self.size.min_forward_calls or perf_counter() - start < seconds:
            self._round(i, forward_ms, batch_s)
            i += 1
        self.check()
        self.samples = {"forward_calls": {k: len(v) for k, v in forward_ms.items()},
                        "batch_calls": {k: len(v) for k, v in batch_s.items()},
                        "batch_size": self.size.batch}
        self.details = {}
        for label in self.nets:
            self.details[f"{label}_forward_ms_p50"] = metric(percentile(forward_ms[label], 50), "ms")
            self.details[f"{label}_forward_ms_p90"] = metric(percentile(forward_ms[label], 90), "ms")
        # Images over total time, not over the median call: call times
        # cluster around a fast and a slow machine speed, and the median
        # jumps between the two from run to run.
        for label in self.nets:
            self.details[f"{label}_batch_images_per_s"] = metric(
                self.size.batch * len(batch_s[label]) / sum(batch_s[label]), "1/s")
        # One unit is a forward call on each net, back to back.
        rounds = [sum(pair) / 1e3 for pair in zip(*forward_ms.values())]
        batches = sum(len(v) for v in batch_s.values())
        return {
            "unit_s": metric(median(rounds), "s"),
            "throughput_per_s": metric(
                self.size.batch * batches / sum(sum(v) for v in batch_s.values()), "1/s"),
        }

    def check(self):
        """Instrumented multiplies equal count_params exactly; forward and
        batch_outputs at B=1 agree to 1e-9 relative."""
        x = self.inputs[0]
        self.outputs = {}
        for label, net in self.nets.items():
            counter = MultiplyCounter()
            y = network.forward(net, x, counter)
            expected = network.count_params(net).total_compressed_mults
            self.outcomes.check(counter.count == expected,
                                f"{label}: instrumented mults {counter.count} != "
                                f"count_params {expected}")
            yb = train.batch_outputs(net, x[None])[0]
            self.outcomes.check(rel_diff(y, yb) <= 1e-9,
                                f"{label}: forward and batch_outputs differ by "
                                f"{rel_diff(y, yb):.3e} relative")
            self.outputs[label] = y

    def trace_overhead(self, tracer) -> dict:
        lists = ({k: [] for k in self.nets}, {k: [] for k in self.nets})
        start = perf_counter()
        for i in range(self.size.overhead_rounds):
            self._round(i, *lists)
        untraced = perf_counter() - start
        with patched(span_replacements(tracer)):
            start = perf_counter()
            for i in range(self.size.overhead_rounds):
                self._round(i, *lists)
            traced = perf_counter() - start
        return {"trace.overhead_s": metric(traced - untraced, "s")}

    def layer_profile(self) -> dict:
        """Each net walked slot by slot through the conv ops with a
        MultiplyCounter, whole-net forward next to batch_outputs at B=1 on
        the same input, and the per-slot analytic-vs-measured table."""
        size = self.size
        metrics = {}
        self.check()
        x = self.inputs[0]
        slot_ms = {}
        self.table = []
        for label, net in self.nets.items():
            runs = []
            for _ in range(size.profile_reps):
                seconds, counters = {}, {}
                y = walk(net, x, seconds, counters)
                runs.append(seconds)
            self.outcomes.call(size.profile_reps)
            self.outcomes.check(rel_diff(self.outputs[label], y) <= 1e-12,
                                f"{label}: layer walk differs from forward")
            for slot in list(ALEXNET_SLOTS) + list(ALEXNET_POOLS.values()):
                ms = 1e3 * median([r[slot] for r in runs])
                slot_ms[(label, slot)] = ms
                metrics[f"alexnet.{label}.{slot}.forward_ms"] = metric(ms, "ms")
            for slot in ALEXNET_SLOTS:
                metrics[f"alexnet.{label}.{slot}.mults"] = metric(counters[slot].count, "count")
            fwd = [timed(network.forward, net, x)[1] for _ in range(size.profile_reps)]
            b1 = [timed(train.batch_outputs, net, x[None])[1] for _ in range(size.profile_reps)]
            self.outcomes.call(2 * size.profile_reps)
            metrics[f"alexnet.{label}.forward_ms"] = metric(1e3 * median(fwd), "ms")
            metrics[f"alexnet.{label}.batch_outputs_b1_ms"] = metric(1e3 * median(b1), "ms")

        analytic = {label: {} for label in self.nets}
        for label, net in self.nets.items():
            for row in network.count_params(net).rows:
                slot = _slot(row.name)
                if slot in ALEXNET_SLOTS:
                    analytic[label][slot] = analytic[label].get(slot, 0) + row.compressed_mults
        for slot in ALEXNET_SLOTS:
            c = analytic["dense"][slot] / analytic["decomposed"][slot]
            measured = slot_ms[("dense", slot)] / slot_ms[("decomposed", slot)]
            metrics[f"alexnet.{slot}.analytic_ratio"] = metric(c, "ratio")
            metrics[f"alexnet.{slot}.measured_ratio"] = metric(measured, "ratio")
            self.table.append({
                "slot": slot, "analytic_C": c, "measured_ratio": measured,
                "dense_ms": slot_ms[("dense", slot)],
                "decomposed_ms": slot_ms[("decomposed", slot)],
                "dense_mults": metrics[f"alexnet.dense.{slot}.mults"]["value"],
                "decomposed_mults": metrics[f"alexnet.decomposed.{slot}.mults"]["value"],
            })
        return metrics


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizeSize:
    """The mid-size CNN written as a model file and the ranks applied to it.

    ``convs`` rows are (name, out, in, kernel, groups, pool after); every
    convolution has stride 1 and 'same' padding.  ``fcs`` rows are
    (name, out features); the first takes the flattened conv output.
    """

    input_shape: tuple = (3, 16, 16)
    convs: tuple = (
        ("conv1", 64, 3, 3, 1, True),
        ("conv2", 128, 64, 3, 1, False),
        ("conv3", 192, 128, 3, 2, True),
        ("conv4", 192, 192, 3, 1, True),
    )
    fcs: tuple = (("fc1", 160), ("fc2", 128), ("fc3", 10))
    ranks: tuple = (("conv1", 16), ("conv2", 32), ("conv3", 64), ("conv4", 64),
                    ("fc1", 48), ("fc2", 32), ("fc3", 5))
    min_units: int = 2


def mid_cnn(size: FactorizeSize, rng: np.random.Generator) -> NetworkSpec:
    """Seeded He-initialised CNN with the shape ``size`` describes."""
    layers = []
    c, w, h = size.input_shape
    for name, out, cin, k, groups, pool in size.convs:
        spec = ConvSpec(out, cin, k, stride=1, padding=k // 2, groups=groups)
        fan_in = cin // groups * k * k
        layers.append(Conv(name, spec, rng.standard_normal(spec.kernel_shape)
                           * math.sqrt(2.0 / fan_in), 0.01 * rng.standard_normal(out)))
        layers.append(ReLU(f"{name}.relu"))
        c = out
        if pool:
            layers.append(MaxPool(f"{name}.pool", window=2, stride=2))
            w, h = w // 2, h // 2
    layers.append(Flatten("flatten"))
    n = c * w * h
    for i, (name, m) in enumerate(size.fcs):
        layers.append(Fc(name, rng.standard_normal((m, n)) * math.sqrt(2.0 / n),
                         0.01 * rng.standard_normal(m)))
        if i + 1 < len(size.fcs):
            layers.append(ReLU(f"{name}.relu"))
        n = m
    return NetworkSpec(size.input_shape, tuple(layers))


def layer_weights(layer) -> np.ndarray:
    """The dense weights a layer stands for (reconstructed if factorized)."""
    if isinstance(layer, (Conv, Fc)):
        return layer.weights
    if isinstance(layer, DecomposedConv):
        return np.concatenate([cp.reconstruct(f).array for f in layer.factors], axis=0)
    if isinstance(layer, DecomposedFc):
        return layer.factors.ud @ layer.factors.vt
    raise TypeError(f"{layer.name} has no weights")


class Factorize:
    name = "factorize"

    def __init__(self, seed: int, size: FactorizeSize = FactorizeSize(), workdir=None):
        self.seed = seed
        self.size = size
        self.ranks = dict(size.ranks)
        self.outcomes = Outcomes()
        self._tmp = tempfile.TemporaryDirectory(dir=workdir, prefix="factorize-")
        self.dir = Path(self._tmp.name)
        self.model_in = self.dir / "model.cpnet"
        self.model_out = self.dir / "factorized.cpnet"
        self.results = []
        self.setup_times = []

    def close(self):
        self._tmp.cleanup()

    def setup(self, reps: int = 11):
        def build():
            net = mid_cnn(self.size, np.random.default_rng(self.seed))
            network.save(net, self.model_in)
            return net

        self.original, times = repeat_setup(build, reps)
        self.setup_times += times
        self.x = np.random.default_rng(self.seed + 1).standard_normal(self.size.input_shape)

    def _unit(self):
        """What `cpcompress decompose --model-in --ranks-file --model-out` does.

        Returns the factorized net, its count_params report, the counted
        multiplies, and the seconds spent in decompose_layer calls.
        """
        net = network.load(self.model_in)
        targets = [n for n in network.decomposable_layers(net) if n in self.ranks]
        decompose_s = 0.0
        for index, name in enumerate(targets):
            factors, t = timed(network.decompose_layer, net.layer(name), self.ranks[name],
                               seed=self.seed + index)
            decompose_s += t
            net = network.replace_layer(net, name, factors)
        report = network.count_params(net)
        counter = MultiplyCounter()
        network.forward(net, self.x, counter)
        network.save(net, self.model_out)
        self.outcomes.call(2 * len(targets) + 4)
        return net, report, counter.count, decompose_s

    def _run_once(self):
        result, seconds = timed(self._unit)
        if self.results:
            self.outcomes.check(result[0] == self.results[0][0],
                                "repeated factorization is not bit-identical")
        self.results.append(result)
        return seconds

    def measure(self, seconds: float) -> dict:
        times = []
        start = perf_counter()
        while True:
            t = self._run_once()
            times.append(t)
            if len(times) >= self.size.min_units and perf_counter() - start + t > seconds:
                break
        self.samples = {"units": len(times), "decompose_s": times}
        net, report, count, _ = self.results[-1]
        error = self.check(net, report, count, self.model_out)
        weights = sum(self.original.layer(name).weights.size for name in self.ranks)
        self.details = {
            "decompose_s": metric(median(times), "s"),
            "decompose_rel_error": metric(error, "fraction"),
        }
        return {
            "unit_s": self.details["decompose_s"],
            "throughput_per_s": metric(
                weights * len(self.results) / sum(r[3] for r in self.results), "1/s"),
        }

    def check(self, net, report, count, saved) -> float:
        """Counts, save/load round trip and the Eckart-Young oracle; returns
        the weight-norm-weighted relative error over factorized layers."""
        out = self.outcomes
        out.check(count == report.total_compressed_mults,
                  f"instrumented mults {count} != count_params "
                  f"{report.total_compressed_mults}")
        out.check(network.load(saved) == net,
                  "factorized model changed across save/load")
        err_sum = norm_sum = 0.0
        for name in self.ranks:
            w = self.original.layer(name).weights
            err = float(np.linalg.norm(w - layer_weights(net.layer(name))))
            err_sum += err
            norm_sum += float(np.linalg.norm(w))
            if isinstance(self.original.layer(name), Fc):
                s = np.linalg.svd(w, compute_uv=False)
                oracle = float(np.sqrt(np.sum(s[self.ranks[name]:] ** 2)))
                out.check(abs(err - oracle) <= 1e-9 * float(np.linalg.norm(w)),
                          f"{name}: error {err!r} is not the Eckart-Young "
                          f"error {oracle!r}")
        return err_sum / norm_sum

    def trace_overhead(self, tracer) -> dict:
        untraced = self._run_once()
        with patched(span_replacements(tracer)):
            traced = self._run_once()
        return {"trace.overhead_s": metric(traced - untraced, "s")}

    def layer_profile(self) -> dict:
        """Each layer factorized by calling cp.decompose_kernel per group or
        svd.truncated_svd directly, with the arguments
        network.decompose_layer passes them; then the model file's load,
        count_params, counted forward and save, timed one at a time."""
        metrics = {}
        net, load_s = timed(network.load, self.model_in)
        targets = [n for n in network.decomposable_layers(net) if n in self.ranks]
        for index, name in enumerate(targets):
            layer = net.layer(name)
            rank = self.ranks[name]
            start = perf_counter()
            if isinstance(layer, Conv):
                g = layer.spec.groups
                t_g = layer.spec.out_channels // g
                factors = tuple(
                    cp.decompose_kernel(
                        DenseTensor.from_array(layer.weights[gi * t_g:(gi + 1) * t_g]),
                        cp.TpmConfig(rank=math.ceil(rank / g), seed=self.seed + index + gi),
                    )
                    for gi in range(g)
                )
                seconds = perf_counter() - start
                approx = np.concatenate([cp.reconstruct(f).array for f in factors], axis=0)
            else:
                factors = svd.truncated_svd(layer.weights, rank)
                seconds = perf_counter() - start
                approx = factors.ud @ factors.vt
            net = network.replace_layer(net, name, factors)
            metrics[f"factorize.{name}.decompose_s"] = metric(seconds, "s")
            metrics[f"factorize.{name}.rel_error"] = metric(
                rel_diff(layer.weights, approx), "fraction")
        report, count_s = timed(network.count_params, net)
        counter = MultiplyCounter()
        _, forward_s = timed(network.forward, net, self.x, counter)
        saved = self.dir / "profile.cpnet"
        _, save_s = timed(network.save, net, saved)
        self.outcomes.call(len(targets) + 4)
        self.check(net, report, counter.count, saved)
        metrics["network.load_ms"] = metric(1e3 * load_s, "ms")
        metrics["network.save_ms"] = metric(1e3 * save_s, "ms")
        metrics["network.count_params_ms"] = metric(1e3 * count_s, "ms")
        metrics["network.forward_counted_ms"] = metric(1e3 * forward_s, "ms")
        return metrics


WORKLOADS = {w.name: w for w in (ToyPipeline, AlexNetForward, Factorize)}
