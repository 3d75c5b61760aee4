"""Fast self-check of the benchmark harness (about a minute on two cores).

    python3 benchmarks/selfcheck.py

Runs every workload at toy size, untraced and traced, and requires:

* zero failed operations;
* the metric names every run reports to be exactly the ``end_to_end``
  (untraced) or ``per_layer`` (traced) names in BENCHMARK.json;

then injects one fault per correctness check -- by swapping a library
function for a wrapper that corrupts its result -- and requires the check
to catch it.  Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import bench

bench._import_library()

import numpy as np  # noqa: E402

from cpcompress import network, svd, train  # noqa: E402
from cpcompress.conv import ConvSpec  # noqa: E402
from cpcompress.cp import CpFactors  # noqa: E402
from cpcompress.network import (  # noqa: E402
    Conv, DecomposedConv, DecomposedFc, Fc, Flatten, MaxPool, NetworkSpec, ReLU,
)
from harness import patched  # noqa: E402
from workloads import AlexNetSize, FactorizeSize, ToySize  # noqa: E402

# A miniature AlexNet with the real slot names: 3x35x35 input, conv1 at
# stride 2, grouped conv2/conv4/conv5, pools after conv1, conv2 and conv5.
_MINI_CONVS = [
    ("conv1", ConvSpec(8, 3, 3, stride=2)),
    ("conv2", ConvSpec(16, 8, 3, padding=1, groups=2)),
    ("conv3", ConvSpec(16, 16, 3, padding=1)),
    ("conv4", ConvSpec(16, 16, 3, padding=1, groups=2)),
    ("conv5", ConvSpec(16, 16, 3, padding=1, groups=2)),
]
_MINI_FCS = [("fc6", 32, 16), ("fc7", 32, 32), ("fc8", 10, 32)]
_MINI_RANK = 4


def _mini_alexnet(decomposed: bool) -> NetworkSpec:
    layers = []
    for name, spec in _MINI_CONVS:
        z = np.zeros(spec.out_channels)
        if not decomposed:
            layers.append(Conv(name, spec, np.zeros(spec.kernel_shape), z))
        elif name == "conv1":
            spatial = ConvSpec(_MINI_RANK, 3, 3, stride=2)
            mix = ConvSpec(spec.out_channels, _MINI_RANK, 1)
            layers.append(Conv("conv1.spatial", spatial, np.zeros(spatial.kernel_shape)))
            layers.append(Conv("conv1.mix", mix, np.zeros(mix.kernel_shape), z))
        else:
            t, s, d, _ = spec.kernel_shape
            t //= spec.groups
            factors = tuple(
                CpFactors(np.zeros((_MINI_RANK, s)), np.zeros((_MINI_RANK, d, d)),
                          np.zeros((t, _MINI_RANK)))
                for _ in range(spec.groups)
            )
            layers.append(DecomposedConv(name, spec, factors, z))
        layers.append(ReLU(f"{name}.relu"))
        if name in ("conv1", "conv2", "conv5"):
            layers.append(MaxPool(f"{name}.pool", window=3, stride=2))
    layers.append(Flatten("flatten"))
    for name, m, n in _MINI_FCS:
        if decomposed:
            factors = svd.SvdFactors(np.zeros((m, _MINI_RANK)), np.zeros((_MINI_RANK, n)))
            layers.append(DecomposedFc(name, factors, np.zeros(m)))
        else:
            layers.append(Fc(name, np.zeros((m, n)), np.zeros(m)))
        if name != "fc8":
            layers.append(ReLU(f"{name}.relu"))
    return NetworkSpec((3, 35, 35), tuple(layers))


SMALL = {
    # Less noise than the real task, so a few epochs reach high accuracy.
    "toy-pipeline": {"size": ToySize(n_train=400, n_test=200, noise=0.2, baseline_epochs=8,
                                     stage_epochs=2, profile_reps=3)},
    "alexnet-forward": {
        "size": AlexNetSize(min_forward_calls=12, batch=2, batch_every=4,
                            overhead_rounds=2, profile_reps=3, inputs=2),
        "builders": (lambda: _mini_alexnet(False), lambda ranks: _mini_alexnet(True)),
    },
    "factorize": {"size": FactorizeSize(
        input_shape=(3, 8, 8),
        convs=(("conv1", 8, 3, 3, 1, True), ("conv2", 12, 8, 3, 1, False),
               ("conv3", 16, 12, 3, 2, True), ("conv4", 16, 16, 3, 1, True)),
        fcs=(("fc1", 24), ("fc2", 16), ("fc3", 10)),
        ranks=(("conv1", 4), ("conv2", 6), ("conv3", 8), ("conv4", 8),
               ("fc1", 6), ("fc2", 5), ("fc3", 3)),
    )},
}


def _corrupted(fn, perturb):
    """Wrapper that passes ``fn``'s result through ``perturb``."""
    def wrapper(*args, **kwargs):
        return perturb(fn(*args, **kwargs))
    return wrapper


def _count_off_by_one(report):
    return network.CompressionReport(
        report.rows, report.total_original_params, report.total_compressed_params,
        report.total_original_mults, report.total_compressed_mults + 1,
    )


def _nudge_fc(net):
    """The same network with one fc weight changed in its last bit."""
    layers = list(net.layers)
    for i, layer in enumerate(layers):
        if isinstance(layer, DecomposedFc):
            ud = layer.factors.ud.copy()
            ud[0, 0] = np.nextafter(ud[0, 0], math.inf)
            layers[i] = DecomposedFc(layer.name, svd.SvdFactors(ud, layer.factors.vt),
                                     layer.bias)
            break
    return NetworkSpec(net.input_shape, tuple(layers))


def _silence_fc2(result):
    """A schedule's result with the factorized fc2 zeroed: every output ties."""
    net, log = result
    layers = list(net.layers)
    for i, layer in enumerate(layers):
        if layer.name == "fc2":
            layers[i] = DecomposedFc(layer.name, svd.SvdFactors(
                np.zeros_like(layer.factors.ud), layer.factors.vt))
    return NetworkSpec(net.input_shape, tuple(layers)), log


# (workload, library function, perturbation, words the failure must contain)
FAULTS = [
    ("alexnet-forward", network.count_params, _count_off_by_one, "instrumented mults"),
    ("alexnet-forward", train.batch_outputs, lambda y: y * (1 + 1e-6),
     "batch_outputs differ"),
    ("factorize", network.load, _nudge_fc, "save/load"),
    ("factorize", svd.truncated_svd,
     lambda f: svd.SvdFactors(f.ud * (1 + 1e-3), f.vt), "Eckart-Young"),
    ("toy-pipeline", train.iterative_compress, _silence_fc2, "below baseline"),
]


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    problems = []
    bench.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.RESULTS, prefix="selfcheck-") as tmp:
        tmp = Path(tmp)
        for trace in (0, 1):
            for name in SMALL:
                record = bench.run(name, 1, 0.01, bool(trace), SMALL, results_dir=tmp)
                seen = set(record["metrics"])
                print(f"{name}\ttrace={trace}\tattempted={record['attempted']}"
                      f"\tfailed={record['failed']}", flush=True)
                problems += [f"{name}: {f}" for f in record["failures"]]
                if seen != want[trace]:
                    problems.append(f"{name} trace={trace}: metrics not declared "
                                    f"{sorted(seen - want[trace])}, declared but missing "
                                    f"{sorted(want[trace] - seen)}")
        for name, fn, perturb, words in FAULTS:
            with patched({fn: _corrupted(fn, perturb)}):
                record = bench.run(name, 1, 0.01, False, SMALL, results_dir=tmp)
            caught = any(words in f for f in record["failures"])
            print(f"fault\t{fn.__module__}.{fn.__name__}\t"
                  f"{'caught' if caught else 'MISSED'}", flush=True)
            if not caught:
                problems.append(f"fault in {fn.__name__} not caught: {record['failures']}")
    for p in problems:
        print(f"PROBLEM\t{p}")
    print("selfcheck ok" if not problems else f"selfcheck FAILED ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
