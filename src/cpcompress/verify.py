"""Randomized verification suites shared by the CLI and the test suite.

Three suites: factorized-vs-direct convolution equivalence over random
geometry, bit-exact save/load round trips over random networks, and a
corruption sweep asserting that damaged model files always fail with a
clean format error.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .conv import ConvSpec, batch_conv, batch_cp_conv
from .cp import CpFactors, reconstruct
from .network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    MaxPool,
    ModelFormatError,
    NetworkSpec,
    ReLU,
    load,
    save,
)
from .svd import SvdFactors

__all__ = [
    "EquivalenceResult",
    "equivalence_suite",
    "random_network",
    "roundtrip_suite",
    "corruption_suite",
]

# Largest relative difference the factorized pipeline may show against the
# direct convolution of its reconstructed kernel.
_EQUIVALENCE_TOLERANCE = 1e-9
# Damaged copies of one saved network that the corruption sweep loads.
_CORRUPTION_MUTATIONS = 60


@dataclass(frozen=True)
class EquivalenceResult:
    cases: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= _EQUIVALENCE_TOLERANCE


def random_case(rng: np.random.Generator):
    """One random (batch of one input, factors, spec) triple with valid
    geometry."""
    d = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1, 2]))
    s = int(rng.integers(1, 7))
    t = int(rng.integers(1, 7))
    rank = int(rng.integers(1, 9))
    # Pick a spatial extent that yields an integral output.
    base = int(rng.integers(max(d, 4), 13))
    span = base + 2 * padding - d
    if span < 0:
        base += -span
        span = base + 2 * padding - d
    base -= span % stride
    if base < d - 2 * padding:
        base += stride
    spec = ConvSpec(t, s, d, stride=stride, padding=padding)
    x = rng.standard_normal((1, s, base, base))
    factors = CpFactors(
        rng.standard_normal((rank, s)),
        rng.standard_normal((rank, d, d)),
        rng.standard_normal((t, rank)),
    )
    return x, factors, spec


def equivalence_suite(cases: int = 200, seed: int = 0) -> EquivalenceResult:
    """Compare the three-stage pipeline against the direct convolution of
    the reconstructed kernel over random cases; reports the worst relative
    infinity-norm difference."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        x, factors, spec = random_case(rng)
        direct = batch_conv(x, reconstruct(factors).array, spec)
        staged = batch_cp_conv(x, [(factors.u1, factors.u2, factors.u3)], spec)
        scale = max(np.max(np.abs(direct)), 1e-30)
        worst = max(worst, float(np.max(np.abs(direct - staged)) / scale))
    return EquivalenceResult(cases, worst)


def random_network(rng: np.random.Generator) -> NetworkSpec:
    """A small random network mixing every layer kind."""
    channels = int(rng.integers(1, 4))
    extent = int(rng.choice([8, 12, 16]))
    layers = []
    shape = (channels, extent, extent)
    n_conv = int(rng.integers(1, 3))
    for i in range(n_conv):
        out_c = int(rng.integers(2, 7))
        spec = ConvSpec(out_c, shape[0], 3, stride=1, padding=1)
        kernel = rng.standard_normal(spec.kernel_shape)
        bias = rng.standard_normal(out_c) if rng.random() < 0.5 else None
        if rng.random() < 0.5:
            rank = int(rng.integers(1, 6))
            factors = (
                CpFactors(
                    rng.standard_normal((rank, shape[0])),
                    rng.standard_normal((rank, 3, 3)),
                    rng.standard_normal((out_c, rank)),
                ),
            )
            layers.append(DecomposedConv(f"conv{i}", spec, factors, bias))
        else:
            layers.append(Conv(f"conv{i}", spec, kernel, bias))
        layers.append(ReLU(f"relu{i}"))
        shape = (out_c, extent, extent)
    if extent >= 8:
        layers.append(MaxPool("pool", window=2, stride=2))
        shape = (shape[0], extent // 2, extent // 2)
    layers.append(Flatten("flatten"))
    features = int(np.prod(shape))
    out_dim = int(rng.integers(2, 11))
    if rng.random() < 0.5:
        rank = int(rng.integers(1, min(features, out_dim) + 1))
        factors = SvdFactors(
            rng.standard_normal((out_dim, rank)), rng.standard_normal((rank, features))
        )
        layers.append(DecomposedFc("head", factors, rng.standard_normal(out_dim)))
    else:
        layers.append(Fc("head", rng.standard_normal((out_dim, features)), None))
    return NetworkSpec((channels, extent, extent), tuple(layers))


def roundtrip_suite(trips: int = 100, seed: int = 0) -> list:
    """Save/load random networks; returns a list of failure descriptions."""
    rng = np.random.default_rng(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.cpnet")
        for i in range(trips):
            net = random_network(rng)
            save(net, path)
            back = load(path)
            if back != net:
                failures.append(f"trip {i}: loaded network differs")
    return failures


def corruption_suite(seed: int = 0) -> list:
    """Mangle saved files in random ways; every load must raise
    ModelFormatError (anything else is reported as a failure)."""
    rng = np.random.default_rng(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.cpnet")
        net = random_network(rng)
        save(net, path)
        with open(path, "rb") as fh:
            original = fh.read()
        for i in range(_CORRUPTION_MUTATIONS):
            data = bytearray(original)
            kind = i % 3
            if kind == 0:  # truncate
                cut = int(rng.integers(0, len(data)))
                data = data[:cut]
            elif kind == 1:  # flip one byte
                pos = int(rng.integers(0, len(data)))
                data[pos] ^= 0xFF
            else:  # splice garbage
                pos = int(rng.integers(0, len(data)))
                data[pos : pos + 4] = rng.integers(0, 256, size=4, dtype=np.uint8).tobytes()
            with open(path, "wb") as fh:
                fh.write(bytes(data))
            try:
                loaded = load(path)
            except ModelFormatError:
                continue
            except Exception as exc:  # noqa: BLE001 - the point is to catch crashes
                failures.append(f"mutation {i}: crashed with {type(exc).__name__}: {exc}")
            else:
                # Checksums cover the manifest and every blob, and the loader
                # checks each byte between them, so damage can load only
                # where it leaves every value intact (a tab for the space
                # of a header line, say).  A different network is a failure.
                if loaded != net:
                    failures.append(f"mutation {i}: damaged file loaded silently")
    return failures
