"""Shared test utilities: independent oracles and gradient checking."""

import dataclasses

import numpy as np

from cpcompress.cp import CpFactors
from cpcompress.network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    NetworkSpec,
)
from cpcompress.svd import SvdFactors
from cpcompress.train import backward, batch_outputs, softmax_cross_entropy


def orthonormal_columns(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def separated_cp_kernel(t, s, d, rank, rng, scales=None):
    """A kernel with exact CP rank `rank` built from orthonormal factors.

    Orthogonal, well-separated components are recovered exactly by greedy
    rank-1 deflation, which makes round-trip assertions meaningful.
    """
    if scales is None:
        scales = 4.0 * 0.6 ** np.arange(rank) + 1.0
    a = orthonormal_columns(s, rank, rng)
    b = orthonormal_columns(d * d, rank, rng)
    c = orthonormal_columns(t, rank, rng)
    three = sum(
        scales[r] * np.einsum("i,j,k->ijk", a[:, r], b[:, r], c[:, r])
        for r in range(rank)
    )
    return three.reshape(s, d, d, t).transpose(3, 0, 1, 2).copy()


def naive_conv(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Reference convolution as plain nested loops (no grouping)."""
    s, w, h = x.shape
    t, s_k, d, _ = kernel.shape
    assert s_k == s
    wout = (w + 2 * pad - d) // stride + 1
    hout = (h + 2 * pad - d) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((t, wout, hout))
    for ti in range(t):
        for wi in range(wout):
            for hi in range(hout):
                acc = 0.0
                for si in range(s):
                    for j in range(d):
                        for i in range(d):
                            acc += kernel[ti, si, j, i] * xp[si, wi * stride + j, hi * stride + i]
                out[ti, wi, hi] = acc
    return out


def gram_singular_values(w: np.ndarray) -> np.ndarray:
    """Independent oracle: singular values via the Gram matrix eigenproblem."""
    m, n = w.shape
    gram = w.T @ w if m >= n else w @ w.T
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def _with_param(net: NetworkSpec, layer_name: str, param: str, mutate):
    """Copy of `net` with one parameter array transformed by `mutate`."""
    layer = net.layer(layer_name)
    if param == "weights":
        new = dataclasses.replace(layer, weights=mutate(layer.weights))
    elif param == "bias":
        new = dataclasses.replace(layer, bias=mutate(layer.bias))
    elif param in ("ud", "vt"):
        ud, vt = layer.factors.ud, layer.factors.vt
        if param == "ud":
            ud = mutate(ud)
        else:
            vt = mutate(vt)
        new = dataclasses.replace(layer, factors=SvdFactors(ud, vt))
    else:
        tag, gi = param.split(".")
        gi = int(gi)
        factors = list(layer.factors)
        parts = {"u1": factors[gi].u1, "u2": factors[gi].u2, "u3": factors[gi].u3}
        parts[tag] = mutate(parts[tag])
        factors[gi] = CpFactors(parts["u1"], parts["u2"], parts["u3"])
        new = dataclasses.replace(layer, factors=tuple(factors))
    layers = tuple(new if l.name == layer_name else l for l in net.layers)
    return NetworkSpec(net.input_shape, layers)


def check_gradients(net, inputs, labels, rel_tol=1e-4, h=1e-5, probes_per_tensor=4, rng=None):
    """Central finite differences against analytic gradients.

    Probes a few entries of every trainable tensor; returns the worst
    relative error observed.
    """
    rng = rng or np.random.default_rng(0)
    grads = backward(net, inputs, labels)

    def loss_of(candidate):
        out = batch_outputs(candidate, inputs)
        return softmax_cross_entropy(out, labels)[0]

    worst = 0.0
    for (lname, pname), grad in sorted(grads.items()):
        flat_size = grad.size
        picks = min(probes_per_tensor, flat_size)
        flat_idx = rng.choice(flat_size, size=picks, replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, grad.shape)

            def bump(delta, idx=idx, lname=lname, pname=pname):
                def mutate(arr):
                    out = arr.copy()
                    out[idx] += delta
                    return out

                return _with_param(net, lname, pname, mutate)

            numeric = (loss_of(bump(h)) - loss_of(bump(-h))) / (2 * h)
            analytic = grad[idx]
            scale = max(abs(numeric), abs(analytic))
            if scale < 1e-8:
                continue
            rel = abs(numeric - analytic) / scale
            worst = max(worst, rel)
            assert rel <= rel_tol, (
                f"gradient mismatch at {lname}.{pname}{idx}: "
                f"analytic {analytic:.6e} vs numeric {numeric:.6e} (rel {rel:.2e})"
            )
    return worst


def gradient_check_net(rng: np.random.Generator):
    """A tiny network touching every trainable layer kind (plus pooling)."""
    from cpcompress.conv import ConvSpec
    from cpcompress.network import Flatten, MaxPool, ReLU

    conv = ConvSpec(4, 2, 3, stride=1, padding=1)
    grouped = ConvSpec(4, 4, 3, stride=2, padding=1, groups=2)
    dec_spec = ConvSpec(6, 4, 3, stride=1, padding=1)
    dec_factors = (
        CpFactors(
            rng.standard_normal((2, 4)) * 0.5,
            rng.standard_normal((2, 3, 3)) * 0.5,
            rng.standard_normal((6, 2)) * 0.5,
        ),
    )
    layers = (
        Conv("conv_a", conv, rng.standard_normal(conv.kernel_shape) * 0.5,
             rng.standard_normal(4) * 0.1),
        ReLU("relu_a"),
        Conv("conv_g", grouped, rng.standard_normal(grouped.kernel_shape) * 0.5,
             None),
        ReLU("relu_g"),
        DecomposedConv("conv_d", dec_spec, dec_factors, rng.standard_normal(6) * 0.1),
        MaxPool("pool", window=2, stride=2),
        Flatten("flatten"),
        Fc("fc_a", rng.standard_normal((8, 6 * 2 * 2)) * 0.3,
           rng.standard_normal(8) * 0.1),
        ReLU("relu_fc"),
        DecomposedFc(
            "fc_d",
            SvdFactors(rng.standard_normal((5, 3)) * 0.5, rng.standard_normal((3, 8)) * 0.5),
            rng.standard_normal(5) * 0.1,
        ),
    )
    return NetworkSpec((2, 9, 9), layers)


def strided_check_net(rng: np.random.Generator):
    """A tiny network with the layouts gradient_check_net leaves out: a
    factorized convolution with stride 2, no padding and two groups, and an
    overlapping 3x3 stride-2 max-pool."""
    from cpcompress.conv import ConvSpec
    from cpcompress.network import Flatten, MaxPool, ReLU

    conv = ConvSpec(4, 2, 3, stride=1, padding=1)
    dec_spec = ConvSpec(6, 4, 3, stride=2, padding=0, groups=2)
    dec_factors = tuple(
        CpFactors(
            rng.standard_normal((2, 2)) * 0.5,
            rng.standard_normal((2, 3, 3)) * 0.5,
            rng.standard_normal((3, 2)) * 0.5,
        )
        for _ in range(2)
    )
    layers = (
        Conv("conv_in", conv, rng.standard_normal(conv.kernel_shape) * 0.5,
             rng.standard_normal(4) * 0.1),
        ReLU("relu_in"),
        DecomposedConv("conv_s", dec_spec, dec_factors, rng.standard_normal(6) * 0.1),
        MaxPool("pool_o", window=3, stride=2),
        Flatten("flatten"),
        Fc("fc_o", rng.standard_normal((5, 6 * 3 * 3)) * 0.3,
           rng.standard_normal(5) * 0.1),
    )
    return NetworkSpec((2, 15, 15), layers)
