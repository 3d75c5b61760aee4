"""Shared test utilities: independent oracles and gradient checking."""

import dataclasses

import numpy as np

from cpcompress import cp
from cpcompress.cp import CpFactors, reconstruct
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


def set_fit_limits(monkeypatch, max_sweeps, tol=None):
    """Run `decompose_kernel`'s rank-1 fits at another sweep cap and, if
    given, another tolerance, until `monkeypatch` undoes it."""
    monkeypatch.setattr(cp, "_MAX_SWEEPS", max_sweeps)
    if tol is not None:
        monkeypatch.setattr(cp, "_TOL", tol)


def first_terms(factors: CpFactors, r: int) -> CpFactors:
    """The first r rank-1 terms of a decomposition."""
    return CpFactors(factors.u1[:r], factors.u2[:r], factors.u3[:, :r])


def prefix_residuals(kernel: np.ndarray, factors: CpFactors) -> list:
    """||kernel - first r terms|| / ||kernel|| for r = 1..R.

    The first r terms of a greedy decomposition are its rank-r
    decomposition, so this is the residual curve of ranks 1..R.
    """
    total = np.linalg.norm(kernel)
    return [
        float(np.linalg.norm(kernel - reconstruct(first_terms(factors, r)).array)) / total
        for r in range(1, factors.rank + 1)
    ]


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


def naive_fc(x: np.ndarray, weights: np.ndarray, bias) -> np.ndarray:
    """Reference fully connected map as plain loops: weights[m, n] connects
    input n to output m."""
    m, n = weights.shape
    out = np.zeros(m)
    for mi in range(m):
        acc = 0.0 if bias is None else bias[mi]
        for ni in range(n):
            acc += weights[mi, ni] * x[ni]
        out[mi] = acc
    return out


def naive_max_pool(x: np.ndarray, k: int, s: int, dy=None):
    """Reference max-pool of a (B, C, W, H) batch, one window at a time.

    Returns (output, input gradient); given output gradients dy, each
    window's gradient goes to its first maximum in row-major order."""
    b, c, w, h = x.shape
    wout, hout = (w - k) // s + 1, (h - k) // s + 1
    out = np.zeros((b, c, wout, hout))
    dx = np.zeros_like(x)
    for n in range(b):
        for ch in range(c):
            for wo in range(wout):
                for ho in range(hout):
                    window = x[n, ch, wo * s : wo * s + k, ho * s : ho * s + k]
                    best = 0
                    for pos in range(1, k * k):
                        if window.flat[pos] > window.flat[best]:
                            best = pos
                    j, i = divmod(best, k)
                    out[n, ch, wo, ho] = window[j, i]
                    if dy is not None:
                        dx[n, ch, wo * s + j, ho * s + i] += dy[n, ch, wo, ho]
    return out, dx


def per_image_render(labels, noise, rng):
    """Reference for data._render: the grating task drawn one image at a
    time, then the noise in the same blocks."""
    from cpcompress.data import _NOISE_BLOCK, TOY_INPUT_SHAPE, _class_params

    n = labels.size
    size = TOY_INPUT_SHAPE[-1]
    grid = np.arange(size) / size
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    images = np.empty((n,) + TOY_INPUT_SHAPE)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    amplitudes = rng.uniform(0.75, 1.25, size=n)
    for i, label in enumerate(labels):
        orientation, frequency, mix = _class_params(int(label))
        axis = xx * np.cos(orientation) + yy * np.sin(orientation)
        grating = np.sin(2.0 * np.pi * frequency * axis + phases[i])
        images[i] = amplitudes[i] * mix[:, None, None] * grating
    for start in range(0, n, _NOISE_BLOCK):
        block = images[start : start + _NOISE_BLOCK]
        block += noise * rng.standard_normal(block.shape)
    return images


def scatter_cp_conv_backward(x, dy, factors, spec):
    """Reference gradients (d input, [(d u1, d u2, d u3) per group]) of
    conv.batch_cp_conv at input x, computed apart from conv's kernels: the
    three stages run channels-last, the depthwise stage as D^2 passes of
    strided views times taps, and its input-side adjoint as a scatter of
    each output position's gradient times each tap onto a zero-padded input
    gradient, kernel offsets in row-major order."""
    t_g = spec.out_channels // spec.groups
    s_g = spec.in_channels // spec.groups
    d, st, p = spec.kernel_size, spec.stride, spec.padding
    b, _, w, h = x.shape
    wout, hout = dy.shape[2:]
    dx_groups = []
    dfactors = []
    for gi, (u1, u2, u3) in enumerate(factors):
        r = u2.shape[0]
        xg = x[:, gi * s_g : (gi + 1) * s_g].reshape(b, s_g, w * h)
        zpad = np.zeros((b, w + 2 * p, h + 2 * p, r))
        zpad[:, p : p + w, p : p + h] = np.matmul(xg.transpose(0, 2, 1), u1.T).reshape(b, w, h, r)
        windows = {
            (j, i): (slice(None), slice(j, j + st * wout, st), slice(i, i + st * hout, st))
            for j in range(d) for i in range(d)
        }
        z2 = sum(zpad[window] * u2[:, j, i] for (j, i), window in windows.items())
        dy_g = dy[:, gi * t_g : (gi + 1) * t_g].reshape(b, t_g, wout * hout)
        du3 = np.matmul(dy_g, z2.reshape(b, wout * hout, r)).sum(axis=0)
        dz2 = np.matmul(dy_g.transpose(0, 2, 1), u3).reshape(b, wout, hout, r)
        du2 = np.empty_like(u2)
        dzpad = np.zeros(zpad.shape)
        for (j, i), window in windows.items():
            du2[:, j, i] = (zpad[window] * dz2).sum(axis=(0, 1, 2))
            dzpad[window] += dz2 * u2[:, j, i]
        dz = dzpad[:, p : p + w, p : p + h].reshape(b, w * h, r).transpose(0, 2, 1)
        du1 = np.matmul(dz, xg.transpose(0, 2, 1)).sum(axis=0)
        dfactors.append((du1, du2, du3))
        dx_groups.append(np.matmul(u1.T, dz).reshape(b, s_g, w, h))
    return np.concatenate(dx_groups, axis=1), dfactors


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


def unpadded_check_net(rng: np.random.Generator):
    """A tiny network whose factorized convolution has D = 5, no padding and
    stride 3, behind a dense convolution so that the factorized layer's
    input gradient is checked too."""
    from cpcompress.conv import ConvSpec
    from cpcompress.network import Flatten, ReLU

    conv = ConvSpec(3, 2, 3, stride=1, padding=1)
    dec_spec = ConvSpec(4, 3, 5, stride=3, padding=0)
    dec_factors = (
        CpFactors(
            rng.standard_normal((2, 3)) * 0.5,
            rng.standard_normal((2, 5, 5)) * 0.5,
            rng.standard_normal((4, 2)) * 0.5,
        ),
    )
    layers = (
        Conv("conv_in", conv, rng.standard_normal(conv.kernel_shape) * 0.5,
             rng.standard_normal(3) * 0.1),
        ReLU("relu_in"),
        DecomposedConv("conv_u", dec_spec, dec_factors, rng.standard_normal(4) * 0.1),
        Flatten("flatten"),
        Fc("fc_o", rng.standard_normal((5, 4 * 4 * 4)) * 0.3,
           rng.standard_normal(5) * 0.1),
    )
    return NetworkSpec((2, 14, 14), layers)
