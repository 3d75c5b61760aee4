"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success; they also appear in captured output on failure).
"""

import multiprocessing
import os
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from cpcompress.allocator import largest_remainder
from cpcompress.conv import MultiplyCounter, ConvSpec
from cpcompress.cp import TpmConfig, decompose_kernel, reconstruct
from cpcompress.data import make_synthetic_dataset
from cpcompress.network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    NetworkSpec,
    count_params,
    decompose_layer,
    forward,
    replace_layer,
)
from cpcompress.presets import alexnet, alexnet_decomposed, toy_cnn
from cpcompress.svd import truncated_svd
from cpcompress.tensor import DenseTensor
from cpcompress.train import TrainConfig, evaluate, finetune, iterative_compress, oneshot_compress
from cpcompress.verify import corruption_suite, equivalence_suite, roundtrip_suite

from helpers import (
    check_gradients,
    gradient_check_net,
    gram_singular_values,
    prefix_residuals,
    separated_cp_kernel,
    set_fit_limits,
)


def _report(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_pipeline_equivalence():
    start = time.time()
    result = equivalence_suite(cases=200, seed=20250808)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 30.0
    _report(
        1, "factorized pipeline equivalence", ok,
        f"{result.cases} cases, max rel err {result.max_rel_err:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_greedy_rank1_extraction(monkeypatch):
    start = time.time()
    rng = np.random.default_rng(17)
    worst_residual = 0.0
    with monkeypatch.context() as patched:
        set_fit_limits(patched, 500, 1e-13)
        for rank in (1, 2, 3, 4):
            for t, s, d in ((5, 4, 3), (8, 6, 3), (6, 5, 5)):
                kernel = separated_cp_kernel(t, s, d, rank=rank, rng=rng)
                cfg = TpmConfig(rank=rank, seed=3)
                rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
                rel = np.linalg.norm(rebuilt.array - kernel) / np.linalg.norm(kernel)
                worst_residual = max(worst_residual, rel)
    exact_ok = worst_residual <= 1e-8

    monotone = True
    for _ in range(100):
        kernel = rng.standard_normal((3, 3, 3, 3))
        factors = decompose_kernel(DenseTensor.from_array(kernel), TpmConfig(rank=6, seed=1))
        curve = prefix_residuals(kernel, factors)
        monotone &= all(later <= earlier for earlier, later in zip(curve, curve[1:]))
    elapsed = time.time() - start
    ok = exact_ok and monotone and elapsed < 60.0
    _report(
        2, "greedy rank-1 extraction", ok,
        f"exact-rank worst residual {worst_residual:.2e}, curves monotone "
        f"{monotone}, {elapsed:.1f}s",
    )


def test_criterion_3_svd_truncation():
    rng = np.random.default_rng(23)
    worst_round = 0.0
    worst_formula = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 49))
        w = rng.standard_normal((m, n))
        full = min(m, n)
        factors = truncated_svd(w, full)
        worst_round = max(
            worst_round,
            np.linalg.norm(w - factors.ud @ factors.vt) / np.linalg.norm(w),
        )
        rank = int(rng.integers(1, full + 1))
        truncated = truncated_svd(w, rank)
        measured = np.linalg.norm(w - truncated.ud @ truncated.vt)
        oracle = gram_singular_values(w)
        expected = np.sqrt(np.sum(oracle[rank:] ** 2))
        worst_formula = max(
            worst_formula, abs(measured - expected) / np.linalg.norm(w)
        )
    ok = worst_round <= 1e-9 and worst_formula <= 1e-8
    _report(
        3, "svd truncation vs gram oracle", ok,
        f"worst full-rank roundtrip {worst_round:.2e}, worst error-formula "
        f"deviation {worst_formula:.2e}",
    )


def test_criterion_4_analytic_equals_measured_params():
    rng = np.random.default_rng(31)
    specs = [
        ("c1", ConvSpec(4, 3, 3, padding=1)),
        ("c2", ConvSpec(6, 4, 5, padding=2, groups=2)),
        ("c3", ConvSpec(8, 6, 3, padding=1)),
    ]
    layers = []
    for name, spec in specs:
        layers.append(Conv(name, spec, rng.standard_normal(spec.kernel_shape), None))
    layers.append(Flatten("flatten"))
    layers.append(Fc("f1", rng.standard_normal((16, 8 * 36)), None))
    layers.append(Fc("f2", rng.standard_normal((12, 16)), None))
    layers.append(Fc("f3", rng.standard_normal((5, 12)), None))
    net = NetworkSpec((3, 6, 6), tuple(layers))
    ranks = {"c1": 5, "c2": 7, "c3": 10, "f1": 9, "f2": 6, "f3": 4}
    for name, rank in ranks.items():
        net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=4))

    rows = {r.name: r for r in count_params(net).rows}
    mismatches = []
    for layer in net.layers:
        if isinstance(layer, DecomposedConv):
            s_g = layer.spec.in_channels // layer.spec.groups
            t_g = layer.spec.out_channels // layer.spec.groups
            d = layer.spec.kernel_size
            analytic = sum(
                f.rank * s_g + f.rank * d * d + t_g * f.rank for f in layer.factors
            )
        elif isinstance(layer, DecomposedFc):
            analytic = (
                layer.out_features * layer.rank + layer.rank * layer.in_features
            )
        else:
            continue
        measured = rows[layer.name].compressed_params
        if analytic != measured:
            mismatches.append(f"{layer.name}: {analytic} != {measured}")
    _report(
        4, "analytic vs measured parameter counts",
        not mismatches, "exact integer match on all 6 layers" if not mismatches
        else "; ".join(mismatches),
    )


def test_criterion_5_reference_compression_totals():
    start = time.time()
    original = alexnet()
    compressed = alexnet_decomposed()
    report_orig = count_params(original)
    report_comp = count_params(compressed)

    weights = report_comp.total_compressed_params
    weight_ratio = report_orig.total_original_params / weights

    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 227, 227))
    c_orig = MultiplyCounter()
    forward(original, x, c_orig)
    c_comp = MultiplyCounter()
    forward(compressed, x, c_comp)
    mult_ratio = c_orig.count / c_comp.count
    elapsed = time.time() - start

    weights_ok = abs(weights - 8_700_000) / 8_700_000 <= 0.03
    ratio_ok = abs(weight_ratio - 6.98) / 6.98 <= 0.03
    mult_ok = abs(mult_ratio - 3.53) / 3.53 <= 0.10
    instrumented_ok = (
        c_orig.count == report_orig.total_original_mults
        and c_comp.count == report_comp.total_compressed_mults
    )
    ok = weights_ok and ratio_ok and mult_ok and instrumented_ok and elapsed < 5.0
    _report(
        5, "reference compression totals", ok,
        f"weights {weights} ({weight_ratio:.3f}x), instrumented multiply "
        f"ratio {mult_ratio:.3f}x, analytic==instrumented {instrumented_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_proportional_allocation_regression():
    ranks = largest_remainder([28.59, 21.50, 20.31], 900)
    ok = ranks == [365, 275, 260]
    _report(
        6, "fc rank allocation regression", ok,
        f"losses (28.59, 21.50, 20.31) at budget 900 -> {tuple(ranks)}",
    )


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(41)
    net = gradient_check_net(rng)
    x = rng.standard_normal((3,) + net.input_shape) * 0.7
    labels = rng.integers(0, 5, 3)
    worst = check_gradients(
        net, x, labels, rel_tol=1e-4, probes_per_tensor=6,
        rng=np.random.default_rng(42),
    )
    _report(
        7, "finite-difference gradient checks", worst <= 1e-4,
        f"every layer kind probed, worst rel err {worst:.2e}",
    )


def _criterion_8_seed(seed: int) -> tuple:
    """(baseline, iterative, one-shot) test accuracy of one seed.

    It runs in a worker process, where the suite's warning filter does not
    reach, so RuntimeWarnings are made errors here as the suite makes them.
    """
    warnings.simplefilter("error", RuntimeWarning)
    ranks = {"conv1": 6, "conv2": 18, "fc1": 12, "fc2": 5}
    data = make_synthetic_dataset(seed=seed)
    base_cfg = TrainConfig(
        learning_rate=0.05, batch_size=32, lr_step=12, seed=seed
    )
    baseline, _ = finetune(toy_cnn(seed=seed), data, base_cfg, epochs=16)
    _, base_acc = evaluate(baseline, data.test_x, data.test_y)

    ft_cfg = TrainConfig(
        learning_rate=0.02, batch_size=32, epochs_per_stage=4, lr_step=3,
        seed=seed,
    )
    it_net, it_log = iterative_compress(baseline, data, ranks, ft_cfg)
    os_net, os_log = oneshot_compress(baseline, data, ranks, ft_cfg)
    assert not it_log.diverged and not os_log.diverged
    _, it_acc = evaluate(it_net, data.test_x, data.test_y)
    _, os_acc = evaluate(os_net, data.test_x, data.test_y)
    return base_acc, it_acc, os_acc


@pytest.mark.slow
def test_criterion_8_iterative_vs_oneshot():
    start = time.time()
    # Five seeds over two worker processes of one BLAS thread each.  A
    # spawned worker reads the environment when it starts, so the parent's
    # is restored once the pool is up.
    with mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1"):
        pool = multiprocessing.get_context("spawn").Pool(2)
    with pool:
        results = pool.map(_criterion_8_seed, range(5))
    baseline_accs, iterative_accs, oneshot_accs = zip(*results)

    elapsed = time.time() - start
    med_it = float(np.median(iterative_accs))
    med_os = float(np.median(oneshot_accs))
    gaps = [b - i for b, i in zip(baseline_accs, iterative_accs)]
    ok = (
        med_it >= med_os
        and all(gap <= 0.05 for gap in gaps)
        and elapsed < 600.0
    )
    _report(
        8, "iterative vs one-shot fine-tuning", ok,
        f"median iterative {med_it:.3f} vs one-shot {med_os:.3f}, max gap to "
        f"baseline {max(gaps):.3f}, {elapsed:.0f}s",
    )


def test_criterion_9_serialization():
    failures = roundtrip_suite(trips=100, seed=13)
    corrupt = corruption_suite(seed=13)
    ok = not failures and not corrupt
    _report(
        9, "serialization round trips and corruption handling", ok,
        f"100 round trips bit-identical, {60} corrupted loads all raised "
        "clean format errors" if ok else f"{failures + corrupt}",
    )
