"""Gradients, SGD fine-tuning, and the two compression schedules."""

import numpy as np
import pytest

from cpcompress.data import Dataset, make_synthetic_dataset
from cpcompress.network import (
    DecomposedConv,
    DecomposedFc,
    Fc,
    NetworkSpec,
    forward,
    stage_count,
)
from cpcompress.presets import toy_cnn
from cpcompress.train import (
    DivergedError,
    StageLog,
    StageRecord,
    TrainConfig,
    backward,
    batch_outputs,
    evaluate,
    finetune,
    iterative_compress,
    mean_squared_error,
    oneshot_compress,
    softmax_cross_entropy,
)

from helpers import check_gradients, gradient_check_net, strided_check_net


def tiny_dataset(seed=0, n_train=120, n_test=60):
    return make_synthetic_dataset(n_train=n_train, n_test=n_test, seed=seed)


def _layer_arrays(net):
    """Every parameter array of every layer, in network order."""
    arrays = []
    for layer in net.layers:
        if isinstance(layer, DecomposedConv):
            for f in layer.factors:
                arrays += [f.u1, f.u2, f.u3]
        elif isinstance(layer, DecomposedFc):
            arrays += [layer.factors.ud, layer.factors.vt]
        elif hasattr(layer, "weights"):
            arrays.append(layer.weights)
        if getattr(layer, "bias", None) is not None:
            arrays.append(layer.bias)
    return arrays


def _loop_pool(x, dy, k, s):
    """Max-pool forward and backward, one window at a time: each window's
    gradient goes to its first maximum in row-major order."""
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
                    dx[n, ch, wo * s + j, ho * s + i] += dy[n, ch, wo, ho]
    return out, dx


class TestLosses:
    def test_softmax_cross_entropy_uniform(self):
        logits = np.zeros((2, 4))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 3]))
        assert loss == pytest.approx(np.log(4.0), rel=1e-12)
        assert grad.shape == (2, 4)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_mse_quadratic_gradient(self):
        out = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mean_squared_error(out, target)
        assert loss == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [[2.0, 4.0]])


class TestBackward:
    def test_linear_layer_closed_form(self):
        # One dense layer with squared-error loss: dW = 2 (W x - y) x^T.
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        net = NetworkSpec((4,), (Fc("lin", w, None),))
        x = rng.standard_normal((1, 4))
        y = rng.standard_normal((1, 3))
        grads = backward(net, x, y, loss_fn=mean_squared_error)
        expected = 2.0 * np.outer(w @ x[0] - y[0], x[0])
        np.testing.assert_allclose(grads[("lin", "weights")], expected, atol=1e-12)

    def test_every_layer_kind_against_finite_differences(self):
        rng = np.random.default_rng(1)
        for make_net in (gradient_check_net, strided_check_net):
            net = make_net(rng)
            x = rng.standard_normal((3,) + net.input_shape) * 0.7
            labels = rng.integers(0, 5, 3)
            worst = check_gradients(net, x, labels, rel_tol=1e-4, rng=np.random.default_rng(2))
            assert worst <= 1e-4

    def test_batched_forward_matches_single_sample(self):
        rng = np.random.default_rng(3)
        for make_net in (gradient_check_net, strided_check_net):
            net = make_net(rng)
            x = rng.standard_normal((4,) + net.input_shape)
            batched = batch_outputs(net, x)
            single = np.stack([forward(net, x[i]) for i in range(4)])
            np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_gradient_keys_cover_all_trainable_tensors(self):
        rng = np.random.default_rng(4)
        net = gradient_check_net(rng)
        x = rng.standard_normal((2,) + net.input_shape)
        grads = backward(net, x, rng.integers(0, 5, 2))
        names = {k[0] for k in grads}
        assert names == {"conv_a", "conv_g", "conv_d", "fc_a", "fc_d"}
        assert ("conv_d", "u1.0") in grads
        assert ("conv_d", "u2.0") in grads
        assert ("conv_d", "u3.0") in grads
        assert ("fc_d", "ud") in grads
        assert ("fc_d", "vt") in grads


class TestMaxPoolTies:
    @pytest.mark.parametrize("k, s", [(2, 2), (3, 2), (2, 1), (3, 1), (3, 3)])
    def test_ties_route_to_first_maximum(self, k, s):
        from cpcompress.network import MaxPool
        from cpcompress.train import _MaxPoolState

        rng = np.random.default_rng(k * 10 + s)
        # Values from {0, 1, 2} tie often; the last sample ties everywhere.
        x = rng.integers(0, 3, (3, 2, 8, 9)).astype(float)
        x[-1] = 1.0
        state = _MaxPoolState(MaxPool("pool", window=k, stride=s))
        cache = {}
        out = state.forward(x, cache)
        # Small integer gradients keep the sums at shared positions exact.
        dy = rng.integers(-4, 5, out.shape).astype(float)
        dx = state.backward(dy, cache, {})
        want_out, want_dx = _loop_pool(x, dy, k, s)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(state.forward(x, None), want_out)
        np.testing.assert_array_equal(dx, want_dx)
        # In the all-tied sample every window routes to its top-left element.
        corner = np.zeros(x.shape[1:], dtype=bool)
        corner[:, : s * out.shape[2] : s, : s * out.shape[3] : s] = True
        assert not np.any(dx[-1][~corner])


class TestFinetune:
    def test_zero_epochs_is_identity(self):
        data = tiny_dataset()
        net = toy_cnn(seed=1)
        out, history = finetune(net, data, TrainConfig(seed=0), epochs=0)
        assert history == []
        assert out == net

    def test_zero_scaled_update_is_bit_identical(self):
        # A parameter step scaled by zero must not perturb a single bit.
        from cpcompress.train import _build_states, _export_states

        data = tiny_dataset()
        net = toy_cnn(seed=1)
        states = _build_states(net)
        grads = backward(net, data.train_x[:8], data.train_y[:8])
        for state in states:
            for key in state.params:
                state.params[key] = state.params[key] - 0.0 * grads[(state.name, key)]
        assert _export_states(net, states) == net

    def test_finetune_leaves_input_arrays_untouched(self):
        from cpcompress.network import decompose_layer, replace_layer

        data = tiny_dataset()
        net = toy_cnn(seed=2)
        net = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 4, seed=0))
        net = replace_layer(net, "fc1", decompose_layer(net.layer("fc1"), 6, seed=0))
        arrays = _layer_arrays(net)
        before = [a.copy() for a in arrays]
        tuned, _ = finetune(net, data, TrainConfig(learning_rate=0.05, seed=0), epochs=1)
        assert len(arrays) == 11
        for array, copy in zip(arrays, before):
            assert not array.flags.writeable
            assert array.tobytes() == copy.tobytes()
        assert not any(
            a.tobytes() == b.tobytes() for a, b in zip(arrays, _layer_arrays(tuned))
        )

    def test_no_tensor_frozen_after_one_step(self):
        data = tiny_dataset()
        net = toy_cnn(seed=2)
        from cpcompress.network import decompose_layer, replace_layer

        net = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 4, seed=0))
        net = replace_layer(net, "fc1", decompose_layer(net.layer("fc1"), 6, seed=0))
        grads = backward(net, data.train_x[:16], data.train_y[:16])
        for key, grad in grads.items():
            assert np.any(grad != 0.0), f"zero gradient at {key}"
        tuned, _ = finetune(net, data, TrainConfig(learning_rate=0.01, seed=0), epochs=1)
        before = {l.name: l for l in net.layers}
        for layer in tuned.layers:
            old = before[layer.name]
            if isinstance(layer, DecomposedConv):
                for fo, fn in zip(old.factors, layer.factors):
                    assert fo.u1.tobytes() != fn.u1.tobytes()
                    assert fo.u2.tobytes() != fn.u2.tobytes()
                    assert fo.u3.tobytes() != fn.u3.tobytes()
            elif isinstance(layer, DecomposedFc):
                assert old.factors.ud.tobytes() != layer.factors.ud.tobytes()
                assert old.factors.vt.tobytes() != layer.factors.vt.tobytes()
            elif hasattr(layer, "weights"):
                assert old.weights.tobytes() != layer.weights.tobytes()

    def test_seeded_run_bit_reproducible(self):
        data = tiny_dataset()
        cfg = TrainConfig(learning_rate=0.03, batch_size=16, seed=9)
        a, hist_a = finetune(toy_cnn(seed=3), data, cfg, epochs=2)
        b, hist_b = finetune(toy_cnn(seed=3), data, cfg, epochs=2)
        assert a == b
        assert hist_a == hist_b

    def test_loss_trajectory_finite(self):
        data = tiny_dataset()
        _, history = finetune(toy_cnn(seed=4), data, TrainConfig(seed=0), epochs=3)
        assert len(history) == 3
        for stats in history:
            assert np.isfinite(stats.train_loss)
            assert np.isfinite(stats.test_loss)

    def test_learning_rate_decay_schedule(self):
        cfg = TrainConfig(learning_rate=0.1, lr_step=2, seed=0)
        assert cfg.rate_for("any", 0) == pytest.approx(0.1)
        assert cfg.rate_for("any", 1) == pytest.approx(0.1)
        assert cfg.rate_for("any", 2) == pytest.approx(0.01)
        assert cfg.rate_for("any", 4) == pytest.approx(0.001)

    def test_layer_group_overrides(self):
        cfg = TrainConfig(learning_rate=0.1, lr_overrides={"conv1": 0.5}, seed=0)
        assert cfg.rate_for("conv1", 0) == pytest.approx(0.5)
        assert cfg.rate_for("conv2", 0) == pytest.approx(0.1)

    def test_linearly_separable_task_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(5)
        centers = np.array([[2.0, 0.0, -1.0, 0.5], [-2.0, 1.0, 1.0, -0.5]])
        labels = rng.integers(0, 2, 160)
        x = centers[labels] + 0.05 * rng.standard_normal((160, 4))
        data = Dataset(x, labels, x[:20], labels[:20])
        net = NetworkSpec(
            (4,), (Fc("lin", 0.01 * rng.standard_normal((2, 4)), np.zeros(2)),)
        )
        tuned, history = finetune(
            net, data, TrainConfig(learning_rate=0.5, batch_size=16, seed=0), epochs=20
        )
        _, train_acc = evaluate(tuned, data.train_x, data.train_y)
        assert train_acc == 1.0

    def test_divergence_raises_with_history(self):
        data = tiny_dataset()
        # Hot enough that the second batch overflows float64 outright.
        cfg = TrainConfig(learning_rate=1e155, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergedError):
                finetune(toy_cnn(seed=6), data, cfg, epochs=3)


def small_ranks():
    return {"conv1": 4, "conv2": 8, "fc1": 8, "fc2": 4}


class TestSchedules:
    def test_iterative_fully_decomposes_in_order(self):
        data = tiny_dataset()
        net = toy_cnn(seed=7)
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=1, seed=0)
        out, log = iterative_compress(net, data, small_ranks(), cfg)
        assert [r.layer for r in log.records] == ["conv1", "conv2", "fc1", "fc2"]
        assert not log.diverged
        assert stage_count(out) == stage_count(net) + 2 + 2 + 1 + 1
        kinds = {l.name: type(l).__name__ for l in out.layers}
        assert kinds["conv1"] == kinds["conv2"] == "DecomposedConv"
        assert kinds["fc1"] == kinds["fc2"] == "DecomposedFc"

    def test_full_rank_with_zero_epochs_is_lossless(self):
        data = tiny_dataset()
        net = toy_cnn(seed=8)
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=1, seed=0)
        # Full ranks: the trivial bound for convs, min(M, N) for fc layers.
        ranks = {"conv1": 24, "conv2": 72, "fc1": 48, "fc2": 10}
        _, base_acc = evaluate(net, data.test_x, data.test_y)
        current = net
        from cpcompress.network import decompose_layer, replace_layer

        for name in ("conv1", "conv2", "fc1", "fc2"):
            current = replace_layer(
                current,
                name,
                decompose_layer(current.layer(name), ranks[name], seed=0,
                                max_inner_iters=500, tol=1e-12),
            )
        _, acc = evaluate(current, data.test_x, data.test_y)
        assert acc == pytest.approx(base_acc, abs=1e-6)

    def test_oneshot_budget_matches_iterative(self):
        data = tiny_dataset()
        net = toy_cnn(seed=9)
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=2, seed=0)
        _, log = oneshot_compress(net, data, small_ranks(), cfg)
        assert log.records[-1].layer == "finetune"
        assert log.records[-1].epochs == 2 * 4
        assert all(r.epochs == 0 for r in log.records[:-1])

    def test_missing_rank_rejected(self):
        data = tiny_dataset()
        net = toy_cnn(seed=10)
        with pytest.raises(ValueError):
            iterative_compress(net, data, {"conv1": 4}, TrainConfig(seed=0))

    def test_stage_log_roundtrip(self):
        log = StageLog(
            (
                StageRecord("conv1", 4, 2.302585, 0.1, 0.5, 0.9375, 3),
                StageRecord("fc1", 8, 0.25, 0.96875, 0.125, 1.0, 3),
            ),
            diverged=True,
        )
        assert StageLog.from_text(log.to_text()) == log

    def test_iterative_deterministic_logs(self):
        data = tiny_dataset()
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=1, seed=11)
        _, log1 = iterative_compress(toy_cnn(seed=11), data, small_ranks(), cfg)
        _, log2 = iterative_compress(toy_cnn(seed=11), data, small_ranks(), cfg)
        assert log1.to_text() == log2.to_text()

    def test_divergence_returns_partial_log(self):
        data = tiny_dataset()
        net = toy_cnn(seed=12)
        cfg = TrainConfig(learning_rate=1e155, epochs_per_stage=1, seed=0)
        with np.errstate(all="ignore"):
            out, log = iterative_compress(net, data, small_ranks(), cfg)
        assert log.diverged
        assert len(log.records) == 1
        assert np.isnan(log.records[0].post_loss)
        # The returned network is the state before the failed stage.
        assert out == net
