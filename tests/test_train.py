"""Gradients, SGD fine-tuning, and the two compression schedules."""

import hashlib

import numpy as np
import pytest

from cpcompress.data import Dataset, make_synthetic_dataset
from cpcompress.cp import TpmConfig, decompose_kernel, reconstruct
from cpcompress.network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    MaxPool,
    NetworkSpec,
    ReLU,
    decompose_layer,
    replace_layer,
    save,
)
from cpcompress.presets import toy_cnn
from cpcompress.tensor import DenseTensor
from cpcompress.train import (
    DivergedError,
    StageLog,
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

from helpers import (
    check_gradients,
    gradient_check_net,
    naive_conv,
    naive_fc,
    naive_max_pool,
    set_fit_limits,
    strided_check_net,
    unpadded_check_net,
)


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


def _per_window(layer, x):
    """One sample through the independent loops in helpers."""
    if isinstance(layer, MaxPool):
        return naive_max_pool(x[None], layer.window, layer.stride)[0][0]
    if isinstance(layer, Fc):
        return naive_fc(x, layer.weights, layer.bias)
    if isinstance(layer, DecomposedFc):
        hidden = naive_fc(x, layer.factors.vt, None)
        return naive_fc(hidden, layer.factors.ud, layer.bias)
    spec = layer.spec
    if isinstance(layer, Conv):
        kernel = layer.weights
    else:
        kernel = np.concatenate([reconstruct(f).array for f in layer.factors])
    s_g = spec.in_channels // spec.groups
    t_g = spec.out_channels // spec.groups
    out = np.concatenate([
        naive_conv(x[g * s_g : (g + 1) * s_g], kernel[g * t_g : (g + 1) * t_g],
                   spec.stride, spec.padding)
        for g in range(spec.groups)
    ])
    return out if layer.bias is None else out + layer.bias[:, None, None]


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

    def test_unpadded_stride3_factorized_layer_against_finite_differences(self):
        # The factorized layer's input-gradient buffer has the padded input's
        # extent at every padding, here none, with D = 5 and stride 3.
        rng = np.random.default_rng(5)
        net = unpadded_check_net(rng)
        x = rng.standard_normal((3,) + net.input_shape) * 0.7
        labels = rng.integers(0, 5, 3)
        worst = check_gradients(net, x, labels, rel_tol=1e-4, probes_per_tensor=8,
                                rng=np.random.default_rng(6))
        assert worst <= 1e-4

    def test_batched_layers_match_per_window_loops(self):
        # Each sample of a batch of four, layer by layer, against loops that
        # never see a batch: naive_conv per group for the dense convolution
        # and for the reconstructed kernel of a factorized one, plain loops
        # for fc layers and max-pooling.
        rng = np.random.default_rng(3)
        checked = set()
        for make_net in (gradient_check_net, strided_check_net):
            net = make_net(rng)
            shapes = [net.input_shape] + net.layer_shapes()
            for layer, shape in zip(net.layers, shapes):
                if isinstance(layer, (ReLU, Flatten)):
                    continue
                x = rng.standard_normal((4,) + shape)
                batched = layer.forward(layer.params(), x)
                for sample, out in zip(x, batched):
                    want = _per_window(layer, sample)
                    atol = 1e-12 * max(1.0, np.abs(want).max())
                    np.testing.assert_allclose(out, want, rtol=0, atol=atol)
                checked.add(type(layer))
        assert checked == {Conv, DecomposedConv, Fc, DecomposedFc, MaxPool}

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
        rng = np.random.default_rng(k * 10 + s)
        # Values from {0, 1, 2} tie often; the last sample ties everywhere.
        x = rng.integers(0, 3, (3, 2, 8, 9)).astype(float)
        x[-1] = 1.0
        pool = MaxPool("pool", window=k, stride=s)
        cache = {}
        out = pool.forward({}, x, cache)
        # Small integer gradients keep the sums at shared positions exact.
        dy = rng.integers(-4, 5, out.shape).astype(float)
        dx = pool.backward({}, dy, cache, {})
        want_out, want_dx = naive_max_pool(x, k, s, dy)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(pool.forward({}, x), want_out)
        np.testing.assert_array_equal(dx, want_dx)
        # In the all-tied sample every window routes to its top-left element.
        corner = np.zeros(x.shape[1:], dtype=bool)
        corner[:, : s * out.shape[2] : s, : s * out.shape[3] : s] = True
        assert not np.any(dx[-1][~corner])

    def test_nan_stops_the_index_at_the_running_maximum(self):
        # A window's index moves only to a value greater than its running
        # maximum, and a NaN makes that maximum NaN: the window's output is
        # NaN and its gradient goes to the maximum before the first NaN.
        nan = np.nan
        windows = [
            [1.0, nan, 3.0, 2.0],  # NaN after the first element: index 0
            [nan, 5.0, 1.0, 2.0],  # NaN first: index 0
            [1.0, 4.0, nan, 9.0],  # 4 moves it, 9 comes after the NaN: index 1
            [2.0, 7.0, 7.0, 1.0],  # no NaN, a tie: the first 7, index 1
        ]
        x = np.empty((1, 1, 2, 8))
        for n, window in enumerate(windows):
            x[0, 0, :, 2 * n : 2 * n + 2] = np.reshape(window, (2, 2))
        pool = MaxPool("pool", window=2, stride=2)
        cache = {}
        out = pool.forward({}, x, cache)
        np.testing.assert_array_equal(out[0, 0, 0], [nan, nan, nan, 7.0])
        np.testing.assert_array_equal(pool.forward({}, x), out)
        assert cache["idx"][0, 0, 0].tolist() == [0, 0, 1, 1]
        dx = pool.backward({}, np.ones(out.shape), cache, {})
        want = np.zeros(x.shape)
        want[0, 0, 0, [0, 2, 5, 7]] = 1.0
        np.testing.assert_array_equal(dx, want)


class TestFirstLayerInputGradient:
    def test_first_layer_is_not_asked_for_its_input_gradient(self, monkeypatch):
        net = toy_cnn(0)
        asked = {}
        for cls in {type(layer) for layer in net.layers}:
            def spy(self, params, dy, cache, grads, input_grad=True, _backward=cls.backward):
                asked[self.name] = input_grad
                return _backward(self, params, dy, cache, grads, input_grad)

            monkeypatch.setattr(cls, "backward", spy)
        data = tiny_dataset()
        backward(net, data.train_x[:4], data.train_y[:4])
        assert asked == {layer.name: layer.name != "conv1" for layer in net.layers}


class TestTrainConfig:
    @pytest.mark.parametrize("settings", [
        {"learning_rate": 0.0}, {"learning_rate": -0.1}, {"learning_rate": float("nan")},
        {"learning_rate": float("inf")}, {"batch_size": 0}, {"epochs_per_stage": 0},
        {"lr_step": 0}, {"seed": -1},
    ], ids=["rate-0", "rate-negative", "rate-nan", "rate-inf", "batch-0", "epochs-0",
            "step-0", "seed-negative"])
    def test_out_of_range_refused(self, settings):
        with pytest.raises(ValueError):
            TrainConfig(**settings)

    @pytest.mark.parametrize("name", ["batch_size", "epochs_per_stage", "lr_step", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "true", "text"])
    def test_integer_settings_refuse_non_integers(self, name, value):
        with pytest.raises(TypeError):
            TrainConfig(**{name: value})

    def test_integer_settings_become_ints(self):
        cfg = TrainConfig(batch_size=np.int64(16), lr_step=np.int32(3), seed=np.uint8(2))
        assert [type(v) for v in (cfg.batch_size, cfg.lr_step, cfg.seed)] == [int] * 3


class TestFinetune:
    def test_zero_epochs_is_identity(self):
        data = tiny_dataset()
        net = toy_cnn(seed=1)
        out, history = finetune(net, data, TrainConfig(seed=0), epochs=0)
        assert history == []
        assert out == net

    def test_zero_scaled_update_is_bit_identical(self):
        # A parameter step scaled by zero must not perturb a single bit.
        data = tiny_dataset()
        net = toy_cnn(seed=1)
        grads = backward(net, data.train_x[:8], data.train_y[:8])
        layers = []
        for layer in net.layers:
            params = layer.params()
            for key in params:
                params[key] = params[key] - 0.0 * grads[(layer.name, key)]
            layers.append(layer.with_params(params))
        assert NetworkSpec(net.input_shape, tuple(layers)) == net

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
        assert cfg.rate_for(0) == pytest.approx(0.1)
        assert cfg.rate_for(1) == pytest.approx(0.1)
        assert cfg.rate_for(2) == pytest.approx(0.01)
        assert cfg.rate_for(4) == pytest.approx(0.001)

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


_PINNED_SCHEDULES = {
    "iterative_compress": (
        "layer=conv1\trank=4\tpre_loss=5.779312618609463\tpre_accuracy=0.1"
        "\tpost_loss=2.410851119842448\tpost_accuracy=0.16666666666666666\tepochs=1\n"
        "layer=conv2\trank=8\tpre_loss=2.475637725429455\tpre_accuracy=0.08333333333333333"
        "\tpost_loss=2.3856351935225537\tpost_accuracy=0.13333333333333333\tepochs=1\n"
        "layer=fc1\trank=8\tpre_loss=2.42185392691876\tpre_accuracy=0.1"
        "\tpost_loss=2.3719278094699563\tpost_accuracy=0.05\tepochs=1\n"
        "layer=fc2\trank=4\tpre_loss=2.317841226159841\tpre_accuracy=0.1"
        "\tpost_loss=2.3117022523020907\tpost_accuracy=0.08333333333333333\tepochs=1\n",
        "9fa160f9b065928b853bc73bc5c09d9643f70d55ce2a278024fbfbbfff4a9ce2",
    ),
    "oneshot_compress": (
        "layer=conv1\trank=4\tpre_loss=5.779312618609463\tpre_accuracy=0.1"
        "\tpost_loss=5.779312618609463\tpost_accuracy=0.1\tepochs=0\n"
        "layer=conv2\trank=8\tpre_loss=3.70591349282731\tpre_accuracy=0.11666666666666667"
        "\tpost_loss=3.70591349282731\tpost_accuracy=0.11666666666666667\tepochs=0\n"
        "layer=fc1\trank=8\tpre_loss=2.5709678025023615\tpre_accuracy=0.11666666666666667"
        "\tpost_loss=2.5709678025023615\tpost_accuracy=0.11666666666666667\tepochs=0\n"
        "layer=fc2\trank=4\tpre_loss=2.3976706410829616\tpre_accuracy=0.1"
        "\tpost_loss=2.3976706410829616\tpost_accuracy=0.1\tepochs=0\n"
        "layer=finetune\trank=0\tpre_loss=2.3976706410829616\tpre_accuracy=0.1"
        "\tpost_loss=2.305441720119546\tpost_accuracy=0.11666666666666667\tepochs=4\n",
        "330c25df28f47dd8724aa69bb8d48f4a441e7b054c8f1a5d4929c2ceb87e063c",
    ),
}


class TestSchedules:
    def test_iterative_fully_decomposes_in_order(self):
        data = tiny_dataset()
        net = toy_cnn(seed=7)
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=1, seed=0)
        out, log = iterative_compress(net, data, small_ranks(), cfg)
        assert [r.layer for r in log.records] == ["conv1", "conv2", "fc1", "fc2"]
        assert not log.diverged
        stages = [sum(layer.stages for layer in n.layers) for n in (out, net)]
        assert stages[0] == stages[1] + 2 + 2 + 1 + 1
        kinds = {l.name: type(l).__name__ for l in out.layers}
        assert kinds["conv1"] == kinds["conv2"] == "DecomposedConv"
        assert kinds["fc1"] == kinds["fc2"] == "DecomposedFc"

    def test_full_rank_with_zero_epochs_keeps_accuracy(self, monkeypatch):
        # At min(M, N) the fc SVD is exact, so the fc layers alone keep the
        # outputs.  The greedy CP at the convs' full_rank is not exact: the
        # outputs move by about 14%, and only the accuracy, near chance for
        # this untrained net, stays.
        data = tiny_dataset()
        net = toy_cnn(seed=8)
        ranks = {"conv1": 24, "conv2": 72, "fc1": 48, "fc2": 10}
        _, base_acc = evaluate(net, data.test_x, data.test_y)
        current = net
        for name in ("fc1", "fc2"):
            current = replace_layer(current, name, decompose_layer(current.layer(name), ranks[name]))
        dense = batch_outputs(net, data.test_x)
        diff = np.max(np.abs(batch_outputs(current, data.test_x) - dense))
        assert diff <= 1e-12 * np.max(np.abs(dense))
        set_fit_limits(monkeypatch, 500, 1e-12)
        for name in ("conv1", "conv2"):
            # The toy convs have one group, so this is the one CpFactors
            # decompose would make, at tighter power-method settings.
            cfg = TpmConfig(ranks[name], seed=0)
            factors = decompose_kernel(DenseTensor.from_array(current.layer(name).weights), cfg)
            current = replace_layer(current, name, factors)
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

    @pytest.mark.parametrize("schedule", [iterative_compress, oneshot_compress],
                             ids=["iterative", "oneshot"])
    def test_no_decomposable_layers_is_a_no_op(self, schedule):
        net = NetworkSpec((3, 16, 16), (MaxPool("pool", window=2, stride=2), Flatten("flatten")))
        out, log = schedule(net, tiny_dataset(), {}, TrainConfig(seed=0))
        assert out is net
        assert log == StageLog(())

    def test_missing_rank_rejected(self):
        data = tiny_dataset()
        net = toy_cnn(seed=10)
        with pytest.raises(ValueError):
            iterative_compress(net, data, {"conv1": 4}, TrainConfig(seed=0))

    def test_iterative_deterministic_logs(self):
        data = tiny_dataset()
        cfg = TrainConfig(learning_rate=0.01, epochs_per_stage=1, seed=11)
        _, log1 = iterative_compress(toy_cnn(seed=11), data, small_ranks(), cfg)
        _, log2 = iterative_compress(toy_cnn(seed=11), data, small_ranks(), cfg)
        assert log1.to_text() == log2.to_text()

    @pytest.mark.parametrize("schedule", [iterative_compress, oneshot_compress],
                             ids=["iterative", "oneshot"])
    def test_outputs_are_pinned(self, schedule, tmp_path):
        # Both schedules factorize each layer with the same seeded step and
        # score with evaluate's code; these texts and digests hold them
        # bit-identical.  Recorded with numpy 2.4 on x86-64.
        text, digest = _PINNED_SCHEDULES[schedule.__name__]
        cfg = TrainConfig(learning_rate=0.02, epochs_per_stage=1, lr_step=3, seed=0)
        net, log = schedule(toy_cnn(0), tiny_dataset(), small_ranks(), cfg)
        assert log.to_text() == text
        path = tmp_path / "net.cpnet"
        save(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
