"""Network model: ratios, counting, replacement, forward, serialization."""

import hashlib

import numpy as np
import pytest

from cpcompress import network
from cpcompress.conv import ConvSpec, MultiplyCounter
from cpcompress.cp import CpFactors
from cpcompress.data import make_synthetic_dataset
from cpcompress.network import (
    Conv,
    DecomposedConv,
    DecomposedFc,
    Fc,
    Flatten,
    MaxPool,
    ModelFormatError,
    NetworkSpec,
    ReLU,
    check_rank,
    count_params,
    decomposable_layers,
    decompose_layer,
    forward,
    load,
    replace_layer,
    save,
)
from cpcompress.presets import toy_cnn
from cpcompress.svd import SvdFactors
from cpcompress.train import _SLICE, TrainConfig, _forward, batch_outputs, finetune
from cpcompress.verify import corruption_suite, random_network, roundtrip_suite

from helpers import gradient_check_net, separated_cp_kernel


def small_net(rng):
    conv1 = ConvSpec(4, 2, 3, stride=1, padding=1)
    conv2 = ConvSpec(6, 4, 3, stride=1, padding=1)
    return NetworkSpec(
        (2, 8, 8),
        (
            Conv("conv1", conv1, rng.standard_normal(conv1.kernel_shape), rng.standard_normal(4)),
            ReLU("relu1"),
            MaxPool("pool1", window=2, stride=2),
            Conv("conv2", conv2, rng.standard_normal(conv2.kernel_shape), None),
            ReLU("relu2"),
            Flatten("flatten"),
            Fc("fc1", rng.standard_normal((5, 6 * 4 * 4)), rng.standard_normal(5)),
        ),
    )


def _conv_row(spec: ConvSpec, rank: int, extent: int):
    """count_params row of one ungrouped convolution factorized at `rank`,
    on a square input of side `extent`."""
    d = spec.kernel_size
    factors = CpFactors(np.zeros((rank, spec.in_channels)), np.zeros((rank, d, d)),
                        np.zeros((spec.out_channels, rank)))
    layer = DecomposedConv("conv", spec, factors)
    (row,) = count_params(NetworkSpec((spec.in_channels, extent, extent), (layer,))).rows
    return row


def _fc_row(m: int, n: int, rank: int):
    """count_params row of one m x n fully connected layer split at `rank`."""
    layer = DecomposedFc("fc", SvdFactors(np.zeros((m, rank)), np.zeros((rank, n))))
    (row,) = count_params(NetworkSpec((n,), (layer,))).rows
    return row


class TestRatios:
    """The closed forms E and C, as count_params reports them for one
    factorized layer."""

    def test_conv_weight_ratio(self):
        row = _conv_row(ConvSpec(64, 32, 3), rank=16, extent=8)
        assert row.param_ratio == pytest.approx(18432 / 1680, rel=1e-12)

    def test_conv_break_even(self):
        row = _conv_row(ConvSpec(3, 2, 1), rank=1, extent=4)
        assert row.param_ratio == 1.0
        assert row.mult_ratio == 1.0

    def test_first_layer_reference_dims(self):
        row = _conv_row(ConvSpec(96, 3, 11, stride=4), rank=69, extent=227)
        assert (row.original_params, row.compressed_params) == (34848, 15180)
        assert (row.original_mults, row.compressed_mults) == (105_415_200, 55_959_828)
        assert row.param_ratio == pytest.approx(34848 / 15180, rel=1e-12)
        assert row.mult_ratio == pytest.approx(105_415_200 / 55_959_828, rel=1e-12)

    def test_fc_ratio(self):
        assert _fc_row(1000, 1000, 100).param_ratio == pytest.approx(5.0, rel=1e-12)

    def test_fc_break_even(self):
        row = _fc_row(2, 2, 1)
        assert row.param_ratio == row.mult_ratio == 1.0

    def test_fc_reference_dims(self):
        row = _fc_row(4096, 4096, 275)
        assert row.param_ratio == pytest.approx(16_777_216 / 2_252_800, rel=1e-12)
        assert row.mult_ratio == row.param_ratio


class TestCountParams:
    def test_empty_network(self):
        report = count_params(NetworkSpec((3, 4, 4), ()))
        assert report.total_original_params == 0
        assert report.total_compressed_params == 0

    def test_plain_layers_count_their_sizes(self):
        rng = np.random.default_rng(0)
        net = small_net(rng)
        report = count_params(net)
        assert report.total_original_params == 4 * 2 * 9 + 6 * 4 * 9 + 5 * 96
        assert report.total_original_params == report.total_compressed_params

    def test_multiply_accounting_matches_instrumented_forward(self):
        rng = np.random.default_rng(1)
        net = small_net(rng)
        net = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 3, seed=0))
        net = replace_layer(net, "fc1", decompose_layer(net.layer("fc1"), 2, seed=0))
        report = count_params(net)
        counter = MultiplyCounter()
        forward(net, rng.standard_normal((2, 8, 8)), counter)
        assert counter.count == report.total_compressed_mults

    def test_analytic_equals_measured_for_decomposed_layers(self):
        rng = np.random.default_rng(2)
        net = small_net(rng)
        for name, rank in (("conv1", 3), ("conv2", 5), ("fc1", 2)):
            net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=1))
        report = count_params(net)
        rows = {r.name: r for r in report.rows}
        assert rows["conv1"].compressed_params == 3 * 2 + 3 * 9 + 4 * 3
        assert rows["conv2"].compressed_params == 5 * 4 + 5 * 9 + 6 * 5
        assert rows["fc1"].compressed_params == 5 * 2 + 2 * 96

    def test_six_layer_randomized_agreement(self):
        rng = np.random.default_rng(3)
        specs = [
            ("c1", ConvSpec(4, 3, 3, padding=1)),
            ("c2", ConvSpec(6, 4, 3, padding=1, groups=2)),
            ("c3", ConvSpec(6, 6, 3, padding=1)),
        ]
        layers = []
        channels = 3
        for name, spec in specs:
            layers.append(Conv(name, spec, rng.standard_normal(spec.kernel_shape), None))
            channels = spec.out_channels
        layers.append(Flatten("flatten"))
        layers.append(Fc("f1", rng.standard_normal((12, channels * 36)), None))
        layers.append(Fc("f2", rng.standard_normal((8, 12)), None))
        layers.append(Fc("f3", rng.standard_normal((5, 8)), None))
        net = NetworkSpec((3, 6, 6), tuple(layers))
        ranks = {"c1": 4, "c2": 6, "c3": 9, "f1": 5, "f2": 4, "f3": 3}
        for name, rank in ranks.items():
            net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=2))
        report = count_params(net)
        rows = {r.name: r for r in report.rows}
        for layer in net.layers:
            if isinstance(layer, DecomposedConv):
                s_g = layer.spec.in_channels // layer.spec.groups
                t_g = layer.spec.out_channels // layer.spec.groups
                d = layer.spec.kernel_size
                expected = sum(
                    f.rank * s_g + f.rank * d * d + t_g * f.rank for f in layer.factors
                )
                assert rows[layer.name].compressed_params == expected
            elif isinstance(layer, DecomposedFc):
                m, n, r = layer.out_features, layer.in_features, layer.rank
                assert rows[layer.name].compressed_params == m * r + r * n


class TestReplaceLayer:
    def test_stage_count_grows_by_two_for_conv(self):
        rng = np.random.default_rng(4)
        net = small_net(rng)
        before = sum(layer.stages for layer in net.layers)
        swapped = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 3, seed=0))
        assert sum(layer.stages for layer in swapped.layers) == before + 2
        assert len(swapped.layers) == len(net.layers)

    def test_stage_count_grows_by_one_for_fc(self):
        rng = np.random.default_rng(5)
        net = small_net(rng)
        before = sum(layer.stages for layer in net.layers)
        swapped = replace_layer(net, "fc1", decompose_layer(net.layer("fc1"), 2, seed=0))
        assert sum(layer.stages for layer in swapped.layers) == before + 1

    def test_other_layers_shared_bit_identical(self):
        rng = np.random.default_rng(6)
        net = small_net(rng)
        swapped = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 3, seed=0))
        for old, new in zip(net.layers, swapped.layers):
            if old.name != "conv2":
                assert old is new

    def test_input_not_mutated(self):
        rng = np.random.default_rng(7)
        net = small_net(rng)
        kernel_before = net.layer("conv2").weights.tobytes()
        replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 3, seed=0))
        assert isinstance(net.layer("conv2"), Conv)
        assert net.layer("conv2").weights.tobytes() == kernel_before

    def test_unknown_and_double_replacement_rejected(self):
        rng = np.random.default_rng(8)
        net = small_net(rng)
        factors = decompose_layer(net.layer("conv2"), 3, seed=0)
        with pytest.raises(ValueError):
            replace_layer(net, "nope", factors)
        swapped = replace_layer(net, "conv2", factors)
        with pytest.raises(ValueError):
            replace_layer(swapped, "conv2", factors)
        with pytest.raises(ValueError):
            replace_layer(net, "relu1", factors)

    def test_output_shift_bounded_by_kernel_residual(self):
        # Each output entry is an inner product of the kernel difference
        # with one input window, so the shift is at most the Frobenius
        # residual times the largest window norm.
        rng = np.random.default_rng(9)
        net = small_net(rng)
        x = rng.standard_normal((2, 8, 8))
        factors = decompose_layer(net.layer("conv2"), 4, seed=3)
        swapped = replace_layer(net, "conv2", factors)
        from cpcompress.cp import reconstruct

        residual = np.linalg.norm(
            net.layer("conv2").weights - reconstruct(factors[0]).array
        )
        before_conv2 = forward(
            NetworkSpec((2, 8, 8), net.layers[:3]), x
        )
        padded = np.pad(before_conv2, ((0, 0), (1, 1), (1, 1)))
        window_norms = []
        for wi in range(4):
            for hi in range(4):
                window_norms.append(np.linalg.norm(padded[:, wi : wi + 3, hi : hi + 3]))
        bound = residual * max(window_norms)
        y_old = forward(NetworkSpec((2, 8, 8), net.layers[:5]), x)
        y_new = forward(NetworkSpec((2, 8, 8), swapped.layers[:5]), x)
        assert np.max(np.abs(y_old - y_new)) <= bound * (1 + 1e-9)

    def test_exact_rank_replacement_preserves_outputs(self):
        rng = np.random.default_rng(10)
        kernel = separated_cp_kernel(6, 4, 3, rank=3, rng=rng)
        spec = ConvSpec(6, 4, 3, padding=1)
        net = NetworkSpec(
            (4, 6, 6),
            (
                Conv("conv", spec, kernel, rng.standard_normal(6)),
                Flatten("flatten"),
                Fc("fc", rng.standard_normal((4, 6 * 36)), None),
            ),
        )
        swapped = replace_layer(net, "conv", decompose_layer(net.layer("conv"), 3, seed=1))
        swapped = replace_layer(swapped, "fc", decompose_layer(net.layer("fc"), 4, seed=1))
        x = rng.standard_normal((4, 6, 6))
        y_old = forward(net, x)
        y_new = forward(swapped, x)
        assert np.max(np.abs(y_old - y_new)) <= 1e-6 * max(1.0, np.max(np.abs(y_old)))

    def test_decomposable_layers_ordering(self):
        rng = np.random.default_rng(11)
        net = small_net(rng)
        assert decomposable_layers(net) == ["conv1", "conv2", "fc1"]


class TestGroupedDecomposition:
    def test_rank_split_across_groups(self):
        rng = np.random.default_rng(12)
        spec = ConvSpec(6, 4, 3, groups=2)
        layer = Conv("g", spec, rng.standard_normal(spec.kernel_shape), None)
        factors = decompose_layer(layer, 5, seed=0)
        assert len(factors) == 2
        assert all(f.rank == 3 for f in factors)  # ceil(5 / 2)

    def test_ungrouped_kernel_is_not_copied(self, monkeypatch):
        # Only grouped kernels are sliced; an ungrouped layer's frozen
        # weights reach the fit as they are.
        seen = []
        real = network.decompose_kernel
        monkeypatch.setattr(
            network, "decompose_kernel",
            lambda kernel, cfg: seen.append(kernel.array) or real(kernel, cfg),
        )
        layer = toy_cnn(0).layer("conv2")
        layer.decompose(4, seed=0)
        assert len(seen) == 1 and seen[0] is layer.weights


def _grouped_net():
    """A two-group convolution, then an fc layer."""
    rng = np.random.default_rng(3)
    spec = ConvSpec(6, 4, 3, padding=1, groups=2)
    return NetworkSpec((4, 6, 6), (
        Conv("conv", spec, rng.standard_normal(spec.kernel_shape), rng.standard_normal(6)),
        ReLU("relu"),
        Flatten("flatten"),
        Fc("fc", rng.standard_normal((5, 6 * 36)), rng.standard_normal(5)),
    ))


# sha256 of the saved bytes of a network factorized with decompose_layer and
# replace_layer, one layer after another in the order given, the i-th layer
# with seed=i.  The factors come from TPM and the SVD, so any change to how a
# rank becomes factors (per-group ranks and seeds, the kernels themselves)
# shows here.  The grouped conv's odd rank 5 gives each group rank 3.  Recorded
# with numpy 2.4 on x86-64; a different BLAS may round differently.
_FACTORIZED_DIGESTS = {
    "toy": (toy_cnn, {"conv1": 6, "conv2": 18, "fc1": 12, "fc2": 5},
            "b1457db63b42a29c778a786988eef6c27fd07b40ab8979095c89439264835334"),
    "grouped": (_grouped_net, {"conv": 5, "fc": 3},
                "c644d836dc6eb36350067766070cc4ae83bdf6e6c914da679ac97e18dfa12a1d"),
}


class TestLayerFactorization:
    @pytest.mark.parametrize("which", sorted(_FACTORIZED_DIGESTS))
    def test_factorized_bytes_are_pinned(self, which, tmp_path):
        build, ranks, digest = _FACTORIZED_DIGESTS[which]
        net = build()
        for index, (name, rank) in enumerate(ranks.items()):
            net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=index))
        path = tmp_path / "model.cpnet"
        save(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_full_rank(self):
        net = toy_cnn(0)
        full = {layer.name: layer.full_rank for layer in net.layers if layer.rank_group}
        # conv: min(S*D*D, S*T, D*D*T) of its kernel; fc: min(M, N).
        assert full == {"conv1": 24, "conv2": 72, "fc1": 48, "fc2": 10}
        assert _grouped_net().layer("conv").full_rank == min(2 * 9, 2 * 6, 9 * 6)

    def test_decompose_layer_is_the_layer_member(self):
        net = _grouped_net()
        for name, rank in (("conv", 5), ("fc", 3)):
            layer = net.layer(name)
            via_function = decompose_layer(layer, rank, seed=4)
            via_member = layer.decompose(rank, seed=4)
            assert replace_layer(net, name, via_function) == NetworkSpec(
                net.input_shape,
                tuple(layer.factorized(via_member) if l is layer else l for l in net.layers),
            )

    def test_refusals_keep_their_messages(self):
        net = _grouped_net()
        with pytest.raises(ValueError, match="'relu' is not decomposable"):
            decompose_layer(net.layer("relu"), 2)
        with pytest.raises(ValueError, match="'relu' is not decomposable"):
            replace_layer(net, "relu", None)
        swapped = replace_layer(net, "fc", decompose_layer(net.layer("fc"), 3))
        with pytest.raises(ValueError, match="'fc' is already decomposed"):
            replace_layer(swapped, "fc", decompose_layer(net.layer("fc"), 3))
        with pytest.raises(ValueError, match="not decomposable"):
            decompose_layer(swapped.layer("fc"), 3)
        with pytest.raises(ValueError, match="fc replacement needs SvdFactors"):
            replace_layer(net, "fc", decompose_layer(net.layer("conv"), 2))
        with pytest.raises(ValueError, match="factor shape mismatch"):
            replace_layer(net, "fc", SvdFactors(np.ones((5, 1)), np.ones((1, 7))))

    @pytest.mark.parametrize(
        "kind, factors",
        [
            ("fc", (np.zeros((4, 1)), np.zeros((1, 3)))),
            ("fc", None),
            ("fc", CpFactors(np.zeros((1, 1)), np.zeros((1, 3, 3)), np.zeros((2, 1)))),
            ("conv", (np.zeros((1, 1)), np.zeros((1, 3, 3)))),
            ("conv", None),
            ("conv", SvdFactors(np.zeros((4, 1)), np.zeros((1, 3)))),
        ],
        ids=["fc-arrays", "fc-none", "fc-cp", "conv-arrays", "conv-none", "conv-svd"],
    )
    def test_factorized_kinds_refuse_wrong_factor_types(self, kind, factors):
        # The conv spec has two groups, so two plain arrays pass the count check.
        with pytest.raises(ValueError, match=f"^{kind}: "):
            if kind == "fc":
                DecomposedFc("fc", factors)
            else:
                DecomposedConv("conv", ConvSpec(4, 2, 3, padding=1, groups=2), factors)

    def test_rank_bounds_name_the_layer(self):
        net = _grouped_net()
        # conv: ceil(rank / 2) within each group's S_g*D^2*T_g = 2*9*3 = 54.
        bounds = {"conv": 108, "fc": 5}
        for name, bound in bounds.items():
            layer = net.layer(name)
            assert layer.max_rank == bound
            check_rank(layer, bound)
            layer.decompose(bound)
            for rank in (0, bound + 1):
                words = rf"layer '{name}': rank must be in \[1, {bound}\], got {rank}"
                with pytest.raises(ValueError, match=words):
                    check_rank(layer, rank)
                with pytest.raises(ValueError, match=words):
                    decompose_layer(layer, rank)


class TestIntegerFields:
    @pytest.mark.parametrize("make", [
        lambda: ConvSpec(4.0, 2, 3),
        lambda: ConvSpec(4, 2, 3, groups=1.0),
        lambda: MaxPool("pool", 2.0, 2),
        lambda: MaxPool("pool", 2, 1.5),
        lambda: NetworkSpec((2, 8.0, 8), ()),
    ], ids=["conv-channels", "conv-groups", "pool-window", "pool-stride", "input-shape"])
    def test_non_integers_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_numpy_integers_become_ints(self):
        spec = ConvSpec(np.int64(4), 2, np.int32(3), groups=np.int64(2))
        pool = MaxPool("pool", np.int64(2), np.int16(2))
        for value in (spec.out_channels, spec.kernel_size, spec.groups, pool.window, pool.stride):
            assert type(value) is int


class TestNetworkSpecValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                (3, 8, 8),
                (Conv("c", ConvSpec(4, 2, 3, padding=1), np.zeros((4, 2, 3, 3)), None),),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec((3, 8, 8), (ReLU("a"), ReLU("a")))

    def test_fc_needs_flat_input(self):
        with pytest.raises(ValueError):
            NetworkSpec((3, 8, 8), (Fc("fc", np.zeros((4, 192)), None),))


_LAYER_KINDS = [cls.kind for cls in (Conv, DecomposedConv, Fc, DecomposedFc, ReLU, MaxPool, Flatten)]


def _layer_of_kind(kind):
    """The first layer of `kind` in gradient_check_net and its input shape."""
    net = gradient_check_net(np.random.default_rng(40))
    in_shapes = [net.input_shape] + net.layer_shapes()[:-1]
    for layer, in_shape in zip(net.layers, in_shapes):
        if layer.kind == kind:
            return layer, in_shape
    raise AssertionError(f"gradient_check_net holds no {kind} layer")


class TestLayerMembers:
    """Each layer kind's own members: rebuilding, parameters, batched passes."""

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_build_from_fields_and_params_is_bit_identical(self, kind):
        layer, in_shape = _layer_of_kind(kind)
        params = layer.params()
        assert all(not arr.flags.writeable for arr in params.values())
        rebuilt = type(layer).build(layer.name, layer.fields(), params)
        assert type(rebuilt) is type(layer)
        assert NetworkSpec(in_shape, (rebuilt,)) == NetworkSpec(in_shape, (layer,))
        assert NetworkSpec(in_shape, (layer.with_params(params),)) == NetworkSpec(
            in_shape, (layer,)
        )

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_forward_reads_the_params_it_is_given(self, kind):
        layer, in_shape = _layer_of_kind(kind)
        rng = np.random.default_rng(41)
        shifted = {tag: arr + rng.standard_normal(arr.shape) for tag, arr in layer.params().items()}
        swapped = layer.with_params(shifted)
        assert list(swapped.params()) == list(shifted)
        for tag, arr in swapped.params().items():
            np.testing.assert_array_equal(arr, shifted[tag])
        x = rng.standard_normal((2,) + in_shape)
        np.testing.assert_array_equal(
            layer.forward(shifted, x), swapped.forward(swapped.params(), x)
        )

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_batched_forward_shape_and_multiplies(self, kind):
        layer, in_shape = _layer_of_kind(kind)
        batch = 3
        x = np.random.default_rng(42).standard_normal((batch,) + in_shape)
        counter = MultiplyCounter()
        y = layer.forward(layer.params(), x, None, counter)
        assert y.shape == (batch,) + layer.out_shape(in_shape)
        assert counter.count == batch * layer.counts(in_shape)[3]

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_backward_gradient_shapes(self, kind):
        layer, in_shape = _layer_of_kind(kind)
        rng = np.random.default_rng(43)
        params = layer.params()
        x = rng.standard_normal((2,) + in_shape)
        cache = {}
        y = layer.forward(params, x, cache)
        grads = {}
        dx = layer.backward(params, rng.standard_normal(y.shape), cache, grads)
        assert dx.shape == x.shape
        assert set(grads) == set(params)
        for tag, arr in params.items():
            assert grads[tag].shape == arr.shape

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_backward_without_input_gradient(self, kind):
        # A layer told to skip its input gradient computes the same parameter
        # gradients; a weighted kind returns None for the input gradient.
        layer, in_shape = _layer_of_kind(kind)
        rng = np.random.default_rng(46)
        params = layer.params()
        x = rng.standard_normal((2,) + in_shape)
        cache = {}
        dy = rng.standard_normal(layer.forward(params, x, cache).shape)
        full, skipped = {}, {}
        layer.backward(params, dy, cache, full)
        dx = layer.backward(params, dy, cache, skipped, input_grad=False)
        assert set(skipped) == set(full)
        for tag, grad in full.items():
            assert np.array_equal(skipped[tag], grad)
        if params:
            assert dx is None


def _sliced_nets():
    """Nets whose uncached passes run in slices up to their fc head: a
    convolution with two groups, stride 2 and padding 1, dense or
    factorized, each with and without a bias, then ReLU, MaxPool(3, 2) and
    Flatten."""
    rng = np.random.default_rng(44)
    spec = ConvSpec(6, 4, 3, stride=2, padding=1, groups=2)
    weights = rng.standard_normal(spec.kernel_shape)
    factors = tuple(
        CpFactors(rng.standard_normal((3, 2)), rng.standard_normal((3, 3, 3)),
                  rng.standard_normal((3, 3)))
        for _ in range(2)
    )
    bias = rng.standard_normal(6)
    head = Fc("fc", rng.standard_normal((5, 24)), rng.standard_normal(5))

    def net(conv):
        layers = (conv, ReLU("relu"), MaxPool("pool", 3, 2), Flatten("flat"), head)
        return NetworkSpec((4, 9, 9), layers)

    return [
        pytest.param(net(Conv("conv", spec, weights, bias)), id="conv-bias"),
        pytest.param(net(Conv("conv", spec, weights, None)), id="conv-no-bias"),
        pytest.param(net(DecomposedConv("conv", spec, factors, bias)), id="decomposed-bias"),
        pytest.param(net(DecomposedConv("conv", spec, factors, None)), id="decomposed-no-bias"),
    ]


class TestConvSlicing:
    @pytest.mark.parametrize("net", _sliced_nets())
    def test_uncached_network_pass_equals_the_cached_pass(self, net):
        # Three slices, the last one partial; a cached pass runs whole-batch.
        x = np.random.default_rng(45).standard_normal((2 * _SLICE + 3, 4, 9, 9))
        cached, _ = _forward(net, [layer.params() for layer in net.layers], x, True)
        assert np.array_equal(batch_outputs(net, x), cached)

    def test_evaluation_logits_equal_training_logits(self):
        # The trainer's cached pass runs every layer whole-batch; an
        # evaluation's logits over the 500 test images must match them bit
        # for bit, so only layers whose arithmetic is per sample may slice.
        net = toy_cnn(0)
        for index, (name, rank) in enumerate({"conv2": 18, "fc1": 12}.items()):
            net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=index))
        self._assert_logits_equal(net)

    def test_dense_evaluation_logits_equal_training_logits(self):
        # A dense fc1 heads the fc layers here, so streaming it would show.
        self._assert_logits_equal(toy_cnn(0))

    @staticmethod
    def _assert_logits_equal(net):
        x = make_synthetic_dataset(n_train=1, n_test=500, seed=0).test_x
        evaluated = batch_outputs(net, x)
        trained, _ = _forward(net, [layer.params() for layer in net.layers], x, True)
        assert np.array_equal(evaluated, trained)


def _array_slots():
    """One pytest.param(build, get, value) per array a layer holds: build(a)
    makes a layer holding `a` in that slot, get(layer) reads the slot back,
    and value is a fitting array."""
    spec = ConvSpec(4, 2, 3, padding=1)
    rng = np.random.default_rng(50)
    w = rng.standard_normal(spec.kernel_shape)
    b = rng.standard_normal(4)
    u1, u2, u3 = (rng.standard_normal(s) for s in ((3, 2), (3, 3, 3), (4, 3)))
    ud, vt = rng.standard_normal((5, 2)), rng.standard_normal((2, 6))
    fcw = rng.standard_normal((5, 6))
    slots = [
        ("conv.weights", lambda a: Conv("c", spec, a, b), lambda l: l.weights, w),
        ("conv.bias", lambda a: Conv("c", spec, w, a), lambda l: l.bias, b),
        ("fc.weights", lambda a: Fc("f", a), lambda l: l.weights, fcw),
        ("cp.u1", lambda a: DecomposedConv("c", spec, CpFactors(a, u2, u3)),
         lambda l: l.factors[0].u1, u1),
        ("cp.u2", lambda a: DecomposedConv("c", spec, CpFactors(u1, a, u3)),
         lambda l: l.factors[0].u2, u2),
        ("cp.u3", lambda a: DecomposedConv("c", spec, CpFactors(u1, u2, a)),
         lambda l: l.factors[0].u3, u3),
        ("svd.ud", lambda a: DecomposedFc("f", SvdFactors(a, vt)), lambda l: l.factors.ud, ud),
        ("svd.vt", lambda a: DecomposedFc("f", SvdFactors(ud, a)), lambda l: l.factors.vt, vt),
    ]
    return [pytest.param(*slot, id=name) for name, *slot in slots]


_each_slot = pytest.mark.parametrize("build, get, value", _array_slots())


class TestOwnership:
    """A layer adopts an array that is already frozen and copies any array
    its caller could still write through."""

    @_each_slot
    def test_frozen_owner_is_shared(self, build, get, value):
        src = value.copy()
        src.flags.writeable = False
        assert get(build(src)) is src

    @_each_slot
    def test_writeable_source_is_copied(self, build, get, value):
        src = value.copy()
        layer = build(src)
        src[...] = 7.0
        np.testing.assert_array_equal(get(layer), value)
        assert not np.shares_memory(get(layer), src)
        assert not get(layer).flags.writeable

    @_each_slot
    def test_read_only_view_of_writeable_base_is_copied(self, build, get, value):
        base = value.copy()
        view = base[...]
        view.flags.writeable = False
        layer = build(view)
        base[...] = 7.0
        np.testing.assert_array_equal(get(layer), value)
        assert not np.shares_memory(get(layer), base)

    @_each_slot
    @pytest.mark.parametrize("convert", ["float32", "fortran", "strided"])
    def test_other_layouts_are_converted(self, build, get, value, convert):
        if convert == "float32":
            src = value = value.astype(np.float32)
        elif convert == "fortran":
            src = np.asfortranarray(value)
        else:
            src = np.repeat(value, 2, axis=-1)[..., ::2]
        src.flags.writeable = False
        held = get(build(src))
        assert held.dtype == np.float64
        assert held.flags.c_contiguous and held.flags.owndata
        assert not held.flags.writeable
        np.testing.assert_array_equal(held, value)

    @pytest.mark.parametrize("kind", _LAYER_KINDS)
    def test_with_params_of_params_shares_every_array(self, kind):
        layer, _ = _layer_of_kind(kind)
        params = layer.params()
        rebuilt = layer.with_params(params).params()
        assert rebuilt.keys() == params.keys()
        for tag, arr in params.items():
            assert rebuilt[tag] is arr, tag

    def test_factorizing_yields_factors_a_layer_adopts(self):
        net = small_net(np.random.default_rng(51))
        for f in decompose_layer(net.layer("conv2"), 4, seed=0):
            again = CpFactors(f.u1, f.u2, f.u3)
            assert again.u1 is f.u1 and again.u2 is f.u2 and again.u3 is f.u3
        f = decompose_layer(net.layer("fc1"), 3, seed=0)
        again = SvdFactors(f.ud, f.vt)
        assert again.ud is f.ud and again.vt is f.vt

    def test_loaded_arrays_are_read_only_owners(self, tmp_path):
        path = tmp_path / "model.cpnet"
        save(random_network(np.random.default_rng(52)), path)
        for layer in load(path).layers:
            for arr in layer.params().values():
                assert arr.flags.owndata and not arr.flags.writeable

    def test_finetune_returns_fresh_frozen_arrays(self):
        data = make_synthetic_dataset(n_train=40, n_test=20, seed=0)
        rng = np.random.default_rng(53)
        w1 = rng.standard_normal((4, 3, 3, 3))
        b1 = np.zeros(4)
        w2 = rng.standard_normal((10, 4 * 16 * 16)) * 0.01
        shared = rng.standard_normal(10)
        shared.flags.writeable = False  # adopted by the net, then trained
        net = NetworkSpec((3, 16, 16), (
            Conv("conv", ConvSpec(4, 3, 3, padding=1), w1, b1),
            ReLU("relu"),
            Flatten("flatten"),
            Fc("fc", w2, shared),
        ))
        tuned, _ = finetune(net, data, TrainConfig(batch_size=20, seed=0), epochs=1)
        callers = [w1, b1, w2, shared] + [
            arr for layer in net.layers for arr in layer.params().values()
        ]
        for layer in tuned.layers:
            for arr in layer.params().values():
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, c) for c in callers)


# sha256 of save(random_network(default_rng(seed))).  Different bytes mean a
# different file format, which needs a new format version.  Seeds 0-3 hold
# every layer kind, with and without biases.
_PINNED_DIGESTS = {
    0: "acc23ef2ca77d4f3b0759bd55930a406927fdccc521e39182e0a2dbe7fb00c0b",
    1: "23f17c2471c05edf233d483c48de99aae33c13fbc1ad4250b55514b52552ddd6",
    2: "6b9eb63f84d664b607d887ee357026af1ddebf2263ec9b96912ce5872b888efb",
    3: "313610f6b3d2c6cbbf39759995f87a740ef456199d96f92710df8c9a98fc00f4",
}


class TestSerialization:
    @pytest.mark.parametrize("seed", sorted(_PINNED_DIGESTS))
    def test_file_bytes_are_pinned(self, seed, tmp_path):
        path = tmp_path / "model.cpnet"
        save(random_network(np.random.default_rng(seed)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_DIGESTS[seed]

    def test_roundtrips_bit_identical(self):
        failures = roundtrip_suite(trips=20, seed=0)
        assert failures == []

    def test_roundtrip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(13)
        net = small_net(rng)
        path = tmp_path / "model.cpnet"
        save(net, path)
        loaded = load(path)
        assert loaded == net
        x = rng.standard_normal((2, 8, 8))
        np.testing.assert_array_equal(forward(net, x), forward(loaded, x))

    def test_truncated_file_is_reported(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "model.cpnet"
        save(small_net(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError) as info:
            load(path)
        assert "offset" in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.cpnet"
        path.write_bytes(b"NOTAMODEL\n")
        with pytest.raises(ModelFormatError):
            load(path)

    def test_version_mismatch(self, tmp_path):
        rng = np.random.default_rng(15)
        path = tmp_path / "model.cpnet"
        save(small_net(rng), path)
        blob = path.read_bytes().replace(b"CPNET 1\n", b"CPNET 9\n", 1)
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError) as info:
            load(path)
        assert "version" in str(info.value)

    def test_unknown_layer_kind(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "model.cpnet"
        save(small_net(rng), path)
        blob = path.read_bytes()
        # Patch a kind inside the manifest and fix up the manifest checksum.
        import json
        import zlib

        header_end = blob.index(b"\n") + 1
        size_end = blob.index(b"\n", header_end) + 1
        length = int(blob[header_end:size_end].split()[0])
        manifest = json.loads(blob[size_end : size_end + length])
        manifest["layers"][0]["kind"] = "mystery"
        raw = json.dumps(manifest, indent=1).encode()
        rebuilt = (
            blob[:header_end]
            + b"%d %08x\n" % (len(raw), zlib.crc32(raw))
            + raw
            + blob[size_end + length :]
        )
        path.write_bytes(rebuilt)
        with pytest.raises(ModelFormatError) as info:
            load(path)
        assert "mystery" in str(info.value)
        assert "version" in str(info.value)

    def test_checksum_mismatch(self, tmp_path):
        rng = np.random.default_rng(17)
        path = tmp_path / "model.cpnet"
        save(small_net(rng), path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF  # damage the last weight payload
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as info:
            load(path)
        assert "checksum" in str(info.value)

    def test_corruption_never_crashes(self):
        assert corruption_suite(seed=1) == []

    def test_decomposed_layers_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        net = small_net(rng)
        net = replace_layer(net, "conv2", decompose_layer(net.layer("conv2"), 4, seed=0))
        net = replace_layer(net, "fc1", decompose_layer(net.layer("fc1"), 3, seed=0))
        path = tmp_path / "model.cpnet"
        save(net, path)
        assert load(path) == net
