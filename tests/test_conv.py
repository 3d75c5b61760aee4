"""Convolution engine: direct pass, factorized pipeline, counters, pooling."""

import numpy as np
import pytest

from cpcompress.conv import (
    ConvSpec,
    MultiplyCounter,
    batch_conv,
    batch_conv_backward,
    batch_cp_conv,
    batch_cp_conv_backward,
    conv_forward,
    conv_forward_decomposed,
    fc_forward,
    max_pool,
)
from cpcompress.cp import CpFactors, reconstruct
from cpcompress.network import ReLU
from cpcompress.tensor import DenseTensor

from helpers import naive_conv, scatter_cp_conv_backward


def random_factors(rng, t, s, d, rank):
    return CpFactors(
        rng.standard_normal((rank, s)),
        rng.standard_normal((rank, d, d)),
        rng.standard_normal((t, rank)),
    )


class TestConvSpec:
    def test_output_extent(self):
        spec = ConvSpec(4, 2, 3, stride=2, padding=1)
        assert spec.output_extent(9) == 5

    def test_non_integral_extent_rejected(self):
        spec = ConvSpec(4, 2, 3, stride=2, padding=1)
        with pytest.raises(ValueError):
            spec.output_extent(8)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(4, 2, 2)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ValueError):
            ConvSpec(4, 3, 3, groups=2)


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = DenseTensor.from_array(rng.standard_normal((1, 4, 4)))
        k = DenseTensor.from_array(np.ones((1, 1, 1, 1)))
        out = conv_forward(x, k, ConvSpec(1, 1, 1))
        np.testing.assert_array_equal(out.array, x.array)

    def test_full_overlap_sum(self):
        x = DenseTensor.from_array(np.ones((1, 3, 3)))
        k = DenseTensor.from_array(np.ones((1, 1, 3, 3)))
        out = conv_forward(x, k, ConvSpec(1, 1, 3))
        assert out.array.shape == (1, 1, 1)
        assert out.array[0, 0, 0] == 9.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        expected = naive_conv(x, k, stride=2, pad=1)
        out = conv_forward(
            DenseTensor.from_array(x), DenseTensor.from_array(k),
            ConvSpec(3, 2, 3, stride=2, padding=1),
        )
        np.testing.assert_allclose(out.array, expected, atol=1e-12 * np.abs(expected).max())

    def test_grouped_matches_naive_per_group(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6, 6))
        k = rng.standard_normal((6, 2, 3, 3))
        out = conv_forward(
            DenseTensor.from_array(x), DenseTensor.from_array(k),
            ConvSpec(6, 4, 3, stride=1, padding=1, groups=2),
        )
        top = naive_conv(x[:2], k[:3], stride=1, pad=1)
        bottom = naive_conv(x[2:], k[3:], stride=1, pad=1)
        np.testing.assert_allclose(out.array, np.concatenate([top, bottom]), atol=1e-12)

    def test_scaling_by_two_is_bit_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 5))
        k = DenseTensor.from_array(rng.standard_normal((3, 2, 3, 3)))
        spec = ConvSpec(3, 2, 3, padding=1)
        once = conv_forward(DenseTensor.from_array(x), k, spec)
        doubled = conv_forward(DenseTensor.from_array(2.0 * x), k, spec)
        np.testing.assert_array_equal(doubled.array, 2.0 * once.array)

    def test_linearity_general_scale(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 5))
        k = DenseTensor.from_array(rng.standard_normal((3, 2, 3, 3)))
        spec = ConvSpec(3, 2, 3, padding=1)
        once = conv_forward(DenseTensor.from_array(x), k, spec)
        scaled = conv_forward(DenseTensor.from_array(0.3 * x), k, spec)
        np.testing.assert_allclose(scaled.array, 0.3 * once.array, rtol=1e-12, atol=1e-13)

    def test_kernel_shape_mismatch(self):
        x = DenseTensor.from_array(np.ones((2, 5, 5)))
        k = DenseTensor.from_array(np.ones((3, 2, 3, 3)))
        with pytest.raises(ValueError):
            conv_forward(x, k, ConvSpec(3, 2, 5))

    def test_multiply_counter(self):
        rng = np.random.default_rng(5)
        x = DenseTensor.from_array(rng.standard_normal((2, 5, 5)))
        k = DenseTensor.from_array(rng.standard_normal((3, 2, 3, 3)))
        counter = MultiplyCounter()
        conv_forward(x, k, ConvSpec(3, 2, 3, stride=2, padding=1), counter)
        assert counter.count == 3 * 2 * 9 * 3 * 3


class TestDecomposedPipeline:
    def test_single_channel_selector(self):
        # Rank-1 factors that pick channel 1 and apply a centered identity tap.
        x = np.zeros((2, 4, 4))
        x[1] = np.arange(16.0).reshape(4, 4)
        u1 = np.array([[0.0, 1.0]])
        u2 = np.zeros((1, 3, 3))
        u2[0, 1, 1] = 1.0
        u3 = np.array([[3.0]])
        out = conv_forward_decomposed(
            DenseTensor.from_array(x), CpFactors(u1, u2, u3),
            ConvSpec(1, 2, 3, stride=1, padding=1),
        )
        np.testing.assert_allclose(out.array[0], 3.0 * x[1], atol=1e-12)

    def test_equivalence_with_direct(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            s, t = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            d = int(rng.choice([1, 3, 5]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1, 2]))
            w = 11
            w -= (w + 2 * padding - d) % stride
            if w + 2 * padding < d:
                continue
            spec = ConvSpec(t, s, d, stride=stride, padding=padding)
            x = DenseTensor.from_array(rng.standard_normal((s, w, w)))
            factors = random_factors(rng, t, s, d, int(rng.integers(1, 7)))
            direct = conv_forward(x, reconstruct(factors), spec).array
            staged = conv_forward_decomposed(x, factors, spec).array
            scale = max(np.abs(direct).max(), 1e-30)
            assert np.abs(direct - staged).max() <= 1e-9 * scale

    def test_grouped_equivalence(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(6, 4, 3, stride=2, padding=1, groups=2)
        x = DenseTensor.from_array(rng.standard_normal((4, 9, 9)))
        factors = tuple(random_factors(rng, 3, 2, 3, 4) for _ in range(2))
        rebuilt = np.concatenate([reconstruct(f).array for f in factors])
        direct = conv_forward(x, DenseTensor.from_array(rebuilt), spec).array
        staged = conv_forward_decomposed(x, factors, spec).array
        assert np.abs(direct - staged).max() <= 1e-9 * np.abs(direct).max()

    def test_multiply_counter_matches_three_stage_formula(self):
        rng = np.random.default_rng(8)
        spec = ConvSpec(6, 4, 3, stride=2, padding=1)
        x = DenseTensor.from_array(rng.standard_normal((4, 9, 9)))
        factors = random_factors(rng, 6, 4, 3, 5)
        counter = MultiplyCounter()
        conv_forward_decomposed(x, factors, spec, counter)
        w = h = 9
        wout = hout = spec.output_extent(9)
        expected = 5 * 4 * w * h + 5 * 9 * wout * hout + 6 * 5 * wout * hout
        assert counter.count == expected

    def test_counter_grouped_sums_per_group(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(6, 4, 3, stride=1, padding=1, groups=2)
        x = DenseTensor.from_array(rng.standard_normal((4, 8, 8)))
        factors = tuple(random_factors(rng, 3, 2, 3, 4) for _ in range(2))
        counter = MultiplyCounter()
        conv_forward_decomposed(x, factors, spec, counter)
        per_group = 4 * 2 * 64 + 4 * 9 * 64 + 3 * 4 * 64
        assert counter.count == 2 * per_group

    def test_stage_extents(self):
        # Only the middle (spatial) stage consumes stride and padding: the
        # channel-mixing stages preserve extent, so the mixing terms in the
        # counter run at input and output resolution respectively.
        rng = np.random.default_rng(10)
        spec = ConvSpec(2, 3, 5, stride=2, padding=2)
        x = DenseTensor.from_array(rng.standard_normal((3, 7, 7)))
        factors = random_factors(rng, 2, 3, 5, 4)
        counter = MultiplyCounter()
        out = conv_forward_decomposed(x, factors, spec, counter)
        wout = spec.output_extent(7)
        assert out.array.shape == (2, wout, wout)
        assert counter.count == 4 * 3 * 49 + 4 * 25 * wout * wout + 2 * 4 * wout * wout

    def test_wrong_group_count_rejected(self):
        rng = np.random.default_rng(11)
        spec = ConvSpec(6, 4, 3, groups=2)
        x = DenseTensor.from_array(rng.standard_normal((4, 6, 6)))
        with pytest.raises(ValueError):
            conv_forward_decomposed(x, random_factors(rng, 6, 4, 3, 2), spec)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# Normwise relative tolerance of the factorized kernels against references
# that sum in another order: the banded products and the channels-last
# passes differ only in rounding, here well under 1e-14, so this leaves a
# few thousand float64 ulps of the largest value.
_REFERENCE_RTOL = 1e-12


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= _REFERENCE_RTOL * np.abs(want).max()


def _triples(rng, groups, t, s, d, rank):
    """(u1, u2, u3) per group, as the batched kernels take them."""
    return [(f.u1, f.u2, f.u3)
            for f in (random_factors(rng, t, s, d, rank) for _ in range(groups))]


class TestCpConvBackward:
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_scatter_and_direct_references(self, stride, padding, d, groups):
        # W != H, each rounded up to the least extent the geometry accepts;
        # with stride > d some input rows and columns get no gradient.
        rng = np.random.default_rng(100 * stride + 10 * padding + d + groups)
        spec = ConvSpec(4 * groups, 2 * groups, d, stride=stride, padding=padding,
                        groups=groups)
        w, h = (e + (d - 2 * padding - e) % stride for e in (7, 10))
        factors = _triples(rng, groups, 4, 2, d, 3)
        x = rng.standard_normal((3, 2 * groups, w, h))
        cache = {}
        y = batch_cp_conv(x, factors, spec, cache)
        dy = rng.standard_normal(y.shape)
        dx, dfactors = batch_cp_conv_backward(dy, factors, spec, cache)

        ref_dx, ref_dfactors = scatter_cp_conv_backward(x, dy, factors, spec)
        _assert_close(dx, ref_dx)
        for got, ref in zip(dfactors, ref_dfactors):
            for a, b in zip(got, ref):
                _assert_close(a, b)

        kernel = np.concatenate([reconstruct(CpFactors(*f)).array for f in factors])
        dense_cache = {}
        _assert_close(y, batch_conv(x, kernel, spec, dense_cache))
        _assert_close(dx, batch_conv_backward(dy, kernel, spec, dense_cache)[0])


class TestGroupedConv:
    # The group axis of batch_conv's product must give group gi input
    # channels [gi*S/g, (gi+1)*S/g) and output channels [gi*T/g, (gi+1)*T/g),
    # with the same bits as that group run alone through a groups=1 spec.
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("groups", [2, 3])
    def test_matches_per_group_runs_bit_for_bit(self, groups, stride, padding):
        rng = np.random.default_rng(10 * groups + 3 * stride + padding)
        s_g, t_g = 2, 3
        spec = ConvSpec(t_g * groups, s_g * groups, 3, stride=stride, padding=padding,
                        groups=groups)
        one = ConvSpec(t_g, s_g, 3, stride=stride, padding=padding)
        kernel = rng.standard_normal(spec.kernel_shape)
        x = rng.standard_normal((3, s_g * groups, 7, 9))
        cache = {}
        y = batch_conv(x, kernel, spec, cache)
        dy = rng.standard_normal(y.shape)
        dx, dw = batch_conv_backward(dy, kernel, spec, cache)

        parts = []
        for gi in range(groups):
            ins, outs = slice(gi * s_g, (gi + 1) * s_g), slice(gi * t_g, (gi + 1) * t_g)
            part_cache = {}
            y_g = batch_conv(x[:, ins], kernel[outs], one, part_cache)
            parts.append((y_g, *batch_conv_backward(dy[:, outs], kernel[outs], one,
                                                    part_cache)))
        assert np.array_equal(y, np.concatenate([p[0] for p in parts], axis=1))
        assert np.array_equal(dx, np.concatenate([p[1] for p in parts], axis=1))
        assert np.array_equal(dw, np.concatenate([p[2] for p in parts], axis=0))


class TestCpConvPerSample:
    # The depthwise stage's GEMMs run over the whole batch's rows; a sample's
    # output and input gradient must still come out the same bits at any
    # batch size, because the trainer slices uncached passes of per-sample
    # layers.
    @pytest.mark.parametrize("spec, rank, extent", [
        (ConvSpec(8, 3, 3, padding=1), 6, 16),
        (ConvSpec(16, 8, 3, padding=1), 18, 8),
        (ConvSpec(8, 4, 3, stride=2, padding=1, groups=2), 5, 9),
    ], ids=["toy-conv1", "toy-conv2", "stride2-groups2"])
    def test_batch_of_32_matches_batches_of_1_and_3(self, spec, rank, extent):
        rng = np.random.default_rng(12)
        g = spec.groups
        factors = _triples(rng, g, spec.out_channels // g, spec.in_channels // g,
                           spec.kernel_size, rank)
        x = rng.standard_normal((32, spec.in_channels, extent, extent))
        cache = {}
        y = batch_cp_conv(x, factors, spec, cache)
        dy = rng.standard_normal(y.shape)
        dx, _ = batch_cp_conv_backward(dy, factors, spec, cache)
        for size in (1, 3):
            for start in range(0, 32 - 32 % size, size):
                part = slice(start, start + size)
                part_cache = {}
                y_part = batch_cp_conv(x[part], factors, spec, part_cache)
                dx_part, _ = batch_cp_conv_backward(dy[part], factors, spec, part_cache)
                np.testing.assert_array_equal(_bits(y_part), _bits(y[part]))
                np.testing.assert_array_equal(_bits(dx_part), _bits(dx[part]))


class TestFcForward:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = fc_forward(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_hand_worked_orientation(self):
        # weights[m, n] connects input n to output m: y = W x.
        x = np.array([1.0, 2.0])
        w = np.array([[1.0, 1.0], [0.0, 3.0]])
        np.testing.assert_array_equal(fc_forward(x, w), [3.0, 6.0])

    def test_zero_input_returns_bias(self):
        bias = np.array([0.5, -1.5])
        out = fc_forward(np.zeros(3), np.zeros((2, 3)), bias)
        np.testing.assert_array_equal(out, bias)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fc_forward(np.ones(3), np.ones((2, 4)))

    def test_counter(self):
        counter = MultiplyCounter()
        fc_forward(np.ones(4), np.ones((3, 4)), counter=counter)
        assert counter.count == 12


class TestActivationsAndPooling:
    def test_relu(self):
        out = ReLU("relu").forward({}, np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]

    def test_max_pool_2x2(self):
        x = DenseTensor.from_array([[[1.0, 2.0], [3.0, 4.0]]])
        out = max_pool(x, window=2, stride=2)
        assert out.array.shape == (1, 1, 1)
        assert out.array[0, 0, 0] == 4.0

    def test_pool_of_constant_is_constant(self):
        x = DenseTensor.from_array(np.full((3, 6, 6), 2.5))
        out = max_pool(x, window=3, stride=2)
        np.testing.assert_array_equal(out.array, np.full((3, 2, 2), 2.5))

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            max_pool(DenseTensor.from_array(np.ones((1, 2, 2))), window=3, stride=1)
