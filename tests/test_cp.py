"""Greedy kernel decomposition: rank-1 fits, deflation, reconstruction."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from cpcompress import cp
from cpcompress.conv import ConvSpec
from cpcompress.cp import (
    CpFactors,
    TpmConfig,
    _fit_rank1_array,
    decompose_kernel,
    reconstruct,
)
from cpcompress.network import Conv
from cpcompress.tensor import DenseTensor

from helpers import first_terms, prefix_residuals, separated_cp_kernel, set_fit_limits


@pytest.fixture
def precise(monkeypatch):
    """Fits run to a relative tolerance of 1e-13, for up to 500 sweeps."""
    set_fit_limits(monkeypatch, 500, 1e-13)


def rel_err(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


def he_kernel(shape, seed):
    t, s, d, _ = shape
    return np.random.default_rng(seed).standard_normal(shape) * math.sqrt(2.0 / (s * d * d))


def factor_bytes(factors):
    return factors.u1.tobytes() + factors.u2.tobytes() + factors.u3.tobytes()


class TestTpmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TpmConfig(rank=0)

    def test_default_cap_is_100(self):
        assert (cp._MAX_SWEEPS, cp._TOL) == (100, 1e-8)

    def test_fields_are_rank_and_seed(self):
        # The sweep cap and tolerance are module constants, not settings.
        assert [f.name for f in dataclasses.fields(TpmConfig)] == ["rank", "seed"]
        with pytest.raises(TypeError):
            TpmConfig(rank=1, tol=1e-9)

    @pytest.mark.parametrize("name", ["rank", "seed"])
    def test_integer_settings_refuse_floats(self, name):
        with pytest.raises(TypeError):
            TpmConfig(**{"rank": 2, name: 2.0})

    @pytest.mark.parametrize("name", ["rank", "seed"])
    def test_integer_settings_refuse_booleans(self, name):
        with pytest.raises(TypeError):
            TpmConfig(**{"rank": 2, name: True})

    def test_integer_settings_become_ints(self):
        cfg = TpmConfig(rank=np.int64(3), seed=np.uint8(2))
        assert [type(v) for v in (cfg.rank, cfg.seed)] == [int] * 2

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError):
            TpmConfig(rank=1, seed=-1)


class TestSweepCap:
    """The default cap of 100 sweeps per term, against the earlier 200."""

    def test_converged_terms_unchanged_by_the_cap(self, monkeypatch):
        # Every term of this planted kernel meets tol well within 100 sweeps.
        kernel = DenseTensor.from_array(
            separated_cp_kernel(6, 5, 3, rank=4, rng=np.random.default_rng(8))
        )
        at_100 = decompose_kernel(kernel, TpmConfig(rank=4, seed=2))
        set_fit_limits(monkeypatch, 200)
        at_200 = decompose_kernel(kernel, TpmConfig(rank=4, seed=2))
        assert factor_bytes(at_100) == factor_bytes(at_200)

    def test_capped_residual_close_to_cap_200(self, monkeypatch):
        # Most of these terms run past 100 sweeps; stopping them there costs
        # little of the final residual.
        kernel = he_kernel((64, 64, 3, 3), 0)
        capped = decompose_kernel(DenseTensor.from_array(kernel), TpmConfig(rank=16, seed=0))
        set_fit_limits(monkeypatch, 200)
        longer = decompose_kernel(DenseTensor.from_array(kernel), TpmConfig(rank=16, seed=0))
        assert rel_err(reconstruct(capped).array, kernel) <= 1.005 * rel_err(
            reconstruct(longer).array, kernel
        )

    def test_conv_decompose_uses_the_default_cap(self):
        weights = he_kernel((12, 6, 3, 3), 4)
        layer = Conv("conv", ConvSpec(12, 6, 3, padding=1), weights, np.zeros(12))
        (factors,) = layer.decompose(5, seed=3)
        explicit = decompose_kernel(DenseTensor.from_array(weights), TpmConfig(rank=5, seed=3))
        assert factor_bytes(factors) == factor_bytes(explicit)

    @pytest.mark.parametrize(
        "shape, seed, rank, digest",
        [
            ((16, 8, 3, 3), 0, 6,
             "ef09fa2741e2c9cfc6f60e83d72f02467270c53a044ba53c2280803d7a1f72c3"),
            ((8, 4, 5, 5), 1, 5,
             "a5495daeb96df9a0f1f0a9218cfeeeb8fbeaf91aa38ad86b19d66ea800853cc2"),
            (None, None, 3,
             "864a8347bda4bc82ea79ad57834a257bd053c864fb962aa42c78ec21dd2f89bd"),
        ],
        ids=["he-3x3", "he-5x5", "zero-residual"],
    )
    def test_cap_200_factors_are_pinned(self, monkeypatch, shape, seed, rank, digest):
        # Factors at the earlier default cap, recorded before the deflation
        # moved into preallocated buffers (numpy 2.4, x86-64).  The last
        # kernel has one nonzero, so its residual is exactly zero after the
        # first term and the other two take the zero-target path.
        if shape is None:
            kernel = np.zeros((4, 3, 3, 3))
            kernel[2, 1, 0, 2] = 2.0
        else:
            kernel = he_kernel(shape, seed)
        set_fit_limits(monkeypatch, 200)
        factors = decompose_kernel(DenseTensor.from_array(kernel), TpmConfig(rank=rank, seed=0))
        assert hashlib.sha256(factor_bytes(factors)).hexdigest() == digest


class TestSnakeSweeps:
    """The reverse pass of each sweep runs over slabs of `_SLAB_ROWS` rows.

    The kernels pinned above have at most 8 input channels, one slab; the
    kernel here has S=150, which no tested slab size divides.
    """

    SHAPE = (64, 150, 3, 3)

    def test_factors_do_not_depend_on_the_slab_size(self, monkeypatch):
        kernel = DenseTensor.from_array(he_kernel(self.SHAPE, 0))
        cfg = TpmConfig(rank=3, seed=0)
        default = factor_bytes(decompose_kernel(kernel, cfg))
        for rows in (1, 7, 150, 256):
            monkeypatch.setattr(cp, "_SLAB_ROWS", rows)
            assert factor_bytes(decompose_kernel(kernel, cfg)) == default, rows

    def test_multi_slab_factors_are_pinned(self):
        # Recorded before the sweeps ran in slabs, when each sweep made one
        # `target @ c` over the whole tensor (numpy 2.4, x86-64).
        assert cp._SLAB_ROWS < self.SHAPE[1]
        kernel = DenseTensor.from_array(he_kernel(self.SHAPE, 0))
        factors = decompose_kernel(kernel, TpmConfig(rank=4, seed=0))
        assert hashlib.sha256(factor_bytes(factors)).hexdigest() == (
            "e9fa8c3d0fdf4ab672b7b12b29f4cc69a6f596f34b1abe9f849d77f12e2b1e19"
        )

    def test_scale_non_decreasing_across_slabs(self):
        t, s, d, _ = self.SHAPE
        rng = np.random.default_rng(7)
        for _ in range(3):
            target = rng.standard_normal((s, d * d, t))
            history = []
            _fit_rank1_array(target, rng, 200, 1e-10, history=history)
            assert len(history) > 1
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier * (1.0 - 1e-12)


class TestMixedPrecision:
    """Work tensors of at least `_F32_MIN_SIZE` elements are swept in float32
    first, then in float64.

    S=150 makes the snake sweeps run over several slabs, none of which a
    tested slab size divides evenly.
    """

    SHAPE = (200, 150, 3, 3)

    @staticmethod
    def kernel():
        return DenseTensor.from_array(he_kernel(TestMixedPrecision.SHAPE, 1))

    def test_shape_reaches_the_threshold(self):
        t, s, d, _ = self.SHAPE
        assert t * s * d * d >= cp._F32_MIN_SIZE

    def test_residual_close_to_the_float64_path(self, monkeypatch):
        cfg = TpmConfig(rank=4, seed=0)
        kernel = self.kernel()
        mixed = decompose_kernel(kernel, cfg)
        monkeypatch.setattr(cp, "_F32_MIN_SIZE", math.inf)
        double = decompose_kernel(kernel, cfg)
        assert factor_bytes(mixed) != factor_bytes(double)
        assert rel_err(reconstruct(mixed).array, kernel.array) <= 1.001 * rel_err(
            reconstruct(double).array, kernel.array
        )

    def test_repeated_runs_are_bit_identical(self):
        cfg = TpmConfig(rank=2, seed=5)
        kernel = self.kernel()
        assert factor_bytes(decompose_kernel(kernel, cfg)) == factor_bytes(
            decompose_kernel(kernel, cfg)
        )

    def test_factors_do_not_depend_on_the_slab_size(self, monkeypatch):
        kernel = self.kernel()
        cfg = TpmConfig(rank=2, seed=0)
        default = factor_bytes(decompose_kernel(kernel, cfg))
        for rows in (7, 150):
            monkeypatch.setattr(cp, "_SLAB_ROWS", rows)
            assert factor_bytes(decompose_kernel(kernel, cfg)) == default, rows

    def test_prefix_is_the_lower_rank_run(self):
        kernel = self.kernel()
        full = decompose_kernel(kernel, TpmConfig(rank=3, seed=2))
        lower = decompose_kernel(kernel, TpmConfig(rank=2, seed=2))
        assert factor_bytes(lower) == factor_bytes(first_terms(full, 2))

    @pytest.mark.usefixtures("precise")
    def test_planted_kernel_recovered(self):
        t, s, d, _ = self.SHAPE
        kernel = separated_cp_kernel(t, s, d, rank=3, rng=np.random.default_rng(4))
        cfg = TpmConfig(rank=3, seed=1)
        rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
        assert rel_err(rebuilt.array, kernel) <= 1e-8

    def test_cap_counts_both_phases(self):
        # Ten sweeps are too few for the float32 phase to settle, so it takes
        # them all; c and the scale then come from one float64 contraction.
        t, s, d, _ = self.SHAPE
        target = np.random.default_rng(3).standard_normal((s, d * d, t))
        history = []
        a, b, c, scale = _fit_rank1_array(
            target, np.random.default_rng(0), 10, 1e-8, history=history
        )
        assert len(history) == 10
        assert {v.dtype for v in (a, b, c)} == {np.dtype(np.float64)}
        for v in (a, b, c):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(np.einsum("ijk,i,j,k->", target, a, b, c), rel=1e-12)

    def test_factors_are_pinned(self):
        # Recorded when the float32 phase was added (numpy 2.4, x86-64).
        factors = decompose_kernel(self.kernel(), TpmConfig(rank=2, seed=0))
        assert hashlib.sha256(factor_bytes(factors)).hexdigest() == (
            "8918ca95d724c9cd782e9bcf2c8e923c09b246358a0acc97e80f20d306e7b750"
        )


class TestPowerOfTwoScaling:
    """`decompose_kernel` scales its work copy by a power of two."""

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_extreme_magnitudes_scale_exactly(self, exponent):
        kernel = he_kernel((16, 8, 3, 3), 0)
        cfg = TpmConfig(rank=6, seed=0)
        plain = decompose_kernel(DenseTensor.from_array(kernel), cfg)
        scaled = decompose_kernel(DenseTensor.from_array(np.ldexp(kernel, exponent)), cfg)
        assert scaled.u1.tobytes() == plain.u1.tobytes()
        assert scaled.u2.tobytes() == plain.u2.tobytes()
        assert scaled.u3.tobytes() == np.ldexp(plain.u3, exponent).tobytes()


class TestFitRank1:
    def test_exact_rank1_recovered(self):
        target = 2.0 * np.einsum("i,j,k->ijk", [1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
        a, b, c, scale = _fit_rank1_array(target, np.random.default_rng(3), 500, 1e-13)
        assert scale == pytest.approx(2.0, abs=1e-10)
        rebuilt = scale * np.einsum("i,j,k->ijk", a, b, c)
        np.testing.assert_allclose(rebuilt, target, atol=1e-10)

    def test_noisy_rank1_scale(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(4)
        b = rng.standard_normal(5)
        c = rng.standard_normal(3)
        clean = np.einsum("i,j,k->ijk", a, b, c)
        noisy = clean + 1e-9 * rng.standard_normal(clean.shape)
        *_, scale = _fit_rank1_array(noisy, np.random.default_rng(0), 500, 1e-13)
        expected = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        assert scale == pytest.approx(expected, abs=1e-6)

    def test_zero_target_gives_zero_scale(self):
        *vectors, scale = _fit_rank1_array(np.zeros((2, 3, 4)), np.random.default_rng(0), 50, 1e-6)
        assert scale == 0.0
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_objective_non_increasing_per_sweep(self):
        # The fitted scale is the inner product with the current rank-1
        # direction, and the squared objective is (norm^2 - scale^2), so a
        # non-decreasing scale history means a non-increasing objective.
        rng = np.random.default_rng(5)
        for _ in range(20):
            target = rng.standard_normal((4, 6, 3))
            history = []
            _fit_rank1_array(target, rng, 200, 1e-10, history=history)
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier * (1.0 - 1e-12)


class TestDecomposeKernel:
    @pytest.mark.usefixtures("precise")
    def test_exact_rank2_orthogonal_roundtrip(self):
        rng = np.random.default_rng(0)
        kernel = separated_cp_kernel(5, 4, 3, rank=2, rng=rng)
        cfg = TpmConfig(rank=2, seed=1)
        rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
        assert rel_err(rebuilt.array, kernel) <= 1e-8

    @pytest.mark.usefixtures("precise")
    def test_first_term_dominates(self):
        # Scales live in the output-mixing columns; greedy extraction takes
        # the largest component first on these seeded inputs.
        rng = np.random.default_rng(2)
        kernel = rng.standard_normal((4, 3, 3, 3))
        factors = decompose_kernel(
            DenseTensor.from_array(kernel), TpmConfig(rank=4, seed=0)
        )
        scales = np.linalg.norm(factors.u3, axis=0)
        assert scales[0] == max(scales)

    def test_factor_shapes_and_param_count(self):
        # First-layer geometry of the classic 5-conv architecture at rank 69.
        factors = CpFactors(np.zeros((69, 3)), np.zeros((69, 11, 11)), np.zeros((96, 69)))
        assert factors.param_count == 69 * 3 + 69 * 121 + 96 * 69 == 15180

    @pytest.mark.usefixtures("precise")
    def test_normalization_convention(self):
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal((4, 3, 3, 3))
        factors = decompose_kernel(
            DenseTensor.from_array(kernel), TpmConfig(rank=3, seed=0)
        )
        np.testing.assert_allclose(np.linalg.norm(factors.u1, axis=1), 1.0, atol=1e-12)
        flat = factors.u2.reshape(factors.rank, -1)
        np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-12)

    def test_rank_bound_enforced(self):
        kernel = DenseTensor.from_array(np.ones((2, 2, 1, 1)))
        with pytest.raises(ValueError):
            decompose_kernel(kernel, TpmConfig(rank=5))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            decompose_kernel(
                DenseTensor.from_array(np.ones((2, 2, 3, 1))), TpmConfig(rank=1)
            )

    def test_nan_rejected(self):
        bad = np.ones((2, 2, 3, 3))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            decompose_kernel(DenseTensor.from_array(bad), TpmConfig(rank=1))

    def test_needs_four_modes(self):
        with pytest.raises(ValueError):
            decompose_kernel(DenseTensor.from_array(np.ones((2, 2, 3))), TpmConfig(rank=1))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        kernel = DenseTensor.from_array(rng.standard_normal((4, 3, 3, 3)))
        cfg = TpmConfig(rank=5, seed=123)
        f1 = decompose_kernel(kernel, cfg)
        f2 = decompose_kernel(kernel, cfg)
        assert f1.u1.tobytes() == f2.u1.tobytes()
        assert f1.u2.tobytes() == f2.u2.tobytes()
        assert f1.u3.tobytes() == f2.u3.tobytes()


class TestReconstruct:
    def test_single_term_expansion(self):
        u1 = np.array([[1.0, 0.0]])
        u2 = np.zeros((1, 3, 3))
        u2[0, 0, 0] = 1.0
        u3 = np.array([[2.0], [0.0]])
        kernel = reconstruct(CpFactors(u1, u2, u3))
        expected = np.zeros((2, 2, 3, 3))
        expected[0, 0, 0, 0] = 2.0
        np.testing.assert_array_equal(kernel.array, expected)

    def test_zero_factors(self):
        kernel = reconstruct(CpFactors(np.zeros((2, 3)), np.zeros((2, 3, 3)), np.zeros((4, 2))))
        assert not np.any(kernel.array)

    def test_full_bound_roundtrip(self, monkeypatch):
        # At the trivial rank bound of the unfolding, greedy deflation
        # drives the residual of a random kernel below 1e-6 relative.
        rng = np.random.default_rng(0)
        kernel = rng.standard_normal((4, 3, 3, 3))
        bound = 3 * 9 * 4
        set_fit_limits(monkeypatch, 500, 1e-10)
        cfg = TpmConfig(rank=bound, seed=0)
        rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
        assert rel_err(rebuilt.array, kernel) <= 1e-6

    @pytest.mark.usefixtures("precise")
    def test_exact_low_rank_identity(self):
        # Inputs with exact, well-separated low CP rank round-trip at that rank.
        rng = np.random.default_rng(42)
        for rank in (1, 2, 3, 4):
            kernel = separated_cp_kernel(6, 5, 3, rank=rank, rng=rng)
            cfg = TpmConfig(rank=rank, seed=7)
            rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
            assert rel_err(rebuilt.array, kernel) <= 1e-8


class TestResidualCurve:
    """The residual after each of a decomposition's terms, read from its
    prefixes (`helpers.prefix_residuals`)."""

    @pytest.mark.parametrize(
        "shape, seed, rank",
        [((64, 48, 3, 3), 5, 8), ((64, 150, 3, 3), 0, 4)],
        ids=["he-64x48", "multi-slab"],
    )
    def test_prefix_is_the_lower_rank_run(self, shape, seed, rank):
        kernel = DenseTensor.from_array(he_kernel(shape, seed))
        full = decompose_kernel(kernel, TpmConfig(rank=rank, seed=seed))
        for r in range(1, rank):
            lower = decompose_kernel(kernel, TpmConfig(rank=r, seed=seed))
            assert factor_bytes(lower) == factor_bytes(first_terms(full, r)), r

    @pytest.mark.usefixtures("precise")
    def test_exact_rank1_first_entry(self):
        rng = np.random.default_rng(4)
        kernel = separated_cp_kernel(4, 3, 3, rank=1, rng=rng)
        factors = decompose_kernel(
            DenseTensor.from_array(kernel), TpmConfig(rank=2, seed=0)
        )
        assert prefix_residuals(kernel, factors)[0] <= 1e-8

    def test_non_increasing_on_random_kernels(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            kernel = rng.standard_normal((3, 3, 3, 3))
            factors = decompose_kernel(
                DenseTensor.from_array(kernel), TpmConfig(rank=8, seed=1)
            )
            curve = prefix_residuals(kernel, factors)
            for earlier, later in zip(curve, curve[1:]):
                assert later <= earlier

    def test_zero_kernel_convention(self):
        zero = DenseTensor.from_array(np.zeros((2, 2, 3, 3)))
        factors = decompose_kernel(zero, TpmConfig(rank=4))
        assert factors.u3.shape == (2, 4) and not np.any(factors.u3)
