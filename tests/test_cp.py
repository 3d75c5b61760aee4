"""Greedy kernel decomposition: rank-1 fits, deflation, reconstruction."""

import numpy as np
import pytest

from cpcompress.cp import (
    CpFactors,
    TpmConfig,
    _fit_rank1_array,
    decompose_kernel,
    reconstruct,
    residual_curve,
)
from cpcompress.tensor import DenseTensor

from helpers import separated_cp_kernel

PRECISE = dict(max_inner_iters=500, tol=1e-13)


def rel_err(approx, exact):
    return np.linalg.norm(approx - exact) / np.linalg.norm(exact)


class TestTpmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TpmConfig(rank=0)
        with pytest.raises(ValueError):
            TpmConfig(rank=1, tol=0.0)
        with pytest.raises(ValueError):
            TpmConfig(rank=1, max_inner_iters=0)


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
    def test_exact_rank2_orthogonal_roundtrip(self):
        rng = np.random.default_rng(0)
        kernel = separated_cp_kernel(5, 4, 3, rank=2, rng=rng)
        cfg = TpmConfig(rank=2, seed=1, **PRECISE)
        rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
        assert rel_err(rebuilt.array, kernel) <= 1e-8

    def test_rank1_residual_definition(self):
        rng = np.random.default_rng(1)
        kernel = rng.standard_normal((3, 2, 3, 3))
        cfg = TpmConfig(rank=1, seed=4, **PRECISE)
        factors = decompose_kernel(DenseTensor.from_array(kernel), cfg)
        residual = np.linalg.norm(kernel - reconstruct(factors).array)
        curve = residual_curve(DenseTensor.from_array(kernel), 1, cfg)
        assert residual / np.linalg.norm(kernel) == pytest.approx(curve[0], rel=1e-9)

    def test_first_term_dominates(self):
        # Scales live in the output-mixing columns; greedy extraction takes
        # the largest component first on these seeded inputs.
        rng = np.random.default_rng(2)
        kernel = rng.standard_normal((4, 3, 3, 3))
        factors = decompose_kernel(
            DenseTensor.from_array(kernel), TpmConfig(rank=4, seed=0, **PRECISE)
        )
        scales = np.linalg.norm(factors.u3, axis=0)
        assert scales[0] == max(scales)

    def test_factor_shapes_and_param_count(self):
        # First-layer geometry of the classic 5-conv architecture at rank 69.
        factors = CpFactors(np.zeros((69, 3)), np.zeros((69, 11, 11)), np.zeros((96, 69)))
        assert factors.param_count == 69 * 3 + 69 * 121 + 96 * 69 == 15180

    def test_normalization_convention(self):
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal((4, 3, 3, 3))
        factors = decompose_kernel(
            DenseTensor.from_array(kernel), TpmConfig(rank=3, seed=0, **PRECISE)
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

    def test_full_bound_roundtrip(self):
        # At the trivial rank bound of the unfolding, greedy deflation
        # drives the residual of a random kernel below 1e-6 relative.
        rng = np.random.default_rng(0)
        kernel = rng.standard_normal((4, 3, 3, 3))
        bound = 3 * 9 * 4
        cfg = TpmConfig(rank=bound, seed=0, max_inner_iters=500, tol=1e-10)
        rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
        assert rel_err(rebuilt.array, kernel) <= 1e-6

    def test_exact_low_rank_identity(self):
        # Inputs with exact, well-separated low CP rank round-trip at that rank.
        rng = np.random.default_rng(42)
        for rank in (1, 2, 3, 4):
            kernel = separated_cp_kernel(6, 5, 3, rank=rank, rng=rng)
            cfg = TpmConfig(rank=rank, seed=7, **PRECISE)
            rebuilt = reconstruct(decompose_kernel(DenseTensor.from_array(kernel), cfg))
            assert rel_err(rebuilt.array, kernel) <= 1e-8


class TestResidualCurve:
    def test_exact_rank1_first_entry(self):
        rng = np.random.default_rng(4)
        kernel = separated_cp_kernel(4, 3, 3, rank=1, rng=rng)
        curve = residual_curve(
            DenseTensor.from_array(kernel), 2, TpmConfig(rank=2, seed=0, **PRECISE)
        )
        assert curve[0] <= 1e-8

    def test_non_increasing_on_random_kernels(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            kernel = DenseTensor.from_array(rng.standard_normal((3, 3, 3, 3)))
            curve = residual_curve(kernel, 8, TpmConfig(rank=8, seed=1))
            for earlier, later in zip(curve, curve[1:]):
                assert later <= earlier

    def test_zero_kernel_convention(self):
        zero = DenseTensor.from_array(np.zeros((2, 2, 3, 3)))
        curve = residual_curve(zero, 4, TpmConfig(rank=4))
        assert curve == [0.0, 0.0, 0.0, 0.0]

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            residual_curve(DenseTensor.from_array(np.zeros((2, 2, 1, 1))), 5, TpmConfig(rank=1))
