"""Truncated SVD: examples, Eckart-Young error, the Gram-matrix oracle."""

import numpy as np
import pytest

from cpcompress.svd import SvdFactors, truncated_svd

from helpers import gram_singular_values


def _singular_values(w):
    """All singular values of `w`: the column norms of the full-rank UD."""
    return np.linalg.norm(truncated_svd(w, min(np.shape(w))).ud, axis=0)


class TestTruncatedSvd:
    def test_diagonal_truncation(self):
        w = np.diag([3.0, 2.0, 1.0])
        factors = truncated_svd(w, 2)
        np.testing.assert_allclose(
            factors.ud @ factors.vt, np.diag([3.0, 2.0, 0.0]), atol=1e-12
        )
        err = np.linalg.norm(w - factors.ud @ factors.vt)
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_rank1_exact(self):
        rng = np.random.default_rng(0)
        w = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        factors = truncated_svd(w, 1)
        assert np.linalg.norm(w - factors.ud @ factors.vt) <= 1e-10 * np.linalg.norm(w)

    def test_full_rank_roundtrip_vs_oracle(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 15))
        factors = truncated_svd(w, 15)
        rel = np.linalg.norm(w - factors.ud @ factors.vt) / np.linalg.norm(w)
        assert rel <= 1e-9
        np.testing.assert_allclose(
            _singular_values(w), gram_singular_values(w), atol=1e-9 * np.linalg.norm(w)
        )

    def test_wide_matrix(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((8, 21))
        factors = truncated_svd(w, 8)
        rel = np.linalg.norm(w - factors.ud @ factors.vt) / np.linalg.norm(w)
        assert rel <= 1e-9

    def test_rank_out_of_range(self):
        w = np.ones((4, 3))
        with pytest.raises(ValueError):
            truncated_svd(w, 0)
        with pytest.raises(ValueError):
            truncated_svd(w, 4)

    def test_non_finite_rejected(self):
        w = np.ones((3, 3))
        w[1, 1] = np.inf
        with pytest.raises(ValueError):
            truncated_svd(w, 1)

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
            s = _singular_values(w)
            assert np.all(s >= 0.0)
            assert np.all(np.diff(s) <= 0.0)

    def test_truncation_error_formula(self):
        # || W - (UD)V^T ||_F matches the discarded singular values, with the
        # spectrum taken from the independent Gram-matrix oracle.
        rng = np.random.default_rng(4)
        for _ in range(10):
            m, n = int(rng.integers(3, 30)), int(rng.integers(3, 30))
            w = rng.standard_normal((m, n))
            rank = int(rng.integers(1, min(m, n) + 1))
            factors = truncated_svd(w, rank)
            measured = np.linalg.norm(w - factors.ud @ factors.vt)
            oracle = gram_singular_values(w)
            expected = np.sqrt(np.sum(oracle[rank:] ** 2))
            assert abs(measured - expected) <= 1e-8 * np.linalg.norm(w)


class TestThinSvd:
    """The thin SVD behind every factorization, on edge-case shapes."""

    @staticmethod
    def _assert_exact_factorization(w, factors):
        norm = max(np.linalg.norm(w), 1.0)
        assert np.linalg.norm(w - factors.ud @ factors.vt) <= 1e-12 * norm
        np.testing.assert_allclose(
            factors.vt @ factors.vt.T, np.eye(factors.rank), atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 16])
    def test_odd_and_even_widths(self, n):
        rng = np.random.default_rng(10 + n)
        for w in (rng.standard_normal((n + 5, n)), rng.standard_normal((n, n + 5))):
            self._assert_exact_factorization(w, truncated_svd(w, n))

    def test_single_column_and_row(self):
        col = np.array([[3.0], [0.0], [-4.0]])
        assert _singular_values(col) == pytest.approx([5.0], abs=1e-14)
        assert _singular_values(col.T) == pytest.approx([5.0], abs=1e-14)
        self._assert_exact_factorization(col, truncated_svd(col, 1))
        self._assert_exact_factorization(col.T, truncated_svd(col.T, 1))

    def test_zero_and_duplicated_columns(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((12, 7))
        w[:, 2] = 0.0
        w[:, 5] = w[:, 1]
        s = _singular_values(w)
        assert np.all(s[5:] <= 1e-13 * s[0])
        # Rank 5 is exact; the full rank keeps two null directions and must
        # still pass the orthonormality guard on the live left vectors.
        self._assert_exact_factorization(w, truncated_svd(w, 5))
        self._assert_exact_factorization(w, truncated_svd(w, 7))
        self._assert_exact_factorization(w.T, truncated_svd(w.T, 5))

    def test_zero_matrix(self):
        assert np.all(_singular_values(np.zeros((5, 3))) == 0.0)
        factors = truncated_svd(np.zeros((3, 6)), 2)
        assert np.all(factors.ud @ factors.vt == 0.0)

    @pytest.mark.parametrize("shape", [(40, 9), (9, 40), (17, 17)])
    def test_tall_wide_square(self, shape):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(shape)
        factors = truncated_svd(w, min(shape))
        self._assert_exact_factorization(w, factors)
        s = np.linalg.norm(factors.ud, axis=0)
        u = factors.ud / s
        np.testing.assert_allclose(u.T @ u, np.eye(min(shape)), atol=1e-12)

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((30, 21))
        before = w.copy()
        first = truncated_svd(w, 8)
        second = truncated_svd(w.copy(), 8)
        assert np.array_equal(w, before)
        assert np.array_equal(first.ud, second.ud)
        assert np.array_equal(first.vt, second.vt)

    def test_large_truncation_error_vs_gram_oracle(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((256, 1024))
        rank = 64
        factors = truncated_svd(w, rank)
        measured = np.linalg.norm(w - factors.ud @ factors.vt)
        expected = np.sqrt(np.sum(gram_singular_values(w)[rank:] ** 2))
        assert abs(measured - expected) <= 1e-8 * np.linalg.norm(w)


class TestSplitFc:
    def test_two_layer_application_matches_truncated_matrix(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((12, 9))
        factors = truncated_svd(w, 4)
        ud, vt = factors.ud, factors.vt
        truncated = ud @ vt
        for _ in range(10):
            x = rng.standard_normal(9)
            via_stages = ud @ (vt @ x)
            via_matrix = truncated @ x
            assert np.max(np.abs(via_stages - via_matrix)) <= 1e-9 * max(
                1.0, np.max(np.abs(via_matrix))
            )

    def test_identity_roundtrip(self):
        factors = truncated_svd(np.eye(4), 4)
        np.testing.assert_allclose(factors.ud @ factors.vt, np.eye(4), atol=1e-10)

    def test_parameter_arithmetic_square(self):
        factors = SvdFactors(np.zeros((1000, 100)), np.zeros((100, 1000)))
        assert factors.param_count == 200_000

    def test_parameter_arithmetic_wide_layer(self):
        # 9216 -> 4096 layer split at rank 365.
        factors = SvdFactors(np.zeros((4096, 365)), np.zeros((365, 9216)))
        assert factors.param_count == 9216 * 365 + 365 * 4096 == 4_858_880

    def test_factor_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SvdFactors(np.zeros((4, 3)), np.zeros((2, 5)))
