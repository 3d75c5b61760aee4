"""Truncated SVD for fully connected weight matrices.

A weight matrix W (out x in) is factorized as W = U diag(s) V^T and cut at
rank R; the singular values are folded into the left factor immediately, so
only two matrices (UD, V^T) survive.  Applying V^T then UD in sequence is
the two-layer replacement for the original matrix.

The factorization itself is LAPACK's thin SVD (`np.linalg.svd` with
`full_matrices=False`).
"""

from dataclasses import dataclass

import numpy as np

from .tensor import _freeze, _frozen

__all__ = ["SvdFactors", "truncated_svd"]


@dataclass(frozen=True)
class SvdFactors:
    """Rank-R pair (UD, V^T) with UD of shape (M, R) and V^T of shape (R, N)."""

    ud: np.ndarray
    vt: np.ndarray

    def __post_init__(self):
        ud = _frozen(self.ud)
        vt = _frozen(self.vt)
        if ud.ndim != 2 or vt.ndim != 2:
            raise ValueError("factors must be matrices")
        if ud.shape[1] != vt.shape[0]:
            raise ValueError(
                f"rank mismatch: ud has {ud.shape[1]} columns, vt has "
                f"{vt.shape[0]} rows"
            )
        if ud.shape[1] < 1:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "ud", ud)
        object.__setattr__(self, "vt", vt)

    @property
    def rank(self) -> int:
        return self.ud.shape[1]

    @property
    def out_features(self) -> int:
        return self.ud.shape[0]

    @property
    def in_features(self) -> int:
        return self.vt.shape[1]

    @property
    def param_count(self) -> int:
        return self.ud.size + self.vt.size


def _as_matrix(w) -> np.ndarray:
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got {arr.ndim}-D input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite values")
    return arr


def truncated_svd(w, rank: int) -> SvdFactors:
    """Best rank-R approximation factors of `w` (Eckart-Young optimal).

    The reconstruction ud @ vt keeps the top R singular triplets; the
    dropped error is sqrt(sum of discarded squared singular values).
    """
    arr = _as_matrix(w)
    m, n = arr.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {rank}")

    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    # Left vectors for meaningful singular values must come out orthonormal;
    # anything below the noise floor contributes nothing to ud anyway.
    if s[0] > 0.0:
        live = s > 1e-12 * s[0]
        gram = u[:, live].T @ u[:, live]
        if not np.allclose(gram, np.eye(int(live.sum())), atol=1e-8):
            raise ArithmeticError("left singular vectors lost orthonormality")

    # Both factors are fresh C-ordered arrays, which SvdFactors adopts.
    ud = np.multiply(u[:, :rank], s[:rank], order="C")
    return SvdFactors(_freeze(ud), _freeze(vt[:rank].copy()))

