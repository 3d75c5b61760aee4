"""Truncated SVD for fully connected weight matrices.

A weight matrix W (out x in) is factorized as W = U diag(s) V^T and cut at
rank R; the singular values are folded into the left factor immediately, so
only two matrices (UD, V^T) survive.  Applying V^T then UD in sequence is
the two-layer replacement for the original matrix.

The factorization itself is a one-sided Jacobi orthogonalization of the
thinner side: deterministic, dependency-free, and accurate at the matrix
sizes this package handles.  A QR step first shrinks an m x n matrix
(m >= n) to its n x n triangle, and the rotations run on that triangle in
the Brent-Luk parallel ordering: each round rotates n/2 disjoint column
pairs in one batch of array operations.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import _freeze, _frozen

__all__ = ["SvdFactors", "truncated_svd", "singular_values"]

_JACOBI_TOL = 1e-13
_MAX_SWEEPS = 60


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


def _round_robin_order(n: int) -> np.ndarray:
    """Row permutation that advances a round-robin tournament by one round.

    Rows 2k and 2k+1 form pair k.  Row 0 stays put and the other n - 1
    rows move one seat round a circle, so n - 1 applications meet every
    pair of rows exactly once and then restore the original order.
    """
    # Seat i of the circle faces seat n-1-i; seat i is row seat_row[i].
    seat_row = np.empty(n, dtype=np.intp)
    seat_row[: n // 2] = np.arange(0, n, 2)
    seat_row[n // 2 :] = np.arange(n - 1, 0, -2)
    # The row at seat i >= 1 moves to seat i+1, and seat n-1 wraps to seat 1.
    next_seat = np.arange(n)
    next_seat[1:] = next_seat[1:] % (n - 1) + 1
    order = np.empty(n, dtype=np.intp)
    order[seat_row[next_seat]] = seat_row
    return order


def _jacobi_orthogonalize(a: np.ndarray):
    """Rotate column pairs of `a` (m >= n) until all are mutually orthogonal.

    Returns (a, v) with a = original @ v, columns of a orthogonal and v
    orthonormal.  A QR step first reduces `a` to its n x n triangle R
    (Drmac and Veselic 2008), so every rotation touches n entries, not m.
    The columns of R and of v are kept as the rows of one array [R^T | v^T].
    Each sweep runs n - 1 rounds of the Brent-Luk parallel ordering (Brent
    and Luk 1985); a round rotates n/2 disjoint pairs in one batch.  Each
    rotation zeroes one inner product exactly, and the sweeps converge
    quadratically.
    """
    q, r = np.linalg.qr(a)
    n = r.shape[1]
    # An odd n gets a zero row, which the zero-norm test never rotates.
    rows = n + n % 2
    work = np.zeros((rows, 2 * n))
    work[:n, :n] = r.T
    work[:n, n:] = np.eye(n)
    pairs = work.reshape(rows // 2, 2, 2 * n)
    order = _round_robin_order(rows)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for _ in range(rows - 1):
            x = pairs[:, 0, :n]
            y = pairs[:, 1, :n]
            alpha = np.einsum("ij,ij->i", x, x)
            beta = np.einsum("ij,ij->i", y, y)
            gamma = np.einsum("ij,ij->i", x, y)
            live = np.flatnonzero(
                (alpha != 0.0)
                & (beta != 0.0)
                & (np.abs(gamma) > _JACOBI_TOL * np.sqrt(alpha * beta))
            )
            if live.size:
                zeta = (beta[live] - alpha[live]) / (2.0 * gamma[live])
                t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                t[t == 0.0] = 1.0  # sign(0) is 0; rotate by 45 degrees instead
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                # (x, y) <- (c x - s y, s x + c y) for every live pair at once.
                rotation = np.stack((c, -s, s, c), axis=1).reshape(-1, 2, 2)
                pairs[live] = rotation @ pairs[live]
                rotated = True
            work = work[order]
            pairs = work.reshape(rows // 2, 2, 2 * n)
        if not rotated:
            # A full sweep has put every row back in its starting place.
            return q @ work[:n, :n].T, work[:n, n:].T
    raise ArithmeticError("Jacobi sweep limit reached without convergence")


def _full_svd(w: np.ndarray):
    """Full SVD (U, s, V^T) with s sorted descending, via one-sided Jacobi."""
    m, n = w.shape
    if m >= n:
        a, v = _jacobi_orthogonalize(w)
        norms = np.linalg.norm(a, axis=0)
        order = np.argsort(-norms, kind="stable")
        s = norms[order]
        u = a[:, order]
        nonzero = s > 0.0
        u[:, nonzero] = u[:, nonzero] / s[nonzero]
        return u, s, v[:, order].T
    # Work on the transpose so the thin side carries the rotations.
    u_t, s, vt_t = _full_svd(w.T)
    return vt_t.T, s, u_t.T


def singular_values(w) -> np.ndarray:
    """All singular values of `w`, non-increasing, all >= 0."""
    w = _as_matrix(w)
    _, s, _ = _full_svd(w)
    return s


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

    u, s, vt = _full_svd(arr)
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

