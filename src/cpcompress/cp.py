"""Greedy rank-R decomposition of 4-way convolution kernels.

A kernel of shape (out_channels, in_channels, D, D) is reshaped to a 3-way
tensor (in_channels, D*D, out_channels) -- the two spatial axes are fused,
they are small and not worth splitting -- and approximated as a sum of R
rank-1 terms in one greedy loop, `decompose_kernel`.  Each term is found
by a coordinate-descent power iteration on the current residual and
subtracted, and the next term fits what is left.  Earlier terms are never
revisited, so the first r terms of a rank-R decomposition are the rank-r
decomposition, and the residual norm is non-increasing in R.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor, _freeze, _frozen, _set_integers

__all__ = [
    "TpmConfig",
    "CpFactors",
    "decompose_kernel",
    "reconstruct",
]

# How each rank-1 fit runs; `TpmConfig` says only what to decompose.
_INIT_POWER_ITERS = 5

# A fit stops once its scale moves by at most `_TOL` relatively, or after
# `_MAX_SWEEPS` sweeps.  The cap was 200: on the 3x3 kernels of
# `benchmarks/workloads.py`'s mid-size CNN (R=32 and 64) and on a He-random
# (128,48,5,5) kernel at R=77, the final relative residual moved by at most
# +0.11% from cap 200 to cap 100 (seeds 0 and 3), and the fits took about
# 60% of the time.  A cap of 200 gives back the earlier factors bit for bit.
_MAX_SWEEPS = 100
_TOL = 1e-8

# Rows of the (S, D*D, T) work tensor per slab of a sweep's reverse pass.
# Slabs pay only on a tensor that outgrows a 2 MiB L2 (one BLAS thread,
# x86-64, median of interleaved pairs): a He-random (384,256,3,3) kernel
# at R=12 took 0.50 s against 0.62 s in one slab (faster in 8 of 10), but
# the benchmark's (192,192,3,3) at R=64, whose float32 copy of 1.3 MB fits
# in L2, took 0.80 s against 0.82 s (faster in 4 of 8).
_SLAB_ROWS = 64

# Work tensors of at least this many elements are swept in float32 before
# the float64 sweeps (`_fit_rank1_array`).  In float64 such a tensor fills
# a 2 MiB L2, so each sweep streams it from memory, and float32 halves the
# bytes read: a sweep's two GEMV passes over a (192, 9, 192) tensor took
# 50 us in float32 against 139 us in float64 (one BLAS thread, x86-64).
# Of the benchmark's kernels only that one, conv4's, reaches the size;
# every toy kernel stays far below it and keeps the float64-only path.
# The float32 phase stops at `_F32_TOL` if `_TOL` is tighter: float32 rounds
# the scale to about 1e-7 relatively, so a tighter tolerance is out of reach.
_F32_MIN_SIZE = 2**18
_F32_TOL = 1e-6


@dataclass(frozen=True)
class TpmConfig:
    """What to decompose: the rank-1 fits themselves run at the module's
    constants (`_MAX_SWEEPS`, `_TOL`).

    rank: number of rank-1 terms to extract.
    seed: seeds the random start vectors; same seed, same input ->
        bit-identical factors.

    Both must be integers (``operator.index``), not booleans, with
    ``rank >= 1`` and ``seed >= 0``; anything else is refused here rather
    than deep inside the fit.
    """

    rank: int
    seed: int = 0

    def __post_init__(self):
        _set_integers(self, ("rank", "seed"))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class CpFactors:
    """The three factor tensors of a decomposed convolution kernel.

    u1: (R, S) input-channel mixing, rows unit-norm when freshly decomposed.
    u2: (R, D, D) spatial filters, each slice unit-norm when freshly decomposed.
    u3: (T, R) output-channel mixing; all scale lives in its columns.

    Norm conventions hold for the output of :func:`decompose_kernel`;
    fine-tuning afterwards updates the factors freely.
    """

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    def __post_init__(self):
        u1 = _frozen(self.u1)
        u2 = _frozen(self.u2)
        u3 = _frozen(self.u3)
        if u1.ndim != 2 or u2.ndim != 3 or u3.ndim != 2:
            raise ValueError("factor shapes must be (R,S), (R,D,D), (T,R)")
        if u2.shape[1] != u2.shape[2]:
            raise ValueError("spatial filters must be square")
        if not (u1.shape[0] == u2.shape[0] == u3.shape[1]):
            raise ValueError(
                f"rank mismatch across factors: {u1.shape[0]}, "
                f"{u2.shape[0]}, {u3.shape[1]}"
            )
        if u1.shape[0] < 1:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        object.__setattr__(self, "u3", u3)

    @property
    def rank(self) -> int:
        return self.u1.shape[0]

    @property
    def in_channels(self) -> int:
        return self.u1.shape[1]

    @property
    def out_channels(self) -> int:
        return self.u3.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.u2.shape[1]

    @property
    def param_count(self) -> int:
        return self.u1.size + self.u2.size + self.u3.size


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array: ``np.linalg.norm``'s own
    computation for one, without its dispatch."""
    return math.sqrt(v.dot(v))


def _unit(v: np.ndarray) -> np.ndarray:
    n = _norm(v)
    if n == 0.0:
        e = np.zeros_like(v)
        e[0] = 1.0
        return e
    return v / n


def _init_mode_vector(unfolding: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Approximate leading left singular direction of an unfolding.

    A few power iterations on U U^T from a seeded random start are enough;
    the sweeps below refine it anyway.
    """
    w = _unit(rng.standard_normal(unfolding.shape[0]))
    for _ in range(_INIT_POWER_ITERS):
        w = unfolding @ (unfolding.T @ w)
        n = _norm(w)
        if n == 0.0:
            return _unit(np.zeros(unfolding.shape[0]))
        w = w / n
    return w


def _sweeps(target, b, c, max_iters, tol, scale=0.0, history=None):
    """Up to `max_iters` coordinate-descent sweeps on `target`, computed in
    its dtype from the mode vectors `b` and `c`.

    With two mode vectors held fixed, the optimal third is the normalized
    contraction of the target with them, and the optimal scale is the
    contraction value itself, so each update step is exact least squares.
    The sweeps stop once the scale moves from the one before (at first,
    `scale`) by at most `tol` relatively, or once it is zero.  Returns
    (a, b, c, scale, sweeps run), the vectors in the target's dtype; at a
    zero scale, `c` is the last nonzero one.  `history`, if given, gets
    each nonzero scale.

    Each sweep reads the target twice, in snake order: ``target @ c`` runs
    over slabs of `_SLAB_ROWS` rows, last slab first, and ``a @ target``
    then runs forward over all rows, so each pass starts on the rows the
    one before it left in cache.  Each slab stays 3-D, so numpy makes the
    same (n1, n2) GEMV per row ``target[i]`` that one ``target @ c`` makes,
    and the factors are the same bit for bit whatever the slab size.
    """
    n0, n1, n2 = target.shape
    b = b.astype(target.dtype, copy=False)
    c = c.astype(target.dtype, copy=False)
    flat = target.reshape(n0, -1)
    tc = np.empty((n0, n1), target.dtype)
    mode2 = np.empty(n1 * n2, target.dtype)
    mode2_t = mode2.reshape(n1, n2).T
    vc = np.empty(n2, target.dtype)
    slabs = [slice(lo, lo + _SLAB_ROWS) for lo in reversed(range(0, n0, _SLAB_ROWS))]
    for sweep in range(1, max_iters + 1):
        for rows in slabs:
            np.matmul(target[rows], c, out=tc[rows])
        a = _unit(tc @ b)
        b = _unit(a @ tc)
        np.matmul(a, flat, out=mode2)
        np.matmul(mode2_t, b, out=vc)
        new_scale = _norm(vc)
        if new_scale == 0.0:
            return a, b, c, 0.0, sweep
        c = vc / new_scale
        converged = abs(new_scale - scale) <= tol * new_scale
        scale = new_scale
        if history is not None:
            history.append(scale)
        if converged:
            break
    return a, b, c, scale, sweep


def _fit_rank1_array(
    target: np.ndarray,
    rng: np.random.Generator,
    max_iters: int,
    tol: float,
    history: list | None = None,
    unfolding: np.ndarray | None = None,
):
    """Best-effort rank-1 fit of a 3-way float64 array by coordinate descent
    (`_sweeps`) to relative tolerance `tol` (`decompose_kernel` passes `_TOL`
    and `_MAX_SWEEPS`).  Returns (a, b, c, scale) as float64, with unit
    vectors and scale >= 0; any sign lives in c.

    A target of fewer than `_F32_MIN_SIZE` elements is fitted in float64
    alone, and its scale never decreases from sweep to sweep.  A larger one
    is first swept in float32, on a float32 copy held in `unfolding`'s
    memory, until its scale moves by at most ``max(tol, _F32_TOL)``
    relatively; the float64 sweeps then continue from the upcast vectors
    until `tol` or the cap, and only they keep the scale non-decreasing.
    `max_iters` caps the sweeps of both phases together.  If the float32
    phase takes them all, c and the scale come from one float64 contraction
    with its renormalised a and b.  `history`, if given, gets the scale of
    every sweep of either phase, so its length is the number of sweeps run.

    `unfolding`, if given, is an (n1, n0*n2) float64 buffer that receives
    the mode-2 unfolding for the start vector and then the float32 copy,
    instead of a fresh array; the caller may reuse it once the fit returns.
    """
    n0, n1, n2 = target.shape
    if not np.any(target):
        return _unit(np.zeros(n0)), _unit(np.zeros(n1)), _unit(np.zeros(n2)), 0.0

    # The first sweep computes a from b and c, so a needs no start vector;
    # its draw is still taken so that the random stream stays the same.
    rng.standard_normal(n0)
    if unfolding is None:
        unfolding = np.empty((n1, n0 * n2))
    np.copyto(unfolding.reshape(n1, n0, n2), np.moveaxis(target, 1, 0))
    b = _init_mode_vector(unfolding, rng)
    c = _init_mode_vector(np.moveaxis(target, 2, 0).reshape(n2, -1), rng)

    scale = 0.0
    if target.size >= _F32_MIN_SIZE:
        single = unfolding.reshape(-1).view(np.float32)[: target.size].reshape(target.shape)
        np.copyto(single, target, casting="same_kind")
        a, b, c, scale, used = _sweeps(single, b, c, max_iters, max(tol, _F32_TOL), history=history)
        a, b, c = (v.astype(np.float64) for v in (a, b, c))
        max_iters -= used
        if max_iters == 0:
            a, b = _unit(a), _unit(b)
            vc = (a @ target.reshape(n0, -1)).reshape(n1, n2).T @ b
            scale = _norm(vc)
            if scale != 0.0:
                c = vc / scale
            return a, b, c, scale
    a, b, c, scale, _ = _sweeps(target, b, c, max_iters, tol, scale, history)
    return a, b, c, scale


def decompose_kernel(kernel: DenseTensor, cfg: TpmConfig) -> CpFactors:
    """Greedy rank-R decomposition of a (T, S, D, D) convolution kernel.

    The kernel is viewed as an (S, D*D, T) work copy, and R rank-1 terms
    are peeled off it one at a time: each term is fitted to the current
    residual, then subtracted from the work copy in place.  The a-vectors
    become rows of u1, the b-vectors the (reshaped) spatial slices of u2,
    and scale * c the columns of u3.  Each fit stops at `_TOL` or after
    `_MAX_SWEEPS` sweeps.

    Terms never revisit earlier ones and the random start vectors are drawn
    term by term, so the first r terms of a rank-R run are the rank-r run
    bit for bit.  One scratch array of the work copy's size serves every
    term, first as the fit's mode-2 unfolding, then, for a work copy of at
    least `_F32_MIN_SIZE` elements, as the fit's float32 copy, and last as
    the rank-1 term.  The deflation ``work -= scale * (a x b x c)`` runs its
    multiplies and subtraction in that order through it, so it rounds as
    the temporaries would.  A zero residual gives zero u3 columns.

    The work copy is scaled by the power of two that brings its largest
    |entry| into [0.5, 1), and u3 gets the factor back.  Powers of two
    scale exactly, so the factors of an ordinary kernel are the unscaled
    run's bit for bit, while kernels with entries near the float64 range's
    ends neither overflow in the sweeps nor lose precision in float32.
    """
    arr = kernel.array
    if arr.ndim != 4:
        raise ValueError(f"kernel must be 4-way, got {arr.ndim}-way")
    if arr.shape[2] != arr.shape[3]:
        raise ValueError("kernel spatial extents must be square")
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel contains non-finite values")
    t, s, d, _ = arr.shape
    if cfg.rank > s * d * d * t:
        raise ValueError(f"rank {cfg.rank} exceeds the trivial bound {s * d * d * t}")
    work = arr.transpose(1, 2, 3, 0).reshape(s, d * d, t).copy()
    exponent = int(np.frexp(max(work.max(), -work.min()))[1])
    np.ldexp(work, -exponent, out=work)

    rng = np.random.default_rng(cfg.seed)
    term = np.empty_like(work)
    unfolding = term.reshape(d * d, s * t)
    u1 = np.empty((cfg.rank, s))
    u2 = np.empty((cfg.rank, d, d))
    u3 = np.empty((t, cfg.rank))
    for r in range(cfg.rank):
        a, b, c, scale = _fit_rank1_array(work, rng, _MAX_SWEEPS, _TOL, unfolding=unfolding)
        if scale != 0.0:
            np.multiply(a[:, None, None] * b[None, :, None], c, out=term)
            np.multiply(scale, term, out=term)
            np.subtract(work, term, out=work)
        u1[r] = a
        u2[r] = b.reshape(d, d)
        u3[:, r] = scale * c
    np.ldexp(u3, exponent, out=u3)
    return CpFactors(_freeze(u1), _freeze(u2), _freeze(u3))


def reconstruct(factors: CpFactors) -> DenseTensor:
    """Expand factors back to a dense (T, S, D, D) kernel."""
    kernel = np.einsum("rs,rji,tr->tsji", factors.u1, factors.u2, factors.u3)
    return DenseTensor.from_array(kernel)
