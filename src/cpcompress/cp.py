"""Greedy rank-R decomposition of 4-way convolution kernels.

A kernel of shape (out_channels, in_channels, D, D) is reshaped to a 3-way
tensor (in_channels, D*D, out_channels) -- the two spatial axes are fused,
they are small and not worth splitting -- and approximated as a sum of R
rank-1 terms.  Each term is found by a coordinate-descent power iteration
on the current residual, subtracted, and the next term fits what is left.
Earlier terms are never revisited, which keeps the procedure streaming and
makes the residual norm non-increasing in R.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .tensor import DenseTensor, _freeze, _frozen

__all__ = [
    "TpmConfig",
    "CpFactors",
    "decompose_kernel",
    "reconstruct",
    "residual_curve",
]

_INIT_POWER_ITERS = 5

# Rows of the (S, D*D, T) work tensor per slab of a sweep's reverse pass.
# At 64 rows a slab of a (192, 9, 192) tensor is 0.9 MB, well inside a
# 2 MiB L2.  On that tensor at R=64, slabs of 16 to 128 rows fitted within
# a few percent of each other, and one slab of all 192 rows (no reversal)
# about 15% slower.
_SLAB_ROWS = 64


@dataclass(frozen=True)
class TpmConfig:
    """Knobs for the rank-1 power fits.

    rank: number of rank-1 terms to extract.
    max_inner_iters: cap on coordinate-descent sweeps per term.  The default
        of 100 is set from the residual curve: on the 3x3 kernels of
        `benchmarks/workloads.py`'s mid-size CNN (R=32 and 64) and on a
        He-random (128,48,5,5) kernel at R=77, the final relative residual
        moved by at most +0.11% from cap 200 to cap 100 (seeds 0 and 3),
        and the fits took about 60% of the time.  Terms that meet ``tol``
        within 100 sweeps are unchanged; ``max_inner_iters=200`` gives back
        the factors of the earlier default bit for bit.
    tol: stop a fit once the scale changes by less than ``tol`` relatively.
    seed: seeds the random start vectors; same seed, same input ->
        bit-identical factors.

    The integer settings must be integers (``operator.index``), not booleans,
    and ``tol`` must be positive and finite; anything else is refused here
    rather than deep inside the fit.
    """

    rank: int
    max_inner_iters: int = 100
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("rank", "max_inner_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")


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


def _fit_rank1_array(
    target: np.ndarray,
    rng: np.random.Generator,
    max_iters: int,
    tol: float,
    history: list | None = None,
    unfolding: np.ndarray | None = None,
):
    """Best-effort rank-1 fit of a 3-way array by coordinate descent.

    With two mode vectors held fixed, the optimal third is the normalized
    contraction of the target with them, and the optimal scale is the
    contraction value itself, so each update step is exact least squares.
    The scale therefore never decreases from sweep to sweep.  Returns
    (a, b, c, scale) with unit vectors and scale >= 0; any sign lives in c.
    `unfolding`, if given, is an (n1, n0*n2) buffer that receives the
    mode-2 unfolding instead of a fresh array; only the start vector reads
    it, so the caller may reuse it once the fit returns.

    Each sweep reads the target twice, in snake order: ``target @ c`` runs
    over slabs of `_SLAB_ROWS` rows, last slab first, and ``a @ target``
    then runs forward over all rows, so each pass starts on the rows the
    one before it left in cache.  Each slab stays 3-D, so numpy makes the
    same (n1, n2) GEMV per row ``target[i]`` that one ``target @ c`` makes,
    and the factors are the same bit for bit whatever the slab size.
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

    flat = target.reshape(n0, -1)
    tc = np.empty((n0, n1))
    mode2 = np.empty(n1 * n2)
    mode2_t = mode2.reshape(n1, n2).T
    vc = np.empty(n2)
    slabs = [slice(lo, lo + _SLAB_ROWS) for lo in reversed(range(0, n0, _SLAB_ROWS))]
    scale = 0.0
    for _ in range(max_iters):
        for rows in slabs:
            np.matmul(target[rows], c, out=tc[rows])
        a = _unit(tc @ b)
        b = _unit(a @ tc)
        np.matmul(a, flat, out=mode2)
        np.matmul(mode2_t, b, out=vc)
        new_scale = _norm(vc)
        if new_scale == 0.0:
            scale = 0.0
            break
        c = vc / new_scale
        converged = abs(new_scale - scale) <= tol * new_scale
        scale = new_scale
        if history is not None:
            history.append(scale)
        if converged:
            break
    return a, b, c, scale


def _start(kernel: DenseTensor, terms: int, what: str) -> tuple:
    """(checked (T, S, D, D) kernel array, its (S, D*D, T) work copy) for a
    greedy run of `terms` terms; `what` names that count in the error when
    it exceeds the trivial bound."""
    arr = kernel.array
    if arr.ndim != 4:
        raise ValueError(f"kernel must be 4-way, got {arr.ndim}-way")
    if arr.shape[2] != arr.shape[3]:
        raise ValueError("kernel spatial extents must be square")
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel contains non-finite values")
    t, s, d, _ = arr.shape
    if terms > s * d * d * t:
        raise ValueError(f"{what} {terms} exceeds the trivial bound {s * d * d * t}")
    return arr, arr.transpose(1, 2, 3, 0).reshape(s, d * d, t).copy()


def _greedy_terms(work: np.ndarray, count: int, cfg: TpmConfig):
    """Yield rank-1 terms of `work`, deflating it in place after each.

    One scratch array of `work`'s size serves every term, first as the
    fit's mode-2 unfolding and then as the rank-1 term.  The deflation
    `work -= scale * (a x b x c)` runs its multiplies and subtraction in
    that order through it, so it rounds as the temporaries would.
    """
    rng = np.random.default_rng(cfg.seed)
    n0, n1, n2 = work.shape
    term = np.empty_like(work)
    unfolding = term.reshape(n1, n0 * n2)
    for _ in range(count):
        a, b, c, scale = _fit_rank1_array(
            work, rng, cfg.max_inner_iters, cfg.tol, unfolding=unfolding
        )
        if scale != 0.0:
            np.multiply(a[:, None, None] * b[None, :, None], c, out=term)
            np.multiply(scale, term, out=term)
            np.subtract(work, term, out=work)
        yield a, b, c, scale


def decompose_kernel(kernel: DenseTensor, cfg: TpmConfig) -> CpFactors:
    """Greedy rank-R decomposition of a (T, S, D, D) convolution kernel.

    The kernel is viewed as (S, D*D, T); R rank-1 terms are peeled off the
    residual one at a time.  The a-vectors become rows of u1, the b-vectors
    the (reshaped) spatial slices of u2, and scale * c the columns of u3.
    """
    arr, work = _start(kernel, cfg.rank, "rank")
    t, s, d, _ = arr.shape
    u1 = np.empty((cfg.rank, s))
    u2 = np.empty((cfg.rank, d, d))
    u3 = np.empty((t, cfg.rank))
    for r, (a, b, c, scale) in enumerate(_greedy_terms(work, cfg.rank, cfg)):
        u1[r] = a
        u2[r] = b.reshape(d, d)
        u3[:, r] = scale * c
    return CpFactors(_freeze(u1), _freeze(u2), _freeze(u3))


def reconstruct(factors: CpFactors) -> DenseTensor:
    """Expand factors back to a dense (T, S, D, D) kernel."""
    kernel = np.einsum("rs,rji,tr->tsji", factors.u1, factors.u2, factors.u3)
    return DenseTensor.from_array(kernel)


def residual_curve(kernel: DenseTensor, max_rank: int, cfg: TpmConfig) -> list:
    """Relative residual norm after 1..max_rank greedy terms.

    Entry r-1 is ||kernel - first r terms|| / ||kernel||.  A zero kernel
    yields an all-zero curve by convention.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    arr, work = _start(kernel, max_rank, "max_rank")
    total = float(np.linalg.norm(arr))
    if total == 0.0:
        return [0.0] * max_rank
    curve = []
    for _ in _greedy_terms(work, max_rank, cfg):
        curve.append(float(np.linalg.norm(work)) / total)
    return curve
