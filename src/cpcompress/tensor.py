"""Dense N-way tensors: immutable, 64-bit, row-major values.

Kernel decomposition and the single-input convolution functions take and
return :class:`DenseTensor` values; layers keep their arrays read-only with
:func:`_frozen`, which adopts an array that is already frozen and copies
anything else once.
"""

import operator

import numpy as np

__all__ = ["DenseTensor"]


def _frozen(array) -> np.ndarray:
    """`array` as a read-only, C-ordered float64 array: copied unless already
    frozen, that is unless it is such an array and owns its data.

    Only an owner is adopted, because a read-only view may sit on a writeable
    base the caller still holds.  A producer hands over a fresh array with
    :func:`_freeze` and keeps no writeable view of it.
    """
    if (
        type(array) is np.ndarray
        and array.dtype == np.float64
        and array.flags.c_contiguous
        and array.flags.owndata
        and not array.flags.writeable
    ):
        return array
    return _freeze(np.array(array, dtype=np.float64, order="C"))


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a freshly made array read-only in place, so :func:`_frozen` adopts
    it instead of copying it."""
    array.flags.writeable = False
    return array


def _set_integers(config, names) -> None:
    """Replace each named field of the frozen dataclass `config` by its value
    as an int.  ``operator.index`` refuses floats and strings instead of
    truncating them; booleans, which it takes as 0 and 1, are refused too."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, operator.index(value))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two frozen arrays hold the same shape and bit patterns; compared
    as 64-bit integers in place, so -0.0 differs from 0.0 and a NaN equals
    itself."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class DenseTensor:
    """Immutable dense N-way tensor of float64 values: a read-only ndarray
    that :func:`cp.decompose_kernel` takes and :func:`cp.reconstruct` and
    the single-input layer functions return."""

    __slots__ = ("_array",)

    @classmethod
    def from_array(cls, array) -> "DenseTensor":
        """Build a tensor from any nested sequence or ndarray (copied unless
        already frozen, see :func:`_frozen`)."""
        arr = _frozen(array)
        if arr.ndim == 0:
            raise ValueError("0-way arrays are not tensors here")
        t = cls.__new__(cls)
        t._array = arr
        return t

    @property
    def array(self) -> np.ndarray:
        """The underlying ndarray (read-only)."""
        return self._array

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self._array.shape})"
