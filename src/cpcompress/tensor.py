"""Dense N-way tensors: immutable, 64-bit, row-major values.

Kernel decomposition and the single-input convolution functions take and
return :class:`DenseTensor` values; layers keep their arrays read-only with
:func:`_frozen`.
"""

from math import prod

import numpy as np

__all__ = ["DenseTensor"]


def _frozen(array: np.ndarray) -> np.ndarray:
    """Own a C-ordered float64 copy and mark it read-only."""
    out = np.array(array, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


class DenseTensor:
    """Immutable dense N-way tensor of float64 values.

    Storage is a flat row-major buffer; the shape is fixed at construction
    and ``product(shape) == len(data)`` always holds.  Element access is
    bounds-checked; writes are rejected.
    """

    __slots__ = ("_array",)

    def __init__(self, shape, data):
        shape = tuple(int(s) for s in shape)
        if not shape:
            raise ValueError("tensor needs at least one mode")
        if any(s <= 0 for s in shape):
            raise ValueError(f"extents must be positive, got {shape}")
        flat = np.array(data, dtype=np.float64)
        if flat.ndim != 1:
            raise ValueError("data must be a flat (1-D) sequence of values")
        if flat.size != prod(shape):
            raise ValueError(
                f"shape {shape} needs {prod(shape)} values, got {flat.size}"
            )
        arr = flat.reshape(shape)
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def from_array(cls, array) -> "DenseTensor":
        """Build a tensor from any nested sequence or ndarray (copied)."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim == 0:
            raise ValueError("0-way arrays are not tensors here")
        t = cls.__new__(cls)
        t._array = _frozen(arr)
        return t

    @classmethod
    def zeros(cls, shape) -> "DenseTensor":
        shape = tuple(int(s) for s in shape)
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(f"invalid shape {shape}")
        t = cls.__new__(cls)
        arr = np.zeros(shape, dtype=np.float64)
        arr.flags.writeable = False
        t._array = arr
        return t

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values (read-only)."""
        return self._array.reshape(-1)

    @property
    def array(self) -> np.ndarray:
        """The underlying ndarray (read-only)."""
        return self._array

    def __getitem__(self, index) -> float:
        value = self._array[index]
        if np.ndim(value) != 0:
            raise IndexError("element access requires one index per mode")
        return float(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and (
            self._array.tobytes() == other._array.tobytes()
        )

    def __hash__(self):
        return hash((self.shape, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"

