"""Dense tensor values: construction, immutability and bitwise equality."""

import numpy as np
import pytest

from cpcompress.tensor import DenseTensor


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class TestDenseTensor:
    def test_shape_data_contract(self):
        t = DenseTensor((2, 3), [1, 2, 3, 4, 5, 6])
        assert t.shape == (2, 3)
        assert t.size == 6
        assert t[1, 2] == 6.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 3), [1, 2, 3])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 0), [])

    def test_immutable(self):
        t = DenseTensor.from_array(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_source_array_detached(self):
        src = np.ones((2, 2))
        t = DenseTensor.from_array(src)
        src[0, 0] = 99.0
        assert t[0, 0] == 1.0

    def test_bounds_checked(self):
        t = DenseTensor.from_array(np.ones((2, 2)))
        with pytest.raises(IndexError):
            t[2, 0]

    def test_equality_is_bitwise(self):
        a = DenseTensor.from_array([[1.0, 2.0]])
        b = DenseTensor.from_array([[1.0, 2.0]])
        c = DenseTensor.from_array([[1.0, 2.0 + 1e-16]])
        assert a == b
        assert a == c  # 2.0 + 1e-16 rounds to 2.0 in float64


    def test_frozen_owner_is_adopted(self):
        src = np.ones((2, 3))
        src.flags.writeable = False
        assert DenseTensor.from_array(src).array is src

    @pytest.mark.parametrize("src", [
        np.ones((2, 3)),
        _read_only(np.ones((2, 3), dtype=np.float32)),
        _read_only(np.ones((2, 3), order="F")),
        _read_only(np.ones((4, 3))[::2]),
    ], ids=["writeable", "float32", "fortran-order", "view"])
    def test_anything_else_is_copied_once(self, src):
        arr = DenseTensor.from_array(src).array
        assert not np.shares_memory(arr, src)
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.owndata
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, src)
