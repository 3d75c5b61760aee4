"""Dense tensor values: construction and immutability."""

import numpy as np
import pytest

from cpcompress.tensor import DenseTensor


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class TestDenseTensor:
    def test_immutable(self):
        t = DenseTensor.from_array(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0

    def test_source_array_detached(self):
        src = np.ones((2, 2))
        t = DenseTensor.from_array(src)
        src[0, 0] = 99.0
        assert t.array[0, 0] == 1.0

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
