"""Dense tensor values: construction and immutability; the integer rule."""

import ast
from pathlib import Path

import numpy as np
import pytest

import cpcompress
from cpcompress.tensor import DenseTensor, _integer


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


class TestIntegerRule:
    @pytest.mark.parametrize("value, error", [
        (True, TypeError), (np.True_, TypeError), (2.0, TypeError), ("2", TypeError),
        (0, ValueError),
    ], ids=["true", "numpy-true", "2.0", "text", "below-floor"])
    def test_refused(self, value, error):
        with pytest.raises(error):
            _integer(value, "count", 1)

    def test_messages_name_the_value(self):
        with pytest.raises(TypeError, match="count must be an integer, not the boolean True"):
            _integer(True, "count", 1)
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            _integer(0, "count", 1)

    def test_numpy_integer_becomes_a_plain_int(self):
        value = _integer(np.int64(3), "count", 1)
        assert type(value) is int and value == 3
        assert _integer(-5, "count") == -5  # no floor

    def test_operator_index_is_called_only_in_tensor(self):
        # Every integer input goes through _integer, so no other module may
        # decide for itself what an integer is.
        callers = []
        for path in sorted(Path(cpcompress.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "operator" and any(
                    alias.name == "index" for alias in node.names
                ):
                    callers.append(f"{path.name}:{node.lineno}")
                if (
                    isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"
                ):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers and all(c.startswith("tensor.py:") for c in callers), callers
