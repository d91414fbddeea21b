"""Counter-based random numbers: key words and key refusals."""

import numpy as np
import pytest

from centralspin._rng import counter_hash, counter_uniform


@pytest.mark.parametrize("key", [0, 1, 12345, 2 ** 32, 2 ** 62, 2 ** 63 - 1])
def test_uint64_keys_below_two_to_the_63_equal_their_int64_view(key):
    # an unsigned key is the same 64-bit word as the signed key of that value
    keys = np.array([key, key // 3], dtype=np.uint64)
    want = counter_hash(7, keys.astype(np.int64), 5)
    assert (counter_hash(7, keys, 5) == want).all()
    assert (counter_uniform(7, keys, np.uint64(5))
            == counter_uniform(7, keys.astype(np.int64), 5)).all()


@pytest.mark.parametrize("key, dtype", [
    (np.array([1.5]), "float64"), (np.array([2.0], dtype=np.float32), "float32"),
    (1.0, "float64"), (np.array([True]), "bool"), (np.array([1 + 0j]), "complex128"),
])
def test_non_integer_keys_are_refused(key, dtype):
    with pytest.raises(TypeError,
                       match=f"^counter keys must be integers, got dtype {dtype}$"):
        counter_hash(1, 3, key)
