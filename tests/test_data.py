"""Built-in synthetic task: determinism, balance, separability."""

import hashlib

import numpy as np
import pytest

from cpcompress.data import make_synthetic_dataset

# sha256 over train_x, train_y, test_x, test_y, recorded when the noise was
# one whole-split draw.  203 and 77 are not multiples of the noise block.
_PINNED_DIGESTS = {
    (0, 2000, 500): "bf7a5724b9019b18b42d67818a768817400a2ffb81b7acfd44e79d4f0f28f643",
    (0, 203, 77): "87ae7493707186da5431896a210cb9049914f73d8e28df59ee6301fdadd7011e",
    (1, 2000, 500): "93d27351325065ecd9971da130647dc423191a9b67744fab5c8b4a09b33ba243",
    (1, 203, 77): "24f606dd3f67d8a990a005c70140774c8028c793a773ce43907b953aa6c18534",
}


class TestSyntheticDataset:
    def test_shapes_and_types(self):
        data = make_synthetic_dataset(n_train=60, n_test=30, seed=0)
        assert data.train_x.shape == (60, 3, 16, 16)
        assert data.test_x.shape == (30, 3, 16, 16)
        assert data.train_y.dtype == np.int64
        assert data.n_classes == 10

    def test_seed_reproducibility(self):
        a = make_synthetic_dataset(n_train=50, n_test=20, seed=3)
        b = make_synthetic_dataset(n_train=50, n_test=20, seed=3)
        assert a.train_x.tobytes() == b.train_x.tobytes()
        assert a.train_y.tobytes() == b.train_y.tobytes()
        assert a.test_x.tobytes() == b.test_x.tobytes()

    def test_different_seeds_differ(self):
        a = make_synthetic_dataset(n_train=50, n_test=20, seed=3)
        b = make_synthetic_dataset(n_train=50, n_test=20, seed=4)
        assert a.train_x.tobytes() != b.train_x.tobytes()

    def test_classes_balanced(self):
        data = make_synthetic_dataset(n_train=200, n_test=100, seed=1)
        counts = np.bincount(data.train_y, minlength=10)
        assert counts.tolist() == [20] * 10

    def test_class_templates_distinguishable(self):
        # With the noise off, nearest-template classification is perfect,
        # so the classes are geometrically separated by construction.
        data = make_synthetic_dataset(n_train=100, n_test=50, noise=0.0, seed=2)
        flat = data.train_x.reshape(100, -1)
        # Normalize out the per-sample amplitude jitter.
        flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        hits = 0
        for i in range(100):
            sims = flat @ flat[i]
            sims[i] = -np.inf
            hits += data.train_y[np.argmax(sims)] == data.train_y[i]
        assert hits >= 95  # phase jitter leaves a little slack

    @pytest.mark.parametrize("seed, n_train, n_test", sorted(_PINNED_DIGESTS))
    def test_pinned_digest(self, seed, n_train, n_test):
        data = make_synthetic_dataset(n_train=n_train, n_test=n_test, seed=seed)
        digest = hashlib.sha256()
        for arr in (data.train_x, data.train_y, data.test_x, data.test_y):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == _PINNED_DIGESTS[(seed, n_train, n_test)]
