"""Memory: each weight array exists once, from the code that makes it to the
layer that owns it, an evaluation holds one slice of per-sample layer
intermediates at a time, and the dataset build holds little beyond the
arrays it returns.

The budgets are traced with ``tracemalloc``, which counts every numpy
allocation whether or not its pages are ever touched, so they do not depend
on the machine the way resident-set sizes do.  The AlexNet preset holds
about 465 MiB of float64 weights.
"""

import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import cpcompress
from cpcompress import network
from cpcompress.data import make_synthetic_dataset
from cpcompress.network import ModelFormatError, decompose_layer, load, replace_layer, save
from cpcompress.presets import alexnet, toy_cnn
from cpcompress.train import evaluate
from cpcompress.verify import random_network

MiB = 2**20


def traced_peak(fn, *args):
    """(fn(*args), the most memory traced at once during the call, in bytes,
    over what was traced before it)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before


def weight_bytes(net) -> int:
    return sum(arr.nbytes for layer in net.layers for arr in layer.params().values())


@pytest.fixture(scope="module")
def alexnet_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("alexnet") / "alexnet.cpnet"
    save(alexnet(), path)
    yield path
    path.unlink()


class TestAllocationBudget:
    def test_preset_holds_each_weight_once(self):
        net, peak = traced_peak(alexnet)
        assert peak <= 1.05 * weight_bytes(net)

    def test_load_holds_each_weight_once(self, alexnet_file):
        net, peak = traced_peak(load, alexnet_file)
        assert peak <= 1.05 * weight_bytes(net)

    def test_save_stages_no_blob(self, tmp_path):
        path = tmp_path / "alexnet.cpnet"
        _, peak = traced_peak(save, alexnet(), path)
        path.unlink()
        assert peak < 16 * MiB

    def test_cli_alexnet_report_stays_small(self, tmp_path):
        # Runs `python -m cpcompress decompose --arch alexnet --analytic-only`
        # and prints that process's own peak resident set, in KiB on Linux.
        # Linux carries a process's peak over into the program it execs, so
        # a small launcher starts it: spawned straight from this process, it
        # would report this process's peak.
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("ru_maxrss is in KiB on Linux only")
        launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        script = (
            "import resource, runpy, sys\n"
            "sys.argv = ['cpcompress', 'decompose', '--arch', 'alexnet', '--analytic-only']\n"
            "try:\n"
            "    runpy.run_module('cpcompress', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )
        src = str(Path(cpcompress.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", script],
            cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith("mult_ratio\t")
        max_rss_kib = int(done.stderr.split()[-1])
        assert max_rss_kib < 300 * 1024


class TestEvaluationTransient:
    @pytest.mark.parametrize("ranks", [{}, {"conv1": 6, "conv2": 18, "fc1": 12, "fc2": 5}],
                             ids=["dense", "factorized"])
    def test_evaluate_streams_convolutions(self, ranks):
        # A whole-batch conv1 pass over the 500 test images alone traces
        # over 40 MiB (its (500, 27, 256) patch matrix is 26 MiB).  Streaming
        # only the convolutions left 15.6 MiB, mostly whole-batch ReLU and
        # pool activations; streamed up to the fc layers, only the (500, 256)
        # flattened activation spans the batch.
        net = toy_cnn(0)
        for index, (name, rank) in enumerate(ranks.items()):
            net = replace_layer(net, name, decompose_layer(net.layer(name), rank, seed=index))
        data = make_synthetic_dataset(n_train=1, n_test=500, seed=0)
        _, peak = traced_peak(evaluate, net, data.test_x, data.test_y)
        assert peak < 6 * MiB


class TestDatasetBuild:
    def test_noise_has_no_whole_split_temporary(self):
        # One whole-split noise draw traced 1.6x the arrays returned.
        data, peak = traced_peak(make_synthetic_dataset, 2000, 500)
        arrays = (data.train_x, data.train_y, data.test_x, data.test_y)
        assert peak <= 1.1 * sum(arr.nbytes for arr in arrays)


class _ShortReads(io.BufferedReader):
    """A reader whose readinto fills only half of what it is asked for."""

    def readinto(self, buffer):
        flat = np.asarray(buffer).reshape(-1)
        return super().readinto(flat[: flat.size // 2])


class TestLoaderHardening:
    def test_declared_blob_is_not_allocated_before_the_bytes_check(self, tmp_path):
        # A consistent 128 MiB fc blob with 64 bytes behind it: the loader
        # must refuse before it makes the array.
        m, n = 4096, 4096
        manifest = {
            "format": "cpnet", "version": 1, "input_shape": [n],
            "layers": [{
                "name": "fc", "kind": "fc", "out_features": m, "in_features": n,
                "blobs": [{"tag": "weights", "shape": [m, n]}],
            }],
        }
        raw = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "hostile.cpnet"
        path.write_bytes(
            b"CPNET 1\n" + b"%d %08x\n" % (len(raw), zlib.crc32(raw)) + raw + b"\n"
            + struct.pack("<QI", 8 * m * n, 0) + bytes(64)
        )

        def refuse():
            with pytest.raises(ModelFormatError, match="truncated"):
                load(path)

        _, peak = traced_peak(refuse)
        assert peak < MiB

    def test_short_readinto_is_a_format_error(self, tmp_path, monkeypatch):
        path = tmp_path / "model.cpnet"
        save(random_network(np.random.default_rng(0)), path)
        monkeypatch.setattr(
            network, "open", lambda p, mode: _ShortReads(io.FileIO(p, "r")), raising=False
        )
        with pytest.raises(ModelFormatError, match="truncated"):
            load(path)
