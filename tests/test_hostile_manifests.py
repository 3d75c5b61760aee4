"""Well-formed but hostile model files: every load either succeeds or raises
ModelFormatError.

Random byte damage is caught by the checksums (see the corruption suite).
These files instead carry valid checksums over manifests whose values are
wrong: huge, negative or non-integer shapes, wrong types, missing keys.
Every file stays small; a declared size is never backed by real bytes.
"""

import json
import struct
import zlib
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcompress.network import (
    _FINITE_CHUNK,
    DecomposedFc,
    Fc,
    ModelFormatError,
    NetworkSpec,
    count_params,
    forward,
    load,
    save,
)
from cpcompress.presets import toy_cnn
from cpcompress.svd import SvdFactors
from cpcompress.verify import random_network

_MAX_BLOB_VALUES = 4096


def _parts(raw: bytes):
    """(header line, manifest, [blob payloads]) of a saved model file."""
    header_end = raw.index(b"\n") + 1
    size_end = raw.index(b"\n", header_end) + 1
    length = int(raw[header_end:size_end].split()[0])
    manifest = json.loads(raw[size_end : size_end + length])
    pos = size_end + length + 1
    payloads = []
    while pos < len(raw):
        (n,) = struct.unpack("<Q", raw[pos : pos + 8])
        payloads.append(raw[pos + 12 : pos + 12 + n])
        pos += 12 + n
    return raw[:header_end], manifest, payloads


def _blob_shapes(manifest):
    """Declared blob shapes in file order, as far as the manifest has any."""
    try:
        return [spec["shape"] for entry in manifest["layers"] for spec in entry["blobs"]]
    except (KeyError, TypeError):
        return None


def _assemble(header, manifest, payloads, path):
    """Write a file with a valid manifest checksum and one blob record per
    declared shape: the original payload if it fits the shape, zeros if the
    shape is small, else a length that wraps modulo 2**64 and no payload."""
    raw = json.dumps(manifest).encode("utf-8")
    out = [header, b"%d %08x\n" % (len(raw), zlib.crc32(raw)), raw, b"\n"]
    shapes = _blob_shapes(manifest)
    if shapes is None:
        records = [(len(p), p) for p in payloads]
    else:
        records = []
        for i, shape in enumerate(shapes):
            original = payloads[i] if i < len(payloads) else b""
            ok = isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
            if not ok:
                records.append((len(original), original))
                continue
            count = prod(shape)
            if 8 * count == len(original):
                records.append((len(original), original))
            elif count <= _MAX_BLOB_VALUES:
                records.append((8 * count, bytes(8 * count)))
            else:
                records.append(((8 * count) % 2**64, b""))
    for length, payload in records:
        out.append(struct.pack("<QI", length, zlib.crc32(payload)))
        out.append(payload)
    path.write_bytes(b"".join(out))


def _paths(node, prefix=()):
    """Every key/index path into a JSON tree, the root excluded."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _load_outcome(path):
    try:
        return load(path)
    except ModelFormatError as exc:
        return exc


@pytest.fixture(
    scope="module",
    params=[("Conv", "DecomposedConv", "DecomposedFc"), ("Conv", "Fc")],
    ids=["decomposed-fc", "dense-fc"],
)
def saved_model(request, tmp_path_factory):
    """A saved random network; the two together cover every layer kind."""
    rng = np.random.default_rng(5)
    kinds = set()
    while not {"MaxPool", *request.param} <= kinds:
        net = random_network(rng)
        kinds = {type(layer).__name__ for layer in net.layers}
    path = tmp_path_factory.mktemp("hostile") / "model.cpnet"
    save(net, path)
    return net, _parts(path.read_bytes())


@pytest.fixture(scope="module")
def hostile_path(tmp_path_factory):
    """One scratch file that every generated example overwrites in turn."""
    return tmp_path_factory.mktemp("examples") / "hostile.cpnet"


_HOSTILE = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 1, 2**31, 2**32, 2**63, 2**64, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.sampled_from([-1, 0, 1, 3, 2**32, 2**61, 1.5]), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


class TestHostileManifests:
    def test_assembler_reproduces_valid_file(self, saved_model, tmp_path):
        net, (header, manifest, payloads) = saved_model
        path = tmp_path / "model.cpnet"
        _assemble(header, manifest, payloads, path)
        assert load(path) == net

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(data=st.data())
    def test_replaced_value_loads_or_raises_format_error(self, saved_model, hostile_path, data):
        _, (header, manifest, payloads) = saved_model
        manifest = json.loads(json.dumps(manifest))
        paths = sorted(_paths(manifest), key=repr)
        where = data.draw(st.sampled_from(paths))
        parent = manifest
        for key in where[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()) and isinstance(parent, dict):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(_HOSTILE)
        _assemble(header, manifest, payloads, hostile_path)
        outcome = _load_outcome(hostile_path)
        assert isinstance(outcome, (NetworkSpec, ModelFormatError))
        if isinstance(outcome, NetworkSpec):
            # A file that loads is a usable network, not a deferred crash.
            count_params(outcome)
            forward(outcome, np.zeros(outcome.input_shape))

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(root=_HOSTILE)
    def test_replaced_root_raises_format_error(self, saved_model, hostile_path, root):
        _, (header, _, payloads) = saved_model
        _assemble(header, root, payloads, hostile_path)
        assert isinstance(_load_outcome(hostile_path), ModelFormatError)

    @pytest.mark.parametrize(
        "shape",
        [[2**32, 2**32], [2**61, 4], [-1, -8], [-2, 4], [2**64], [0, 2**61], [0, 2**64]],
    )
    def test_overflowing_or_negative_shape(self, saved_model, tmp_path, shape):
        # [2**32, 2**32] once overflowed np.prod to 0, matched a zero-length
        # blob and escaped load() as a plain ValueError.
        _, (header, manifest, payloads) = saved_model
        manifest = json.loads(json.dumps(manifest))
        first = next(e for e in manifest["layers"] if e["blobs"])
        first["blobs"][0]["shape"] = shape
        path = tmp_path / "hostile.cpnet"
        _assemble(header, manifest, payloads, path)
        with pytest.raises(ModelFormatError):
            load(path)

    def test_declared_length_beyond_file_end(self, saved_model, tmp_path):
        # A consistent shape and length far larger than the file: the loader
        # must refuse before it reads, not after.
        _, (header, manifest, payloads) = saved_model
        manifest = json.loads(json.dumps(manifest))
        first = next(e for e in manifest["layers"] if e["blobs"])
        first["blobs"][0]["shape"] = [2**37]
        path = tmp_path / "hostile.cpnet"
        _assemble(header, manifest, payloads, path)
        with pytest.raises(ModelFormatError, match="truncated"):
            load(path)

    def test_manifest_length_beyond_file_end(self, saved_model, tmp_path):
        _, (header, manifest, _) = saved_model
        raw = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "hostile.cpnet"
        path.write_bytes(header + b"%d %08x\n" % (2**40, zlib.crc32(raw)) + raw)
        with pytest.raises(ModelFormatError, match="truncated"):
            load(path)

    def test_deeply_nested_manifest(self, saved_model, tmp_path):
        _, (header, _, _) = saved_model
        raw = b"[" * 100_000 + b"]" * 100_000
        path = tmp_path / "hostile.cpnet"
        path.write_bytes(header + b"%d %08x\n" % (len(raw), zlib.crc32(raw)) + raw + b"\n")
        with pytest.raises(ModelFormatError):
            load(path)

    def test_rank_zero_factors_raise_format_error(self, tmp_path):
        # Empty factor matrices fit their declared shapes and checksums, but
        # a factorized layer of rank 0 is not a layer.
        factors = SvdFactors(np.ones((3, 1)), np.ones((1, 4)))
        good = tmp_path / "good.cpnet"
        save(NetworkSpec((4,), (DecomposedFc("head", factors),)), good)
        header, manifest, payloads = _parts(good.read_bytes())
        entry = manifest["layers"][0]
        entry["rank"] = 0
        entry["blobs"][0]["shape"] = [3, 0]
        entry["blobs"][1]["shape"] = [0, 4]
        bad = tmp_path / "bad.cpnet"
        _assemble(header, manifest, payloads, bad)
        with pytest.raises(ModelFormatError):
            load(bad)


class TestNonFiniteBlobs:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_raises_format_error(self, saved_model, tmp_path, value):
        # Every blob of every layer kind, one at a time, with one value
        # replaced and the checksum recomputed over the new bytes.
        net, (header, manifest, payloads) = saved_model
        blob_layers = [e for e in manifest["layers"] for _ in e["blobs"]]
        assert len(blob_layers) == len(payloads)
        path = tmp_path / "hostile.cpnet"
        for index in range(len(payloads)):
            values = np.frombuffer(payloads[index], dtype="<f8").copy()
            values[len(values) // 2] = value
            damaged = list(payloads)
            damaged[index] = values.tobytes()
            _assemble(header, manifest, damaged, path)
            with pytest.raises(ModelFormatError, match="non-finite"):
                load(path)
        assert {e["kind"] for e in blob_layers} == {
            layer.kind for layer in net.layers if layer.params()
        }

    def test_non_finite_value_in_a_later_check_chunk(self, tmp_path):
        # The check runs in chunks; a NaN in the last, partial one is found.
        n = 2 * _FINITE_CHUNK + 3
        weights = np.ones((1, n))
        weights[0, -1] = np.nan
        path = tmp_path / "hostile.cpnet"
        save(NetworkSpec((n,), (Fc("head", weights),)), path)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load(path)


def _set_toy_field(manifest, where, value):
    """Set `where` -- ("input_shape", index), (layer, field) or
    (layer, "blobs", blob index, shape index) -- in a toy manifest."""
    if where[0] == "input_shape":
        manifest["input_shape"][where[1]] = value
        return
    entry = next(e for e in manifest["layers"] if e["name"] == where[0])
    if where[1] == "blobs":
        entry["blobs"][where[2]]["shape"][where[3]] = value
    else:
        entry[where[1]] = value


_FLOAT_CASES = [
    (("pool1", "window"), 2.0),
    (("pool1", "stride"), 2.0),
    (("conv1", "groups"), 1.0),
    (("conv1", "stride"), 1.0),
    (("conv1", "padding"), 1.5),
    (("conv2", "kernel_size"), 3.0),
    (("conv2", "in_channels"), 8.0),
    (("input_shape", 1), 16.0),
    (("input_shape", 2), 16.5),
    (("conv1", "blobs", 0, 0), 8.0),
    (("fc1", "blobs", 0, 1), 256.5),
]


class TestIntegerFieldsAsFloats:
    """JSON numbers with a fraction part, or written as floats, are not
    integers: each must be refused at load, neither truncated nor carried
    into a layer whose forward pass then fails."""

    @pytest.mark.parametrize(
        "where, value", _FLOAT_CASES,
        ids=[".".join(map(str, where)) for where, _ in _FLOAT_CASES],
    )
    def test_float_field_raises_format_error(self, tmp_path, where, value):
        good = tmp_path / "toy.cpnet"
        save(toy_cnn(0), good)
        header, manifest, payloads = _parts(good.read_bytes())
        _set_toy_field(manifest, where, value)
        bad = tmp_path / "bad.cpnet"
        _assemble(header, manifest, payloads, bad)
        with pytest.raises(ModelFormatError):
            load(bad)
