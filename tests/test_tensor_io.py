import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softedge import (
    QuantizedTensor,
    derive_config,
    encode_tensor,
    read_packed,
    read_tensor,
    write_packed,
    write_tensor,
)
from softedge.errors import (
    BadMagic,
    InvalidConfig,
    IoFailure,
    NonFiniteValue,
    SoftEdgeError,
    TruncatedPayload,
    VersionMismatch,
)
from softedge.synth import DistSpec, generate


class TestFloatFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.qsef"
        write_tensor(p, [1.0, -2.5, 0.0])
        np.testing.assert_array_equal(read_tensor(p), [1.0, -2.5, 0.0])

    def test_empty_is_header_only(self, tmp_path):
        p = tmp_path / "t.qsef"
        assert write_tensor(p, []) == 16
        assert read_tensor(p).size == 0

    def test_byte_counts(self, tmp_path):
        p = tmp_path / "t.qsef"
        assert write_tensor(p, [1.0]) == 20

    def test_binary32_exact(self, tmp_path):
        p = tmp_path / "t.qsef"
        write_tensor(p, [0.1])
        assert read_tensor(p)[0] == np.float64(np.float32(0.1))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.qsef"
        data = struct.pack("<4sB3xQ", b"QSEF", 1, 4) + struct.pack("<3f", 1, 2, 3)
        p.write_bytes(data)
        with pytest.raises(TruncatedPayload):
            read_tensor(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.qsef"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(BadMagic):
            read_tensor(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "t.qsef"
        p.write_bytes(struct.pack("<4sB3xQ", b"QSEF", 9, 0))
        with pytest.raises(VersionMismatch):
            read_tensor(p)

    def test_nonfinite_payload_rejected_with_index(self, tmp_path):
        p = tmp_path / "t.qsef"
        data = struct.pack("<4sB3xQ", b"QSEF", 1, 2) + struct.pack(
            "<2f", 1.0, float("nan")
        )
        p.write_bytes(data)
        with pytest.raises(NonFiniteValue) as ei:
            read_tensor(p)
        assert ei.value.index == 1

    def test_nonfinite_write_rejected(self, tmp_path):
        with pytest.raises(NonFiniteValue):
            write_tensor(tmp_path / "t.qsef", [1.0, float("inf")])

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            read_tensor(tmp_path / "missing.qsef")

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(21)
        p = tmp_path / "t.qsef"
        for _ in range(200):
            v = np.float32(rng.normal(0, 100, rng.integers(0, 65))).astype(float)
            write_tensor(p, v)
            np.testing.assert_array_equal(read_tensor(p), v)

    def test_golden_bytes(self, tmp_path):
        # frozen digest: any byte-level change to the format is a break
        t = generate(DistSpec(kind="gaussian", n=257, seed=123))
        p = tmp_path / "t.qsef"
        write_tensor(p, t)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest == (
            "7a7e0dcc855865e26b72a14245cab907806fb00e551085bcc17840fb1c65bbad"
        )


class TestPackedFormat:
    def _tensor(self, n, seed=0, scale=1.0):
        rng = np.random.default_rng(seed)
        return encode_tensor(rng.uniform(-400, 400, n), derive_config(scale))

    def test_empty_round_trip(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(0)
        write_packed(p, q)
        assert read_packed(p) == q

    def test_bitmap_padding(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(9)
        n = write_packed(p, q)
        # header 16 + config 40 + bitmap ceil(9/8)=2 + 9 codes
        assert n == 16 + 40 + 2 + 9
        raw = p.read_bytes()
        bitmap = raw[56:58]
        pad = bitmap[1] >> 1  # bits 9..15 of the bitmap
        assert pad == 0
        assert read_packed(p) == q

    def test_random_big_round_trip(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(1000, seed=42, scale=0.731)
        write_packed(p, q)
        assert read_packed(p) == q

    def test_invalid_config_rejected(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(3)
        write_packed(p, q)
        raw = bytearray(p.read_bytes())
        raw[16:24] = struct.pack("<d", -1.0)  # scale <= 0
        p.write_bytes(bytes(raw))
        with pytest.raises(InvalidConfig):
            read_packed(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(10)
        write_packed(p, q)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(TruncatedPayload):
            read_packed(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.qse"
        p.write_bytes(b"QSEX" + bytes(60))
        with pytest.raises(BadMagic):
            read_packed(p)

    def test_many_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(77)
        p = tmp_path / "t.qse"
        cfg = derive_config(0.5)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            q = encode_tensor(rng.uniform(-300, 300, n), cfg)
            write_packed(p, q)
            assert read_packed(p) == q

    def test_golden_bytes(self, tmp_path):
        t = generate(DistSpec(kind="gaussian", n=257, seed=123))
        q = encode_tensor(np.float32(t).astype(float), derive_config(0.25))
        p = tmp_path / "t.qse"
        write_packed(p, q)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest == (
            "aef737a38b0eb3d7251dbbfb3fb4b7cb6afced2ef5cfba3874ebe5fc18601920"
        )


class TestAtomicWrite:
    def test_directory_target(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "keep").write_bytes(b"old")
        with pytest.raises(IoFailure):
            write_tensor(target, [1.0])
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(target) == ["keep"]
        assert (target / "keep").read_bytes() == b"old"

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "t.qsef"
        write_tensor(p, [1.0])
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoFailure):
            write_tensor(p, [2.0, 3.0])
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.qsef"]


def test_quantized_tensor_length_mismatch():
    from softedge.errors import LengthMismatch

    with pytest.raises(LengthMismatch):
        QuantizedTensor(
            config=derive_config(1.0),
            flags=np.zeros(3, dtype=bool),
            codes=np.zeros(4, dtype=np.uint8),
        )


def _well_formed(n):
    """Valid QSEF / QSE1 layouts for n elements around arbitrary payload bytes
    (NaN floats, set pad bits, non-canonical codes)."""
    size = (n + 7) // 8 + n
    return (st.binary(min_size=4 * n, max_size=4 * n).map(
                lambda b: struct.pack("<4sB3xQ", b"QSEF", 1, n) + b)
            | st.binary(min_size=size, max_size=size).map(
                lambda b: struct.pack("<4sB3xQ5d", b"QSE1", 1, n, 1.0, 16.0,
                                      127.0, 4.0, 4.0) + b))


# Arbitrary bytes; a header (valid or invalid magic and version, small
# element count) cut anywhere and followed by arbitrary bytes; or a
# well-formed layout.
_FILE_BYTES = (st.binary(max_size=200) | st.builds(
    lambda magic, version, count, cut, body:
        struct.pack("<4sB3xQ", magic, version, count)[:cut] + body,
    st.sampled_from([b"QSEF", b"QSE1", b"QSEX", b"\0\0\0\0"]),
    st.sampled_from([0, 1, 2, 255]), st.integers(0, 40),
    st.integers(0, 16), st.binary(max_size=200))
    | st.integers(0, 40).flatmap(_well_formed))


@pytest.mark.parametrize("reader", [read_tensor, read_packed])
@given(data=_FILE_BYTES)
def test_fuzz_readers_raise_only_library_errors(tmp_path_factory, reader, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.bin"
    p.write_bytes(data)
    try:
        reader(p)
    except SoftEdgeError:
        pass
