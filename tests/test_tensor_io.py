import hashlib
import math
import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softedge import (
    QuantizedTensor,
    SsmParams,
    calibrate,
    calibrate_grid,
    classify,
    compare_quantizers,
    derive_config,
    encode_tensor,
    fake_quant,
    hardware_trace,
    int8_encode,
    make_params,
    mse,
    percentile_abs,
    region_breakdown,
    run_report,
    se_encode,
    sqnr_db,
    ssm_forward,
    sweep,
    read_packed,
    read_tensor,
    write_packed,
    write_tensor,
)
from softedge.errors import (
    BadMagic,
    InvalidConfig,
    InvalidParams,
    IoFailure,
    NonCanonicalCode,
    NonFiniteInput,
    NonFiniteValue,
    SoftEdgeError,
    TruncatedPayload,
    VersionMismatch,
)
from softedge.synth import DistSpec, generate

_NO_FIFO = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


def _read_through_pipe(tmp_path, data, reader):
    """reader's result for data written to a named pipe, which has no size
    to check up front: the reader reads it whole, then checks it."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return reader(fifo)
    finally:
        writer.join()


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

    def test_count_beyond_file_allocates_nothing(self, tmp_path):
        # 2**60 elements claimed by a 16-byte file: rejected before the
        # payload array (4 EiB) is allocated
        p = tmp_path / "t.qsef"
        p.write_bytes(struct.pack("<4sB3xQ", b"QSEF", 1, 2**60))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayload, match="header says "
                               f"{2**60} elements, payload holds 0"):
                read_tensor(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.qsef"
        p.write_bytes(struct.pack("<4sB3xQ2f", b"QSEF", 1, 2, 1.0, 2.0)
                      + b"\0\0\0")
        with pytest.raises(TruncatedPayload,
                           match="header says 2 elements, payload holds 2"):
            read_tensor(p)

    @_NO_FIFO
    @pytest.mark.parametrize("extra, error", [(b"", None),
                                              (b"\0", TruncatedPayload)])
    def test_reads_a_pipe(self, tmp_path, extra, error):
        p = tmp_path / "t.qsef"
        write_tensor(p, [1.0, -2.5, 0.0])
        data = p.read_bytes() + extra
        if error is None:
            np.testing.assert_array_equal(
                _read_through_pipe(tmp_path, data, read_tensor), [1.0, -2.5, 0.0])
        else:
            with pytest.raises(error):
                _read_through_pipe(tmp_path, data, read_tensor)

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

    @pytest.mark.parametrize("field", [3, 4],
                             ids=["fine_divisor", "coarse_multiplier"])
    def test_config_divisor_below_one_rejected(self, tmp_path, field):
        p = tmp_path / "t.qse"
        write_packed(p, self._tensor(3))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<d", raw, 16 + 8 * field, 0.5)
        p.write_bytes(bytes(raw))
        with pytest.raises(InvalidConfig, match=re.escape(
                f"{p}: fine_divisor and coarse_multiplier must be >= 1")):
            read_packed(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.qse"
        q = self._tensor(10)
        write_packed(p, q)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(TruncatedPayload):
            read_packed(p)

    def test_count_beyond_file_allocates_nothing(self, tmp_path):
        # 2**60 elements claimed by a 56-byte file (header and config):
        # rejected before the body (over 1 EiB) is allocated
        p = tmp_path / "t.qse"
        p.write_bytes(struct.pack("<4sB3xQ", b"QSE1", 1, 2**60)
                      + struct.pack("<5d", *derive_config(1.0).codec_fields))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayload, match="header says "
                               f"{2**60} elements, payload holds 40 bytes"):
                read_packed(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.qse"
        write_packed(p, self._tensor(2))
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(TruncatedPayload, match="header says 2 elements, "
                           "payload holds 44 bytes, not 43"):
            read_packed(p)

    @_NO_FIFO
    @pytest.mark.parametrize("extra, error", [(b"", None),
                                              (b"\0", TruncatedPayload)])
    def test_reads_a_pipe(self, tmp_path, extra, error):
        p = tmp_path / "t.qse"
        q = self._tensor(10)
        write_packed(p, q)
        data = p.read_bytes() + extra
        if error is None:
            got = _read_through_pipe(tmp_path, data, read_packed)
            # writable, as the codes read from a regular file are
            assert got == q and got.codes.flags.writeable
        else:
            with pytest.raises(error):
                _read_through_pipe(tmp_path, data, read_packed)

    @pytest.mark.parametrize("bit", [3, 7])
    def test_nonzero_pad_bits_rejected(self, tmp_path, bit):
        # three elements use bits 0-2 of the one bitmap byte; a pad bit set
        # would make a second file for the same tensor
        p = tmp_path / "t.qse"
        write_packed(p, self._tensor(3))
        raw = bytearray(p.read_bytes())
        raw[56] |= 1 << bit
        p.write_bytes(raw)
        with pytest.raises(NonCanonicalCode, match="pad bit"):
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


@pytest.mark.parametrize("write, read", [
    (lambda p: write_tensor(p, [1.0, -2.5, 0.0]), read_tensor),
    (lambda p: write_packed(p, encode_tensor([1.0, -2.5], derive_config(1.0))),
     read_packed),
], ids=["qsef", "qse1"])
def test_file_that_shrinks_while_read(tmp_path, shrinking_reads, write, read):
    # the size matched the header when it was taken, then the body came short
    p = tmp_path / "t"
    write(p)
    with pytest.raises(TruncatedPayload,
                       match=f"^{re.escape(str(p))}: file shrank while it was read$"):
        read(p)


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


# Arbitrary bytes; a header (valid or invalid magic and version, a small
# element count or one far beyond the file) cut anywhere and followed by
# arbitrary bytes; or a well-formed layout, possibly with trailing bytes.
_FILE_BYTES = (st.binary(max_size=200) | st.builds(
    lambda magic, version, count, cut, body:
        struct.pack("<4sB3xQ", magic, version, count)[:cut] + body,
    st.sampled_from([b"QSEF", b"QSE1", b"QSEX", b"\0\0\0\0"]),
    st.sampled_from([0, 1, 2, 255]),
    st.integers(0, 40) | st.sampled_from([2**60, 2**64 - 1]),
    st.integers(0, 16), st.binary(max_size=200))
    | st.builds(bytes.__add__, st.integers(0, 40).flatmap(_well_formed),
                st.binary(max_size=8)))


def _binary32(x):
    """x packed as little-endian binary32, or None if it is not finite there;
    struct rejects a finite value that rounds past the binary32 range."""
    try:
        return struct.pack("<f", x) if math.isfinite(x) else None
    except OverflowError:
        return None


# Any float64, plus values at the binary32 limit (its largest value, the next
# float64 up, which still rounds down to it, the halfway value, which rounds
# to +inf, and one past it), a binary32 underflow and a signalling NaN, whose
# cast to binary32 sets the invalid flag.
_F32_MAX = float(np.finfo(np.float32).max)
_SNAN = struct.unpack("<d", bytes.fromhex("010000000000f07f"))[0]
_EDGE = st.sampled_from([_F32_MAX, math.nextafter(_F32_MAX, math.inf),
                         3.4028235677973366e38, 3.5e38, 1e-46, _SNAN])
_VALUES = st.lists(st.floats() | st.floats(width=32) | _EDGE
                   | _EDGE.map(lambda x: -x), max_size=12)


@given(values=_VALUES)
def test_write_tensor_keeps_every_bit_or_writes_nothing(tmp_path_factory,
                                                        values):
    p = tmp_path_factory.getbasetemp() / "prop.qsef"
    if p.exists():
        p.unlink()
    packed = [_binary32(x) for x in values]
    if None in packed:
        with pytest.raises(NonFiniteValue) as ei:
            write_tensor(p, np.array(values, dtype=np.float64))
        assert ei.value.index == packed.index(None)
        assert not p.exists()
    else:
        write_tensor(p, np.array(values, dtype=np.float64))
        assert p.read_bytes()[16:] == b"".join(packed)
        assert read_tensor(p).tobytes() == b"".join(packed)


def _nearest_binary32(v: int) -> int:
    """The binary32 value nearest the integer v in [2**55, 2**63), ties to
    even, in integer arithmetic."""
    ulp = 1 << (v.bit_length() - 24)
    q, r = divmod(v, ulp)
    return (q + (2 * r > ulp or (2 * r == ulp and q % 2 == 1))) * ulp


def test_integer_list_rounds_once(tmp_path):
    """A list of integers near binary32 midpoints, where rounding through
    binary64 first can go wrong, writes the bytes of its int64 array: the
    nearest binary32 values. 2**60 + 2**36 + 1 went to 2**60 that way."""
    rng = np.random.default_rng(5)
    values = [2**60 + 2**36 + 1]
    for e in rng.integers(55, 63, 200):
        k = int(rng.integers(2**23, 2**24))
        mid = (2 * k + 1) << (int(e) - 24)
        values.append(mid + int(rng.integers(-2, 3)))
    p = tmp_path / "ints.qsef"
    write_tensor(p, values)
    nearest = np.array([_nearest_binary32(v) for v in values], np.float64)
    assert p.read_bytes()[16:] == nearest.astype("<f4").tobytes()
    write_tensor(p, np.array(values, np.int64))
    assert p.read_bytes()[16:] == nearest.astype("<f4").tobytes()


@pytest.mark.parametrize("reader", [read_tensor, read_packed])
@given(data=_FILE_BYTES)
def test_fuzz_readers_raise_only_library_errors(tmp_path_factory, reader, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.bin"
    p.write_bytes(data)
    try:
        reader(p)
    except SoftEdgeError:
        pass


@pytest.mark.parametrize("kind", ["student_t", "outlier_mixture", "gaussian"])
@pytest.mark.parametrize("call, bound", [
    # the binary32 payload, 4 B/elem, and the check's mask, 1 B/elem
    (lambda p, x: read_tensor(p), 6.0),
    (write_tensor, 6.0),  # the binary32 payload, 4 B/elem
    # the body, 1.125 B/elem, and the unpacked flags, 1 B/elem
    (lambda p, x: read_packed(p.with_suffix(".qse")), 2.5),
], ids=["read_tensor", "write_tensor", "read_packed"])
def test_peak_memory_per_element(tmp_path, kind, call, bound):
    # the payload is read into, or written from, one array: no bytes copy of
    # it and no concatenation
    n = 1 << 20
    p = tmp_path / "t.qsef"
    x = generate(DistSpec(kind=kind, n=n, seed=0))
    write_tensor(p, x)
    write_packed(p.with_suffix(".qse"), encode_tensor(x, calibrate(x, 99.99)))
    tracemalloc.start()
    try:
        call(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= bound


_CFG = derive_config(1.0)
_PARAMS = make_params(3, 1)

# Every public entry point that takes an array, and the class it raises at
# the array's first NaN or infinity.
_ENTRY_POINTS = {
    "fake_quant": (lambda v: fake_quant(v, _CFG), NonFiniteInput),
    "fake_quant_int8": (lambda v: fake_quant(v, _CFG, "int8"), NonFiniteInput),
    "encode_tensor": (lambda v: encode_tensor(v, _CFG), NonFiniteInput),
    "percentile_abs": (lambda v: percentile_abs(v, 99), NonFiniteInput),
    "calibrate": (lambda v: calibrate(v, 99), NonFiniteInput),
    "mse_ref": (lambda v: mse(v, np.zeros(v.shape)), NonFiniteInput),
    "mse_approx": (lambda v: mse(np.zeros(v.shape), v), NonFiniteInput),
    "sqnr_db_ref": (lambda v: sqnr_db(v, np.zeros(v.shape)), NonFiniteInput),
    "sqnr_db_approx": (lambda v: sqnr_db(np.ones(v.shape), v),
                       NonFiniteInput),
    "compare_quantizers": (lambda v: compare_quantizers(v, _CFG),
                           NonFiniteInput),
    "region_breakdown": (lambda v: region_breakdown(v, _CFG), NonFiniteInput),
    "SsmParams": (lambda v: SsmParams(a=np.full(v.shape, 0.5), b=v,
                                      c=np.ones(v.shape)), InvalidParams),
    "ssm_forward": (lambda v: ssm_forward(_PARAMS, v), InvalidParams),
    "run_report": (lambda v: run_report(_PARAMS, v, _CFG), InvalidParams),
    "calibrate_grid": (lambda v: calibrate_grid(v, [99, 100]), NonFiniteInput),
    "sweep": (lambda v: sweep(v, [99, 100]), NonFiniteInput),
}

# Raw element bytes: any bit pattern, plus signalling and quiet NaNs,
# infinities, the smallest subnormal and the largest finite value.
_F4_SPECIAL = [bytes.fromhex(h) for h in (
    "0100807f", "010080ff", "0000c07f", "0000807f", "000080ff", "01000000",
    "ffff7f7f", "0000803f")]
_F8_SPECIAL = [bytes.fromhex(h) for h in (
    "010000000000f07f", "000000000000f8ff", "000000000000f07f",
    "000000000000f0ff", "0100000000000000", "ffffffffffffef7f",
    "000000000000f03f")]
_RAW_ARRAYS = st.one_of(
    st.tuples(st.just("<f4"), st.lists(st.sampled_from(_F4_SPECIAL)
                                       | st.binary(min_size=4, max_size=4),
                                       max_size=12).map(b"".join)),
    st.tuples(st.just("<f8"), st.lists(st.sampled_from(_F8_SPECIAL)
                                       | st.binary(min_size=8, max_size=8),
                                       max_size=12).map(b"".join)))


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@given(raw=_RAW_ARRAYS)
def test_fuzz_entry_points_check_values_as_given(entry, raw):
    call, _ = _ENTRY_POINTS[entry]
    v = np.frombuffer(raw[1], raw[0])
    bad = np.flatnonzero(~np.isfinite(v))
    try:
        call(v)
    except SoftEdgeError as e:
        if bad.size:
            assert e.index == bad[0]
    else:
        assert bad.size == 0


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_binary32_signalling_nan_raises_documented_error(entry):
    call, error = _ENTRY_POINTS[entry]
    v = np.frombuffer(bytes.fromhex("0000803f0100807f0000803f"), "<f4")
    with pytest.raises(error) as ei:
        call(v)
    assert ei.value.index == 1


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                    reason="longdouble is binary64 on this platform")
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_beyond_binary64_raises_documented_error(entry):
    call, error = _ENTRY_POINTS[entry]
    v = np.array([1.0, np.longdouble("1e400"), 1.0], dtype=np.longdouble)
    with pytest.raises(error, match="beyond binary64 at index 1") as ei:
        call(v)
    assert ei.value.index == 1


# Finite values whose cast to float would drop a part, count days or parse
# text.
_NOT_REAL = {
    "complex128": np.array([1 + 2j, 0.5, 3.0]),
    "datetime64": np.array(["2020-01-01", "2020-01-02", "2020-01-03"],
                           dtype="datetime64[D]"),
    "timedelta64": np.array([1, 2, 3], dtype="timedelta64[s]"),
    "str": np.array(["1.5", "2", "3"]),
    # empty: the dtype is rejected before the empty check
    "empty_str": np.array([], dtype=str),
    "empty_complex128": np.array([], dtype=np.complex128),
}


@pytest.mark.parametrize("values", _NOT_REAL.values(), ids=_NOT_REAL)
@pytest.mark.parametrize("entry", [*_ENTRY_POINTS, "write_tensor"])
def test_entry_points_reject_tensors_that_are_not_real(entry, values,
                                                       tmp_path):
    call = (_ENTRY_POINTS[entry][0] if entry in _ENTRY_POINTS
            else lambda v: write_tensor(tmp_path / "t.qsef", v))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TypeError, match=re.escape(str(values.dtype))):
            call(values)
    assert caught == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("scalar", [classify, se_encode, int8_encode,
                                    hardware_trace])
def test_binary32_signalling_nan_scalar(scalar):
    snan = np.frombuffer(bytes.fromhex("0100807f"), "<f4")[0]
    with pytest.raises(NonFiniteInput) as ei:
        scalar(snan, _CFG)
    assert ei.value.index == 0

