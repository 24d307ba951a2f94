"""Bit-exact binary file formats, all little-endian.

QSEF (float tensor):
    magic "QSEF" | version 0x01 | 3 reserved zero bytes |
    element count u64 | n float32 payload values

QSE1 (packed quantized tensor):
    magic "QSE1" | version 0x01 | 3 reserved zero bytes |
    element count u64 |
    config as 5 float64: scale, L, H, fine_divisor, coarse_multiplier |
    SE-flag bitmap, ceil(n/8) bytes, element i at byte i//8 bit i%8
    (LSB first), trailing pad bits zero |
    n code bytes

Both formats round-trip bit-exactly and are byte-identical regardless of
host endianness.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct

import numpy as np

from .calibration import CODEC_FIELDS, QuantConfig
from .codec import QuantizedTensor
from .errors import (
    BadMagic,
    InvalidConfig,
    IoFailure,
    NonFiniteValue,
    TruncatedPayload,
    VersionMismatch,
    check_finite,
)

__all__ = ["read_tensor", "write_tensor", "read_packed", "write_packed"]

FLOAT_MAGIC = b"QSEF"
PACKED_MAGIC = b"QSE1"
VERSION = 1
HEADER = struct.Struct("<4sB3xQ")  # magic, version, reserved, count
CONFIG_FIELDS = struct.Struct("<5d")


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def _write_bytes(path, *parts) -> int:
    """Write the parts (bytes or contiguous arrays), in order, via a temporary
    file beside the target and os.replace, so a failed write leaves no
    partial file; returns the byte count. Targets that exist but are not
    regular files (symlinks such as /dev/stdout, devices, directories) are
    opened in place."""
    atomic = not os.path.lexists(path) or (
        os.path.isfile(path) and not os.path.islink(path))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp" if atomic else path
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        if atomic:
            os.replace(tmp, path)
    except OSError as e:
        if atomic:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise IoFailure(f"cannot write {path}: {e}") from e
    return sum(memoryview(part).nbytes for part in parts)


def _parse_header(data: bytes, magic: bytes, path) -> int:
    if len(data) < HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than header")
    got_magic, version, count = HEADER.unpack_from(data)
    if got_magic != magic:
        raise BadMagic(f"{path}: expected magic {magic!r}, got {got_magic!r}")
    if version != VERSION:
        raise VersionMismatch(f"{path}: unsupported version {version}")
    return count


def write_tensor(path, values) -> int:
    """Write a float tensor as QSEF; returns the byte count written."""
    # Check the binary32 payload, as read_tensor does: a value beyond binary32
    # casts to +/-inf and is rejected like a NaN; a signalling NaN casts quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ascontiguousarray(values, dtype="<f4")
    check_finite(v, NonFiniteValue, f"{path}: in binary32, ")
    return _write_bytes(path, HEADER.pack(FLOAT_MAGIC, VERSION, v.size), v)


def _read_payload(f, n: int, path) -> np.ndarray:
    """The n binary32 values after the header of the open QSEF file f. A
    regular file's size is checked against n before the array is allocated,
    and the payload is read straight into it; any other input (a pipe) is
    read whole first."""
    st = os.fstat(f.fileno())
    data = None if stat.S_ISREG(st.st_mode) else f.read()
    size = st.st_size - HEADER.size if data is None else len(data)
    if size != 4 * n:
        raise TruncatedPayload(
            f"{path}: header says {n} elements, payload holds {size // 4}")
    if data is not None:
        return np.frombuffer(data, dtype="<f4")
    v = np.empty(n, dtype="<f4")
    if f.readinto(v) != v.nbytes:
        raise TruncatedPayload(f"{path}: file shrank while it was read")
    return v


def read_tensor(path) -> np.ndarray:
    """Read a QSEF file; returns the values as float64 (binary32-exact)."""
    try:
        with open(path, "rb") as f:
            n = _parse_header(f.read(HEADER.size), FLOAT_MAGIC, path)
            v = _read_payload(f, n, path)
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    # Check before widening: casting a signalling NaN raises a warning.
    return check_finite(v, NonFiniteValue, f"{path}: ").astype(np.float64)


def write_packed(path, q: QuantizedTensor) -> int:
    """Write a quantized tensor as QSE1; returns the byte count written."""
    return _write_bytes(path, HEADER.pack(PACKED_MAGIC, VERSION, len(q)),
                        CONFIG_FIELDS.pack(*q.config.codec_fields),
                        np.packbits(q.flags, bitorder="little"), q.codes)


def read_packed(path) -> QuantizedTensor:
    """Read a QSE1 file back into a QuantizedTensor."""
    data = _read_bytes(path)
    n = _parse_header(data, PACKED_MAGIC, path)
    off = HEADER.size
    if len(data) < off + CONFIG_FIELDS.size:
        raise TruncatedPayload(f"{path}: truncated config block")
    fields = CONFIG_FIELDS.unpack_from(data, off)
    off += CONFIG_FIELDS.size
    try:
        cfg = QuantConfig(**dict(zip(CODEC_FIELDS, fields)))
    except InvalidConfig as e:
        raise InvalidConfig(f"{path}: {e}") from e
    bitmap_len = (n + 7) // 8
    if len(data) != off + bitmap_len + n:
        raise TruncatedPayload(
            f"{path}: expected {off + bitmap_len + n} bytes, got {len(data)}"
        )
    bitmap = np.frombuffer(data, dtype=np.uint8, count=bitmap_len, offset=off)
    flags = np.unpackbits(bitmap, count=n, bitorder="little").astype(bool)
    codes = np.frombuffer(
        data, dtype=np.uint8, count=n, offset=off + bitmap_len
    ).copy()
    return QuantizedTensor(config=cfg, flags=flags, codes=codes)
