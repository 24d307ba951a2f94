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
host endianness. Both are read one way: the count fixes the size of the
body after the header (4n bytes, or 40 + ceil(n/8) + n for QSE1), a regular
file must match it before the body is read into one byte array, and a pipe
is read whole, then checked. A QSE1 pad bit that is set is rejected.
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
    NonCanonicalCode,
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


def _read_body(path, magic: bytes) -> tuple[int, np.ndarray]:
    """The count and the body of a QSEF or QSE1 file, as one writable uint8
    array, read and checked as the module docstring says."""
    try:
        with open(path, "rb") as f:
            head = f.read(HEADER.size)
            if len(head) < HEADER.size:
                raise TruncatedPayload(f"{path}: file shorter than header")
            got_magic, version, n = HEADER.unpack(head)
            if got_magic != magic:
                raise BadMagic(f"{path}: expected magic {magic!r}, got {got_magic!r}")
            if version != VERSION:
                raise VersionMismatch(f"{path}: unsupported version {version}")
            st = os.fstat(f.fileno())
            data = None if stat.S_ISREG(st.st_mode) else bytearray(f.read())
            size = st.st_size - HEADER.size if data is None else len(data)
            floats = magic == FLOAT_MAGIC
            want = 4 * n if floats else CONFIG_FIELDS.size + (n + 7) // 8 + n
            if size != want:
                held = f"{size // 4}" if floats else f"{size} bytes, not {want}"
                raise TruncatedPayload(
                    f"{path}: header says {n} elements, payload holds {held}")
            if data is not None:
                return n, np.frombuffer(data, dtype=np.uint8)
            body = np.empty(want, dtype=np.uint8)
            if f.readinto(body) != want:
                raise TruncatedPayload(f"{path}: file shrank while it was read")
            return n, body
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def write_tensor(path, values) -> int:
    """Write a float tensor as QSEF; returns the byte count written."""
    # Check the binary32 payload, as read_tensor does: a value beyond binary32
    # casts to +/-inf and is rejected like a NaN; a signalling NaN casts quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ascontiguousarray(values, dtype="<f4")
    check_finite(v, NonFiniteValue, f"{path}: in binary32, ")
    return _write_bytes(path, HEADER.pack(FLOAT_MAGIC, VERSION, v.size), v)


def read_tensor(path) -> np.ndarray:
    """Read a QSEF file; returns the values as float64 (binary32-exact)."""
    v = _read_body(path, FLOAT_MAGIC)[1].view("<f4")
    # Check before widening: casting a signalling NaN raises a warning.
    return check_finite(v, NonFiniteValue, f"{path}: ").astype(np.float64)


def write_packed(path, q: QuantizedTensor) -> int:
    """Write a quantized tensor as QSE1; returns the byte count written."""
    return _write_bytes(path, HEADER.pack(PACKED_MAGIC, VERSION, len(q)),
                        CONFIG_FIELDS.pack(*q.config.codec_fields),
                        np.packbits(q.flags, bitorder="little"), q.codes)


def read_packed(path) -> QuantizedTensor:
    """Read a QSE1 file back into a QuantizedTensor; its codes view the body."""
    n, body = _read_body(path, PACKED_MAGIC)
    fields = CONFIG_FIELDS.unpack_from(body)
    try:
        cfg = QuantConfig(**dict(zip(CODEC_FIELDS, fields)))
    except InvalidConfig as e:
        raise InvalidConfig(f"{path}: {e}") from e
    bitmap, codes = np.split(body[CONFIG_FIELDS.size:], [(n + 7) // 8])
    if n % 8 and bitmap[-1] >> (n % 8):
        raise NonCanonicalCode(f"{path}: SE-flag bitmap has pad bits set")
    flags = np.unpackbits(bitmap, count=n, bitorder="little").view(bool)
    return QuantizedTensor(config=cfg, flags=flags, codes=codes)
