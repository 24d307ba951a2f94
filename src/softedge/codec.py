"""The soft-edge quantizer.

Values are classified by magnitude against thresholds L and H into three
regions, each with its own row (offset, step, top):

* Small  (|x| <  L): (0, scale / fine_divisor, 63), sign-magnitude code
* Medium (L <= |x| <= H): (0, scale, 127), standard symmetric INT8
* Large  (|x| >  H): (H, scale * coarse_multiplier, 63), sign-magnitude code

Each encoded element is an 8-bit code plus a 1-bit SE flag. Flag 0 means the
byte is a two's-complement INT8 code in [-127, 127]. Flag 1 means the byte is
[bit7 = sign, bit6 = region (0 small / 1 large), bits5..0 = magnitude m].
Zero always encodes as flag 1, byte 0x00; the negative-zero pattern
(sign=1, region=0, m=0) is never emitted and rejected on strict decode.

Rows are read from the config where used; no per-config state is kept. One
magnitude kernel serves encode and fake-quant: m = min(floor(a / step +
0.5), top), half away from zero, then the value offset + m * step. Most
values are small, so every a = |x| takes the small row; only those at |x|
>= L are redone with the medium row, and those above H, as a = |x| - H,
with the large row. The 512-entry decode table, indexed by flag<<8 | byte,
is built from the same value expression wherever it is read, so fake-quant
is decode-then-cast. The INT8 baseline (hard clip at +/-127*scale) rounds
with the medium row. The binary32 rule, one ``errstate`` in ``fake_quant``
for both quantizers: a value beyond binary32 casts to +/-inf, quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import MAX_STANDARD_CODE, QuantConfig
from .errors import LengthMismatch, NonCanonicalCode, check_finite

__all__ = [
    "RegionClass",
    "SoftEdgeCode",
    "QuantizedTensor",
    "TraceRecord",
    "classify",
    "se_encode",
    "se_decode",
    "int8_encode",
    "int8_decode",
    "fake_quant",
    "encode_tensor",
    "decode_tensor",
    "hardware_trace",
]

SIGN_BIT = 0x80
REGION_BIT = 0x40
MAGNITUDE_MASK = 0x3F
MAX_MAGNITUDE = 63
NEGATIVE_ZERO = 0x100 | SIGN_BIT  # flag<<8 | byte of the non-canonical code
_TOP = (MAX_MAGNITUDE, MAX_STANDARD_CODE, MAX_MAGNITUDE)  # caps, by region
# Elements per block of the tensor kernels: a block's float64 temporaries
# (256 KiB each) stay in cache instead of streaming through memory.
BLOCK = 1 << 15


class RegionClass(Enum):
    SMALL = "Small"
    MEDIUM = "Medium"
    LARGE = "Large"


_REGIONS = tuple(RegionClass)  # by region index: small, medium, large


@dataclass(frozen=True)
class SoftEdgeCode:
    """One encoded value: SE flag plus raw code byte (0..255)."""

    se_flag: int
    byte: int

    @property
    def sign_bit(self) -> int:
        return (self.byte >> 7) & 1

    @property
    def region_bit(self) -> int:
        return (self.byte >> 6) & 1

    @property
    def magnitude(self) -> int:
        return self.byte & MAGNITUDE_MASK

    @property
    def int8_value(self) -> int:
        """Two's-complement reading of the byte (flag-0 codes)."""
        return self.byte - 256 if self.byte >= 128 else self.byte


@dataclass
class QuantizedTensor:
    """Encoded tensor: per-element SE flags and code bytes plus the config."""

    config: QuantConfig
    flags: np.ndarray  # bool, shape (n,)
    codes: np.ndarray  # uint8, shape (n,)

    def __post_init__(self):
        self.flags = np.ascontiguousarray(self.flags, dtype=bool)
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if self.flags.shape != self.codes.shape:
            raise LengthMismatch(
                f"flags ({self.flags.shape}) and codes ({self.codes.shape}) differ"
            )

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedTensor):
            return NotImplemented
        return (
            self.config.codec_fields == other.config.codec_fields
            and np.array_equal(self.flags, other.flags)
            and np.array_equal(self.codes, other.codes)
        )


@dataclass(frozen=True)
class TraceRecord:
    """Per-value behavioral trace of the quantizer datapath."""

    value: float
    region: RegionClass
    selected_step: float
    se_flag: int
    sign_bit: int
    region_bit: int
    magnitude: int
    byte: int
    reconstructed: float
    abs_error: float


def _region_index(ax, cfg: QuantConfig):
    """Region of each magnitude |x|: 0 small (< L), 1 medium, 2 large (> H).
    The boundaries |x| = L and |x| = H are medium."""
    return np.add(ax >= cfg.low_threshold, ax > cfg.high_threshold,
                  dtype=np.uint8)


# The key layout, written once: region index, sign bit and magnitude (the
# |INT8| value for flag-0 codes) of each flag<<8 | byte, as the trace reports.
_flag, _byte = np.divmod(np.arange(512), 256)
_KEY_REGION = np.where(_flag == 0, 1, np.where(_byte & REGION_BIT, 2, 0))
_KEY_SIGN = _byte >> 7
_KEY_MAGNITUDE = np.where(_flag == 0, np.where(_KEY_SIGN, 256 - _byte, _byte),
                          _byte & MAGNITUDE_MASK)
# The encoder's index inverts it: the key of (region, negative, m) sits at
# region << 8 | negative << 7 | m. A small or medium zero is +0 (the medium
# slot keeps key 0); the slots past m = 63 are never read.
_keys = np.flatnonzero(_KEY_MAGNITUDE < 128)
_CODE_INDEX = np.zeros(3 << 8, np.uint16)
_CODE_INDEX[_KEY_REGION[_keys] << 8 | _KEY_SIGN[_keys] << 7
            | _KEY_MAGNITUDE[_keys]] = _keys
_CODE_INDEX[SIGN_BIT] = 0x100
for _a in (_CODE_INDEX, _KEY_REGION, _KEY_SIGN, _KEY_MAGNITUDE):
    _a.flags.writeable = False
del _flag, _byte, _keys, _a


def _value(m: np.ndarray, offset, step) -> np.ndarray:
    """offset + m * step, in place over the float64 magnitudes m: the one
    value expression, which ends the kernel and builds the decode table."""
    np.multiply(m, step, out=m)
    return np.add(m, offset, out=m)


def _rows(cfg: QuantConfig):
    """The config's (offset, step) rows, by region: small, medium, large."""
    return ((0.0, 0.0, cfg.high_threshold),
            (cfg.fine_step, cfg.scale, cfg.coarse_step))


# The decode table holds all 512 keys: also -128 (flag 0, byte 0x80), never
# emitted but accepted, the negative-zero key (-0.0), and values that
# overflow or do not fit binary32, which are read only if their code occurs.
@np.errstate(over="ignore")
def _decode_table(cfg: QuantConfig) -> np.ndarray:
    """float64 reconstruction of each flag<<8 | byte."""
    offset, step = np.array(_rows(cfg))[:, _KEY_REGION]
    value = _value(_KEY_MAGNITUDE.astype(float), offset, step)
    return np.copysign(value, np.where(_KEY_SIGN, -1.0, 1.0), out=value)


# Huge finite inputs overflow the quotient to +inf, which the minimum clamps
# to the top code; that overflow is expected, not an error.
@np.errstate(over="ignore")
def _round(a: np.ndarray, step, top) -> np.ndarray:
    """The one rounding rule, min(floor(a / step + 0.5), top), computed in
    place over the float64 magnitudes ``a`` (>= 0, the large row's already
    less H), so it rounds half away from zero."""
    np.divide(a, step, out=a)
    np.add(a, 0.5, out=a)
    np.floor(a, out=a)
    return np.minimum(a, top, out=a)


def _kernel(x: np.ndarray, cfg: QuantConfig, offset, step) -> np.ndarray:
    """The one magnitude kernel: offset[r] + m * step[r] of each element of
    the 1-d float64 x, m and r being its rounded magnitude and region. Every
    |x| is rounded with the small row; only those at |x| >= L are redone with
    the medium row, and those above H, as |x| - H, with the large row."""
    ax = np.abs(x)
    mid = np.flatnonzero(ax >= cfg.low_threshold)
    medium = ax.take(mid)
    big = np.flatnonzero(medium > cfg.high_threshold)
    rows = zip((ax, medium, medium.take(big) - cfg.high_threshold),
               _rows(cfg)[1], _TOP)
    out, medium, large = (_value(_round(*row), offset[r], step[r])
                          for r, row in enumerate(rows))
    medium[big] = large
    out[mid] = medium
    return out


def _encode_index(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Encoder kernel: flag<<8 | byte (uint16) of each element of x, looked
    up at region << 8 | negative << 7 | m; the kernel with offset region << 8
    and step 1 gives region << 8 | m."""
    key = _kernel(x, cfg, (0, 256, 512), (1, 1, 1)).astype(np.intp)
    key |= np.left_shift(x < 0, 7, dtype=np.intp)
    return _CODE_INDEX.take(key)


def _int8_round(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Standard symmetric INT8 code of x, as a float in [-127, 127]."""
    return np.copysign(_round(np.abs(x), cfg.scale, MAX_STANDARD_CODE), x)


def _decode_arrays(flags: np.ndarray, codes: np.ndarray, cfg: QuantConfig,
                   strict: bool = True) -> np.ndarray:
    """Vectorized decoder core; returns float64 reconstructions."""
    key = np.left_shift(flags, 8, dtype=np.uint16)
    key |= codes
    if strict:
        neg_zero = key == NEGATIVE_ZERO
        if np.any(neg_zero):
            idx = int(np.argmax(neg_zero))
            raise NonCanonicalCode(f"negative-zero small code at index {idx}")
    return _decode_table(cfg)[key]


def _one(x: float) -> np.ndarray:
    """The scalar x as a checked one-element float64 array."""
    return check_finite([x]).astype(np.float64, copy=False)


def classify(x: float, cfg: QuantConfig) -> RegionClass:
    """Three-way region classification; boundaries |x| = L and |x| = H are
    Medium."""
    return _REGIONS[_region_index(np.abs(_one(x)), cfg)[0]]


def se_encode(x: float, cfg: QuantConfig) -> SoftEdgeCode:
    key = int(_encode_index(_one(x), cfg)[0])
    return SoftEdgeCode(se_flag=key >> 8, byte=key & 0xFF)


def se_decode(c: SoftEdgeCode, cfg: QuantConfig, strict: bool = True) -> float:
    flags = np.asarray([bool(c.se_flag)])
    codes = np.asarray([c.byte], dtype=np.uint8)
    return float(_decode_arrays(flags, codes, cfg, strict=strict)[0])


def int8_encode(x: float, cfg: QuantConfig) -> int:
    return int(_int8_round(_one(x), cfg)[0])


def int8_decode(b: int, cfg: QuantConfig) -> float:
    return float(b) * cfg.scale


def _blocked(values, dtype, kernel):
    """``kernel`` over BLOCK-element slices of the flattened values, each
    widened to float64, written into one preallocated array of ``dtype``
    shaped like them. Every kernel step is elementwise, so the bits are those
    of one pass. A widened block with a NaN/inf sends the whole input to
    ``check_finite``, which raises with the index; an input that is not
    bool, integer or real float (its cast could drop a NaN or parse text)
    goes there first."""
    x = np.asarray(values)
    if x.dtype.kind not in "biuf":
        check_finite(x)
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype)
    for i in range(0, flat.size, BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            b = flat[i:i + BLOCK].astype(np.float64, copy=False)
        if not np.isfinite(b).all():
            check_finite(x)
        out[i:i + BLOCK] = kernel(b)
    # [()] gives a 0-d input a scalar, as indexing it whole would
    return out.reshape(x.shape)[()]


def encode_tensor(values, cfg: QuantConfig) -> QuantizedTensor:
    key = _blocked(values, np.uint16, lambda b: _encode_index(b, cfg))
    return QuantizedTensor(config=cfg, flags=key > 0xFF,
                           codes=key.astype(np.uint8))


def decode_tensor(q: QuantizedTensor, strict: bool = True) -> np.ndarray:
    """Reconstruct values (float64) from an encoded tensor."""
    return _decode_arrays(q.flags, q.codes, q.config, strict=strict)


def fake_quant(values, cfg: QuantConfig, which: str = "soft_edge") -> np.ndarray:
    """Quantize-then-dequantize, cast through binary32.

    ``which`` selects the soft-edge path or the plain INT8 baseline.
    Idempotent: fake_quant(fake_quant(t)) == fake_quant(t) bitwise.
    """
    if which == "soft_edge":  # x's sign, and + 0.0 makes every zero +0
        offset, step = _rows(cfg)
        kernel = lambda b: np.copysign(_kernel(b, cfg, offset, step), b) + 0.0
    elif which == "int8":
        kernel = lambda b: _int8_round(b, cfg) * cfg.scale
    else:
        raise ValueError(f"unknown quantizer {which!r}")
    with np.errstate(over="ignore"):  # the binary32 rule
        return _blocked(values, np.float32, kernel)


def hardware_trace(x: float, cfg: QuantConfig) -> TraceRecord:
    """Bit-exact behavioral trace of the datapath for a single value."""
    v = _one(x)
    key = int(_encode_index(v, cfg)[0])
    region = int(_KEY_REGION[key])
    value, recon = float(v[0]), float(_decode_table(cfg)[key])
    return TraceRecord(
        value=value,
        region=_REGIONS[region],
        selected_step=float(_rows(cfg)[1][region]),
        se_flag=key >> 8,
        sign_bit=int(_KEY_SIGN[key]),
        region_bit=int(region == 2),
        magnitude=int(_KEY_MAGNITUDE[key]),
        byte=key & 0xFF,
        reconstructed=recon,
        abs_error=abs(value - recon),
    )
