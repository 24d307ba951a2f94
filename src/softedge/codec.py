"""The soft-edge quantizer.

Values are classified by magnitude against thresholds L and H into three
regions, each with its own step size:

* Small  (|x| <  L): step = scale / fine_divisor, 6-bit sign-magnitude code
* Medium (L <= |x| <= H): standard symmetric INT8, step = scale
* Large  (|x| >  H): step = scale * coarse_multiplier, offset-encoded as
  xhat = +/-(H + m * step), 6-bit magnitude

Each encoded element is an 8-bit code plus a 1-bit SE flag. Flag 0 means the
byte is a two's-complement INT8 code in [-127, 127]. Flag 1 means the byte is
[bit7 = sign, bit6 = region (0 small / 1 large), bits5..0 = magnitude m].
Zero always encodes as flag 1, byte 0x00; the negative-zero pattern
(sign=1, region=0, m=0) is never emitted and rejected on strict decode.

One kernel does all of it. ``_region_index`` picks the region, the region's
(offset, step, top) row gives the magnitude m = min(floor((|x| - offset) /
step + 0.5), top), rounding half away from zero, and the decoder gathers
sign * (offset + m * step) from a 512-entry table indexed by flag<<8 | byte.
A plain symmetric INT8 quantizer (hard clip at +/-127*scale) is provided as
the comparison baseline; it rounds with the medium row.

The binary32 rule, for both quantizers' ``fake_quant``: a reconstruction
beyond the binary32 range casts to +/-inf, and the cast never warns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


class _Tables(NamedTuple):
    """Per-config kernel tables; region rows are (small, medium, large)."""

    offset: np.ndarray
    step: np.ndarray
    top: np.ndarray
    decode: np.ndarray  # float64 reconstruction of each flag<<8 | byte
    decode32: np.ndarray  # the same, cast to binary32


# The index encoding (region, negative, m) at [region << 8 | negative << 7 | m]
# as flag<<8 | byte. Small and large magnitudes stop at 63, so the entries
# past it are never read; a small zero is +0 whatever the sign.
_m = np.arange(128)
_six = 0x100 | (_m & MAGNITUDE_MASK)
_CODE_INDEX = np.concatenate([
    _six, np.where(_m > 0, _six | SIGN_BIT, _six),
    _m, -_m & 0xFF,
    _six | REGION_BIT, _six | REGION_BIT | SIGN_BIT,
]).astype(np.uint16)

# The fields of each flag<<8 | byte key, as the trace reports them: region
# index, sign bit and magnitude (the |INT8| value for flag-0 codes).
_flag, _byte = np.divmod(np.arange(512), 256)
_KEY_REGION = np.where(_flag == 0, 1, np.where(_byte & REGION_BIT, 2, 0))
_KEY_SIGN = _byte >> 7
_KEY_MAGNITUDE = np.where(_flag == 0, np.where(_KEY_SIGN, 256 - _byte, _byte),
                          _byte & MAGNITUDE_MASK)
for _a in (_CODE_INDEX, _KEY_REGION, _KEY_SIGN, _KEY_MAGNITUDE):
    _a.flags.writeable = False
del _m, _six, _flag, _byte, _a


# The decode table holds all 512 keys: also -128 (flag 0, byte 0x80), never
# emitted but accepted, and values that overflow or do not fit binary32, which
# are read only if their code occurs.
@functools.lru_cache(maxsize=256)
@np.errstate(over="ignore")
def _tables(cfg: QuantConfig) -> _Tables:
    offset = np.array([0.0, 0.0, cfg.high_threshold])
    step = np.array([cfg.fine_step, cfg.scale, cfg.coarse_step])
    top = np.array([MAX_MAGNITUDE, MAX_STANDARD_CODE, MAX_MAGNITUDE], float)
    sign = np.where(_KEY_SIGN, -1.0, 1.0)
    decode = sign * (offset[_KEY_REGION] + _KEY_MAGNITUDE * step[_KEY_REGION])
    tables = _Tables(offset, step, top, decode, decode.astype(np.float32))
    for a in tables:
        a.flags.writeable = False
    return tables


# Huge finite inputs overflow the quotient to +inf, which the minimum clamps
# to the top code; that overflow is expected, not an error.
@np.errstate(over="ignore")
def _round(ax: np.ndarray, offset, step, top) -> np.ndarray:
    """The one rounding rule, min(floor((|x| - offset) / step + 0.5), top),
    computed in place over the float64 magnitudes ``ax`` (>= offset), so it
    rounds half away from zero."""
    np.subtract(ax, offset, out=ax)
    np.divide(ax, step, out=ax)
    np.add(ax, 0.5, out=ax)
    np.floor(ax, out=ax)
    return np.minimum(ax, top, out=ax)


def _encode_index(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Encoder kernel: flag<<8 | byte (uint16) of each element of x."""
    ax = np.abs(x)
    region = _region_index(ax, cfg)
    t = _tables(cfg)
    m = _round(ax, t.offset[region], t.step[region], t.top[region])
    key = np.left_shift(region, 8, dtype=np.uint16)
    key |= np.left_shift(x < 0, 7, dtype=np.uint16)
    key |= m.astype(np.uint16)
    return _CODE_INDEX[key]


def _int8_round(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Standard symmetric INT8 code of x, as a float in [-127, 127]."""
    t = _tables(cfg)
    return np.copysign(_round(np.abs(x), t.offset[1], t.step[1], t.top[1]), x)


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
    return _tables(cfg).decode[key]


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


def encode_tensor(values, cfg: QuantConfig) -> QuantizedTensor:
    x = check_finite(values).astype(np.float64, copy=False)
    key = _encode_index(x, cfg)
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
    x = check_finite(values).astype(np.float64, copy=False)
    if which == "soft_edge":
        return _tables(cfg).decode32[_encode_index(x, cfg)]
    if which == "int8":
        with np.errstate(over="ignore"):
            return (_int8_round(x, cfg) * cfg.scale).astype(np.float32)
    raise ValueError(f"unknown quantizer {which!r}")


def hardware_trace(x: float, cfg: QuantConfig) -> TraceRecord:
    """Bit-exact behavioral trace of the datapath for a single value."""
    v = _one(x)
    key = int(_encode_index(v, cfg)[0])
    region = int(_KEY_REGION[key])
    t = _tables(cfg)
    value, recon = float(v[0]), float(t.decode[key])
    return TraceRecord(
        value=value,
        region=_REGIONS[region],
        selected_step=float(t.step[region]),
        se_flag=key >> 8,
        sign_bit=int(_KEY_SIGN[key]),
        region_bit=int(region == 2),
        magnitude=int(_KEY_MAGNITUDE[key]),
        byte=key & 0xFF,
        reconstructed=recon,
        abs_error=abs(value - recon),
    )
