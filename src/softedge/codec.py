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

Rounding is half away from zero throughout. A plain symmetric INT8 quantizer
(hard clip at +/-127*scale) is provided as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import QuantConfig
from .errors import LengthMismatch, NonCanonicalCode, NonFiniteInput

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
MAX_STANDARD = 127


class RegionClass(Enum):
    SMALL = "Small"
    MEDIUM = "Medium"
    LARGE = "Large"


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
        a, b = self.config, other.config
        same_cfg = (
            a.scale == b.scale
            and a.low_threshold == b.low_threshold
            and a.high_threshold == b.high_threshold
            and a.fine_divisor == b.fine_divisor
            and a.coarse_multiplier == b.coarse_multiplier
        )
        return (
            same_cfg
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


def _check_finite(x: np.ndarray, error=NonFiniteInput, where: str = ""):
    """Raise ``error`` naming the first NaN or infinity in ``x``, if any."""
    bad = ~np.isfinite(x)
    if bad.any():
        idx = int(np.argmax(bad))
        raise error(f"{where}non-finite value at index {idx}", index=idx)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


# Huge finite inputs overflow the quotients below to +/-inf, which the clip
# maps to the top code; that overflow is expected, not an error.
@np.errstate(over="ignore")
def _int8_round(x, cfg: QuantConfig):
    """Standard symmetric INT8 code of x, as a float in [-127, 127]."""
    return np.clip(_round_half_away(x / cfg.scale), -MAX_STANDARD, MAX_STANDARD)


@np.errstate(over="ignore")
def _encode_arrays(x: np.ndarray, cfg: QuantConfig):
    """Vectorized encoder core; returns (flags bool[n], codes uint8[n])."""
    ax = np.abs(x)
    small = ax < cfg.low_threshold
    large = ax > cfg.high_threshold
    medium = ~small & ~large

    codes = np.zeros(x.shape, dtype=np.uint8)

    # small: 6-bit sign-magnitude at the fine step; zero is canonical +0
    m_small = np.clip(_round_half_away(ax / cfg.fine_step), 0, MAX_MAGNITUDE)
    m_small = m_small.astype(np.uint8)
    neg_small = (x < 0) & (m_small > 0)
    codes = np.where(small, m_small | np.where(neg_small, SIGN_BIT, 0), codes)

    # medium: standard symmetric INT8, two's complement byte
    q_med = _int8_round(x, cfg)
    codes = np.where(medium, q_med.astype(np.int64).astype(np.uint8), codes)

    # large: offset-encoded 6-bit magnitude at the coarse step
    m_large = np.clip(
        _round_half_away((ax - cfg.high_threshold) / cfg.coarse_step),
        0,
        MAX_MAGNITUDE,
    ).astype(np.uint8)
    codes = np.where(
        large, m_large | REGION_BIT | np.where(x < 0, SIGN_BIT, 0), codes
    )

    flags = small | large
    return flags, codes.astype(np.uint8)


def _decode_arrays(flags: np.ndarray, codes: np.ndarray, cfg: QuantConfig,
                   strict: bool = True) -> np.ndarray:
    """Vectorized decoder core; returns float64 reconstructions."""
    if strict:
        neg_zero = flags & (codes == SIGN_BIT)
        if np.any(neg_zero):
            idx = int(np.argmax(neg_zero))
            raise NonCanonicalCode(
                f"negative-zero small code at index {idx}"
            )
    sign = np.where(codes & SIGN_BIT, -1.0, 1.0)
    m = (codes & MAGNITUDE_MASK).astype(np.float64)
    small_val = sign * m * cfg.fine_step
    large_val = sign * (cfg.high_threshold + m * cfg.coarse_step)
    se_val = np.where(codes & REGION_BIT, large_val, small_val)
    int8 = codes.astype(np.int64)
    int8 = np.where(int8 >= 128, int8 - 256, int8)  # -128 accepted defensively
    med_val = int8.astype(np.float64) * cfg.scale
    return np.where(flags, se_val, med_val)


def classify(x: float, cfg: QuantConfig) -> RegionClass:
    """Three-way region classification; boundaries |x| = L and |x| = H are
    Medium."""
    if not math.isfinite(x):
        raise NonFiniteInput(f"non-finite input {x!r}")
    ax = abs(x)
    if ax < cfg.low_threshold:
        return RegionClass.SMALL
    if ax > cfg.high_threshold:
        return RegionClass.LARGE
    return RegionClass.MEDIUM


def se_encode(x: float, cfg: QuantConfig) -> SoftEdgeCode:
    if not math.isfinite(x):
        raise NonFiniteInput(f"non-finite input {x!r}")
    arr = np.asarray([x], dtype=np.float64)
    flags, codes = _encode_arrays(arr, cfg)
    return SoftEdgeCode(se_flag=int(flags[0]), byte=int(codes[0]))


def se_decode(c: SoftEdgeCode, cfg: QuantConfig, strict: bool = True) -> float:
    flags = np.asarray([bool(c.se_flag)])
    codes = np.asarray([c.byte], dtype=np.uint8)
    return float(_decode_arrays(flags, codes, cfg, strict=strict)[0])


def int8_encode(x: float, cfg: QuantConfig) -> int:
    if not math.isfinite(x):
        raise NonFiniteInput(f"non-finite input {x!r}")
    return int(_int8_round(np.float64(x), cfg))


def int8_decode(b: int, cfg: QuantConfig) -> float:
    return float(b) * cfg.scale


def encode_tensor(values, cfg: QuantConfig) -> QuantizedTensor:
    x = np.asarray(values, dtype=np.float64)
    _check_finite(x)
    flags, codes = _encode_arrays(x, cfg)
    return QuantizedTensor(config=cfg, flags=flags, codes=codes)


def decode_tensor(q: QuantizedTensor, strict: bool = True) -> np.ndarray:
    """Reconstruct values (float64) from an encoded tensor."""
    return _decode_arrays(q.flags, q.codes, q.config, strict=strict)


def fake_quant(values, cfg: QuantConfig, which: str = "soft_edge") -> np.ndarray:
    """Quantize-then-dequantize, cast through binary32.

    ``which`` selects the soft-edge path or the plain INT8 baseline.
    Idempotent: fake_quant(fake_quant(t)) == fake_quant(t) bitwise.
    """
    x = np.asarray(values, dtype=np.float64)
    _check_finite(x)
    if which == "soft_edge":
        flags, codes = _encode_arrays(x, cfg)
        out = _decode_arrays(flags, codes, cfg)
    elif which == "int8":
        out = _int8_round(x, cfg) * cfg.scale
    else:
        raise ValueError(f"unknown quantizer {which!r}")
    return out.astype(np.float32)


def hardware_trace(x: float, cfg: QuantConfig) -> TraceRecord:
    """Bit-exact behavioral trace of the datapath for a single value."""
    region = classify(x, cfg)
    code = se_encode(x, cfg)
    recon = se_decode(code, cfg)
    step = {
        RegionClass.SMALL: cfg.fine_step,
        RegionClass.MEDIUM: cfg.scale,
        RegionClass.LARGE: cfg.coarse_step,
    }[region]
    if code.se_flag:
        sign_bit, region_bit, magnitude = (
            code.sign_bit, code.region_bit, code.magnitude,
        )
    else:
        sign_bit = 1 if code.int8_value < 0 else 0
        region_bit = 0
        magnitude = abs(code.int8_value)
    return TraceRecord(
        value=float(x),
        region=region,
        selected_step=step,
        se_flag=code.se_flag,
        sign_bit=sign_bit,
        region_bit=region_bit,
        magnitude=magnitude,
        byte=code.byte,
        reconstructed=recon,
        abs_error=abs(float(x) - recon),
    )
