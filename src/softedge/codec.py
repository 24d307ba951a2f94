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
magnitude kernel, over a = |x|, serves encode, fake-quant and the reports:
m = min(floor(a / step + 0.5), top), half away from zero, then the value
offset + m * step. Most values are small, so every a takes the small row;
``_regions`` picks those at |x| >= L to redo with the medium row, and those
above H, as a = |x| - H, with the large row. The encoder reads region and m
from it and takes the sign from x < 0. ``_magnitude`` is the one value of
|x| for either quantizer: the kernel's value, or for the INT8 baseline (hard
clip at +/-127*scale) the medium row's code times the scale. ``fake_quant``
signs it like x; the metrics' reports subtract it from |x|. The 512-entry
decode table, indexed by flag<<8 | byte, is built from the same value
expression wherever it is read, so fake-quant is decode-then-cast. The
binary32 rule, in ``_magnitude``, ``fake_quant`` and a binary32
``decode_tensor``: a value beyond binary32 casts to +/-inf, quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import MAX_STANDARD_CODE, QuantConfig
from .errors import (LengthMismatch, NonCanonicalCode, check_finite,
                     check_real)

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


def _canonical(values, dtype, top: int, what: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array; NonCanonicalCode at the
    first that is not an integer in [0, top]. An array of ``dtype`` (bool
    flags, uint8 codes, as the encoder and reader build) is not scanned."""
    v = np.asarray(values)
    if v.dtype != dtype:
        ok = np.zeros(v.shape, bool)  # text, complex, objects: never a code
        if v.dtype.kind in "biuf":
            ok = (v >= 0) & (v <= top)
        if v.dtype.kind == "f":
            ok &= v == np.floor(v)
        if not ok.all():
            idx = int(np.argmax(~ok.reshape(-1)))
            raise NonCanonicalCode(
                f"{what} at index {idx} is not an integer in [0, {top}]")
    return np.ascontiguousarray(v, dtype=dtype)


@dataclass
class QuantizedTensor:
    """Encoded tensor: per-element SE flags and code bytes plus the config.
    A flag is a bool, 0 or 1, a code an integer in 0..255; any other (2, -1,
    5.7, 300) raises NonCanonicalCode with its index instead of a cast."""

    config: QuantConfig
    flags: np.ndarray  # bool, shape (n,)
    codes: np.ndarray  # uint8, shape (n,)

    def __post_init__(self):
        self.flags = _canonical(self.flags, bool, 1, "SE flag")
        self.codes = _canonical(self.codes, np.uint8, 0xFF, "code byte")
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


def _regions(ax: np.ndarray, cfg: QuantConfig):
    """The indices of |x| >= L in the 1-d ax = |x|, their magnitudes, and the
    positions among them of |x| > H, in input order; |x| = L, H are medium."""
    mid = np.flatnonzero(ax >= cfg.low_threshold)
    medium = ax.take(mid)
    return mid, medium, np.flatnonzero(medium > cfg.high_threshold)


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
    """The one rounding rule, min(floor(a / step + 0.5), top), of the float64
    magnitudes ``a`` (>= 0, the large row's already less H), as a new array,
    so it rounds half away from zero."""
    m = np.divide(a, step)
    np.add(m, 0.5, out=m)
    np.floor(m, out=m)
    return np.minimum(m, top, out=m)


def _kernel(ax: np.ndarray, cfg: QuantConfig, offset, step,
            sets=None) -> np.ndarray:
    """The one magnitude kernel: offset[r] + m * step[r] of each element of
    the 1-d float64 magnitudes ax = |x|, m and r being its rounded magnitude
    and region. Every element is rounded with the small row; the ``_regions``
    sets at |x| >= L (``sets``, if the caller has them) are redone with the
    medium row, those above H, as |x| - H, with the large."""
    mid, medium, big = _regions(ax, cfg) if sets is None else sets
    rows = zip((ax, medium, medium.take(big) - cfg.high_threshold),
               _rows(cfg)[1], _TOP)
    out, medium, large = (_value(_round(*row), offset[r], step[r])
                          for r, row in enumerate(rows))
    medium[big] = large
    out[mid] = medium
    return out


@np.errstate(over="ignore")  # the binary32 rule
def _magnitude(ax: np.ndarray, cfg: QuantConfig, which: str,
               dtype=np.float32, sets=None) -> np.ndarray:
    """|fake_quant| of the 1-d float64 magnitudes ax, as ``dtype``: the
    kernel's value (soft_edge; ``sets`` are ax's ``_regions``, if the caller
    has them) or the INT8 code times the scale (int8), cast once, so in
    binary32 a value beyond it is +inf. The one magnitude behind
    ``fake_quant`` and the reports."""
    if which == "soft_edge":
        m = _kernel(ax, cfg, *_rows(cfg), sets)
    else:
        m = _round(ax, cfg.scale, MAX_STANDARD_CODE) * cfg.scale
    return m.astype(dtype, copy=False)


def _encode_index(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Encoder kernel: flag<<8 | byte (uint16) of each element of x, looked
    up at region << 8 | negative << 7 | m; the kernel with offset region << 8
    and step 1 gives region << 8 | m."""
    key = _kernel(np.abs(x), cfg, (0, 256, 512), (1, 1, 1)).astype(np.intp)
    key |= np.left_shift(x < 0, 7, dtype=np.intp)
    return _CODE_INDEX.take(key)


def _int8_round(x: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Standard symmetric INT8 code of x, as a float in [-127, 127]."""
    return np.copysign(_round(np.abs(x), cfg.scale, MAX_STANDARD_CODE), x)


def _one(x: float) -> np.ndarray:
    """The scalar x as a checked one-element float64 array."""
    return check_finite([x]).astype(np.float64, copy=False)


def classify(x: float, cfg: QuantConfig) -> RegionClass:
    """Three-way region classification; boundaries |x| = L and |x| = H are
    Medium."""
    mid, _, big = _regions(np.abs(_one(x)), cfg)
    return _REGIONS[mid.size + big.size]


def se_encode(x: float, cfg: QuantConfig) -> SoftEdgeCode:
    key = int(_encode_index(_one(x), cfg)[0])
    return SoftEdgeCode(se_flag=key >> 8, byte=key & 0xFF)


def se_decode(c: SoftEdgeCode, cfg: QuantConfig, strict: bool = True) -> float:
    q = QuantizedTensor(cfg, [c.se_flag], [c.byte])
    return float(decode_tensor(q, strict)[0])


def int8_encode(x: float, cfg: QuantConfig) -> int:
    return int(_int8_round(_one(x), cfg)[0])


def int8_decode(b: int, cfg: QuantConfig) -> float:
    return float(b) * cfg.scale


def _walk(x: np.ndarray, bounds):
    """(lo, hi, b) of each [lo, hi) in ``bounds``, b the float64 widening of
    the flattened x[lo:hi], gated by ``check_real``: the one loop that reads
    input blocks. A block with a NaN/inf sends x to ``check_finite``."""
    flat = check_real(x).reshape(-1)
    for lo, hi in bounds:
        with np.errstate(invalid="ignore"):  # a signalling NaN, found next
            b = flat[lo:hi].astype(np.float64, copy=False)
        if not np.isfinite(b).all():
            check_finite(x)
        yield lo, hi, b


def _blocked(values, dtype, kernel):
    """``kernel`` over the ``_walk`` of BLOCK-element slices of the values,
    into one ``dtype`` array shaped like them: elementwise, one pass's bits."""
    x = np.asarray(values)
    out = np.empty(x.size, dtype)
    bounds = ((i, i + BLOCK) for i in range(0, x.size, BLOCK))
    for lo, hi, b in _walk(x, bounds):
        out[lo:hi] = kernel(b)
    # [()] gives a 0-d input a scalar, as indexing it whole would
    return out.reshape(x.shape)[()]


def encode_tensor(values, cfg: QuantConfig) -> QuantizedTensor:
    key = _blocked(values, np.uint16, lambda b: _encode_index(b, cfg))
    return QuantizedTensor(config=cfg, flags=key > 0xFF,
                           codes=key.astype(np.uint8))


def decode_tensor(q: QuantizedTensor, strict: bool = True,
                  dtype=np.float64) -> np.ndarray:
    """Reconstruct values from an encoded tensor, BLOCK elements at a time,
    the one decoder: the float64 decode-table entry of each flag<<8 | byte,
    or that value cast to ``dtype`` (decode-then-cast; a value beyond it
    casts to +/-inf, quietly). The cast is elementwise, so the table is cast
    once and each block gathered from it into the output. A strict one
    rejects the negative-zero code."""
    out = np.empty(q.codes.size, dtype)
    with np.errstate(over="ignore"):  # the binary32 rule
        table = _decode_table(q.config).astype(out.dtype)
    flags, codes = q.flags.reshape(-1), q.codes.reshape(-1)
    for i in range(0, out.size, BLOCK):
        key = np.left_shift(flags[i:i + BLOCK], 8, dtype=np.uint16)
        key |= codes[i:i + BLOCK]
        if strict and (key == NEGATIVE_ZERO).any():
            idx = i + int(np.argmax(key == NEGATIVE_ZERO))
            raise NonCanonicalCode(f"negative-zero small code at index {idx}")
        # every key is below 512, so "clip" never moves one; unlike the
        # default "raise", it writes into out without a buffer
        table.take(key, out=out[i:i + BLOCK], mode="clip")
    return out.reshape(q.codes.shape)


def fake_quant(values, cfg: QuantConfig, which: str = "soft_edge") -> np.ndarray:
    """Quantize-then-dequantize, cast through binary32: the float64
    ``_magnitude`` of |x| with x's sign, then cast. Soft-edge adds + 0.0
    first, so an exact zero is +0 and a value that underflows binary32 keeps
    x's sign; INT8 keeps -0.0 for a negative x that rounds to 0.

    ``which`` selects the soft-edge path or the plain INT8 baseline.
    Idempotent: fake_quant(fake_quant(t)) == fake_quant(t) bitwise.
    """
    if which not in ("soft_edge", "int8"):
        raise ValueError(f"unknown quantizer {which!r}")

    def kernel(b):
        m = _magnitude(np.abs(b), cfg, which, np.float64)
        np.copysign(m, b, out=m)
        if which == "soft_edge":
            m += 0.0
        return m
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
