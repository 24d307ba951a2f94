"""Offline calibration: percentile clipping and quantizer configuration.

The scale is chosen so the p-th percentile of the absolute calibration
activations maps to the top standard code magnitude (127). The two
region thresholds default to fixed multiples of the scale:

* ``low_threshold  = 64 * (scale / fine_divisor)`` -- the exact saturation
  point of the 6-bit fine codebook, so the fine region has no dead zone.
* ``high_threshold = 127 * scale`` -- the standard INT8 clip point, so the
  coarse region starts exactly where a plain INT8 quantizer would clip.

A percentile reads two adjacent order statistics of |x|, so |x| is not
sorted whole: ``_sorted_abs`` selects them, with a full sort's bits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (DegenerateRange, EmptyTensor, InvalidConfig,
                     PercentileOutOfRange, check_finite, check_number,
                     check_real)

MAX_STANDARD_CODE = 127
# The fields the codec reads, in the order QSE1 stores them.
CODEC_FIELDS = ("scale", "low_threshold", "high_threshold", "fine_divisor",
                "coarse_multiplier")

__all__ = [
    "QuantConfig",
    "percentile_abs",
    "calibrate_scale",
    "derive_config",
    "calibrate",
    "calibrate_grid",
]


@dataclass(frozen=True)
class QuantConfig:
    """Calibrated quantizer parameters, the offline-stored artifact.

    ``percentile`` and ``calib_count`` are provenance metadata only; they do
    not affect encoding and are not stored in packed tensor files.
    """

    scale: float
    low_threshold: float
    high_threshold: float
    fine_divisor: float = 4.0
    coarse_multiplier: float = 4.0
    percentile: float = 100.0
    calib_count: int = 0

    def __post_init__(self):
        for f in (*CODEC_FIELDS, "percentile"):
            object.__setattr__(self, f, check_number(
                getattr(self, f), InvalidConfig, f"config field {f}"))
        if not check_number(self.calib_count, InvalidConfig,
                            "config field calib_count").is_integer():
            raise InvalidConfig(
                f"calib_count must be an integer, got {self.calib_count!r}")
        object.__setattr__(self, "calib_count", int(self.calib_count))
        self.validate()

    def validate(self):
        if not all(math.isfinite(v) for v in self.codec_fields):
            raise InvalidConfig("non-finite config field")
        if not 0 < self.percentile <= 100:
            raise InvalidConfig(
                f"percentile must be in (0, 100], got {self.percentile}")
        if self.calib_count < 0:
            raise InvalidConfig(f"calib_count must be >= 0, got {self.calib_count}")
        if self.scale <= 0:
            raise InvalidConfig(f"scale must be > 0, got {self.scale}")
        if not (0 < self.low_threshold < self.high_threshold):
            raise InvalidConfig(
                f"need 0 < L < H, got L={self.low_threshold} H={self.high_threshold}"
            )
        if self.fine_divisor < 1 or self.coarse_multiplier < 1:
            raise InvalidConfig("fine_divisor and coarse_multiplier must be >= 1")
        if not (self.fine_step > 0 and math.isfinite(self.coarse_step)):
            raise InvalidConfig(
                f"steps must be finite and > 0, got fine {self.fine_step} "
                f"and coarse {self.coarse_step}")

    @property
    def codec_fields(self) -> tuple:
        """The values of CODEC_FIELDS, in that order."""
        return tuple(getattr(self, f) for f in CODEC_FIELDS)

    @property
    def fine_step(self) -> float:
        return self.scale / self.fine_divisor

    @property
    def coarse_step(self) -> float:
        return self.scale * self.coarse_multiplier

    def scaled(self, c: float) -> "QuantConfig":
        """Config with scale and both thresholds multiplied by c > 0."""
        return replace(self, scale=self.scale * c,
                       low_threshold=self.low_threshold * c,
                       high_threshold=self.high_threshold * c)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "QuantConfig":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise InvalidConfig(f"config is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise InvalidConfig("config must be a JSON object")
        missing = set(CODEC_FIELDS) - doc.keys()
        if missing:
            raise InvalidConfig(f"config missing keys: {sorted(missing)}")
        return cls(**{k: doc[k] for k in CODEC_FIELDS},
                   percentile=doc.get("percentile", 100.0),
                   calib_count=doc.get("calib_count", 0))


def _check_percentile(p) -> float:
    """p as a Python float, so a binary32 p computes in float64 like any other."""
    p = check_number(p, PercentileOutOfRange, "percentile")
    if not (0 < p <= 100):
        raise PercentileOutOfRange(f"percentile must be in (0, 100], got {p}")
    return p


def _rank(p: float, n: int):
    """(lo, frac): the p-th percentile of n order statistics interpolates
    the lo-th (from 0) and the next by frac, r = (p/100)*(n-1) = lo + frac."""
    r = (p / 100.0) * (n - 1)
    lo = int(math.floor(r))
    return lo, r - lo


def _sorted_abs(values, p: float = 0.0) -> np.ndarray:
    """The checked |values|, binary32 if given binary32 (exact) else float64,
    flattened, with its order statistics from the lowest rank the p-th
    percentile reads (``_rank``) up in their sorted places: the one
    selection that calibration reads. It partitions at that rank and sorts
    only the elements above it; p = 0 sorts them all. NaN and inf sort
    last, so a non-finite top sends the values to ``check_finite``."""
    x = check_real(values)
    if x.size == 0:
        raise EmptyTensor("cannot take a percentile of an empty tensor")
    v = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
    w = np.abs(v).reshape(-1)
    lo = _rank(p, w.size)[0]
    w.partition(lo)
    w[lo:].sort()
    if not np.isfinite(w[-1]):
        check_finite(x)
    return w


def _interpolate(w: np.ndarray, p: float) -> float:
    """p-th percentile of the magnitudes w, sorted from its rank up, by the
    rule that ``percentile_abs`` documents, in float64: under NEP 50 a
    binary32 w[i] and a Python float combine in binary32, so w[i] is
    widened first."""
    lo, frac = _rank(p, w.size)
    if lo >= w.size - 1:
        return float(w[-1])
    a, b = float(w[lo]), float(w[lo + 1])
    return a + frac * (b - a)


def _leading(percentiles) -> list:
    """The checked percentiles before the first out of range."""
    checked = []
    for p in percentiles:
        try:
            checked.append(_check_percentile(p))
        except PercentileOutOfRange:
            break
    return checked


def _clip_scale(clip: float) -> float:
    if clip <= 0:
        raise DegenerateRange("all-zero calibration data (percentile of |v| is 0)")
    return clip / MAX_STANDARD_CODE


def percentile_abs(values, p: float) -> float:
    """p-th percentile of all |values| by linear interpolation between order
    statistics: r = (p/100)*(n-1); result interpolates w[floor(r)] and the
    next order statistic by frac(r).
    """
    p = _check_percentile(p)
    return _interpolate(_sorted_abs(values, p), p)


def calibrate_scale(values, p: float) -> float:
    """Scale such that the p-th percentile of |values| maps to code 127."""
    return _clip_scale(percentile_abs(values, p))


def derive_config(scale: float, fine_divisor: float = 4.0,
                  coarse_multiplier: float = 4.0, percentile: float = 100.0,
                  calib_count: int = 0) -> QuantConfig:
    """Build a QuantConfig with the default threshold rule from a scale."""
    scale = check_number(scale, InvalidConfig, "scale")
    fine_divisor = check_number(fine_divisor, InvalidConfig, "fine_divisor")
    coarse_multiplier = check_number(coarse_multiplier, InvalidConfig,
                                     "coarse_multiplier")
    if fine_divisor < 1 or coarse_multiplier < 1:
        raise InvalidConfig("fine_divisor and coarse_multiplier must be >= 1")
    return QuantConfig(
        scale=scale,
        low_threshold=64.0 * (scale / fine_divisor),
        high_threshold=MAX_STANDARD_CODE * scale,
        fine_divisor=fine_divisor,
        coarse_multiplier=coarse_multiplier,
        percentile=percentile,
        calib_count=calib_count,
    )


def calibrate(values, p: float, fine_divisor: float = 4.0,
              coarse_multiplier: float = 4.0) -> QuantConfig:
    """Percentile-calibrate a scale and derive the full config in one step."""
    scale = calibrate_scale(values, p)  # checks values before np.size counts
    return derive_config(scale, fine_divisor, coarse_multiplier,
                         percentile=p, calib_count=np.size(values))


def calibrate_grid(values, percentiles, fine_divisors=(4.0,),
                   coarse_multipliers=(4.0,)) -> list:
    """``calibrate(values, p, fd, cm)`` of every grid row, p outermost, from
    one selection of |values|, at the lowest percentile before the first
    out of range: every row that a failing row does not stop reads it.

    The first row that fails, in grid order, raises what its ``calibrate``
    would; an empty grid checks nothing.
    """
    percentiles, configs, w = list(percentiles), [], None
    for p, fd, cm in itertools.product(percentiles, fine_divisors,
                                       coarse_multipliers):
        p = _check_percentile(p)
        if w is None:
            w = _sorted_abs(values, min(_leading(percentiles)))
        configs.append(derive_config(_clip_scale(_interpolate(w, p)), fd, cm,
                                     percentile=p, calib_count=w.size))
    return configs
