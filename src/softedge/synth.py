"""Deterministic synthetic activation generators.

Randomness comes from a counter-based splitmix64 generator, fully specified
here so streams are bitwise reproducible across platforms and languages:

    state(k) = (seed + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state(k); z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

The k-th uniform in [0, 1) is (z >> 11) * 2^-53; the half-open variant used
inside the log of Box-Muller is ((z >> 11) + 1) * 2^-53, in (0, 1]. Distinct
logical streams within one generation use disjoint counter ranges, reserved
in a fixed documented order, so adding draws to one stream never perturbs
another.

Gaussians use the Box-Muller transform with both outputs consumed in order:
pair j draws u1 from counter 2j and u2 from counter 2j+1, and yields
r*cos(theta) then r*sin(theta) with r = sqrt(-2 ln u1), theta = 2*pi*u2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec

__all__ = ["DistSpec", "generate", "uniforms", "gaussians"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)


def _splitmix64(seed: int, start: int, n: int) -> np.ndarray:
    """Raw 64-bit outputs for counters start .. start+n-1."""
    k = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + k * _GAMMA
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, start: int, n: int, open_zero: bool = False) -> np.ndarray:
    """n uniform doubles from counters [start, start+n); [0,1) by default,
    (0,1] with open_zero (safe under log)."""
    z = _splitmix64(seed, start, n) >> np.uint64(11)
    if open_zero:
        return (z.astype(np.float64) + 1.0) * _INV_2_53
    return z.astype(np.float64) * _INV_2_53


def gaussians(seed: int, start: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over counters
    [start, start + 2*ceil(n/2))."""
    pairs = (n + 1) // 2
    u = uniforms(seed, start, 2 * pairs, open_zero=True)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def _gaussian_counters(n: int) -> int:
    return 2 * ((n + 1) // 2)


@dataclass(frozen=True)
class DistSpec:
    """Specification of one synthetic activation tensor."""

    kind: str  # gaussian | outlier_mixture | student_t | lognormal
    n: int
    seed: int
    mean: float = 0.0
    std: float = 1.0
    outlier_fraction: float = 0.001
    outlier_low: float = 10.0
    outlier_high: float = 30.0
    degrees_of_freedom: int = 4

    def __post_init__(self):
        kinds = {"gaussian", "outlier_mixture", "student_t", "lognormal"}
        if self.kind not in kinds:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        if self.n < 0:
            raise InvalidSpec(f"n must be >= 0, got {self.n}")
        if not all(map(math.isfinite, (self.mean, self.std, self.outlier_low,
                                       self.outlier_high))):
            raise InvalidSpec("mean, std, outlier_low and outlier_high must be finite")
        if not (self.std > 0):
            raise InvalidSpec(f"std must be > 0, got {self.std}")
        if not (0 <= self.outlier_fraction < 1):
            raise InvalidSpec(
                f"outlier_fraction must be in [0, 1), got {self.outlier_fraction}"
            )
        if self.outlier_low >= self.outlier_high:
            raise InvalidSpec("need outlier_low < outlier_high")
        if self.degrees_of_freedom < 1:
            raise InvalidSpec("degrees_of_freedom must be >= 1")


# A value beyond binary64 becomes +/-inf quietly, for write_tensor to reject.
@np.errstate(over="ignore")
def generate(spec: DistSpec) -> np.ndarray:
    """Deterministic sample per (spec, seed); returns float64 values.

    outlier_mixture counter layout (n elements): decisions [0, n), body
    gaussians [n, n + 2*ceil(n/2)), outlier magnitudes and signs in the next
    two blocks of n. An element is an outlier when its decision uniform is
    below outlier_fraction; its magnitude is uniform in
    [outlier_low, outlier_high] of std units with a random sign.
    """
    n, seed = spec.n, spec.seed
    if n == 0:
        return np.empty(0, dtype=np.float64)

    if spec.kind == "gaussian":
        return spec.mean + spec.std * gaussians(seed, 0, n)

    if spec.kind == "lognormal":
        return np.exp(spec.mean + spec.std * gaussians(seed, 0, n))

    if spec.kind == "student_t":
        # z / sqrt(chi2_k / k): numerator first, then k chi-square blocks
        k = spec.degrees_of_freedom
        off = 0
        z = gaussians(seed, off, n)
        off += _gaussian_counters(n)
        chi2 = np.zeros(n, dtype=np.float64)
        for _ in range(k):
            g = gaussians(seed, off, n)
            chi2 += g * g
            off += _gaussian_counters(n)
        return spec.mean + spec.std * z / np.sqrt(chi2 / k)

    # outlier_mixture
    off = 0
    decisions = uniforms(seed, off, n)
    off += n
    body = spec.mean + spec.std * gaussians(seed, off, n)
    off += _gaussian_counters(n)
    mag_u = uniforms(seed, off, n)
    off += n
    sign_u = uniforms(seed, off, n)
    magnitudes = spec.std * (
        spec.outlier_low + mag_u * (spec.outlier_high - spec.outlier_low)
    )
    signs = np.where(sign_u < 0.5, -1.0, 1.0)
    is_outlier = decisions < spec.outlier_fraction
    return np.where(is_outlier, signs * magnitudes, body)
