"""Deterministic synthetic activation generators.

Randomness comes from a counter-based splitmix64 generator, fully specified
here; its integer outputs and uniforms are exact on any platform:

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
numpy's float64 log and exp differ by 1 ulp between its AVX-512 and
baseline loops, so float64 outputs can differ across CPUs; the binary32
outputs the CLI writes held under both (ROADMAP, State and item 3).

Any counter can be drawn on its own (Steele, Lea & Flood, OOPSLA 2014), so
the counter layout is the whole contract: given numpy's math loops, it
fixes every output bit in whatever order the counters are drawn.
``generate`` keeps the layout but draws only the counters whose values it
uses, BLOCK at a time into scratch that each block reuses; an outlier
mixture reads its magnitude and sign counters at the outlier elements
alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SIZE_MAX, InvalidSpec, check_number

__all__ = ["DistSpec", "generate", "uniforms", "gaussians"]

KINDS = ("gaussian", "outlier_mixture", "student_t", "lognormal")
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)
# Counters per block (2**15 Box-Muller pairs): a block's scratch stays in
# cache and is reused, instead of a fresh n-element array per step.
BLOCK = 1 << 16
# student_t draws degrees_of_freedom gaussian blocks per output block, so its
# time grows with them; at this bound it is already near a gaussian
# (variance 1024/1022).
MAX_DF = 1024


def _mix(seed: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 in place: the uint64 counters z become their raw outputs.
    t is scratch of z's size."""
    z *= np.uint64(_GAMMA)  # state(k) = k * gamma + (seed + gamma)
    z += np.uint64((int(seed) + _GAMMA) & 0xFFFFFFFFFFFFFFFF)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _splitmix64_at(seed: int, counters) -> np.ndarray:
    """Raw 64-bit outputs at the given integer counters, in their order."""
    z = np.asarray(counters).astype(np.uint64)
    return _mix(seed, z, np.empty_like(z))


def _unit(z: np.ndarray, out=None, open_zero: bool = False) -> np.ndarray:
    """The uniform doubles of raw outputs z (which this shifts in place)."""
    z >>= np.uint64(11)
    bits = z.view(np.int64)  # below 2**53, so exact as int64 and as float64
    out = np.empty(z.size) if out is None else out
    if open_zero:
        np.add(bits, 1.0, out=out)
        out *= _INV_2_53
        return out
    return np.multiply(bits, _INV_2_53, out=out)


def uniforms(seed: int, start: int, n: int, open_zero: bool = False) -> np.ndarray:
    """n uniform doubles from counters [start, start+n); [0,1) by default,
    (0,1] with open_zero (safe under log)."""
    counters = np.arange(start, start + n, dtype=np.uint64)
    return _unit(_splitmix64_at(seed, counters), open_zero=open_zero)


class _Draws:
    """One seed's counters, drawn at most ``size`` (<= BLOCK) at a time into
    scratch that every block reuses, so a block allocates nothing."""

    def __init__(self, seed: int, size: int):
        self.seed = seed
        size += size & 1  # whole pairs
        self.base = np.arange(size, dtype=np.uint64)
        self.z, self.t = np.empty((2, size), dtype=np.uint64)
        self.u = np.empty(size)
        self.r, self.theta, self.c = np.empty((3, (size + 1) // 2))

    def uniforms(self, start: int, m: int, open_zero: bool = False) -> np.ndarray:
        """``uniforms(seed, start, m, open_zero)``, in scratch."""
        z = np.add(self.base[:m], np.uint64(start), out=self.z[:m])
        return _unit(_mix(self.seed, z, self.t[:m]), self.u[:m], open_zero)

    def gaussians(self, start: int, out: np.ndarray) -> None:
        """Write ``gaussians(seed, start, out.size)`` into out."""
        m = out.size
        pairs, half = (m + 1) // 2, m // 2
        u = self.uniforms(start, 2 * pairs, open_zero=True)
        r = np.log(u[0::2], out=self.r[:pairs])
        r *= -2.0
        np.sqrt(r, out=r)
        theta = np.multiply(u[1::2], 2.0 * math.pi, out=self.theta[:pairs])
        np.multiply(r, np.cos(theta, out=self.c[:pairs]), out=out[0::2])
        s = np.sin(theta, out=self.c[:pairs])
        np.multiply(r[:half], s[:half], out=out[1::2])


def gaussians(seed: int, start: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over counters
    [start, start + 2*ceil(n/2))."""
    draws, out = _Draws(seed, min(n, BLOCK)), np.empty(n)
    for i in range(0, n, BLOCK):
        draws.gaussians(start + i, out[i:i + BLOCK])
    return out


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
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind {self.kind!r}")
        for f in ("n", "seed", "degrees_of_freedom"):
            v = getattr(self, f)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise InvalidSpec(f"{f} must be an integer, got {v!r}")
        for f in ("mean", "std", "outlier_fraction", "outlier_low", "outlier_high"):
            object.__setattr__(self, f, check_number(getattr(self, f), InvalidSpec, f))
        if not 0 <= self.n <= SIZE_MAX:
            raise InvalidSpec(f"n must be in [0, {SIZE_MAX}], got {self.n}")
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
        if not 1 <= self.degrees_of_freedom <= MAX_DF:
            raise InvalidSpec(f"degrees_of_freedom must be in [1, {MAX_DF}], "
                              f"got {self.degrees_of_freedom}")


# A value beyond binary64, or beyond ``dtype``, becomes +/-inf quietly, for
# write_tensor to reject.
@np.errstate(over="ignore")
def generate(spec: DistSpec, dtype=np.float64) -> np.ndarray:
    """Deterministic sample per (spec, seed); returns float64 values, or
    each value cast to ``dtype`` (the CLI asks for binary32, its file type).

    gaussian and lognormal (exp of the gaussian) read gaussians from
    counters [0, 2*ceil(n/2)); student_t reads its numerator there and its
    k chi-square gaussians from the next k ranges of that size, in order.

    outlier_mixture counter layout (n elements): decisions [0, n), body
    gaussians [n, n + 2*ceil(n/2)), outlier magnitudes and signs in the next
    two blocks of n. An element is an outlier when its decision uniform is
    below outlier_fraction; its magnitude is uniform in
    [outlier_low, outlier_high] of std units with a random sign.

    The values are computed in float64 BLOCK elements at a time, with
    mean + std * z applied in place (the same rounding); a block's outliers
    overwrite its body before the block is cast to ``dtype``.
    """
    n, seed, kind = spec.n, spec.seed, spec.kind
    g_n = _gaussian_counters(n)
    size = min(n, BLOCK)
    draws, out = _Draws(seed, size), np.empty(n, dtype)
    wide = None if out.dtype == np.float64 else np.empty(size)
    body = n if kind == "outlier_mixture" else 0
    if kind == "student_t":
        chi2, g = np.empty((2, size))
    for i in range(0, n, BLOCK):
        z = out[i:i + BLOCK] if wide is None else wide[:min(BLOCK, n - i)]
        m = z.size
        if kind == "outlier_mixture":
            hits = np.flatnonzero(draws.uniforms(i, m) < spec.outlier_fraction)
        draws.gaussians(body + i, z)
        z *= spec.std
        if kind == "student_t":  # z / sqrt(chi2_k / k)
            c, gm = chi2[:m], g[:m]
            c.fill(0.0)
            for j in range(1, spec.degrees_of_freedom + 1):
                draws.gaussians(j * g_n + i, gm)
                gm *= gm
                c += gm
            c /= spec.degrees_of_freedom
            z /= np.sqrt(c, out=c)
        z += spec.mean
        if kind == "lognormal":
            np.exp(z, out=z)
        if kind == "outlier_mixture":  # overwrite the body at the outliers
            mag_u = _unit(_splitmix64_at(seed, hits + (i + n + g_n)))
            sign_u = _unit(_splitmix64_at(seed, hits + (i + 2 * n + g_n)))
            magnitudes = spec.std * (
                spec.outlier_low + mag_u * (spec.outlier_high - spec.outlier_low)
            )
            z[hits] = np.where(sign_u < 0.5, -1.0, 1.0) * magnitudes
        if wide is not None:
            out[i:i + m] = z
    return out
