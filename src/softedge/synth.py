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
uses, BLOCK at a time through ``uniforms`` and one Box-Muller, each block
with its own block-sized temporaries; an outlier mixture reads its
magnitude and sign counters at the outlier elements alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SIZE_MAX, InvalidSpec, check_integer, check_number

__all__ = ["DistSpec", "generate", "uniforms", "gaussians"]

KINDS = ("gaussian", "outlier_mixture", "student_t", "lognormal")
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)
# Counters per block (2**15 Box-Muller pairs): a block's temporaries stay
# in cache, instead of a fresh n-element array per step.
BLOCK = 1 << 16
# student_t draws degrees_of_freedom gaussian blocks per output block, so its
# time grows with them; at this bound it is already near a gaussian
# (variance 1024/1022).
MAX_DF = 1024


def _mix(seed: int, z: np.ndarray) -> np.ndarray:
    """splitmix64 in place: the uint64 counters z become their raw outputs."""
    t = np.empty_like(z)  # every shift lands here, not in a fresh array
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
    return _mix(seed, np.asarray(counters).astype(np.uint64))


def _unit(z: np.ndarray, open_zero: bool = False) -> np.ndarray:
    """The uniform doubles of raw outputs z (which this shifts in place)."""
    z >>= np.uint64(11)
    bits = z.view(np.int64)  # below 2**53, so exact as int64 and as float64
    if open_zero:
        u = bits + 1.0
        u *= _INV_2_53
        return u
    return bits * _INV_2_53


def _draw_args(seed, start, n, pairs: bool = False) -> tuple:
    """(seed, start, n) as ints; InvalidSpec unless each is an integer,
    start and n are >= 0, and the draw's counters, n of them or 2*ceil(n/2)
    for Box-Muller ``pairs``, stay below 2**64."""
    seed, start, n = (check_integer(v, InvalidSpec, name) for v, name in
                      ((seed, "seed"), (start, "start"), (n, "n")))
    if start < 0 or n < 0 or (
            start + (_gaussian_counters(n) if pairs else n) > 1 << 64):
        raise InvalidSpec(f"start and n must be >= 0 and the last counter "
                          f"below 2**64, got start={start}, n={n}")
    return seed, start, n


def uniforms(seed: int, start: int, n: int, open_zero: bool = False) -> np.ndarray:
    """n uniform doubles from counters [start, start+n); [0,1) by default,
    (0,1] with open_zero (safe under log)."""
    seed, start, n = _draw_args(seed, start, n)
    z = np.arange(start, start + n, dtype=np.uint64)
    return _unit(_mix(seed, z), open_zero)


def _gaussian_counters(n: int) -> int:
    return 2 * ((n + 1) // 2)


def _gaussians_into(seed: int, start: int, out: np.ndarray) -> None:
    """Write ``gaussians(seed, start, out.size)`` into the float64 out."""
    m = out.size
    u = uniforms(seed, start, _gaussian_counters(m), open_zero=True)
    r = np.log(u[0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[1::2] * (2.0 * math.pi)
    np.multiply(r, np.cos(theta), out=out[0::2])
    np.multiply(r[:m // 2], np.sin(theta)[:m // 2], out=out[1::2])


def gaussians(seed: int, start: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over counters
    [start, start + 2*ceil(n/2))."""
    seed, start, n = _draw_args(seed, start, n, pairs=True)
    out = np.empty(n)
    for i in range(0, n, BLOCK):
        _gaussians_into(seed, start + i, out[i:i + BLOCK])
    return out


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
            check_integer(getattr(self, f), InvalidSpec, f)
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
    out = np.empty(n, dtype)
    # a float64 block is a slice of out; another dtype casts from one array
    wide = None if out.dtype == np.float64 else np.empty(min(n, BLOCK))
    body = n if kind == "outlier_mixture" else 0
    for i in range(0, n, BLOCK):
        m = min(BLOCK, n - i)
        z = out[i:i + m] if wide is None else wide[:m]
        if kind == "outlier_mixture":
            hits = np.flatnonzero(uniforms(seed, i, m) < spec.outlier_fraction)
        _gaussians_into(seed, body + i, z)
        z *= spec.std
        if kind == "student_t":  # z / sqrt(chi2_k / k)
            chi2, g = np.zeros(m), np.empty(m)
            for j in range(1, spec.degrees_of_freedom + 1):
                _gaussians_into(seed, j * g_n + i, g)
                g *= g
                chi2 += g
            chi2 /= spec.degrees_of_freedom
            z /= np.sqrt(chi2, out=chi2)
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
