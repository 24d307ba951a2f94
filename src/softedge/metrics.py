"""Quantization error metrics and soft-edge vs INT8 comparison reports.

Every sum is a float64 sum with the bits np.sum gives over the whole
flattened array, so reports are deterministic and accurate. np.sum adds a
contiguous float64 array along a fixed pairwise tree (Higham, "The accuracy
of floating point summation", SIAM J. Sci. Comput. 1993): n splits at n/2,
rounded down to a multiple of 8. Every statistic (``mse``, ``sqnr_db`` and
``ssm.run_report`` too) comes from a walk of that tree down to leaves of at
most ``LEAF`` (2**15) elements that makes one pass over each leaf while it
is in cache: it widens x, forms |x - a| for each approximation a (the
leaf's ``fake_quant``, or a given array's leaf, widened) and takes the
leaf's partial sums and max. The partials are added up the same tree. A
region row sums its region's compacted errors, whose tree splits on the
region's count: the counts are taken first, and each region's errors are
staged in a leaf-sized buffer that is summed whenever a leaf of its tree
fills. A sum that overflows binary64 reruns the pass on values scaled by
2**-k. The pass builds no n-element float temporary; the finiteness checks'
masks (1 B/elem) and the sweep's sort are a report's only input-sized
allocations, but for one rare path: a pair whose difference overflows
binary64 (opposite signs near +-1e308) retakes the pass on whole-array
halves of both operands.

A lossless tensor has infinite SQNR; the JSON serialization spells that as
the string "inf".

CSV schema (one row per quantizer and per region):
    kind, name, count, fraction, mse, sqnr_db, max_abs_err, mean_abs_err
Region rows leave sqnr_db empty.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .calibration import QuantConfig, calibrate_grid
from .codec import BLOCK as LEAF, RegionClass, _region_index, fake_quant
from .errors import EmptyTensor, LengthMismatch, ZeroSignal, check_finite

__all__ = [
    "RegionStats",
    "QuantizerStats",
    "ComparisonReport",
    "mse",
    "sqnr_db",
    "region_breakdown",
    "compare_quantizers",
    "SweepRow",
    "sweep",
]


@dataclass(frozen=True)
class RegionStats:
    region: RegionClass
    count: int
    fraction: float
    mse: float
    max_abs_err: float
    mean_abs_err: float


@dataclass(frozen=True)
class QuantizerStats:
    mse: float
    sqnr_db: float
    max_abs_err: float


@dataclass(frozen=True)
class ComparisonReport:
    config: QuantConfig
    n: int
    soft_edge: QuantizerStats
    int8: QuantizerStats
    regions: tuple  # (small, medium, large) RegionStats for the soft-edge path
    delta_mse: float  # soft-edge minus baseline
    delta_sqnr_db: float
    delta_max_abs_err: float

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "n": self.n,
            "quantizers": {
                name: _json_numbers(asdict(q))
                for name, q in (("soft_edge", self.soft_edge), ("int8", self.int8))
            },
            "regions": [_json_numbers({**asdict(r), "region": r.region.value})
                        for r in self.regions],
            "deltas": _json_numbers({"mse": self.delta_mse,
                                     "sqnr_db": self.delta_sqnr_db,
                                     "max_abs_err": self.delta_max_abs_err}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "name", "count", "fraction", "mse", "sqnr_db",
                    "max_abs_err", "mean_abs_err"])
        for name, q in (("soft_edge", self.soft_edge), ("int8", self.int8)):
            w.writerow(["quantizer", name, self.n, 1.0, repr(q.mse),
                        repr(q.sqnr_db), repr(q.max_abs_err), ""])
        for r in self.regions:
            w.writerow(["region", r.region.value, r.count, repr(r.fraction),
                        repr(r.mse), "", repr(r.max_abs_err),
                        repr(r.mean_abs_err)])
        return buf.getvalue()


def _json_numbers(doc: dict) -> dict:
    """``doc`` with non-finite floats spelled "inf" / "-inf" / "nan" for JSON."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in doc.items()}


def _tree(n: int, leaf):
    """``leaf(m)`` of each leaf of numpy's pairwise-sum tree over n elements,
    in order, added up that tree. Above ``LEAF`` elements, n splits at n // 2
    rounded down to a multiple of 8, as np.sum splits it; so with ``leaf``
    the np.sum of the next m values, this is np.sum of all n, bit for bit."""
    if n <= LEAF:
        return leaf(n)
    half = n // 2 - n // 2 % 8
    return _tree(half, leaf) + _tree(n - half, leaf)


def _leaves(n: int):
    """(start, stop) of each leaf of the tree over n elements, in order."""
    start = 0
    for m in _tree(n, lambda m: [m]):  # lists add up by concatenation
        yield start, start + m
        start += m


class _Column:
    """Statistics of the non-negative float64 values pushed to it, in order,
    whose total ``count`` is known up front: their max, and the sums of v*v
    and, if ``linear``, of v, each with the bits of np.sum over all the
    values. A leaf of the count's tree that arrives whole is summed where it
    lies; one that arrives in pieces is staged in a leaf-sized buffer. Each
    sum is taken of v * 2**-k, its k in ``scale`` (0 but in a rerun)."""

    def __init__(self, count: int, linear: bool = False, scale=None):
        self.count, self.top, self.fill = count, 0.0, 0
        self.scale = scale or (0,) * (1 + linear)
        self.sizes = _tree(count, lambda m: [m])
        self.parts, self.buf = [], None

    def push(self, v: np.ndarray):
        if v.size:
            self.top = max(self.top, float(np.max(v)))
        while v.size:
            size = self.sizes[len(self.parts)]
            take = min(size - self.fill, v.size)
            if take < size:
                if self.buf is None:
                    self.buf = np.empty(max(self.sizes))
                self.buf[self.fill:self.fill + take] = v[:take]
                self.fill += take
                if self.fill < size:
                    return
                self.fill = 0
            leaf = v[:take] if take == size else self.buf[:size]
            self.parts.append(self._leaf_sums(leaf))
            v = v[take:]

    def _leaf_sums(self, v: np.ndarray) -> list:
        out = []
        for k, square in zip(self.scale, (True, False)):
            w = np.ldexp(v, -k) if k else v
            out.append(float(np.sum(w * w if square else w)))
        return out

    @functools.cached_property
    def sums(self) -> list:
        """(s, e) of the sum of v*v, then (if linear) of v, once every value
        is pushed: each sum is s * 2**e. A sum over an infinite value is +inf
        as it stands."""
        out = []
        for i, k in enumerate(self.scale):
            parts = iter([p[i] for p in self.parts] or [0.0])  # 0 if empty
            out.append((_tree(self.count, lambda m: next(parts)),
                        k if i else 2 * k))
        return out

    def rescaled(self):
        """The scale of a rerun: k = frexp(max)[1], so that the scaled values
        stay below 1, for each sum that overflowed over finite values; None
        when no sum did."""
        if not math.isfinite(self.top):
            return None
        k = math.frexp(self.top)[1]
        scale = tuple(0 if math.isfinite(s) else k for s, _ in self.sums)
        return scale if any(scale) else None


@np.errstate(over="ignore")  # a sum may overflow; the rerun retakes it
def _rerun(run) -> list:
    """The columns of ``run(scales)``: run once unscaled and, if a sum
    overflowed, again with each column's ``rescaled()`` scale."""
    columns = run(None)
    scales = [c.rescaled() for c in columns]
    return run(scales) if any(scales) else columns


def _sqnr(power, noise) -> float:
    """10*log10(power / noise) of two (s, e) pairs, each the sum s * 2**e:
    +inf for zero noise, -inf for zero power."""
    (p, pe), (q, qe) = power, noise
    if q == 0:
        return math.inf
    if p <= 0:
        return -math.inf
    if pe == qe and 0 < p / q < math.inf:
        return 10.0 * math.log10(p / q)
    return 10.0 * (math.log10(p) - math.log10(q) + (pe - qe) * math.log10(2))


def _stats(errors: _Column, power=None, e: int = 0) -> dict:
    """Statistics of the absolute errors err * 2**e that ``errors`` holds,
    the one place reports get them.

    Always "mse" and "max_abs_err". Given the reference's ``power`` (an
    (s, e) pair), also "sqnr_db" (a quantizer row); without, "mean_abs_err"
    (a region row; the column is ``linear``). A statistic reads +inf only
    when it exceeds binary64.
    """
    (s, se), *linear = errors.sums
    noise = (s, se + 2 * e)
    with np.errstate(over="ignore"):
        stats = {"mse": float(np.ldexp(s / errors.count, noise[1])),
                 "max_abs_err": float(np.ldexp(errors.top, e))}
        if power is not None:
            return {**stats, "sqnr_db": _sqnr(power, noise)}
        ((s, se),) = linear
        return {**stats,
                "mean_abs_err": float(np.ldexp(s / errors.count, se + e))}


def _pair_stats(ref, approx):
    """(power, stats) of a checked, non-empty ref and an approx of its shape:
    the (s, e) pair of the reference's power and ``_stats`` of |ref - approx|.

    One leaf pass, unless a difference overflowed binary64; the errors are
    then retaken from whole-array halves of both operands, and scaled back.
    """
    r, a = (np.asarray(v).reshape(-1) for v in (ref, approx))
    if r.size == 0:
        raise EmptyTensor("metrics need at least one element")
    power, err = _report(r, [a])
    power, e = power.sums[0], int(err.top == math.inf)
    if e:
        r, a = (np.multiply(v, 0.5, dtype=np.float64) for v in (r, a))
        err = _report(r, [a])[1]
    return power, _stats(err, power, e)


def _checked_pair(ref, approx):
    r = check_finite(ref, where="ref: ")
    a = check_finite(approx, where="approx: ")
    if r.shape != a.shape:
        raise LengthMismatch(f"shape mismatch: {r.shape} vs {a.shape}")
    return _pair_stats(r, a)


def mse(ref, approx) -> float:
    return _checked_pair(ref, approx)[1]["mse"]


def sqnr_db(ref, approx) -> float:
    """10*log10(signal power / error power); +inf when the error is zero."""
    power, stats = _checked_pair(ref, approx)
    if power[0] <= 0:
        raise ZeroSignal("reference tensor has zero power")
    return stats["sqnr_db"]


def _region_counts(flat: np.ndarray, cfg: QuantConfig) -> tuple:
    """Elements of the flat input in each region, small, medium and large
    (L < H, so |x| > H implies |x| >= L)."""
    mid = big = 0
    for lo, hi in _leaves(flat.size):
        ax = np.abs(flat[lo:hi].astype(np.float64, copy=False))
        mid += int(np.count_nonzero(ax >= cfg.low_threshold))
        big += int(np.count_nonzero(ax > cfg.high_threshold))
    return flat.size - mid, mid - big, big


def _abs_error(b: np.ndarray, approx, lo: int, hi: int) -> np.ndarray:
    """|b - a| of the widened leaf b = x[lo:hi] and its approximation a."""
    a = (fake_quant(b, *approx) if isinstance(approx, tuple)
         else approx[lo:hi].astype(np.float64, copy=False))
    err = b - a
    return np.abs(err, out=err)


def _report(x: np.ndarray, approximations, regions=None) -> list:
    """The columns of one pass over the leaves of the checked, non-empty x:
    |x| (the input's power), then |x - a| of each approximation a, a
    (cfg, which) pair for fake_quant(x, cfg, which) or a checked array
    shaped like the flattened x, then, given a config as ``regions``, the
    first one's errors in each of its regions, small, medium, large.

    Each leaf is widened once and stays in cache while every approximation
    of it is formed or sliced, and its errors summed, compacted and staged."""
    flat = x.reshape(-1)
    counts = _region_counts(flat, regions) if regions else ()

    def run(scales):
        scales = iter(scales or ())
        power, *rows = (_Column(flat.size, scale=next(scales, None))
                        for _ in range(1 + len(approximations)))
        by_region = [_Column(c, True, next(scales, None)) for c in counts]
        for lo, hi in _leaves(flat.size):
            b = flat[lo:hi].astype(np.float64, copy=False)
            ax = np.abs(b)
            power.push(ax)
            first = _abs_error(b, approximations[0], lo, hi)
            rows[0].push(first)
            for row, a in zip(rows[1:], approximations[1:]):
                row.push(_abs_error(b, a, lo, hi))
            if regions:
                index = _region_index(ax, regions)
                for i, column in enumerate(by_region):
                    column.push(first[index == i])
        return [power, *rows, *by_region]
    return _rerun(run)


def _region_rows(columns, n: int) -> tuple:
    return tuple(RegionStats(region, c.count, c.count / n, **_stats(c))
                 if c.count else RegionStats(region, 0, 0.0, 0.0, 0.0, 0.0)
                 for region, c in zip(RegionClass, columns))


def region_breakdown(values, cfg: QuantConfig):
    """Soft-edge error statistics bucketed by region.

    Returns (small, medium, large) RegionStats; counts sum to n.
    """
    x = check_finite(values)
    if x.size == 0:
        raise EmptyTensor("region breakdown needs at least one element")
    return _region_rows(_report(x, [(cfg, "soft_edge")], cfg)[2:], x.size)


def _delta(a: float, b: float) -> float:
    # both infinite means both paths are lossless: no difference
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def compare_quantizers(values, cfg: QuantConfig) -> ComparisonReport:
    """Side-by-side soft-edge vs baseline INT8 report on one tensor."""
    x = check_finite(values)
    if x.size == 0:
        raise EmptyTensor("metrics need at least one element")
    power, se, base, *regions = _report(
        x, [(cfg, "soft_edge"), (cfg, "int8")], cfg)
    power = power.sums[0]
    se, base = (QuantizerStats(**_stats(c, power)) for c in (se, base))
    return ComparisonReport(
        config=cfg,
        n=int(x.size),
        soft_edge=se,
        int8=base,
        regions=_region_rows(regions, x.size),
        delta_mse=_delta(se.mse, base.mse),
        delta_sqnr_db=_delta(se.sqnr_db, base.sqnr_db),
        delta_max_abs_err=_delta(se.max_abs_err, base.max_abs_err),
    )


class SweepRow(NamedTuple):
    """One calibration-grid row: its config and the two quantizer rows that
    ``compare_quantizers`` reports for it."""

    config: QuantConfig
    soft_edge: QuantizerStats
    int8: QuantizerStats

    @property
    def delta_sqnr_db(self) -> float:
        return _delta(self.soft_edge.sqnr_db, self.int8.sqnr_db)


def sweep(values, percentiles, fine_divisors=(4.0,),
          coarse_multipliers=(4.0,)) -> list:
    """A ``SweepRow`` per ``calibrate_grid`` row, in its order, equal to
    ``compare_quantizers(values, calibrate(values, p, fd, cm))``.

    The rows share their work: one finiteness check and sort (in
    ``calibrate_grid``), then one leaf pass for the input power, every
    soft-edge row and one INT8 row per distinct scale (the INT8 row reads
    only the scale). Region rows are not computed.
    """
    configs = calibrate_grid(values, percentiles, fine_divisors,
                             coarse_multipliers)
    if not configs:
        return []
    int8 = {cfg.scale: cfg for cfg in configs}  # one per distinct scale
    power, *rows = _report(np.asarray(values),  # checked by the grid
                           [(cfg, "soft_edge") for cfg in configs]
                           + [(cfg, "int8") for cfg in int8.values()])
    power = power.sums[0]
    rows = [QuantizerStats(**_stats(c, power)) for c in rows]
    int8 = dict(zip(int8, rows[len(configs):]))
    return [SweepRow(cfg, row, int8[cfg.scale])
            for cfg, row in zip(configs, rows)]
