"""Quantization error metrics and soft-edge vs INT8 comparison reports.

Every sum is a float64 sum with the bits np.sum gives over the whole
flattened array, so reports are deterministic and accurate. np.sum adds a
contiguous float64 array along a fixed pairwise tree (Higham, "The accuracy
of floating point summation", SIAM J. Sci. Comput. 1993): n splits at n/2,
rounded down to a multiple of 8. Every statistic (``mse``, ``sqnr_db`` and
``ssm.run_report`` too) comes from a walk of that tree down to leaves of at
most ``LEAF`` (2**15) elements that makes one pass over each leaf while it
is in cache: it widens and checks x in the codec's ``_walk``, takes |x|
once, forms each row's errors from magnitudes, ||x| - m| with m the
codec's ``_magnitude``, or |x - a| of a given array's leaf (a sweep's
coarse twins redo only elements above H), and takes the leaf's partial
sums and max. The partials are added up the same tree. A region row sums
its region's compacted errors, whose tree splits on the region's count:
the counts are taken first, in a walk of their own, as the sizes of the
index sets of the codec's ``_regions`` (this module compares no
thresholds), which split each leaf's errors in input order; the soft-edge
kernel of the leaf reads the same sets, taken once. Each region's errors
are staged in a leaf-sized buffer that is summed whenever a leaf of its
tree fills. A pair whose difference overflows binary64 (opposite signs
near +-1e308) reruns the pass with its operands halved leaf by leaf, and a
sum that overflows reruns it on values scaled by 2**-k. No pass builds an
n-element float temporary.

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
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .calibration import QuantConfig, calibrate_grid
from .codec import BLOCK as LEAF, RegionClass, _magnitude, _regions, _walk
from .errors import (EmptyTensor, LengthMismatch, ZeroSignal, check_finite,
                     check_real)

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
    sum is taken of v * 2**-k, its k in ``scale`` (0 but in a rerun). The
    values are errors * 2**-half: ``half`` is 1 for a halved pair."""

    def __init__(self, count: int, linear: bool = False, scale=None,
                 half: int = 0):
        self.count, self.top, self.fill, self.half = count, 0.0, 0, half
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
        """(s, e) of the sum of the errors' squares, then (if linear) of the
        errors, once every value is pushed: each sum is s * 2**e. A sum over
        an infinite value is +inf as it stands."""
        out = []
        for i, k in enumerate(self.scale):
            parts = iter([p[i] for p in self.parts] or [0.0])  # 0 if empty
            out.append((_tree(self.count, lambda m: next(parts)),
                        (k + self.half) * (1 if i else 2)))
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


@np.errstate(over="ignore")  # a rerun retakes what overflowed
def _rerun(run, pairs) -> list:
    """The columns of ``run(halves, scales)``, the one place a pass is rerun:
    run once; if the max of a pair's column (its index in ``pairs``) is +inf,
    again with the indices of those columns as ``halves``; then, if a sum
    overflowed, again with each column's ``rescaled()`` scale."""
    columns = run((), None)
    halves = [i for i in pairs if columns[i].top == math.inf]
    if halves:
        columns = run(halves, None)
    scales = [c.rescaled() for c in columns]
    return run(halves, scales) if any(scales) else columns


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


def _stats(errors: _Column, power=None) -> dict:
    """Statistics of the absolute errors that ``errors`` holds, scaled back
    by its ``half``, the one place reports get them.

    Always "mse" and "max_abs_err". Given the reference's ``power`` (an
    (s, e) pair), also "sqnr_db" (a quantizer row); without, "mean_abs_err"
    (a region row; the column is ``linear``). A statistic reads +inf only
    when it exceeds binary64.
    """
    (s, se), *linear = errors.sums
    with np.errstate(over="ignore"):
        stats = {"mse": float(np.ldexp(s / errors.count, se)),
                 "max_abs_err": float(np.ldexp(errors.top, errors.half))}
        if power is not None:
            return {**stats, "sqnr_db": _sqnr(power, (s, se))}
        ((s, se),) = linear
        return {**stats, "mean_abs_err": float(np.ldexp(s / errors.count, se))}


def _pair_stats(ref, approx):
    """(power, stats) of a checked ref and an approx of its shape, from one
    ``_report``: the (s, e) pair of the reference's power and ``_stats`` of
    |ref - approx|."""
    power, err = _report(ref, [np.asarray(approx).reshape(-1)])
    return power.sums[0], _stats(err, power.sums[0])


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
    """Elements of the flat input in each region, small, medium and large:
    the sizes of the codec's ``_regions`` index sets, leaf by leaf."""
    mid = big = 0
    for _, _, b in _walk(flat, _leaves(flat.size)):
        m, _, g = _regions(np.abs(b), cfg)
        mid, big = mid + m.size, big + g.size
    return flat.size - mid, mid - big, big


def _magnitude_error(ax: np.ndarray, cfg: QuantConfig, which: str,
                     sets=None):
    """|ax - m| of the float64 magnitudes ax = |b| of a leaf b and their
    binary32 m = ``_magnitude(ax, cfg, which)`` (given ax's ``_regions``
    ``sets``, the soft-edge kernel takes them): the bits of
    |b - fake_quant(b, cfg, which)|. fake_quant(b) is s * m, s the sign of b
    (but a zero's, which no absolute error shows), and round-to-nearest and
    IEEE subtraction are symmetric in sign, so b - s * m = s * (ax - m)."""
    err = ax - _magnitude(ax, cfg, which, np.float32, sets)
    return np.abs(err, out=err)


def _twins(approximations) -> list:
    """For each approximation, whether it is a coarse twin of the one before:
    both (cfg, which) pairs that differ at most in coarse_multiplier, which
    only the large region reads, so their errors differ only at |x| > H."""
    def key(a):
        return isinstance(a, tuple) and (
            a[1], replace(a[0], coarse_multiplier=1.0).codec_fields)
    keys = [key(a) for a in approximations]
    return [bool(k) and k == prev for prev, k in zip([False] + keys, keys)]


def _report(x, approximations, regions: bool = False) -> list:
    """The columns of one pass over the leaves of x, the one place an empty
    input raises (after the dtype gate): |x| (the input's power), then
    |x - a| of each approximation a, a (cfg, which) pair for fake_quant(x,
    cfg, which) or a checked array shaped like the flattened x, then, given
    ``regions``, the errors of the first, a (cfg, "soft_edge") pair, in
    each of its regions, small, medium, large.

    Each leaf is read through ``_walk``, which widens and checks it, and its
    |x| taken once; it stays in cache while every approximation of it is formed
    or sliced, and its errors summed, compacted and staged. A soft-edge row
    takes the leaf's ``_regions`` sets once, for its kernel, the region split
    and its coarse twins (``_twins``), which take the errors of the row before
    and redo them in place at the leaf's large set: a column keeps no pushed
    array, so one leaf of errors is held at a time."""
    flat = check_real(x).reshape(-1)  # a non-real x raises, even if empty
    if flat.size == 0:
        raise EmptyTensor("metrics need at least one element")
    counts = _region_counts(flat, approximations[0][0]) if regions else ()
    twins = _twins(approximations)

    def run(halves, scales):
        scales = iter(scales or ())
        power, *rows = (_Column(flat.size, scale=next(scales, None),
                                half=int(i in halves))
                        for i in range(1 + len(approximations)))
        by_region = [_Column(c, True, next(scales, None)) for c in counts]
        for lo, hi, b in _walk(flat, _leaves(flat.size)):
            ax = np.abs(b)
            power.push(ax)
            for row, a, twin in zip(rows, approximations, twins):
                if twin:  # the errors of the row before, redone above H
                    if large is None:
                        mid, _, big = sets or _regions(ax, a[0])
                        large = mid.take(big)
                    if large.size:
                        err[large] = _magnitude_error(ax.take(large), *a)
                elif isinstance(a, tuple):
                    sets = _regions(ax, a[0]) if a[1] == "soft_edge" else None
                    err, large = _magnitude_error(ax, *a, sets), None
                else:  # a pair, halved if its difference overflowed
                    d = a[lo:hi].astype(np.float64, copy=False)
                    err = b * 0.5 - d * 0.5 if row.half else b - d
                    np.abs(err, out=err)
                row.push(err)
                if regions and row is rows[0]:  # by the codec's index sets
                    mid, _, big = sets
                    e = err.take(mid)
                    for column, v in zip(by_region, (np.delete(err, mid),
                                                     np.delete(e, big),
                                                     e.take(big))):
                        column.push(v)
        return [power, *rows, *by_region]
    return _rerun(run, [i for i, a in enumerate(approximations, 1)
                        if not isinstance(a, tuple)])


def _region_rows(columns, n: int) -> tuple:
    return tuple(RegionStats(region, c.count, c.count / n, **_stats(c))
                 if c.count else RegionStats(region, 0, 0.0, 0.0, 0.0, 0.0)
                 for region, c in zip(RegionClass, columns))


def region_breakdown(values, cfg: QuantConfig):
    """Soft-edge error statistics bucketed by region.

    Returns (small, medium, large) RegionStats; counts sum to n.
    """
    power, _, *regions = _report(values, [(cfg, "soft_edge")], True)
    return _region_rows(regions, power.count)


def _delta(a: float, b: float) -> float:
    # both infinite means both paths are lossless: no difference
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def compare_quantizers(values, cfg: QuantConfig) -> ComparisonReport:
    """Side-by-side soft-edge vs baseline INT8 report on one tensor."""
    power, se, base, *regions = _report(
        values, [(cfg, "soft_edge"), (cfg, "int8")], True)
    se, base = (QuantizerStats(**_stats(c, power.sums[0])) for c in (se, base))
    return ComparisonReport(
        config=cfg,
        n=power.count,
        soft_edge=se,
        int8=base,
        regions=_region_rows(regions, power.count),
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

    The rows share their work: one selection (in ``calibrate_grid``), then
    one leaf pass for the input power, every soft-edge row and one INT8 row
    per distinct scale (the INT8 row reads only the scale). The coarse
    multiplier runs innermost, so each row's coarse twins follow it and redo
    only its elements above H. Region rows are not computed.
    """
    configs = calibrate_grid(values, percentiles, fine_divisors,
                             coarse_multipliers)
    if not configs:
        return []
    int8 = {cfg.scale: cfg for cfg in configs}  # one per distinct scale
    power, *rows = _report(values, [(cfg, "soft_edge") for cfg in configs]
                           + [(cfg, "int8") for cfg in int8.values()])
    power = power.sums[0]
    rows = [QuantizerStats(**_stats(c, power)) for c in rows]
    int8 = dict(zip(int8, rows[len(configs):]))
    return [SweepRow(cfg, row, int8[cfg.scale])
            for cfg, row in zip(configs, rows)]
