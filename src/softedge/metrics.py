"""Quantization error metrics and soft-edge vs INT8 comparison reports.

Every sum is a float64 sum with the bits np.sum gives over the whole
flattened array, so reports are deterministic and accurate. np.sum adds a
contiguous float64 array along a fixed pairwise tree (Higham, "The accuracy
of floating point summation", SIAM J. Sci. Comput. 1993): n splits at n/2,
rounded down to a multiple of 8. Every statistic (``mse``, ``sqnr_db`` and
``ssm.run_report`` too) comes from ``_report``, the one step from a pass to
statistics: a walk of that tree down to leaves of at most ``LEAF`` (2**15)
elements that makes one pass over each leaf while it is in cache: past one
dtype gate, ``errors.check_real``, which widens an extended float whole, it
widens and checks the leaf of x, and of a given array a, in
``codec._walk``, takes |x| once, forms each row's errors from magnitudes,
||x| - m| with m the codec's ``_magnitude``, or |x - a| (a sweep's coarse
twins redo only elements above H, and re-sum the row before's squares), and
takes the partial sums and max. |x|, the binary32 m, errors and squares go
into one set of leaf-sized buffers; each quantizer row's column takes its leaf's
partial sum and max as they are, and one walk up the same tree adds the
partials of every such column. A region row sums its region's
compacted errors, whose tree splits on the region's count: the counts are
taken first, in a walk of their own, as the sizes of the index sets of the
codec's ``_regions`` (this module compares no thresholds), which split each
leaf's errors in input order; the soft-edge kernel of the leaf reads the
same sets, taken once. Each region's errors are staged in a leaf-sized
buffer that is summed whenever a leaf of its tree fills. A pair whose
difference overflows binary64 (opposite signs near +-1e308) reruns the pass
with its operands halved leaf by leaf, and a sum that overflows, or falls
below 2**-1022 over nonzero values (as the squares of 1e-160 do, in part),
reruns it on values scaled by 2**-k. The pass holds ``np.errstate`` once,
in ``_rerun``, for the overflows that a rerun retakes and that the codec
kernel expects. No pass builds an n-element float temporary.
``mse`` and ``sqnr_db`` name a bad operand only after a failed pass.

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
from .codec import (BLOCK as LEAF, RegionClass, _magnitude, _regions,
                    _rows, _walk)
from .errors import (EmptyTensor, LengthMismatch, NonFiniteInput, ZeroSignal,
                     check_finite, check_real)

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
    """Statistics of the non-negative float64 values given to it, in order,
    whose total ``count`` is known up front: their max, and the sums of v*v
    and, if ``linear``, of v, each with the bits of np.sum over all the
    values. Each sum is taken of v * 2**-k, its k in ``scale`` (0 but in a
    rerun). The values are errors * 2**-half: ``half`` is 1 for a halved
    pair.

    A column of whole leaves (the input power and each quantizer row) is
    handed each leaf's partial sum of squares and max (``leaf``), and the
    pass adds the partials of all such columns up the tree at once
    (``_close``). A region row is pushed its values in pieces (``push``): a
    leaf of its count's tree that arrives whole is summed where it lies; one
    that arrives in pieces is staged in a leaf-sized buffer."""

    def __init__(self, count: int, linear: bool = False, scale=None,
                 half: int = 0):
        self.count, self.top, self.fill, self.half = count, 0.0, 0, half
        self.scale = scale or (0,) * (1 + linear)
        self.parts, self.buf = [], None

    def leaf(self, s: float, top: float):
        """A whole leaf's sum of squares, at the column's scale, and max."""
        self.parts.append((s,))
        if top > self.top:
            self.top = top

    @functools.cached_property
    def sizes(self) -> list:
        """The leaf sizes of the count's tree, which ``push`` fills."""
        return _tree(self.count, lambda m: [m])

    def push(self, v: np.ndarray):
        if v.size:
            self.top = max(self.top, float(v.max()))
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
            out.append(float((w * w if square else w).sum()))
        return out

    @functools.cached_property
    def sums(self) -> list:
        """(s, e) of the sum of the errors' squares, then (if linear) of the
        errors, once every value is given: each sum is s * 2**e. A sum over
        an infinite value is +inf as it stands. The pass sets it for its
        whole-leaf columns (``_close``)."""
        return _close([self])[0]

    def rescaled(self):
        """The scale of a rerun: k = frexp(max)[1], so that the scaled values
        stay below 1 and the largest at least 1/2, for each sum over finite
        values that overflowed or, over a nonzero max, fell below 2**-1022,
        binary64's least normal, where its terms have underflowed in part or
        whole; None when no sum did."""
        if not math.isfinite(self.top):
            return None
        k, normal = math.frexp(self.top)[1], 2.0 ** -1022
        scale = tuple(0 if math.isfinite(s) and (s >= normal or not self.top)
                      else k for s, _ in self.sums)
        return scale if any(scale) else None


def _close(columns) -> list:
    """The ``sums`` of columns of one count and width: their leaf partials
    added up the count's tree in one walk for all of them, numpy adding them
    elementwise with the bits of a Python float's +. A sum of no element is
    0."""
    parts = np.array([c.parts or [[0.0] * len(c.scale)] for c in columns])
    leaves = iter(parts.transpose(1, 0, 2))  # by leaf, then column
    totals = _tree(columns[0].count, lambda m: next(leaves))
    return [[(float(s), (k + c.half) * (1 if i else 2))
             for i, (s, k) in enumerate(zip(total, c.scale))]
            for c, total in zip(columns, totals)]


def _rerun(run, pairs) -> list:
    """The columns of ``run(halves, scales)``, the one place a pass is rerun:
    run once; if the max of a pair's column (its index in ``pairs``) is +inf,
    again with the indices of those columns as ``halves``; then, if a sum
    overflowed or fell below 2**-1022, again with each column's
    ``rescaled()`` scale. The runs hold ``np.errstate`` for the pass: a
    rerun retakes what overflowed, and the codec kernel's overflows are
    expected."""
    with np.errstate(over="ignore"):
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


def _checked_pair(ref, approx):
    """``_report``, the one step from a pass to statistics, which reruns a
    sum that overflows or underflows to 0, of ref and one array approx, with
    one job of its own: to name the bad operand. A same-shape pair of bool,
    integer or real-float arrays goes straight to the pass, whose gate,
    ``check_real``, widens an extended float as it does any operand. Only
    after a failed pass, or for any other pair, do the named checks run:
    ref's, approx's, then shapes."""
    r, a = np.asarray(ref), np.asarray(approx)
    try:
        if r.shape == a.shape and {r.dtype.kind, a.dtype.kind} <= set("biuf"):
            return _report(r, [a.reshape(-1)])
    except NonFiniteInput:
        pass  # the named checks raise it
    check_finite(r, where="ref: ")
    check_finite(a, where="approx: ")
    raise LengthMismatch(f"shape mismatch: {r.shape} vs {a.shape}")


def mse(ref, approx) -> float:
    return _checked_pair(ref, approx)[1][0].mse


def sqnr_db(ref, approx) -> float:
    """10*log10(signal power / error power); +inf when the error is zero."""
    power, (stats,), _ = _checked_pair(ref, approx)
    if power[0] <= 0:
        raise ZeroSignal("reference tensor has zero power")
    return stats.sqnr_db


def _region_counts(flat: np.ndarray, cfg: QuantConfig, leaves,
                   ax: np.ndarray) -> tuple:
    """Elements of the flat input in each region, small, medium and large:
    the sizes of the codec's ``_regions`` index sets, leaf by leaf, each
    leaf's magnitudes taken into the leaf-sized buffer ax."""
    mid = big = 0
    for lo, hi, b in _walk(flat, leaves):
        m, _, g = _regions(np.abs(b, out=ax[:hi - lo]), cfg)
        mid, big = mid + m.size, big + g.size
    return flat.size - mid, mid - big, big


def _magnitude_error(ax: np.ndarray, cfg: QuantConfig, which: str, sets,
                     rows, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|ax - m| into out, of the float64 magnitudes ax = |b| of a leaf b and
    their binary32 m, a buffer shaped like ax, into which
    ``_magnitude(ax, cfg, which)`` is cast (given ax's ``_regions`` ``sets``
    and the config's ``_rows``, the soft-edge kernel takes them): the bits of
    |b - fake_quant(b, cfg, which)|. fake_quant(b) is s * m, s the sign of b
    (but a zero's, which no absolute error shows), and round-to-nearest and
    IEEE subtraction are symmetric in sign, so b - s * m = s * (ax - m). m
    is widened into out, exactly, before the subtraction: numpy casts a
    mixed-type operand in small buffered pieces, which took more time than
    the widening and the subtraction apart."""
    np.copyto(out, _magnitude(ax, cfg, which, m, sets, rows))
    np.subtract(ax, out, out=out)
    return np.abs(out, out=out)


def _squares(v: np.ndarray, k: int, out: np.ndarray) -> float:
    """The sum of the squares of v * 2**-k, formed in out, shaped like v."""
    w = np.ldexp(v, -k, out=out) if k else v
    return float(np.multiply(w, w, out=out).sum())


def _twins(approximations) -> list:
    """For each approximation, whether it is a coarse twin of the one before:
    both (cfg, which) pairs that differ at most in coarse_multiplier, which
    only the large region reads, so their errors differ only at |x| > H."""
    def key(a):
        return isinstance(a, tuple) and (
            a[1], replace(a[0], coarse_multiplier=1.0).codec_fields)
    keys = [key(a) for a in approximations]
    return [bool(k) and k == prev for prev, k in zip([False] + keys, keys)]


def _report(x, approximations, regions: bool = False) -> tuple:
    """The statistics of one pass over the leaves of x: every report's one
    step from a pass to statistics, and the one place an empty input raises
    (after the dtype gate). They are x's power as an (s, e) pair; the
    ``QuantizerStats`` of |x - a| for each approximation a, a (cfg, which)
    pair for fake_quant(x, cfg, which) or an array shaped like the flattened
    x; and, given ``regions``, the (small, medium, large) ``RegionStats`` of
    the errors of the first, a (cfg, "soft_edge") pair, else ().

    The leaf list, each config's ``_rows`` and the leaf-sized buffers, for
    |x|, errors, squares and the binary32 m, are taken once. Each leaf of x, and of
    an array a, is read through ``_walk``, which widens and checks it, and
    |x| taken once; it stays in cache while every approximation of it is
    formed or read, and its errors summed, compacted and staged. Every row's
    column gets the leaf's sum of squares and max. A soft-edge row takes the
    leaf's ``_regions`` sets once, for its kernel, the region split and its
    coarse twins (``_twins``): a twin redoes the errors of the row before at
    the leaf's set above H in place, and, where both sum at one scale,
    re-sums the row before's squares with only that set's replaced, and
    takes its max from theirs and the row before's max over the rest; at a
    leaf with no element above H, it copies the row before's sum and max. A
    sum that overflows, or falls below 2**-1022 over nonzero values, reruns
    the pass (``_rerun``) before any statistic is taken."""
    flat = check_real(x).reshape(-1)  # a non-real x raises, even if empty
    if flat.size == 0:
        raise EmptyTensor("metrics need at least one element")
    leaves = list(_leaves(flat.size))
    width = max(hi - lo for lo, hi in leaves)
    buffers, binary32 = np.empty((3, width)), np.empty(width, np.float32)
    counts = (_region_counts(flat, approximations[0][0], leaves, buffers[0])
              if regions else ())
    twins = _twins(approximations)
    plans = list(zip(twins, twins[1:] + [False],
                     [_rows(a[0]) if isinstance(a, tuple) else None
                      for a in approximations]))

    def run(halves, scales):
        scales = iter(scales or ())
        power, *rows = (_Column(flat.size, scale=next(scales, None),
                                half=int(i in halves))
                        for i in range(1 + len(approximations)))
        by_region = [_Column(c, True, next(scales, None)) for c in counts]
        sources = [a if isinstance(a, tuple) else _walk(a, leaves)
                   for a in approximations]
        for lo, hi, b in _walk(flat, leaves):
            ax, err, sq = buffers[:, :hi - lo]
            m = binary32[:hi - lo]
            np.abs(b, out=ax)
            power.leaf(_squares(ax, power.scale[0], sq), float(ax.max()))
            for row, a, (twin, twinned, cfg_rows) in zip(rows, sources,
                                                         plans):
                k = row.scale[0]
                if twin:  # the row before's errors and squares, redone above H
                    if large.size:
                        e = _magnitude_error(ax.take(large), *a, None,
                                             cfg_rows, m[:large.size],
                                             np.empty(large.size))
                        err[large] = e
                        top = max(other, float(e.max()))
                    if k != kept:  # the twin sums its own scaled errors
                        s = _squares(err, k, sq)
                    elif large.size:
                        w = np.ldexp(e, -k) if k else e
                        sq[large] = w * w
                        s = float(sq.sum())
                elif isinstance(a, tuple):
                    sets = _regions(ax, a[0]) if a[1] == "soft_edge" else None
                    _magnitude_error(ax, *a, sets, cfg_rows, m, err)
                    if regions and row is rows[0]:  # by the codec's index sets
                        mid, _, big = sets
                        e = err.take(mid)
                        for column, v in zip(by_region, (np.delete(err, mid),
                                                         np.delete(e, big),
                                                         e.take(big))):
                            column.push(v)
                    s = _squares(err, k, sq)
                    if twinned:  # the max over the rest, kept for the twins
                        mid, _, big = sets
                        large = mid.take(big)
                        e = err.take(large)
                        err[large] = 0.0
                        other = float(err.max())
                        top = max(other, float(e.max(initial=0.0)))
                    else:
                        top = float(err.max())
                else:  # a pair's leaf, halved if its difference overflowed
                    u, v = b, next(a)[2]
                    if row.half:
                        u, v = np.multiply(u, 0.5, out=err), v * 0.5
                    np.abs(np.subtract(u, v, out=err), out=err)
                    s, top = _squares(err, k, sq), float(err.max())
                row.leaf(s, top)
                kept = k
        whole = [power, *rows]
        for column, sums in zip(whole, _close(whole)):
            column.sums = sums
        return [*whole, *by_region]
    power, *columns = _rerun(run, [i for i, a in enumerate(approximations, 1)
                                   if not isinstance(a, tuple)])
    power, n = power.sums[0], len(approximations)
    return (power, [QuantizerStats(**_stats(c, power)) for c in columns[:n]],
            tuple(RegionStats(region, c.count, c.count / flat.size, **_stats(c))
                  if c.count else RegionStats(region, 0, 0.0, 0.0, 0.0, 0.0)
                  for region, c in zip(RegionClass, columns[n:])))


def region_breakdown(values, cfg: QuantConfig):
    """Soft-edge error statistics bucketed by region.

    Returns (small, medium, large) RegionStats; counts sum to n.
    """
    return _report(values, [(cfg, "soft_edge")], True)[2]


def _delta(a: float, b: float) -> float:
    # both infinite means both paths are lossless: no difference
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def compare_quantizers(values, cfg: QuantConfig) -> ComparisonReport:
    """Side-by-side soft-edge vs baseline INT8 report on one tensor."""
    _, (se, base), regions = _report(
        values, [(cfg, "soft_edge"), (cfg, "int8")], True)
    return ComparisonReport(
        config=cfg,
        n=sum(r.count for r in regions),
        soft_edge=se,
        int8=base,
        regions=regions,
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
    _, rows, _ = _report(values, [(cfg, "soft_edge") for cfg in configs]
                         + [(cfg, "int8") for cfg in int8.values()])
    int8 = dict(zip(int8, rows[len(configs):]))
    return [SweepRow(cfg, row, int8[cfg.scale])
            for cfg, row in zip(configs, rows)]
