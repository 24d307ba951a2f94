"""Quantization error metrics and soft-edge vs INT8 comparison reports.

All accumulation happens in float64 via numpy's pairwise summation, so
million-element reports are deterministic and accurate. A lossless tensor
has infinite SQNR; the JSON serialization spells that as the string "inf".

CSV schema (one row per quantizer and per region):
    kind, name, count, fraction, mse, sqnr_db, max_abs_err, mean_abs_err
Region rows leave sqnr_db empty.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .calibration import QuantConfig
from .codec import RegionClass, _region_index, fake_quant
from .errors import EmptyTensor, LengthMismatch, ZeroSignal, check_finite

__all__ = [
    "RegionStats",
    "QuantizerStats",
    "ComparisonReport",
    "mse",
    "sqnr_db",
    "region_breakdown",
    "compare_quantizers",
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


def _pair_error(ref, approx):
    """The float64 reference r and |ref - approx| = err * 2**e, as (r, err, e).

    e is 0 unless the difference overflowed binary64 (opposite signs near
    +-1e308); then err is the difference of the halved operands and e is 1.
    """
    r = check_finite(ref, where="ref: ").astype(np.float64, copy=False)
    a = check_finite(approx, where="approx: ").astype(np.float64, copy=False)
    if r.shape != a.shape:
        raise LengthMismatch(f"length mismatch: {r.size} vs {a.size}")
    if r.size == 0:
        raise EmptyTensor("metrics need at least one element")
    try:
        with np.errstate(over="raise"):
            return r, np.abs(r - a), 0
    except FloatingPointError:
        return r, np.abs(r * 0.5 - a * 0.5), 1


def _json_numbers(doc: dict) -> dict:
    """``doc`` with non-finite floats spelled "inf" / "-inf" / "nan" for JSON."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in doc.items()}


def _sum(v: np.ndarray, square: bool = True):
    """sum(v*v), or sum(v) of v >= 0, as (s, e) with the sum equal to s * 2**e.

    Within binary64 this is np.sum's one pass, bit for bit, and e = 0. Only
    a sum that overflowed is redone, on v scaled by an exact power of two.
    """
    with np.errstate(over="ignore"):
        s = float(np.sum(v * v if square else v))
    if math.isfinite(s):
        return s, 0
    k = math.frexp(float(np.max(np.abs(v))))[1]
    v = np.ldexp(v, -k)
    return float(np.sum(v * v if square else v)), 2 * k if square else k


def _sqnr(power, noise) -> float:
    """10*log10(power / noise) of two ``_sum`` pairs: +inf for zero noise,
    -inf for zero power."""
    (p, pe), (q, qe) = power, noise
    if q == 0:
        return math.inf
    if p <= 0:
        return -math.inf
    if pe == qe and 0 < p / q < math.inf:
        return 10.0 * math.log10(p / q)
    return 10.0 * (math.log10(p) - math.log10(q) + (pe - qe) * math.log10(2))


def _error_stats(err: np.ndarray, power=None, e: int = 0) -> dict:
    """Statistics of the absolute errors err * 2**e, the one place reports
    get them.

    Always "mse" and "max_abs_err". Given the reference's ``power`` (a
    ``_sum`` pair), also "sqnr_db" (a quantizer row); without, "mean_abs_err"
    (a region row). A statistic reads +inf only when it exceeds binary64.
    """
    if err.size == 0:
        raise EmptyTensor("metrics need at least one element")
    s, se = _sum(err)
    noise = (s, se + 2 * e)
    with np.errstate(over="ignore"):
        stats = {"mse": float(np.ldexp(s / err.size, noise[1])),
                 "max_abs_err": float(np.ldexp(np.max(err), e))}
        if power is not None:
            return {**stats, "sqnr_db": _sqnr(power, noise)}
        s, se = _sum(err, square=False)
        return {**stats, "mean_abs_err": float(np.ldexp(s / err.size, se + e))}


def mse(ref, approx) -> float:
    _, err, e = _pair_error(ref, approx)
    return _error_stats(err, e=e)["mse"]


def sqnr_db(ref, approx) -> float:
    """10*log10(signal power / error power); +inf when the error is zero."""
    r, err, e = _pair_error(ref, approx)
    power = _sum(r)
    if power[0] <= 0:
        raise ZeroSignal("reference tensor has zero power")
    return _error_stats(err, power, e)["sqnr_db"]


def _region_stats(x: np.ndarray, err: np.ndarray, cfg: QuantConfig):
    index = _region_index(np.abs(x), cfg)
    out = []
    for i, region in enumerate(RegionClass):
        e = err[index == i]
        out.append(RegionStats(region, e.size, e.size / x.size, **_error_stats(e))
                   if e.size else RegionStats(region, 0, 0.0, 0.0, 0.0, 0.0))
    return tuple(out)


def region_breakdown(values, cfg: QuantConfig):
    """Soft-edge error statistics bucketed by region.

    Returns (small, medium, large) RegionStats; counts sum to n.
    """
    x = check_finite(values).astype(np.float64, copy=False)
    if x.size == 0:
        raise EmptyTensor("region breakdown needs at least one element")
    return _region_stats(x, np.abs(x - fake_quant(x, cfg, "soft_edge")), cfg)


def _delta(a: float, b: float) -> float:
    # both infinite means both paths are lossless: no difference
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def compare_quantizers(values, cfg: QuantConfig) -> ComparisonReport:
    """Side-by-side soft-edge vs baseline INT8 report on one tensor."""
    x = check_finite(values).astype(np.float64, copy=False)
    se_err = np.abs(x - fake_quant(x, cfg, "soft_edge"))
    power = _sum(x)
    se = QuantizerStats(**_error_stats(se_err, power))
    base = QuantizerStats(**_error_stats(np.abs(x - fake_quant(x, cfg, "int8")), power))
    return ComparisonReport(
        config=cfg,
        n=int(x.size),
        soft_edge=se,
        int8=base,
        regions=_region_stats(x, se_err, cfg),
        delta_mse=_delta(se.mse, base.mse),
        delta_sqnr_db=_delta(se.sqnr_db, base.sqnr_db),
        delta_max_abs_err=_delta(se.max_abs_err, base.max_abs_err),
    )
