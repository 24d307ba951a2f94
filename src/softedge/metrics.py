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
from .codec import RegionClass, fake_quant
from .errors import EmptyTensor, LengthMismatch, ZeroSignal

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
                name: {k: _json_number(v) for k, v in asdict(q).items()}
                for name, q in (("soft_edge", self.soft_edge), ("int8", self.int8))
            },
            "regions": [{**asdict(r), "region": r.region.value}
                        for r in self.regions],
            "deltas": {
                "mse": _json_number(self.delta_mse),
                "sqnr_db": _json_number(self.delta_sqnr_db),
                "max_abs_err": _json_number(self.delta_max_abs_err),
            },
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


def _check_pair(ref: np.ndarray, approx: np.ndarray):
    if ref.shape != approx.shape:
        raise LengthMismatch(f"length mismatch: {ref.size} vs {approx.size}")
    if ref.size == 0:
        raise EmptyTensor("metrics need at least one element")


def mse(ref, approx) -> float:
    r = np.asarray(ref, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    _check_pair(r, a)
    d = r - a
    return float(np.mean(d * d))


def _json_number(v):
    """JSON spelling of a float: non-finite values become "inf" / "-inf" / "nan"."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _sqnr(signal: float, noise: float) -> float:
    """10*log10(signal / noise): +inf for zero noise, -inf for zero signal."""
    if noise == 0:
        return math.inf
    if signal <= 0:
        return -math.inf
    return 10.0 * math.log10(signal / noise)


def sqnr_db(ref, approx) -> float:
    """10*log10(signal power / error power); +inf when the error is zero."""
    r = np.asarray(ref, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    _check_pair(r, a)
    signal = float(np.sum(r * r))
    if signal <= 0:
        raise ZeroSignal("reference tensor has zero power")
    d = r - a
    return _sqnr(signal, float(np.sum(d * d)))


def _error_stats(ref: np.ndarray, err: np.ndarray) -> QuantizerStats:
    """MSE, SQNR and max error of an approximation of ``ref`` whose
    absolute error is ``err``."""
    if err.size == 0:
        raise EmptyTensor("metrics need at least one element")
    noise = float(np.sum(err * err))
    return QuantizerStats(
        mse=noise / err.size,
        sqnr_db=_sqnr(float(np.sum(ref * ref)), noise),
        max_abs_err=float(np.max(err)),
    )


def _region_stats(x: np.ndarray, err: np.ndarray, cfg: QuantConfig):
    ax = np.abs(x)
    masks = {
        RegionClass.SMALL: ax < cfg.low_threshold,
        RegionClass.MEDIUM: (ax >= cfg.low_threshold) & (ax <= cfg.high_threshold),
        RegionClass.LARGE: ax > cfg.high_threshold,
    }
    out = []
    n = x.size
    for region, mask in masks.items():
        count = int(np.count_nonzero(mask))
        if count:
            e = err[mask]
            stats = RegionStats(
                region=region,
                count=count,
                fraction=count / n if n else 0.0,
                mse=float(np.mean(e * e)),
                max_abs_err=float(np.max(e)),
                mean_abs_err=float(np.mean(e)),
            )
        else:
            stats = RegionStats(region, 0, 0.0, 0.0, 0.0, 0.0)
        out.append(stats)
    return tuple(out)


def region_breakdown(values, cfg: QuantConfig):
    """Soft-edge error statistics bucketed by region.

    Returns (small, medium, large) RegionStats; counts sum to n.
    """
    x = np.asarray(values, dtype=np.float64)
    return _region_stats(x, np.abs(x - fake_quant(x, cfg, "soft_edge")), cfg)


def _delta(a: float, b: float) -> float:
    # both infinite means both paths are lossless: no difference
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def compare_quantizers(values, cfg: QuantConfig) -> ComparisonReport:
    """Side-by-side soft-edge vs baseline INT8 report on one tensor."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise EmptyTensor("comparison needs at least one element")
    se_err = np.abs(x - fake_quant(x, cfg, "soft_edge"))
    se = _error_stats(x, se_err)
    base = _error_stats(x, np.abs(x - fake_quant(x, cfg, "int8")))
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
