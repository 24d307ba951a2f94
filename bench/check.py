"""Correctness checks on the files an iteration writes.

Two references guard every run:

* Frozen references (references.json), captured for the shipped seeds at
  the default sizes: a sha256 digest of every output file, and the SSM
  report field by field. A faster path must produce the same bits.
* For any other seed or size, the first (warm-up) iteration's outputs are
  checked against an oracle written from the format and codec spec
  without the package, and every later iteration must reproduce them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    SWEEP_COARSE_MULTIPLIERS,
    SWEEP_FINE_DIVISORS,
    SWEEP_PERCENTILES,
    SSM_STATE_DIM,
    Workload,
    read_config,
    read_qsef,
    ssm_stimulus,
)

REFERENCES = Path(__file__).with_name("references.json")

# The SSM recurrence may be re-associated (a chunked scan instead of the
# per-step loop): such a scan deviated from the loop by about 2.5e-16
# relative per output, so the report's aggregate errors may move by far
# less than this.
SSM_REL_TOL = 1e-9
REPORT_FILES = ("ssm.json",)
BLOCK = 1 << 18


def snapshot(work: Path, workload: Workload) -> dict:
    """sha256 of every output file; the SSM report as parsed fields."""
    out = {}
    for name in workload.outputs:
        data = (work / name).read_bytes()
        out[name] = (json.loads(data) if name in REPORT_FILES
                     else hashlib.sha256(data).hexdigest())
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=SSM_REL_TOL, abs_tol=0.0)
    return a == b


def compare(got: dict, want: dict) -> list[str]:
    """Names of the outputs (or report fields) that differ."""
    bad = []
    for name, w in want.items():
        g = got.get(name)
        if isinstance(w, dict) and isinstance(g, dict):
            bad += [f"{name}:{k}" for k in w.keys() | g.keys()
                    if not _same(g.get(k), w.get(k))]
        elif g != w:
            bad.append(name)
    return bad


def frozen(workload: Workload, seed: int) -> dict | None:
    refs = json.loads(REFERENCES.read_text()).get(workload.name, {})
    if refs.get("n") != workload.n:
        return None
    return refs["seeds"].get(str(seed))


# ---------------------------------------------------------------- oracle


def _percentile_abs(sorted_abs: np.ndarray, p: float) -> float:
    """Linear interpolation between order statistics, as the spec states."""
    r = (p / 100.0) * (sorted_abs.size - 1)
    lo = math.floor(r)
    if lo >= sorted_abs.size - 1:
        return float(sorted_abs[-1])
    return float(sorted_abs[lo] + (r - lo) * (sorted_abs[lo + 1] - sorted_abs[lo]))


def _derived(scale: float, fd: float, cm: float) -> dict:
    return {"scale": scale, "low_threshold": 64.0 * (scale / fd),
            "high_threshold": 127 * scale, "fine_divisor": fd,
            "coarse_multiplier": cm}


def _encode(x: np.ndarray, c: dict):
    """Codes per the codec spec: flag 1 with sign/region/6-bit magnitude in
    the small and large regions, flag 0 with a two's-complement INT8 byte."""
    s, lo, hi = c["scale"], c["low_threshold"], c["high_threshold"]
    ax = np.abs(x)
    neg = x < 0
    small, large = ax < lo, ax > hi
    m_small = np.minimum(np.floor(ax / (s / c["fine_divisor"]) + 0.5), 63)
    m_large = np.minimum(
        np.floor((ax - hi) / (s * c["coarse_multiplier"]) + 0.5), 63)
    se = np.where(small, m_small, m_large + 64)
    se += 128 * (neg & (large | (m_small > 0)))
    q = np.minimum(np.floor(ax / s + 0.5), 127)
    int8 = np.where(neg & (q > 0), 256 - q, q)
    return small | large, np.where(small | large, se, int8).astype(np.uint8)


def _decode(flags: np.ndarray, codes: np.ndarray, c: dict) -> np.ndarray:
    b = codes.astype(np.int64)
    sign = np.where(b >= 128, -1.0, 1.0)
    m = (b & 63).astype(np.float64)
    s = c["scale"]
    se = np.where(b & 64,
                  sign * (c["high_threshold"] + m * (s * c["coarse_multiplier"])),
                  sign * (m * (s / c["fine_divisor"])))
    return np.where(flags, se, np.where(b >= 128, b - 256, b) * s)


def _read_qse(path: Path):
    data = Path(path).read_bytes()
    if data[:5] != b"QSE1\x01":
        raise ValueError(f"{path}: not a QSE1 v1 file")
    n = int.from_bytes(data[8:16], "little")
    fields = np.frombuffer(data, dtype="<f8", count=5, offset=16)
    nbits = (n + 7) // 8
    flags = np.unpackbits(np.frombuffer(data, np.uint8, nbits, 56),
                          count=n, bitorder="little").astype(bool)
    codes = np.frombuffer(data, np.uint8, n, 56 + nbits)
    return fields, flags, codes


def _region_counts(ax: np.ndarray, c: dict) -> list[int]:
    small = int(np.count_nonzero(ax < c["low_threshold"]))
    large = int(np.count_nonzero(ax > c["high_threshold"]))
    return [small, ax.size - small - large, large]


def _oracle_pipeline(w: Path, n: int, seed: int) -> list[str]:
    x = read_qsef(w / "x.qsef")
    if x.size != n:
        return [f"x.qsef holds {x.size} values, expected {n}"]
    ax = np.abs(x.astype(np.float64))
    cfg = read_config(w / "cfg.json")
    want = _derived(_percentile_abs(np.sort(ax), 99.99) / 127, 4.0, 4.0)
    bad = [f"cfg.json:{k}" for k, v in want.items() if cfg[k] != v]
    fields, flags, codes = _read_qse(w / "x.qse")
    if list(fields) != [want[k] for k in ("scale", "low_threshold",
                                          "high_threshold", "fine_divisor",
                                          "coarse_multiplier")]:
        bad.append("x.qse:config")
    y = read_qsef(w / "y.qsef")
    for i in range(0, n, BLOCK):
        xb = x[i:i + BLOCK].astype(np.float64)
        f, c = _encode(xb, want)
        if not (np.array_equal(f, flags[i:i + BLOCK])
                and np.array_equal(c, codes[i:i + BLOCK])):
            bad.append(f"x.qse:codes[{i}:{i + BLOCK}]")
            break
        if not np.array_equal(_decode(f, c, want).astype("<f4"), y[i:i + BLOCK]):
            bad.append(f"y.qsef:values[{i}:{i + BLOCK}]")
            break
    ev = read_config(w / "eval.json")
    if ev["n"] != n or ev["config"] != cfg:
        bad.append("eval.json:n/config")
    if [r["count"] for r in ev["regions"]] != _region_counts(ax, want):
        bad.append("eval.json:regions")
    return bad


def _oracle_sweep(w: Path, n: int, seed: int) -> list[str]:
    x = read_qsef(w / "t.qsef")
    if x.size != n:
        return [f"t.qsef holds {x.size} values, expected {n}"]
    sorted_abs = np.sort(np.abs(x.astype(np.float64)))
    with open(w / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    grid = [(p, fd, cm) for p in SWEEP_PERCENTILES for fd in SWEEP_FINE_DIVISORS
            for cm in SWEEP_COARSE_MULTIPLIERS]
    if len(rows) != len(grid):
        return [f"sweep.csv has {len(rows)} rows, expected {len(grid)}"]
    bad = []
    for i, (row, (p, fd, cm)) in enumerate(zip(rows, grid)):
        want = _derived(_percentile_abs(sorted_abs, p) / 127, fd, cm)
        got = [float(row[k]) for k in
               ("percentile", "fine_divisor", "coarse_multiplier", "scale", "L", "H")]
        if got != [p, fd, cm, want["scale"], want["low_threshold"],
                   want["high_threshold"]]:
            bad.append(f"sweep.csv:row {i}")
    return bad


def _oracle_ssm(w: Path, n: int, seed: int) -> list[str]:
    rep = read_config(w / "ssm.json")
    cfg = read_config(w / "cfg.json")
    x = ssm_stimulus(w, n, seed)
    q = np.minimum(np.floor(np.abs(x) / cfg["scale"] + 0.5), 127)
    xq_i8 = (np.copysign(q, x) * cfg["scale"]).astype(np.float32)
    xq_se = _decode(*_encode(x, cfg), cfg).astype(np.float32)
    want = {"seq_len": n, "state_dim": SSM_STATE_DIM}
    for name, xq in (("soft_edge", xq_se), ("int8", xq_i8)):
        e = x - xq.astype(np.float64)
        want[f"input_mse_{name}"] = float(np.mean(e * e))
        want[f"input_max_abs_err_{name}"] = float(np.max(np.abs(e)))
    bad = [f"ssm.json:{k}" for k, v in want.items() if not _same(rep[k], v)]
    bad += [f"ssm.json:{k}" for k, v in rep.items()
            if k.startswith("output_")
            and not (isinstance(v, float) and math.isfinite(v))]
    return bad


ORACLES = {
    "pipeline_4m": _oracle_pipeline,
    "sweep_1m": _oracle_sweep,
    "ssm_64k": _oracle_ssm,
}


def oracle(work: Path, workload: Workload, seed: int) -> list[str]:
    """Outputs of the last iteration that contradict the spec."""
    return ORACLES[workload.name](work, workload.n, seed)
