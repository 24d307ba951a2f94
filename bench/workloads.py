"""The benchmark's workloads: which CLI stages one iteration runs.

Each workload is a closed loop with one caller. An iteration runs its CLI
stages in order, in-process, and the next iteration starts only when the
previous one has ended. Every stage writes into one working directory; the
file names below are the outputs an iteration is checked on. Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The calibration grid of demo 02: 4 percentiles x 2 fine x 2 coarse = 16 rows.
SWEEP_PERCENTILES = (99.9, 99.99, 99.999, 100.0)
SWEEP_FINE_DIVISORS = (2.0, 4.0)
SWEEP_COARSE_MULTIPLIERS = (4.0, 8.0)
SSM_STATE_DIM = 16


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _pipeline_stages(w: Path, n: int, seed: int) -> list[list[str]]:
    x, cfg, q, y, ev = (str(w / f) for f in
                        ("x.qsef", "cfg.json", "x.qse", "y.qsef", "eval.json"))
    return [
        ["synth", "--dist", "outlier_mixture", "--n", str(n),
         "--seed", str(seed), "--out", x],
        ["calibrate", "--input", x, "--percentile", "99.99", "--out", cfg],
        ["quantize", "--input", x, "--config", cfg, "--out", q],
        ["dequantize", "--input", q, "--out", y],
        ["eval", "--input", x, "--config", cfg, "--format", "json", "--out", ev],
    ]


def _sweep_setup(w: Path, n: int, seed: int) -> list[list[str]]:
    return [["synth", "--dist", "student_t", "--df", "3", "--n", str(n),
             "--seed", str(seed), "--out", str(w / "t.qsef")]]


def _sweep_stages(w: Path, n: int, seed: int) -> list[list[str]]:
    return [["sweep", "--input", str(w / "t.qsef"),
             "--percentiles", _csv(SWEEP_PERCENTILES),
             "--fine-divisors", _csv(SWEEP_FINE_DIVISORS),
             "--coarse-multipliers", _csv(SWEEP_COARSE_MULTIPLIERS),
             "--out", str(w / "sweep.csv")]]


def _ssm_setup(w: Path, n: int, seed: int) -> list[list[str]]:
    calib = str(w / "calib.qsef")
    return [
        ["synth", "--dist", "outlier_mixture", "--n", str(n),
         "--seed", str(seed), "--out", calib],
        ["calibrate", "--input", calib, "--percentile", "99.99",
         "--out", str(w / "cfg.json")],
    ]


def _ssm_stages(w: Path, n: int, seed: int) -> list[list[str]]:
    return [["ssm", "--seq-len", str(n), "--state-dim", str(SSM_STATE_DIM),
             "--seed", str(seed), "--config", str(w / "cfg.json"),
             "--report", str(w / "ssm.json")]]


def read_qsef(path: Path) -> np.ndarray:
    """Payload of a QSEF file as float32, parsed without the package."""
    data = Path(path).read_bytes()
    if data[:5] != b"QSEF\x01":
        raise ValueError(f"{path}: not a QSEF v1 file")
    n = int.from_bytes(data[8:16], "little")
    return np.frombuffer(data, dtype="<f4", count=n, offset=16)


def read_config(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def ssm_stimulus(w: Path, n: int, seed: int) -> np.ndarray:
    """The input the `ssm` subcommand builds when given no --input."""
    from softedge.synth import DistSpec, generate

    scale = read_config(w / "cfg.json")["scale"]
    return generate(DistSpec(kind="outlier_mixture", n=n, seed=seed,
                             std=scale * 32.0))


def _pipeline_regions(w: Path, n: int, seed: int):
    cfg = read_config(w / "cfg.json")
    return read_qsef(w / "x.qsef"), [(cfg["low_threshold"], cfg["high_threshold"])]


def _sweep_regions(w: Path, n: int, seed: int):
    with open(w / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return read_qsef(w / "t.qsef"), [(float(r["L"]), float(r["H"])) for r in rows]


def _ssm_regions(w: Path, n: int, seed: int):
    cfg = read_config(w / "cfg.json")
    return (ssm_stimulus(w, n, seed),
            [(cfg["low_threshold"], cfg["high_threshold"])])


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    setup: Callable[[Path, int, int], list[list[str]]]
    stages: Callable[[Path, int, int], list[list[str]]]
    outputs: tuple[str, ...]  # files every iteration writes, all checked
    passes: int  # input elements processed per iteration, in units of n
    # (input, [(L, H) per config]) for the region occupancy metrics
    regions: Callable[[Path, int, int], tuple]

    def setup_argvs(self, work: Path, seed: int) -> list[list[str]]:
        return self.setup(work, self.n, seed)

    def stage_argvs(self, work: Path, seed: int) -> list[list[str]]:
        return self.stages(work, self.n, seed)

    def occupancy(self, work: Path, seed: int) -> tuple[float, float]:
        """Mean share of input elements in the small and in the large region
        over the workload's configs."""
        x, bounds = self.regions(work, self.n, seed)
        ax = np.abs(np.asarray(x, dtype=np.float64))
        small = np.mean([np.count_nonzero(ax < lo) for lo, _ in bounds])
        large = np.mean([np.count_nonzero(ax > hi) for _, hi in bounds])
        return float(small / ax.size), float(large / ax.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_4m",
            n=1 << 22,
            setup=lambda w, n, seed: [],
            stages=_pipeline_stages,
            outputs=("x.qsef", "cfg.json", "x.qse", "y.qsef", "eval.json"),
            passes=1,
            regions=_pipeline_regions,
        ),
        Workload(
            name="sweep_1m",
            n=1 << 20,
            setup=_sweep_setup,
            stages=_sweep_stages,
            outputs=("sweep.csv",),
            passes=len(SWEEP_PERCENTILES) * len(SWEEP_FINE_DIVISORS)
            * len(SWEEP_COARSE_MULTIPLIERS),
            regions=_sweep_regions,
        ),
        Workload(
            name="ssm_64k",
            n=1 << 16,
            setup=_ssm_setup,
            stages=_ssm_stages,
            outputs=("ssm.json",),
            passes=1,
            regions=_ssm_regions,
        ),
    )
}
