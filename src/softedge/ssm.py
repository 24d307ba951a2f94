"""Desk-scale diagonal linear state-space recurrence.

The recurrence h_t[i] = a_i * h_{t-1}[i] + b_i * x_t, y_t = sum_i c_i * h_t[i]
propagates input-stage quantization error to the output, which is what the
end-to-end comparison measures. Stability requires |a_i| < 1 for every
channel. Everything runs in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .calibration import QuantConfig
from .codec import fake_quant
from .errors import InvalidParams
from . import metrics
from .synth import _gaussian_counters, gaussians, uniforms

__all__ = [
    "SsmParams",
    "SsmRunReport",
    "make_params",
    "ssm_forward",
    "ssm_forward_quantized",
    "run_report",
]


@dataclass(frozen=True)
class SsmParams:
    a: np.ndarray  # per-channel decay, |a_i| < 1
    b: np.ndarray  # input coefficients
    c: np.ndarray  # output coefficients
    h0: np.ndarray | None = None  # initial state, default zeros

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if not (a.shape == b.shape == c.shape) or a.ndim != 1:
            raise InvalidParams("a, b, c must be 1-D with equal lengths")
        if a.size == 0:
            raise InvalidParams("state dimension must be >= 1")
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise InvalidParams(f"non-finite entries in {name}")
        if np.any(np.abs(a) >= 1):
            raise InvalidParams("instability: need |a_i| < 1 for every channel")
        if self.h0 is None:
            object.__setattr__(self, "h0", np.zeros_like(a))
        else:
            h0 = np.asarray(self.h0, dtype=np.float64)
            if h0.shape != a.shape or not np.all(np.isfinite(h0)):
                raise InvalidParams("h0 must be finite with the same shape as a")
            object.__setattr__(self, "h0", h0)

    @property
    def state_dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class SsmRunReport:
    seq_len: int
    state_dim: int
    output_mse_soft_edge: float
    output_sqnr_db_soft_edge: float
    output_mse_int8: float
    output_sqnr_db_int8: float
    input_mse_soft_edge: float
    input_max_abs_err_soft_edge: float
    input_mse_int8: float
    input_max_abs_err_int8: float

    def to_json(self) -> str:
        return json.dumps(metrics._json_numbers(self.__dict__), indent=2)


def make_params(state_dim: int, seed: int) -> SsmParams:
    """Seeded parameters: a_i uniform in [0.5, 0.99], b_i and c_i standard
    normal. Counter layout: a from [0, N), b and c from the next gaussian
    blocks."""
    if state_dim < 1:
        raise InvalidParams("state_dim must be >= 1")
    n = state_dim
    a = 0.5 + 0.49 * uniforms(seed, 0, n)
    gk = _gaussian_counters(n)
    b = gaussians(seed, n, n)
    c = gaussians(seed, n + gk, n)
    return SsmParams(a=a, b=b, c=c)


def ssm_forward(params: SsmParams, x) -> np.ndarray:
    """Run the recurrence over a length-T input; returns the length-T output."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim != 1:
        raise InvalidParams("input must be 1-D")
    if not np.all(np.isfinite(xs)):
        raise InvalidParams("non-finite input values")
    h = params.h0.copy()
    y = np.empty(xs.size, dtype=np.float64)
    a, b, c = params.a, params.b, params.c
    for t in range(xs.size):
        h = a * h + b * xs[t]
        y[t] = c @ h
    return y


def ssm_forward_quantized(params: SsmParams, x, cfg: QuantConfig,
                          which: str = "soft_edge") -> np.ndarray:
    """Same recurrence with the input fake-quantized at the SSM entry point."""
    xq = fake_quant(np.asarray(x, dtype=np.float64), cfg, which)
    return ssm_forward(params, xq.astype(np.float64))


def run_report(params: SsmParams, x, cfg: QuantConfig) -> SsmRunReport:
    """Full-precision vs soft-edge vs INT8 runs, aggregated into one report.

    Each input is fake-quantized once; the same array drives its SSM run and
    its input-error statistics.
    """
    xs = np.asarray(x, dtype=np.float64)
    y_ref = ssm_forward(params, xs)
    power = metrics._sum(y_ref)
    fields = {}
    for which in ("soft_edge", "int8"):
        xq = fake_quant(xs, cfg, which).astype(np.float64)
        inp = metrics._error_stats(np.abs(xs - xq))
        out = metrics._error_stats(np.abs(y_ref - ssm_forward(params, xq)), power)
        fields.update({
            f"output_mse_{which}": out["mse"],
            f"output_sqnr_db_{which}": out["sqnr_db"],
            f"input_mse_{which}": inp["mse"],
            f"input_max_abs_err_{which}": inp["max_abs_err"],
        })
    return SsmRunReport(seq_len=int(xs.size), state_dim=params.state_dim, **fields)
