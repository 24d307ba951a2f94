"""Desk-scale diagonal linear state-space recurrence.

The recurrence h_t[i] = a_i * h_{t-1}[i] + b_i * x_t, y_t = sum_i c_i * h_t[i]
propagates input-stage quantization error to the output, which is what the
end-to-end comparison measures. Stability requires |a_i| < 1 for every
channel. Everything runs in float64.

``ssm_forward`` evaluates the recurrence as a chunked scan, the blocked form
of the parallel scan in Mamba (Gu & Dao, arXiv 2312.00752; Blelloch 1990): a
closed form inside each block of BLOCK steps, with block-start states from a
doubling scan (Hillis & Steele 1986). Re-associated, it is not bit for bit
the step-by-step loop; it stays within k*eps*B/(1 - max|a_i|) of it, with
k = BLOCK + 2N + 16 + 2*ceil(log2(T/BLOCK)), eps = 2**-52 and
B = max|x| * sum|c_i b_i| / (1 - max|a_i|) + sum|c_i h0_i|. The loop is the
test oracle (``tests/conftest.py``, fixture ``ssm_loop``), and
``tests/test_ssm.py::test_scan_matches_loop`` derives and checks the bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .calibration import QuantConfig
from .codec import fake_quant
from .errors import SIZE_MAX, InvalidParams, check_finite, check_integer
from . import metrics
from .synth import _gaussian_counters, gaussians, uniforms

# Steps per block of the chunked scan. At T = 65,536 and N = 16 a pass took
# 1.4 ms at 64 steps, 1.7 ms at 32, 1.9 ms at 128 and 3.5 ms at 256 (medians
# of 5 x 50 passes; 2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31).
BLOCK = 64
_MACS = 2 ** 17  # per product slice; OpenBLAS may thread a gemm from 2**18
# The largest N whose (BLOCK + 1) x N power table, the largest array
# ssm_forward builds from N alone, numpy can describe.
MAX_STATE_DIM = SIZE_MAX // (BLOCK + 1)

__all__ = ["SsmParams", "SsmRunReport", "make_params", "ssm_forward",
           "run_report"]


@dataclass(frozen=True)
class SsmParams:
    a: np.ndarray  # per-channel decay, |a_i| < 1
    b: np.ndarray  # input coefficients
    c: np.ndarray  # output coefficients
    h0: np.ndarray | None = None  # initial state, default zeros

    def __post_init__(self):
        if self.h0 is None:
            object.__setattr__(self, "h0", np.zeros_like(self.a, dtype=float))
        for n in ("a", "b", "c", "h0"):
            arr = check_finite(getattr(self, n), InvalidParams, f"{n}: ")
            object.__setattr__(self, n, arr.astype(np.float64, copy=False))
        a, b, c, h0 = self.a, self.b, self.c, self.h0
        if not (a.shape == b.shape == c.shape == h0.shape) or a.ndim != 1:
            raise InvalidParams("a, b, c and h0 must be 1-D with equal lengths")
        if a.size == 0:
            raise InvalidParams("state dimension must be >= 1")
        if np.any(np.abs(a) >= 1):
            raise InvalidParams("instability: need |a_i| < 1 for every channel")

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
    state_dim, seed = (check_integer(v, InvalidParams, name) for v, name in
                       ((state_dim, "state_dim"), (seed, "seed")))
    if not 1 <= state_dim <= MAX_STATE_DIM:
        raise InvalidParams(f"state_dim must be in [1, {MAX_STATE_DIM}], "
                            f"got {state_dim}")
    n = state_dim
    a = 0.5 + 0.49 * uniforms(seed, 0, n)
    gk = _gaussian_counters(n)
    b = gaussians(seed, n, n)
    c = gaussians(seed, n + gk, n)
    return SsmParams(a=a, b=b, c=c)


@np.errstate(over="ignore", invalid="ignore")
def ssm_forward(params: SsmParams, x) -> np.ndarray:
    """Run the recurrence over a length-T input; returns the length-T output.
    An output beyond binary64 raises InvalidParams, without a warning.

    The input is zero-padded to rows of BLOCK steps, X[m, j] = x[m*BLOCK + j].
    With kernel[d] = sum_i c_i b_i a_i^d and s_m the state entering block m,
        y[m, k] = sum_(j<=k) X[m, j] kernel[k-j] + sum_i c_i a_i^(k+1) s_m,i,
        s_0 = h0,  s_(m+1) = a^BLOCK s_m + b sum_j a^(BLOCK-1-j) X[m, j].
    Each sum over j or i is one product for all blocks; a doubling scan
    over the ceil(T/BLOCK) input blocks carries the states.
    """
    xs = check_finite(x, InvalidParams, "input: ").astype(np.float64, copy=False)
    if xs.ndim != 1:
        raise InvalidParams("input must be 1-D")
    a, b, c = params.a, params.b, params.c
    count, group = -(-xs.size // BLOCK), _MACS // BLOCK ** 2
    blocks = np.zeros((-(-count // group) * group, BLOCK))  # whole Toeplitz slices
    blocks.ravel()[:xs.size] = xs
    power = a ** np.arange(BLOCK, -1, -1.0)[:, None]  # power[j, i] = a_i**(BLOCK-j)
    kernel = _product(power[:0:-1], (c * b)[:, None])[:, 0]
    lag = np.arange(BLOCK) - np.arange(BLOCK)[:, None]  # lag[j, k] = k - j
    toeplitz = np.where(lag >= 0, kernel[lag], 0.0)
    # h0, then each block's zero-state end; scanned, carry[m] = s_m
    carry = np.vstack([params.h0, _product(blocks, power[1:]) * b])
    for span in 2 ** np.arange(max(count - 1, 0).bit_length()):  # doubling
        carry[span:count] += a ** (BLOCK * span) * carry[:count - span]
    y = _product(blocks, toeplitz)
    y += _product(carry[:-1], (c * power[BLOCK - 1::-1]).T, out=blocks)  # X is spent
    return check_finite(y.ravel()[:xs.size], InvalidParams, "output: ")


def _product(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """x @ w (into out if given) as one np.matmul over row slices of at most
    _MACS multiply-adds: a power of two dividing len(x), or one row."""
    (m, k), p = x.shape, w.shape[1]
    rows = np.gcd(m, 1 << max((_MACS // (k * p)).bit_length() - 1, 0))
    out = out if out is None else out.reshape(-1, rows, p)
    return np.matmul(x.reshape(-1, rows, k), w, out=out).reshape(m, p)


def run_report(params: SsmParams, x, cfg: QuantConfig) -> SsmRunReport:
    """Full-precision vs soft-edge vs INT8 runs, aggregated into one report.

    Each input is fake-quantized once, to float64; the same array drives its
    SSM run and its input rows. ``metrics._checked_pair``, mse's path, takes
    each pair's rows, input and output, in one leaf pass with no n-element
    error array. The full-precision run is the one check of x; a quantized
    input is checked as it leaves fake_quant, whose binary32 cast can
    overflow to infinity, so the error names its quantizer.
    """
    y_ref = ssm_forward(params, x)
    fields = {}
    for which in ("soft_edge", "int8"):
        xq = check_finite(fake_quant(x, cfg, which), InvalidParams,
                          f"{which}-quantized input: ").astype(np.float64)
        _, out = metrics._checked_pair(y_ref, ssm_forward(params, xq))
        _, inp = metrics._checked_pair(x, xq)
        fields.update({
            f"output_mse_{which}": out["mse"],
            f"output_sqnr_db_{which}": out["sqnr_db"],
            f"input_mse_{which}": inp["mse"],
            f"input_max_abs_err_{which}": inp["max_abs_err"],
        })
    return SsmRunReport(y_ref.size, params.state_dim, **fields)
