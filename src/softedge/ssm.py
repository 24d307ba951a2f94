"""Desk-scale diagonal linear state-space recurrence.

The recurrence h_t[i] = a_i * h_{t-1}[i] + b_i * x_t, y_t = sum_i c_i * h_t[i]
propagates input-stage quantization error to the output, which is what the
end-to-end comparison measures. Stability requires |a_i| < 1 for every
channel. Everything runs in float64.

``_scan`` evaluates the recurrence as a chunked scan, the blocked form of
the parallel scan in Mamba (Gu & Dao, arXiv 2312.00752; Blelloch 1990): a
closed form inside each block of BLOCK steps, with block-start states from a
doubling scan (Hillis & Steele 1986). It runs in place over the rows of one
zero-padded float64 buffer, each row an input that becomes its output:
``ssm_forward`` scans one row, ``run_report`` its three runs at once. The
rows share the power, kernel and Toeplitz tables, the block-end product and
the doubling carry, and the Toeplitz and carried-in products run a leaf of
blocks at a time, written back over the blocks they read, so a scan
allocates no T-sized temporary besides its buffer; each row's output is bit
for bit the one-row scan of its input. Re-associated, the scan is not bit
for bit the step-by-step loop; it stays within k*eps*B/(1 - max|a_i|) of it, with
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
from .errors import (SIZE_MAX, InvalidParams, NonFiniteInput, check_finite,
                     check_integer)
from . import metrics
from .synth import _gaussian_counters, gaussians, uniforms

# Steps per block of the chunked scan. At T = 65,536 and N = 16 a pass took
# 1.4 ms at 64 steps, 1.7 ms at 32, 1.9 ms at 128 and 3.5 ms at 256 (medians
# of 5 x 50 passes; 2-vCPU Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31).
BLOCK = 64
_MACS = 2 ** 17  # per product slice; OpenBLAS may thread a gemm from 2**18
_CHUNK = metrics.LEAF // BLOCK  # blocks per Toeplitz and carried-in chunk
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


def _input(x) -> np.ndarray:
    """x as a checked 1-D array, in its own dtype."""
    xs = check_finite(x, InvalidParams, "input: ")
    if xs.ndim != 1:
        raise InvalidParams("input must be 1-D")
    return xs


def _buffer(rows: int, t: int) -> np.ndarray:
    """A zeroed (rows, L) float64 buffer for ``_scan``: L is t rounded up to
    whole Toeplitz product slices of _MACS // BLOCK blocks."""
    steps = _MACS // BLOCK
    return np.zeros((rows, -(-t // steps) * steps))


def ssm_forward(params: SsmParams, x) -> np.ndarray:
    """Run the recurrence over a length-T input; returns the length-T output.
    An output beyond binary64 raises InvalidParams, without a warning."""
    xs = _input(x)
    rows = _buffer(1, xs.size)
    rows[0, :xs.size] = xs
    _scan(params, rows, xs.size)
    return check_finite(rows[0, :xs.size], InvalidParams, "output: ")


@np.errstate(over="ignore", invalid="ignore")
def _scan(params: SsmParams, rows: np.ndarray, t: int) -> None:
    """Run the recurrence over the first t steps of each row of a ``_buffer``
    in place: row r, its input, becomes its output.

    A row is cut into blocks of BLOCK steps, X[m, j] = x[m*BLOCK + j]. With
    kernel[d] = sum_i c_i b_i a_i^d and s_m the state entering block m,
        y[m, k] = sum_(j<=k) X[m, j] kernel[k-j] + sum_i c_i a_i^(k+1) s_m,i,
        s_0 = h0,  s_(m+1) = a^BLOCK s_m + b sum_j a^(BLOCK-1-j) X[m, j].
    Each sum over j or i is one product over many blocks (the Toeplitz and
    carried-in ones _CHUNK blocks at a time); a doubling scan over the
    ceil(t/BLOCK) input blocks carries the states.
    """
    a, b, c = params.a, params.b, params.c
    blocks = rows.reshape(len(rows), -1, BLOCK)
    count, size = -(-t // BLOCK), blocks.shape[1]
    power = a ** np.arange(BLOCK, -1, -1.0)[:, None]  # power[j, i] = a_i**(BLOCK-j)
    kernel = _product(power[:0:-1], (c * b)[:, None])[:, 0]
    lag = np.arange(BLOCK) - np.arange(BLOCK)[:, None]  # lag[j, k] = k - j
    toeplitz = np.where(lag >= 0, kernel[lag], 0.0)
    # h0, then each block's zero-state end; scanned, carry[:, m] = s_m
    carry = np.empty((len(rows), size + 1, a.size))
    carry[:, 0] = params.h0
    for x, s in zip(blocks, carry):
        _product(x, power[1:], out=s[1:])
    carry[:, 1:] *= b
    # the doubling scan, over the states laid end to end so that each step
    # is one contiguous multiply-add, not one of N elements per block
    flat, n = carry.reshape(len(rows), -1), a.size
    for span in 2 ** np.arange(max(count - 1, 0).bit_length()):
        flat[:, span * n:count * n] += (np.tile(a ** (BLOCK * span),
                                                count - span)
                                        * flat[:, :(count - span) * n])
    weights = (c * power[BLOCK - 1::-1]).T
    scratch = np.empty((2, min(size, _CHUNK), BLOCK))
    for x, s in zip(blocks, carry):
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            y, z = scratch[:, :hi - lo]
            _product(x[lo:hi], toeplitz, out=y)
            _product(s[lo:hi], weights, out=z)
            np.add(y, z, out=x[lo:hi])


def _product(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """x @ w (into out if given) as one np.matmul over row slices of at most
    _MACS multiply-adds: a power of two dividing len(x), or one row."""
    (m, k), p = x.shape, w.shape[1]
    rows = np.gcd(m, 1 << max((_MACS // (k * p)).bit_length() - 1, 0))
    out = out if out is None else out.reshape(-1, rows, p)
    return np.matmul(x.reshape(-1, rows, k), w, out=out).reshape(m, p)


def run_report(params: SsmParams, x, cfg: QuantConfig) -> SsmRunReport:
    """Full-precision vs soft-edge vs INT8 runs, aggregated into one report.

    x and its two fake-quantized copies, each cast from binary32 as it is
    copied, fill the rows of one buffer, which one ``_scan`` turns into
    their outputs. ``metrics._report``, every report's one step from a pass
    to statistics, takes the input rows in one leaf pass before the scan and
    the output rows in one after it, with no n-element error array; each
    pass reruns a sum that overflows or underflows to 0, as every report's.
    x is checked first; if a pass finds a non-finite leaf, the named checks
    here report the first failure in the order of the runs: the reference
    output, then each quantizer's input, whose binary32 cast can overflow to
    infinity, and its output.
    """
    x = _input(x)
    t, runs = x.size, ("soft_edge", "int8")
    rows = _buffer(3, t)
    y = rows[:, :t]
    y[0] = x
    for row, which in zip(y[1:], runs):
        row[:] = fake_quant(x, cfg, which)
    try:
        _, inputs, _ = metrics._report(y[0], list(y[1:]))
    except NonFiniteInput as e:
        inputs = e  # the named checks below report it
    _scan(params, rows, t)
    try:
        _, outputs, _ = metrics._report(y[0], list(y[1:]))
        if isinstance(inputs, NonFiniteInput):
            raise inputs
    except NonFiniteInput:
        check_finite(y[0], InvalidParams, "output: ")
        for which, yq in zip(runs, y[1:]):
            check_finite(fake_quant(x, cfg, which), InvalidParams,
                         f"{which}-quantized input: ")
            check_finite(yq, InvalidParams, "output: ")
        raise
    (se_in, int8_in), (se_out, int8_out) = inputs, outputs
    return SsmRunReport(t, params.state_dim, se_out.mse, se_out.sqnr_db,
                        int8_out.mse, int8_out.sqnr_db, se_in.mse,
                        se_in.max_abs_err, int8_in.mse, int8_in.max_abs_err)
