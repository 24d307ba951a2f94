"""Three-scale soft-edge activation quantizer for state-space models.

A plain symmetric INT8 quantizer hard-clips outliers; this codec spends a
one-bit flag per element to add a fine sub-scale near zero and a coarse
extension beyond the clip point, keeping the standard grid untouched in
between. The package bundles the codec, percentile calibration, error
metrics, deterministic synthetic data, a desk-scale SSM error-propagation
simulator, bit-exact file formats, and a CLI.
"""

from .calibration import (
    QuantConfig,
    calibrate,
    calibrate_grid,
    calibrate_scale,
    derive_config,
    percentile_abs,
)
from .codec import (
    QuantizedTensor,
    RegionClass,
    SoftEdgeCode,
    TraceRecord,
    classify,
    decode_tensor,
    encode_tensor,
    fake_quant,
    hardware_trace,
    int8_decode,
    int8_encode,
    se_decode,
    se_encode,
)
from .metrics import (
    ComparisonReport,
    QuantizerStats,
    RegionStats,
    compare_quantizers,
    mse,
    region_breakdown,
    sqnr_db,
    sweep,
    SweepRow,
)
from .ssm import (
    SsmParams,
    SsmRunReport,
    make_params,
    run_report,
    ssm_forward,
    ssm_forward_quantized,
)
from .synth import DistSpec, generate
from .tensor_io import read_packed, read_tensor, write_packed, write_tensor

__version__ = "0.1.0"

__all__ = [
    "QuantConfig",
    "calibrate",
    "calibrate_grid",
    "calibrate_scale",
    "derive_config",
    "percentile_abs",
    "QuantizedTensor",
    "RegionClass",
    "SoftEdgeCode",
    "TraceRecord",
    "classify",
    "decode_tensor",
    "encode_tensor",
    "fake_quant",
    "hardware_trace",
    "int8_decode",
    "int8_encode",
    "se_decode",
    "se_encode",
    "ComparisonReport",
    "QuantizerStats",
    "RegionStats",
    "compare_quantizers",
    "mse",
    "region_breakdown",
    "sqnr_db",
    "SweepRow",
    "sweep",
    "SsmParams",
    "SsmRunReport",
    "make_params",
    "run_report",
    "ssm_forward",
    "ssm_forward_quantized",
    "DistSpec",
    "generate",
    "read_packed",
    "read_tensor",
    "write_packed",
    "write_tensor",
]
