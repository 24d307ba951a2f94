"""Three-scale soft-edge activation quantizer for state-space models.

A plain symmetric INT8 quantizer hard-clips outliers; this codec spends a
one-bit flag per element to add a fine sub-scale near zero and a coarse
extension beyond the clip point, keeping the standard grid untouched in
between. The package bundles the codec, percentile calibration, error
metrics, deterministic synthetic data, a desk-scale SSM error-propagation
simulator, bit-exact file formats, and a CLI.

The public names are those of each module's ``__all__``, plus the two synth
entry points (its counter-level draws stay in ``softedge.synth``).
"""

from . import calibration, codec, metrics, ssm, tensor_io
from .calibration import *
from .codec import *
from .metrics import *
from .ssm import *
from .tensor_io import *
from .synth import DistSpec, generate

__version__ = "0.1.0"

__all__ = [*calibration.__all__, *codec.__all__, *metrics.__all__,
           *ssm.__all__, *tensor_io.__all__, "DistSpec", "generate"]
