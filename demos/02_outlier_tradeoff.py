"""The outlier-vs-precision tradeoff, quantified.

Covering rare outliers with a single uniform scale inflates the step size
for everything else; clipping them throws their information away. This demo
calibrates on a heavy-tailed synthetic activation tensor (0.1% outliers at
10-30 sigma) and compares the two strategies region by region.
"""

import softedge as se
from softedge.synth import DistSpec, generate

t = generate(DistSpec(
    kind="outlier_mixture", n=1_000_000, seed=7,
    std=1.0, outlier_fraction=0.001, outlier_low=10.0, outlier_high=30.0,
))

# one row per percentile, as calibrate + compare_quantizers would give
for r in se.sweep(t, [99.9, 99.99, 99.999, 100.0]):
    cfg = r.config
    print(f"percentile {cfg.percentile:7.3f}: scale={cfg.scale:.5f}  "
          f"se_mse={r.soft_edge.mse:.3e}  int8_mse={r.int8.mse:.3e}  "
          f"sqnr gain={r.delta_sqnr_db:+.2f} dB")

print()
cfg = se.calibrate(t, 99.99)
r = se.compare_quantizers(t, cfg)
print("soft-edge error by region at the 99.99% calibration:")
for reg in r.regions:
    print(f"  {reg.region.value:6s} n={reg.count:7d} ({100 * reg.fraction:6.2f}%)"
          f"  mse={reg.mse:.3e}  max_err={reg.max_abs_err:.3e}")

print()
print("the large region holds a fraction of a percent of the values but is")
print("where INT8 loses: its hard clip turns 30-sigma outliers into 127*scale.")
