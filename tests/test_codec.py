import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from softedge import (
    QuantConfig,
    QuantizedTensor,
    RegionClass,
    SoftEdgeCode,
    TraceRecord,
    classify,
    decode_tensor,
    derive_config,
    encode_tensor,
    fake_quant,
    hardware_trace,
    int8_decode,
    int8_encode,
    region_breakdown,
    se_decode,
    se_encode,
)
from softedge.calibration import CODEC_FIELDS
from softedge.errors import InvalidConfig, NonCanonicalCode, NonFiniteInput


def region_codebook(region, cfg):
    """All canonical (flag, byte) codes of one region."""
    if region is RegionClass.SMALL:
        codes = [SoftEdgeCode(1, m) for m in range(64)]
        codes += [SoftEdgeCode(1, 0x80 | m) for m in range(1, 64)]
    elif region is RegionClass.MEDIUM:
        codes = [SoftEdgeCode(0, q & 0xFF) for q in range(-127, 128)]
    else:
        codes = [SoftEdgeCode(1, 0x40 | m) for m in range(64)]
        codes += [SoftEdgeCode(1, 0xC0 | m) for m in range(64)]
    return codes


class TestClassify:
    def test_small(self, unit_cfg):
        assert classify(5.1, unit_cfg) is RegionClass.SMALL

    def test_boundary_low_is_medium(self, unit_cfg):
        assert classify(-16.0, unit_cfg) is RegionClass.MEDIUM

    def test_boundary_high_is_medium(self, unit_cfg):
        assert classify(127.0, unit_cfg) is RegionClass.MEDIUM

    def test_large(self, unit_cfg):
        assert classify(200.0, unit_cfg) is RegionClass.LARGE

    def test_nonfinite_rejected(self, unit_cfg):
        with pytest.raises(NonFiniteInput):
            classify(float("nan"), unit_cfg)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_total_and_exclusive(self, x):
        cfg = derive_config(1.0)
        r = classify(x, cfg)
        ax = abs(x)
        if ax < cfg.low_threshold:
            assert r is RegionClass.SMALL
        elif ax > cfg.high_threshold:
            assert r is RegionClass.LARGE
        else:
            assert r is RegionClass.MEDIUM


class TestSeEncode:
    def test_small_example(self, unit_cfg):
        c = se_encode(5.1, unit_cfg)
        assert (c.se_flag, c.byte) == (1, 0b00010100)  # m = round(5.1/0.25) = 20

    def test_medium_example(self, unit_cfg):
        c = se_encode(50.3, unit_cfg)
        assert (c.se_flag, c.int8_value) == (0, 50)

    def test_large_negative_example(self, unit_cfg):
        c = se_encode(-200.0, unit_cfg)
        assert (c.se_flag, c.byte) == (1, 0b11010010)  # sign 1, region 1, m 18

    def test_large_saturates(self, unit_cfg):
        c = se_encode(1000.0, unit_cfg)
        assert c.se_flag == 1 and c.region_bit == 1 and c.magnitude == 63

    def test_canonical_zero(self, unit_cfg):
        c = se_encode(0.0, unit_cfg)
        assert (c.se_flag, c.byte) == (1, 0x00)

    def test_negative_rounds_to_zero_has_positive_sign(self, unit_cfg):
        c = se_encode(-0.1, unit_cfg)
        assert c.byte == 0x00

    def test_nonfinite_rejected(self, unit_cfg):
        with pytest.raises(NonFiniteInput):
            se_encode(float("inf"), unit_cfg)


class TestSeDecode:
    def test_small(self, unit_cfg):
        assert se_decode(SoftEdgeCode(1, 0b00010100), unit_cfg) == 5.0

    def test_medium(self, unit_cfg):
        assert se_decode(SoftEdgeCode(0, 50), unit_cfg) == 50.0

    def test_large_negative(self, unit_cfg):
        assert se_decode(SoftEdgeCode(1, 0b11010010), unit_cfg) == -199.0

    def test_negative_zero_rejected_strict(self, unit_cfg):
        with pytest.raises(NonCanonicalCode):
            se_decode(SoftEdgeCode(1, 0x80), unit_cfg)

    def test_negative_zero_lenient(self, unit_cfg):
        assert se_decode(SoftEdgeCode(1, 0x80), unit_cfg, strict=False) == 0.0

    def test_minus_128_accepted_defensively(self, unit_cfg):
        assert se_decode(SoftEdgeCode(0, 0x80), unit_cfg) == -128.0


class TestInt8Baseline:
    def test_clips_outlier(self, unit_cfg):
        b = int8_encode(200.0, unit_cfg)
        assert b == 127 and int8_decode(b, unit_cfg) == 127.0

    def test_small_rounds_to_zero(self, unit_cfg):
        assert int8_encode(-0.4, unit_cfg) == 0

    def test_half_away_from_zero(self, unit_cfg):
        assert int8_encode(63.5, unit_cfg) == 64
        assert int8_encode(-63.5, unit_cfg) == -64


class TestFakeQuant:
    def test_soft_edge_examples(self, unit_cfg):
        out = fake_quant([5.1, 50.3, -200.0], unit_cfg, "soft_edge")
        np.testing.assert_array_equal(out, np.float32([5.0, 50.0, -199.0]))

    def test_int8_examples(self, unit_cfg):
        out = fake_quant([5.1, 50.3, -200.0], unit_cfg, "int8")
        np.testing.assert_array_equal(out, np.float32([5.0, 50.0, -127.0]))

    @pytest.mark.parametrize("which", ["soft_edge", "int8"])
    def test_idempotent_bitwise(self, unit_cfg, which):
        rng = np.random.default_rng(1)
        x = rng.uniform(-500, 500, 100_000)
        once = fake_quant(x, unit_cfg, which)
        twice = fake_quant(once, unit_cfg, which)
        assert once.tobytes() == twice.tobytes()

    def test_idempotent_awkward_scale(self):
        # scales whose reconstructions are inexact in binary32
        for s in (0.37, 1e-3, 3.14159):
            cfg = derive_config(s)
            rng = np.random.default_rng(2)
            x = rng.uniform(-500 * s, 500 * s, 20_000)
            once = fake_quant(x, cfg, "soft_edge")
            assert once.tobytes() == fake_quant(once, cfg, "soft_edge").tobytes()

    def test_nonfinite_reports_index(self, unit_cfg):
        with pytest.raises(NonFiniteInput) as ei:
            fake_quant([1.0, float("nan"), 2.0], unit_cfg)
        assert ei.value.index == 1

    def test_beyond_binary32_is_inf_for_both_quantizers(self):
        # at scale 1e300 every nonzero code reconstructs beyond binary32
        cfg = derive_config(1e300)
        x = [0.0, 1.0, -1e299, 1e300, -5e301, 2e302, -np.finfo(float).max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            se = fake_quant(x, cfg, "soft_edge")
            i8 = fake_quant(x, cfg, "int8")
        want = np.float32([0, 0, 0, np.inf, -np.inf, np.inf, -np.inf])
        np.testing.assert_array_equal(se, want)
        np.testing.assert_array_equal(i8, want)

    def test_unknown_quantizer(self, unit_cfg):
        with pytest.raises(ValueError):
            fake_quant([1.0], unit_cfg, "int4")

    def test_huge_finite_inputs_raise_no_warning(self, unit_cfg):
        top = np.finfo(float).max
        x = [1e308, -1e308, top, -top]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = decode_tensor(encode_tensor(x, unit_cfg))
            se = fake_quant(x, unit_cfg, "soft_edge")
            i8 = fake_quant(x, unit_cfg, "int8")
            traces = [hardware_trace(v, unit_cfg) for v in x]
            codes = [int8_encode(v, unit_cfg) for v in x]
        np.testing.assert_array_equal(decoded, [379, -379, 379, -379])
        np.testing.assert_array_equal(se, np.float32([379, -379, 379, -379]))
        np.testing.assert_array_equal(i8, np.float32([127, -127, 127, -127]))
        assert [t.reconstructed for t in traces] == [379, -379, 379, -379]
        assert codes == [127, -127, 127, -127]


def test_fine_codebook_edge(unit_cfg):
    # |x| in [15.875, 16) rounds to m = 64 and clips to the top fine code 63:
    # error up to one full fine step, not the half step of other fine codes
    for mag in (15.875, 15.9, 15.99, float(np.nextafter(16.0, 0.0))):
        for x in (mag, -mag):
            c = se_encode(x, unit_cfg)
            assert (c.se_flag, c.region_bit, c.magnitude) == (1, 0, 63)
            recon = se_decode(c, unit_cfg)
            assert recon == math.copysign(15.75, x)
            assert 0.125 <= abs(x - recon) < 0.25
    assert abs(float(np.nextafter(16.0, 0.0)) - 15.75) > 0.2499
    assert classify(16.0, unit_cfg) is RegionClass.MEDIUM


_THRESHOLD_CFGS = [
    derive_config(1.0),
    derive_config(0.713),
    QuantConfig(scale=1, low_threshold=0.3, high_threshold=2.5,
                fine_divisor=1000, coarse_multiplier=1),
]


@pytest.mark.parametrize("cfg", _THRESHOLD_CFGS)
def test_region_rule_agrees_at_thresholds(cfg):
    # classify, the encoder's (flag, region bit) and region_breakdown's
    # counts put each threshold neighbour in the same region
    L, H = cfg.low_threshold, cfg.high_threshold
    mags = [float(np.nextafter(L, 0)), L, H, float(np.nextafter(H, np.inf))]
    xs = [0.0] + [s * m for m in mags for s in (1.0, -1.0)]
    regions = [classify(x, cfg) for x in xs]
    assert regions == [RegionClass.SMALL] * 3 + [RegionClass.MEDIUM] * 4 + [
        RegionClass.LARGE] * 2
    q = encode_tensor(xs, cfg)
    encoded = [RegionClass.MEDIUM if not f else
               RegionClass.LARGE if c & 0x40 else RegionClass.SMALL
               for f, c in zip(q.flags, q.codes)]
    assert encoded == regions
    assert [r.count for r in region_breakdown(xs, cfg)] == [3, 4, 2]


class TestTensorCodec:
    def test_round_trip_matches_scalar(self, unit_cfg):
        rng = np.random.default_rng(3)
        x = rng.uniform(-400, 400, 512)
        q = encode_tensor(x, unit_cfg)
        dec = decode_tensor(q)
        for i in (0, 17, 255, 511):
            c = se_encode(float(x[i]), unit_cfg)
            assert q.flags[i] == bool(c.se_flag)
            assert q.codes[i] == c.byte
            assert dec[i] == se_decode(c, unit_cfg)
        fq = fake_quant(x, unit_cfg, "soft_edge")
        assert np.array_equal(fq.view(np.int32),
                              dec.astype(np.float32).view(np.int32))
        assert np.signbit(fake_quant([-0.3], unit_cfg, "int8")[0])
        # every (flag, byte) pair, bit for bit; strict rejects only (1, 0x80)
        flags = np.repeat([False, True], 256)
        codes = np.tile(np.arange(256, dtype=np.uint8), 2)
        whole = decode_tensor(QuantizedTensor(unit_cfg, flags, codes), strict=False)
        pairs = [SoftEdgeCode(int(f), int(c)) for f, c in zip(flags, codes)]
        scalar = np.array([se_decode(c, unit_cfg, strict=False) for c in pairs])
        assert np.array_equal(whole.view(np.int64), scalar.view(np.int64))
        rejected = []
        for c in pairs:
            try:
                se_decode(c, unit_cfg)
            except NonCanonicalCode:
                rejected.append((c.se_flag, c.byte))
        assert rejected == [(1, 0x80)]
        with pytest.raises(NonCanonicalCode, match="index 384"):
            decode_tensor(QuantizedTensor(unit_cfg, flags, codes))

    def test_empty(self, unit_cfg):
        q = encode_tensor([], unit_cfg)
        assert len(q) == 0
        assert decode_tensor(q).size == 0


class TestRegionLocalOptimality:
    def test_brute_force_random(self, unit_cfg):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-450, 450, 2000)
        for x in xs:
            x = float(x)
            region = classify(x, unit_cfg)
            enc = se_encode(x, unit_cfg)
            enc_err = abs(x - se_decode(enc, unit_cfg))
            best = min(
                abs(x - se_decode(c, unit_cfg))
                for c in region_codebook(region, unit_cfg)
            )
            assert enc_err == best

    def test_global_nearest_not_claimed(self, unit_cfg):
        # near the L boundary a medium code is closer, by design
        x = 15.9
        assert classify(x, unit_cfg) is RegionClass.SMALL
        recon = float(fake_quant([x], unit_cfg)[0])
        assert recon == 15.75
        assert abs(x - 16.0) < abs(x - recon)


class TestErrorBounds:
    def test_dense_sweep_default_config(self, unit_cfg):
        x = np.arange(-400 * 64, 400 * 64 + 1, dtype=np.float64) / 64.0
        err = np.abs(x - fake_quant(x, unit_cfg).astype(np.float64))
        ax = np.abs(x)
        assert np.all(err[ax <= 63 / 4] <= 1 / 8)
        assert np.all(err[(ax > 63 / 4) & (ax < 16)] < 1 / 4)
        assert np.all(err[(ax >= 16) & (ax <= 127)] <= 1 / 2)
        assert np.all(err[(ax > 127) & (ax <= 379)] <= 2.0)
        recon = fake_quant(x, unit_cfg).astype(np.float64)
        beyond = ax > 379
        assert np.all(recon[beyond] == np.sign(x[beyond]) * 379.0)

    def test_outlier_beats_baseline_beyond_clip(self, unit_cfg):
        x = np.linspace(129.0 + 1e-9, 379.0, 3001)
        se_err = np.abs(x - fake_quant(x, unit_cfg).astype(np.float64))
        i8_err = np.abs(x - fake_quant(x, unit_cfg, "int8").astype(np.float64))
        assert np.all(se_err < i8_err)


class TestDecodeMonotonicity:
    @pytest.mark.parametrize("region", list(RegionClass))
    def test_strictly_increasing_at_fixed_sign(self, unit_cfg, region):
        if region is RegionClass.MEDIUM:
            vals = [se_decode(SoftEdgeCode(0, q & 0xFF), unit_cfg)
                    for q in range(-127, 128)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        else:
            base = 0x40 if region is RegionClass.LARGE else 0x00
            pos = [se_decode(SoftEdgeCode(1, base | m), unit_cfg)
                   for m in range(64)]
            neg = [se_decode(SoftEdgeCode(1, 0x80 | base | m), unit_cfg,
                             strict=False) for m in range(64)]
            assert all(a < b for a, b in zip(pos, pos[1:]))
            assert all(a > b for a, b in zip(neg, neg[1:]))


@settings(max_examples=200)
@given(
    x=st.floats(-500, 500),
    c=st.floats(1e-3, 1e3),
)
def test_scale_equivariance(x, c):
    cfg = derive_config(1.0)
    base = se_decode(se_encode(x, cfg), cfg)
    scaled = se_decode(se_encode(c * x, cfg.scaled(c)), cfg.scaled(c))
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)


class TestHardwareTrace:
    def test_large(self, unit_cfg):
        t = hardware_trace(200.0, unit_cfg)
        assert t.region is RegionClass.LARGE
        assert t.selected_step == 4.0
        assert t.reconstructed == 199.0
        assert t.abs_error == 1.0
        assert (t.se_flag, t.sign_bit, t.region_bit, t.magnitude) == (1, 0, 1, 18)

    def test_small(self, unit_cfg):
        t = hardware_trace(0.1, unit_cfg)
        assert t.region is RegionClass.SMALL
        assert t.selected_step == 0.25
        assert t.reconstructed == 0.0
        assert t.abs_error == pytest.approx(0.1)

    def test_medium_exact(self, unit_cfg):
        t = hardware_trace(100.0, unit_cfg)
        assert t.region is RegionClass.MEDIUM
        assert t.selected_step == 1.0
        assert t.reconstructed == 100.0
        assert t.abs_error == 0.0

    def test_consistent_with_codec(self):
        # every field equals the classify / se_encode / se_decode composition
        steps = {RegionClass.SMALL: "fine_step", RegionClass.MEDIUM: "scale",
                 RegionClass.LARGE: "coarse_step"}
        for cfg in _THRESHOLD_CFGS:
            L, H = cfg.low_threshold, cfg.high_threshold
            xs = [m * cfg.scale for m in (0.0, 0.3, 7.77, 16.0, 126.49, 127.51,
                                          388.7, 1e4)]
            xs += [float(np.nextafter(t, d)) for t in (L, H) for d in (0, np.inf)]
            for x in (*xs, L, H, *(-x for x in (*xs, L, H))):
                c = se_encode(x, cfg)
                region, recon = classify(x, cfg), se_decode(c, cfg)
                if c.se_flag:
                    bits = (c.sign_bit, c.region_bit, c.magnitude)
                else:
                    bits = (int(c.int8_value < 0), 0, abs(c.int8_value))
                assert hardware_trace(x, cfg) == TraceRecord(
                    x, region, getattr(cfg, steps[region]), c.se_flag, *bits,
                    c.byte, recon, abs(x - recon))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def _accepted_configs(draw):
    """Configs QuantConfig accepts: thresholds either anywhere or near scale."""
    scale = draw(_POSITIVE)
    near = st.floats(1e-3, 1e3).map(lambda r: r * scale)
    low, high = sorted(draw(_POSITIVE | near) for _ in range(2))
    fields = (scale, low, high, draw(st.floats(1, 1e308)), draw(st.floats(1, 1e308)))
    try:
        return QuantConfig(**dict(zip(CODEC_FIELDS, fields)))
    except InvalidConfig:
        reject()


@settings(max_examples=300)
@given(cfg=_accepted_configs(),
       xs=st.lists(st.tuples(st.booleans(), _FINITE), min_size=1, max_size=24))
@example(cfg=QuantConfig(scale=5e-324, low_threshold=1e-323,
                         high_threshold=1e-322, fine_divisor=1,
                         coarse_multiplier=1),
         xs=[(False, 0.0), (False, 1e-323), (False, 1e308), (False, -5e-324)])
@example(cfg=QuantConfig(scale=1e300, low_threshold=1e301, high_threshold=1e302,
                         fine_divisor=1e300, coarse_multiplier=1.7e8),
         xs=[(True, 0.49), (True, 100.0), (True, -1e5), (False, 1.7e308)])
def test_accepted_config_round_trip_is_finite_and_quiet(cfg, xs):
    # each x is absolute, or relative to the config's scale
    x = np.array([r * cfg.scale if rel else r for rel, r in xs])
    x = x[np.isfinite(x)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoded = decode_tensor(encode_tensor(x, cfg))
        quantized = fake_quant(x, cfg)
    assert not np.isnan(decoded).any()
    with np.errstate(over="ignore"):
        assert decoded.astype(np.float32).tobytes() == quantized.tobytes()

