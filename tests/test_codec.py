import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softedge import (
    RegionClass,
    SoftEdgeCode,
    classify,
    decode_tensor,
    derive_config,
    encode_tensor,
    fake_quant,
    hardware_trace,
    int8_decode,
    int8_encode,
    se_decode,
    se_encode,
)
from softedge.errors import NonCanonicalCode, NonFiniteInput


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

    def test_consistent_with_codec(self, unit_cfg):
        for x in (-388.7, -16.0, -0.3, 7.77, 126.49, 127.51):
            t = hardware_trace(x, unit_cfg)
            c = se_encode(x, unit_cfg)
            assert t.byte == c.byte and t.se_flag == c.se_flag
            assert t.reconstructed == se_decode(c, unit_cfg)
