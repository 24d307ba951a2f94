import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softedge import (
    DistSpec,
    QuantConfig,
    QuantizedTensor,
    RegionClass,
    SoftEdgeCode,
    TraceRecord,
    calibrate,
    classify,
    compare_quantizers,
    decode_tensor,
    derive_config,
    encode_tensor,
    fake_quant,
    generate,
    hardware_trace,
    int8_decode,
    int8_encode,
    mse,
    region_breakdown,
    se_decode,
    se_encode,
    sweep,
)
from softedge import codec
from softedge.calibration import CODEC_FIELDS
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

    @pytest.mark.parametrize("code", [SoftEdgeCode(2, 5), SoftEdgeCode(1, 5.7),
                                      SoftEdgeCode(-1, 3), SoftEdgeCode(1, 256)],
                             ids=["flag_2", "fractional_byte", "flag_minus_1",
                                  "byte_256"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_code_rejected(self, code, strict, unit_cfg):
        with pytest.raises(NonCanonicalCode, match="index 0"):
            se_decode(code, unit_cfg, strict)


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
            se_codes = [se_encode(v, unit_cfg) for v in x]
            regions = [classify(v, unit_cfg) for v in x]
            report = compare_quantizers(x, unit_cfg)
            large = region_breakdown(x, unit_cfg)[2]
            # p100 would make the scale overflow: the sweep stays at p50
            rows = sweep(x + [1.0] * 12, [50], [4.0], [4.0, 8.0])
        np.testing.assert_array_equal(decoded, [379, -379, 379, -379])
        assert [(c.se_flag, c.byte) for c in se_codes] == [
            (1, 0x7F), (1, 0xFF), (1, 0x7F), (1, 0xFF)]
        assert regions == [RegionClass.LARGE] * 4
        assert report.regions[2] == large and large.count == 4
        assert len(rows) == 2
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

    @pytest.mark.parametrize("flags, codes, what, index", [
        ([0, 2], [5, 6], "SE flag", 1),
        ([0.5, 1], [5, 6], "SE flag", 0),
        ([0, 1, -1], [5, 6, 7], "SE flag", 2),
        ([0, 1], [5.7, 6.2], "code byte", 0),
        ([0, 1], np.array([300.0, 6.0]), "code byte", 0),
        ([0, 1], [300, 6], "code byte", 0),
        ([0, 1], [6, -1], "code byte", 1),
        ([0, 1], [6, np.nan], "code byte", 1),
        ([True, False], ["5", "6"], "code byte", 0),
    ])
    def test_quantized_tensor_holds_only_codes(self, flags, codes, what, index,
                                               unit_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonCanonicalCode, match=f"{what} at index {index}"):
                QuantizedTensor(unit_cfg, flags, codes)

    def test_quantized_tensor_takes_integer_codes(self, unit_cfg):
        want = QuantizedTensor(unit_cfg, np.array([False, True]),
                               np.array([5, 255], np.uint8))
        for flags, codes in (([0, 1], [5, 255]), ([0.0, 1.0], [5.0, 255.0]),
                             (np.array([0, 1], np.uint64), np.array([5, 255]))):
            q = QuantizedTensor(unit_cfg, flags, codes)
            assert q == want
            assert (q.flags.dtype, q.codes.dtype) == (bool, np.uint8)

    def test_quantized_tensor_equals_only_quantized_tensors(self, unit_cfg):
        q = QuantizedTensor(unit_cfg, [False, True], [5, 255])
        assert (q == 5) is False
        assert q != [[False, True], [5, 255]]


def _one_pass(x, cfg):
    """The dense rule over the whole array at once: soft-edge and INT8
    fake-quant, and the encoded flags and codes. Every element gathers its
    region's (offset, step, top) row, written here from the config, and
    soft-edge fake-quant is a gather from the decode table, so it is a
    different computation from the region-sparse kernel."""
    ax = np.abs(x)
    region = np.add(ax >= cfg.low_threshold, ax > cfg.high_threshold,
                    dtype=np.uint8)
    offset = np.array([0.0, 0.0, cfg.high_threshold])[region]
    step = np.array([cfg.fine_step, cfg.scale, cfg.coarse_step])[region]
    top = np.array([63.0, 127.0, 63.0])[region]
    with np.errstate(over="ignore"):
        m = np.minimum(np.floor((ax - offset) / step + 0.5), top)
    key = np.left_shift(region, 8, dtype=np.uint16)
    key |= np.left_shift(x < 0, 7, dtype=np.uint16)
    key |= m.astype(np.uint16)
    key = codec._CODE_INDEX[key]
    with np.errstate(over="ignore"):
        se = codec._decode_table(cfg)[key].astype(np.float32)
        int8 = (codec._int8_round(x, cfg) * cfg.scale).astype(np.float32)
    return se, int8, key > 0xFF, key.astype(np.uint8)


_B = codec.BLOCK


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("layout", ["flat", "2d", "strided"])
def test_blocked_kernels_match_one_pass(n, layout):
    # every region, both signs, the thresholds and values past binary32
    cfg = derive_config(2e36)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(2 * n) * rng.choice([1e36, 1e38, 3e39], 2 * n)
    x[::7] = rng.choice([cfg.low_threshold, -cfg.high_threshold, 0.0, -0.0])
    x = {"flat": x[:n], "2d": x[:n].reshape(n, 1),
         "strided": x[1::2]}[layout]  # strided: a non-contiguous view
    want_se, want_int8, want_flags, want_codes = _one_pass(x, cfg)
    q = encode_tensor(x, cfg)
    for got, want in ((fake_quant(x, cfg), want_se),
                      (fake_quant(x, cfg, "int8"), want_int8),
                      (q.flags, want_flags), (q.codes, want_codes)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# sha256 of the blocked kernels' outputs at n = 3 * BLOCK + 5 (several
# blocks, ending inside a partial one), seed 0. The outliers scaled by 2e37
# under scale 2e36 reconstruct past binary32, so their fake-quant holds +/-inf.
MULTI_BLOCK_N = 3 * _B + 5
MULTI_BLOCK_INPUTS = {
    "outlier_mixture": ("outlier_mixture", 1.0, 0.02),
    "gaussian": ("gaussian", 1.0, 0.02),
    "beyond_binary32": ("outlier_mixture", 2e37, 2e36),
}
MULTI_BLOCK_SHA256 = {
    ("outlier_mixture", "soft_edge"): "cfa57ef96f47bc6f06c290847c75a9a57475ec949401c30f18c872ebf817c4de",
    ("outlier_mixture", "int8"): "2a7c13a9ac7aa873df098f7aad47acdad1cacb6311cf72eb7819d61f98689f9c",
    ("outlier_mixture", "flags"): "8b6171d823704f19e85a7d2ab08eff18c89e99bb20925df787fa8ca4d8d257ba",
    ("outlier_mixture", "codes"): "a0cb49b722560f605101d0225d1ab0c710274372337bc7116c2d11d5cf1df25e",
    ("gaussian", "soft_edge"): "2a6270a0aca687d84e960e469a18e2d9fd3937c04190dc8129b3f2834218b9e1",
    ("gaussian", "int8"): "173fd4d59af5f8cb5a61b8596954ffe0a955a055d39fa5c676012612e5860cf4",
    ("gaussian", "flags"): "b2c90ebbf3167cfc7b142314bb00a27fecea1eaa5bd41979821bfc39002420de",
    ("gaussian", "codes"): "b7e67adaf932e3676e7e23127f6508355b250c6b28105c16c40d954a409b6071",
    ("beyond_binary32", "soft_edge"): "9bba5f06b5eceaf5bf7ca6517774aa2ef11da805356a895ae75f13e6c6ff3866",
    ("beyond_binary32", "int8"): "c865d41f4b342e4e8296e139f73df56dde84d74ae081dbed3cb9d8c2add35599",
    ("beyond_binary32", "flags"): "c4f1ef937b0afb4da0996d59eb9db55a0831b7fb79fe87de9e77ca501e144e71",
    ("beyond_binary32", "codes"): "02166a61bdab36490a4df5fb68cf2150aef324fb28c5981e412a81ce0640a754",
}


@pytest.mark.parametrize("name", MULTI_BLOCK_INPUTS)
def test_multi_block_digest(name):
    kind, c, scale = MULTI_BLOCK_INPUTS[name]
    x = generate(DistSpec(kind=kind, n=MULTI_BLOCK_N, seed=0)) * c
    cfg = derive_config(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = encode_tensor(x, cfg)
        outputs = {"soft_edge": fake_quant(x, cfg),
                   "int8": fake_quant(x, cfg, "int8"),
                   "flags": q.flags, "codes": q.codes}
    if name == "beyond_binary32":
        assert np.isinf(outputs["soft_edge"]).any()
    for out, a in outputs.items():
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        assert digest == MULTI_BLOCK_SHA256[name, out], out


# sha256 of all 512 entries of the binary64 decode table, -128 and the
# negative-zero key included. Under scale 2e36 the table holds values past
# binary32.
DECODE_TABLE_SHA256 = {
    "default": (derive_config(1.0),
                "d8c0ef58c08aeaca9e55051818f15d8709a5c95a0c2d17f20851429de9fef7f1"),
    "fine_2_coarse_8": (
        derive_config(0.37, fine_divisor=2.0, coarse_multiplier=8.0),
        "646e383217aa21e6121a5bd2afa2435fe0060c0d49d2895340cff231baae041f"),
    "beyond_binary32": (derive_config(2e36),
                        "c4006d53d23c4776c0c24b3af0911c3a740b8d9ad5beea072f467474059ec0fc"),
}


@pytest.mark.parametrize("name", DECODE_TABLE_SHA256)
def test_decode_table_digest(name):
    cfg, want = DECODE_TABLE_SHA256[name]
    decode = codec._decode_table(cfg)
    assert decode.shape == (512,) and decode.dtype == np.float64
    assert hashlib.sha256(decode.tobytes()).hexdigest() == want
    # the non-canonical negative-zero code decodes to -0.0 under strict=False
    assert decode[codec.NEGATIVE_ZERO] == 0 and np.signbit(decode[codec.NEGATIVE_ZERO])
    if name == "beyond_binary32":
        assert np.abs(decode).max() > np.finfo(np.float32).max


# Every key, the negative-zero key (384) included, over two blocks and a
# part, so each block is cast from the one binary32 table.
_KEY_FLAGS, _KEY_CODES = np.divmod(np.tile(np.arange(512), 2 * _B // 512 + 3),
                                   256)


@pytest.mark.parametrize("cfg", [*_THRESHOLD_CFGS, derive_config(2e36)])
def test_binary32_decode_is_decode_then_cast(cfg):
    q = QuantizedTensor(cfg, _KEY_FLAGS, _KEY_CODES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # past binary32 is +-inf, quietly
        got = decode_tensor(q, strict=False, dtype="<f4")
    with np.errstate(over="ignore"):
        want = decode_tensor(q, strict=False).astype("<f4")
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    negative_zero = got[codec.NEGATIVE_ZERO]
    assert negative_zero == 0 and np.signbit(negative_zero)
    if cfg.scale == 2e36:
        assert np.isposinf(got).any() and np.isneginf(got).any()
    # strict: the same error in either dtype, and without the key the same
    # bits
    for dtype in (np.float64, "<f4"):
        with pytest.raises(NonCanonicalCode, match="at index 384$"):
            decode_tensor(q, dtype=dtype)
    keep = (_KEY_FLAGS << 8 | _KEY_CODES) != codec.NEGATIVE_ZERO
    q = QuantizedTensor(cfg, _KEY_FLAGS[keep], _KEY_CODES[keep])
    with np.errstate(over="ignore"):
        want = decode_tensor(q).astype("<f4")
    assert decode_tensor(q, dtype="<f4").tobytes() == want.tobytes()


_KERNEL_ENTRIES = {
    "fake_quant": fake_quant,
    "fake_quant_int8": lambda v, cfg: fake_quant(v, cfg, "int8"),
    "encode_tensor": encode_tensor,
    # multi-leaf reports, and the selection's top
    "compare_quantizers": compare_quantizers,
    "region_breakdown": region_breakdown,
    "sweep": lambda v, cfg: sweep(v, [99, 100]),
    "calibrate": lambda v, cfg: calibrate(v, 99),
    # a pair report, checked leaf by leaf, with either operand bad
    "mse_ref": lambda v, cfg: mse(v, np.zeros(np.shape(v))),
    "mse_approx": lambda v, cfg: mse(np.zeros(np.shape(v)), v),
}
_WIDE = np.finfo(np.longdouble).max > np.finfo(np.float64).max


def _with_bad(kind, positions, n=2 * _B + 3):
    """n ones of the kind's dtype, with its bad value at ``positions``."""
    dtype = {"snan32": np.float32, "beyond_binary64": np.longdouble,
             "rounds_to_binary64_max": np.longdouble}
    v = np.ones(n, dtype.get(kind, np.float64))
    for i in positions:
        if kind == "snan32":  # set by bits: a float32 store could quiet it
            v.view(np.uint32)[i] = 0x7F800001
        else:
            v[i] = {"nan": np.nan, "inf": -np.inf,
                    "beyond_binary64": np.longdouble("1e400"),
                    # finite when widened: only a whole check sees it
                    "rounds_to_binary64_max": np.nextafter(
                        np.longdouble(np.finfo(np.float64).max),
                        np.longdouble(np.inf))}[kind]
    return v


@pytest.mark.parametrize("entry", _KERNEL_ENTRIES)
@pytest.mark.parametrize("kind", [
    "nan", "inf", "snan32",
    *(pytest.param(kind, marks=pytest.mark.skipif(
        not _WIDE, reason="longdouble is binary64 on this platform"))
      for kind in ("beyond_binary64", "rounds_to_binary64_max")),
])
@pytest.mark.parametrize("pos", [0, _B - 1, _B, 2 * _B + 2])
def test_blocked_kernels_report_the_global_index(entry, kind, pos, unit_cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match=f"at index {pos}$") as ei:
            _KERNEL_ENTRIES[entry](_with_bad(kind, [pos]), unit_cfg)
    assert ei.value.index == pos


@pytest.mark.parametrize("entry", _KERNEL_ENTRIES)
@pytest.mark.parametrize("positions", [(_B - 1, _B), (5, 2 * _B + 1),
                                       (_B + 7, 2 * _B + 2)])
def test_blocked_kernels_report_the_first_bad_block(entry, positions, unit_cfg):
    with pytest.raises(NonFiniteInput) as ei:
        _KERNEL_ENTRIES[entry](_with_bad("nan", positions), unit_cfg)
    assert ei.value.index == positions[0]


@pytest.mark.parametrize("entry", _KERNEL_ENTRIES)
@pytest.mark.parametrize("values, error", [
    (["1.5", "2"], TypeError),
    ([1, 2**70], TypeError),  # beyond int64: an object array
    (np.array([1.0, 2.0], dtype=object), TypeError),
    (np.array([1, complex(1, np.nan)]), NonFiniteInput),  # NaN the cast drops
], ids=["str", "beyond_int64", "object", "complex_nan"])
def test_kernels_check_what_a_float64_cast_would_hide(entry, values, error,
                                                      unit_cfg):
    with pytest.raises(error):
        _KERNEL_ENTRIES[entry](values, unit_cfg)


def _spec_encode(x: float, cfg):
    """(region, m, flag<<8 | byte) of x by the README rule, in Python floats:
    the region, then m = min(floor((|x| - offset) / step + 0.5), top), then
    the flag/byte layout. A small or medium zero is +0."""
    ax = abs(x)
    region = (0 if ax < cfg.low_threshold
              else 2 if ax > cfg.high_threshold else 1)
    offset, step, top = ((0.0, cfg.fine_step, 63), (0.0, cfg.scale, 127),
                         (cfg.high_threshold, cfg.coarse_step, 63))[region]
    m = min(math.floor((ax - offset) / step + 0.5), top)
    negative = x < 0 and (m > 0 or region == 2)
    if region == 1:
        return region, m, (-m if negative else m) & 0xFF
    return region, m, 0x100 | negative << 7 | (region == 2) << 6 | m


def _spec_grid(cfg):
    """Both signs of every region's reconstruction points, quarter and half
    steps (and the floats beside each half step) for m up to top + 1, the
    thresholds and the floats beside them, zeros and tiny negatives."""
    rows = ((0.0, cfg.fine_step, 63), (0.0, cfg.scale, 127),
            (cfg.high_threshold, cfg.coarse_step, 63))
    mags = [cfg.low_threshold, cfg.high_threshold]
    for offset, step, top in rows:
        for m in range(top + 2):
            mags += [offset + (m + d) * step for d in (-0.5, -0.25, 0.0, 0.25, 0.5)]
    mags += [math.nextafter(v, t) for v in mags for t in (0.0, math.inf)]
    mags = [v for v in mags if v > 0]
    return [0.0, -0.0, -5e-324, -1e-300, *mags, *(-v for v in mags)]


@pytest.mark.parametrize("cfg, reach", [
    (derive_config(1.0), {0: range(64), 1: range(16, 128), 2: range(64)}),
    # L < scale / 2: medium magnitudes from 0
    (QuantConfig(scale=1.0, low_threshold=0.25, high_threshold=127.0),
     {1: range(128), 2: range(64)}),
], ids=["default", "low_below_half_scale"])
def test_encoder_matches_spec_oracle(cfg, reach):
    grid = _spec_grid(cfg)
    q = encode_tensor(np.array(grid), cfg)
    got = (q.flags.astype(int) << 8) | q.codes
    want = [_spec_encode(x, cfg) for x in grid]
    for x, g, (_, _, key) in zip(grid, got, want):
        assert g == key, f"{x!r}: got {g:#05x}, want {key:#05x}"
    seen = {(r, x < 0, m) for x, (r, m, _) in zip(grid, want)}
    for region, ms in reach.items():
        for negative in (False, True):
            assert {(region, negative, m) for m in ms} <= seen


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
_TOP = 1.7976931348623157e308
_POSITIVE = st.floats(min_value=5e-324, max_value=_TOP)


def _largest(ok, guess):
    """The largest float f in [1, 1e308] with ok(f), for an ok that holds at 1
    and, once false, stays false; the search starts at ``guess``."""
    f = min(guess, 1e308)
    while f < 1e308 and ok(math.nextafter(f, math.inf)):
        f = math.nextafter(f, math.inf)
    while not ok(f):
        f = math.nextafter(f, 0)
    return f


@st.composite
def _accepted_configs(draw):
    """Configs QuantConfig accepts, drawn valid by construction: thresholds
    anywhere or near scale (clamped into the positive floats), and every
    fine divisor and coarse multiplier whose step neither underflows to 0
    nor overflows."""
    scale = draw(_POSITIVE)
    near = st.floats(1e-3, 1e3).map(lambda r: min(max(r * scale, 5e-324), _TOP))
    low, high = sorted(draw(st.lists(_POSITIVE | near, min_size=2, max_size=2,
                                     unique=True)))
    fine = _largest(lambda d: scale / d > 0, scale / 5e-324 * 2)
    coarse = _largest(lambda m: scale * m < math.inf, _TOP / scale)
    fields = (scale, low, high, draw(st.floats(1, fine)),
              draw(st.floats(1, coarse)))
    return QuantConfig(**dict(zip(CODEC_FIELDS, fields)))


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


def _branch_blocks(cfg, extra):
    """Inputs that take each branch of the region-sparse kernel, each short
    enough to be one block: no element at or above L, elements at or above L
    but none above H, every element above H, and all of them mixed. The
    magnitudes are 0, subnormals, the thresholds and the floats beside them,
    the fine-codebook edge [L - fine_step / 2, L), the largest float (whose
    reconstruction may lie past binary32) and the drawn ``extra``."""
    L, H = cfg.low_threshold, cfg.high_threshold
    edge = L - cfg.fine_step / 2
    mags = [0.0, 5e-324, 1e-310, edge, math.nextafter(edge, L), (edge + L) / 2,
            math.nextafter(L, 0), L, math.nextafter(L, math.inf),
            math.nextafter(H, 0), H, math.nextafter(H, math.inf), 2 * H, _TOP,
            *map(abs, extra)]
    values = [s * m for m in mags if 0 <= m <= _TOP for s in (1.0, -1.0)]
    return {"below_L": [v for v in values if abs(v) < L],
            "none_above_H": [v for v in values if abs(v) <= H],
            "all_above_H": [v for v in values if abs(v) > H],
            "mixed": values}


@settings(max_examples=200)
@given(cfg=_accepted_configs(),
       xs=st.lists(st.tuples(st.booleans(), _FINITE), max_size=8))
@example(cfg=derive_config(2e36), xs=[(False, 3e38), (False, -1e39)])
@example(cfg=derive_config(1.0), xs=[(False, 15.875), (True, 388.0)])
def test_fake_quant_is_decode_then_cast(cfg, xs):
    extra = [r * cfg.scale if rel else r for rel, r in xs]
    blocks = _branch_blocks(cfg, [v for v in extra if math.isfinite(v)])
    assert blocks["below_L"] and any(abs(v) >= cfg.low_threshold
                                     for v in blocks["none_above_H"])
    assert blocks["all_above_H"] or cfg.high_threshold == _TOP
    for name, block in blocks.items():
        x = np.array(block, dtype=np.float64)
        with np.errstate(over="ignore"):
            want = decode_tensor(encode_tensor(x, cfg)).astype(np.float32)
        assert fake_quant(x, cfg).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("entry, bound", [("fake_quant", 6.0),
                                          ("encode_tensor", 5.0)])
def test_peak_memory_per_element(entry, bound):
    # the outputs are 4 B/elem (float32; or the uint16 key and the flags and
    # codes cut from it); the rest is per-block scratch, not n-element
    # temporaries
    n = 1 << 20
    x = generate(DistSpec(kind="student_t", n=n, seed=0)).astype(np.float32)
    cfg = calibrate(x, 99.99)
    tracemalloc.start()
    try:
        _KERNEL_ENTRIES[entry](x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= bound
