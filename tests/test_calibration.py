import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from softedge import (
    QuantConfig,
    calibrate,
    calibrate_grid,
    calibrate_scale,
    derive_config,
    percentile_abs,
)
from softedge import calibration
from softedge.calibration import CODEC_FIELDS
from softedge.errors import (
    DegenerateRange,
    EmptyTensor,
    InvalidConfig,
    NonFiniteInput,
    PercentileOutOfRange,
    SoftEdgeError,
)


def percentile_oracle(values, p):
    """Brute-force order-statistic interpolation, pure Python."""
    w = sorted(abs(v) for v in values)
    r = (p / 100.0) * (len(w) - 1)
    lo = math.floor(r)
    if lo >= len(w) - 1:
        return w[-1]
    return w[lo] + (r - lo) * (w[lo + 1] - w[lo])


class TestPercentileAbs:
    def test_p100_is_max(self):
        assert percentile_abs(np.arange(1, 101), 100) == 100.0

    def test_worked_example(self):
        # r = 0.99 * 99 = 98.01 -> 99 + 0.01 * (100 - 99)
        assert percentile_abs(np.arange(1, 101), 99) == pytest.approx(99.01, abs=1e-9)

    def test_single_element(self):
        for p in (0.5, 50, 100):
            assert percentile_abs([5.0], p) == 5.0

    def test_uses_absolute_values(self):
        assert percentile_abs([-10.0, 1.0], 100) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyTensor):
            percentile_abs([], 50)

    def test_nonfinite_rejected_with_index(self):
        with pytest.raises(NonFiniteInput) as ei:
            percentile_abs([1.0, 2.0, float("nan"), 3.0, 4.0], 50)
        assert ei.value.index == 2

    @pytest.mark.parametrize("p", [0.0, -1.0, 100.5])
    def test_range_rejected(self, p):
        with pytest.raises(PercentileOutOfRange):
            percentile_abs([1.0], p)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = rng.integers(1, 200)
            v = rng.normal(0, 10, n)
            p = float(rng.uniform(0.01, 100))
            got = percentile_abs(v, p)
            want = percentile_oracle(v.tolist(), p)
            assert got == pytest.approx(want, rel=4e-16, abs=0)

    def test_any_shape(self):
        v = np.random.default_rng(4).normal(0, 3, 24)
        for p in (0.5, 50, 99.9, 100):
            flat = percentile_abs(v, p)
            for shape in ((4, 6), (2, 3, 4), (24, 1)):
                assert percentile_abs(v.reshape(shape), p) == flat
        assert percentile_abs(np.float64(-2.5), 50) == 2.5

    def test_monotone_in_p(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0, 3, 500)
        ps = np.linspace(0.1, 100, 200)
        out = [percentile_abs(v, p) for p in ps]
        assert all(a <= b for a, b in zip(out, out[1:]))


class TestCalibrateScale:
    def test_definition(self):
        assert calibrate_scale([127.0], 100) == 1.0
        assert calibrate_scale([254.0], 100) == 2.0

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateRange):
            calibrate_scale([0.0, 0.0, 0.0], 99)

    def test_scale_equivariant(self):
        rng = np.random.default_rng(8)
        v = rng.normal(0, 2, 1000)
        for c in (0.5, 3.0, 1e3):
            assert calibrate_scale(c * v, 99.5) == pytest.approx(
                c * calibrate_scale(v, 99.5), rel=1e-12
            )


class TestDeriveConfig:
    def test_defaults(self):
        cfg = derive_config(1.0)
        assert cfg.low_threshold == 16.0
        assert cfg.high_threshold == 127.0

    def test_half_scale(self):
        cfg = derive_config(0.5)
        assert cfg.low_threshold == 8.0
        assert cfg.high_threshold == 63.5

    def test_divisor_one(self):
        cfg = derive_config(1.0, fine_divisor=1)
        assert cfg.low_threshold == 64.0
        assert cfg.high_threshold == 127.0

    def test_l_below_h_for_any_scale(self):
        for s in (1e-9, 0.1, 1.0, 1e6):
            cfg = derive_config(s)
            assert cfg.low_threshold == pytest.approx(16 * s)
            assert cfg.low_threshold < cfg.high_threshold

    def test_invalid_scale(self):
        with pytest.raises(InvalidConfig):
            derive_config(0.0)
        with pytest.raises(InvalidConfig):
            derive_config(-1.0)
        # L underflows to 0 / H overflows to inf: QuantConfig.validate rejects
        for s in (1e-323, 1e307):
            with pytest.raises(InvalidConfig):
                derive_config(s)

    def test_invalid_multipliers(self):
        with pytest.raises(InvalidConfig):
            derive_config(1.0, fine_divisor=0.5)
        with pytest.raises(InvalidConfig):
            derive_config(1.0, coarse_multiplier=0.0)

    @pytest.mark.parametrize("kwargs", [{"fine_divisor": "4"},
                                        {"coarse_multiplier": "4"}])
    def test_str_divisor_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            derive_config(1.0, **kwargs)


# Under NEP 50 a binary32 scalar and a Python float combine in binary32, so
# each is a Python float before calibration computes with it.
_CALIB = [0.1, 0.3, 0.7]


@pytest.mark.parametrize("call, v", [
    (lambda v: [calibrate(_CALIB, v)], 37.5),
    (lambda v: calibrate_grid(_CALIB, [v, 50.0]), 37.5),
    (lambda v: [derive_config(v, 3.0)], 0.3),
    (lambda v: [derive_config(1.0, v)], 3.3),
], ids=["calibrate_p", "calibrate_grid_p", "derive_config_scale",
        "derive_config_divisor"])
def test_binary32_argument_is_its_python_float(call, v):
    v = np.float32(v)
    assert [c.to_json() for c in call(v)] == [
        c.to_json() for c in call(float(v))]


@pytest.mark.parametrize("p", [True, "50"], ids=["bool", "str"])
@pytest.mark.parametrize("call", [
    percentile_abs, calibrate_scale, calibrate,
    lambda x, p: calibrate_grid(x, [50.0, p]),
], ids=["percentile_abs", "calibrate_scale", "calibrate", "calibrate_grid"])
def test_non_number_percentile_rejected(call, p):
    with pytest.raises(PercentileOutOfRange):
        call(_CALIB, p)


class TestQuantConfig:
    def test_invariant_checks(self):
        with pytest.raises(InvalidConfig):
            QuantConfig(scale=1.0, low_threshold=20.0, high_threshold=10.0)
        with pytest.raises(InvalidConfig):
            QuantConfig(scale=1.0, low_threshold=0.0, high_threshold=10.0)

    @pytest.mark.parametrize("fields", [
        # scale / fine_divisor underflows to 0
        (1e-300, 1e-310, 1.27e-298, 1e300, 4.0),
        (1.175494351e-38, 1.175494351e-38, 1.5e-36, 4.758454107848294e+285, 4.0),
        # scale * coarse_multiplier overflows to inf
        (10.0, 40.0, 1270.0, 4.0, 1e308),
    ], ids=["fine_zero", "fine_subnormal_half", "coarse_inf"])
    def test_steps_must_divide(self, fields):
        doc = dict(zip(CODEC_FIELDS, fields))
        with pytest.raises(InvalidConfig, match="steps"):
            QuantConfig(**doc)
        with pytest.raises(InvalidConfig, match="steps"):
            QuantConfig.from_json(json.dumps(doc))

    def test_steps(self):
        cfg = derive_config(2.0)
        assert cfg.fine_step == 0.5
        assert cfg.coarse_step == 8.0

    def test_json_round_trip_exact(self):
        cfg = calibrate(np.random.default_rng(1).normal(0, 7, 999), 99.99)
        back = QuantConfig.from_json(cfg.to_json())
        assert back == cfg  # binary64-exact via repr printing

    def test_int_fields_stored_as_floats(self):
        cfg = QuantConfig(scale=1, low_threshold=16, high_threshold=127,
                          calib_count=5.0)
        assert cfg.to_json() == QuantConfig.from_json(cfg.to_json()).to_json()
        assert json.loads(cfg.to_json())["scale"] == 1.0
        assert type(cfg.scale) is float and type(cfg.calib_count) is int

    def test_json_keys(self):
        doc = json.loads(derive_config(1.0).to_json())
        assert set(doc) == {
            "scale", "low_threshold", "high_threshold", "fine_divisor",
            "coarse_multiplier", "percentile", "calib_count",
        }

    def test_bad_json_rejected(self):
        good = json.loads(derive_config(1.0).to_json())
        for text in ("not json", '{"scale": 1.0}', "[1, 2, 3]", "null",
                     json.dumps({**good, "scale": "abc"}),
                     json.dumps({**good, "fine_divisor": None}),
                     json.dumps({**good, "calib_count": math.inf}),
                     json.dumps({**good, "scale": "1"}),
                     json.dumps({**good, "fine_divisor": True}),
                     json.dumps({**good, "percentile": "nan"}),
                     json.dumps({**good, "percentile": 250.0}),
                     json.dumps({**good, "percentile": 0}),
                     json.dumps({**good, "calib_count": -5}),
                     json.dumps({**good, "calib_count": 2.5}),
                     json.dumps({**good, "scale": 10 ** 400})):
            with pytest.raises(InvalidConfig):
                QuantConfig.from_json(text)


_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8))
_JSON_TREE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _from_json_raises_only_library_errors(text):
    try:
        QuantConfig.from_json(text)
    except SoftEdgeError:
        pass


@given(st.text())
@example("[" * 100000)
@example('{"scale": ' * 100000)
def test_from_json_fuzz_text(text):
    _from_json_raises_only_library_errors(text)


@given(_JSON_TREE | st.fixed_dictionaries(
    {k: _JSON_LEAF for k in CODEC_FIELDS},
    optional={"percentile": _JSON_LEAF, "calib_count": _JSON_TREE}))
def test_from_json_fuzz_tree(doc):
    _from_json_raises_only_library_errors(json.dumps(doc))


def test_calibrate_records_provenance():
    v = np.arange(1, 101, dtype=float)
    cfg = calibrate(v, 100)
    assert cfg.scale == 100.0 / 127.0
    assert cfg.percentile == 100
    assert cfg.calib_count == 100


_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
_F32_SUBNORMAL_MAX = float(np.nextafter(np.finfo(np.float32).tiny,
                                        np.float32(0)))
_BINARY32 = (st.floats(width=32, allow_nan=False, allow_infinity=False)
             | st.sampled_from([0.0, -0.0, _F32_TINY, -_F32_TINY,
                                _F32_SUBNORMAL_MAX, 1.0, _F32_MAX, -_F32_MAX]))


def _outcome(call):
    """The config JSON ``call`` gives (repr keeps every bit), or its error."""
    try:
        return [c.to_json() for c in call()]
    except SoftEdgeError as e:
        return type(e), str(e)


@given(values=st.lists(_BINARY32, min_size=1, max_size=24),
       p=st.floats(0, 100, exclude_min=True) | st.sampled_from([25.0, 100.0]))
@example(values=[3.5], p=37.5)  # n = 1
@example(values=[_F32_MAX, -_F32_MAX, 1.0, -0.0, 0.0], p=25.0)  # rank 1: frac 0
@example(values=[2.0, -2.0, 2.0, 1.0, 3.0], p=50.0)  # ties, rank 2
@example(values=[_F32_TINY, -_F32_SUBNORMAL_MAX, 0.0], p=100.0)
@example(values=[-0.0, 0.0], p=99.0)  # all zero: the same error
def test_binary32_calibration_is_the_widened_calibration(values, p):
    # the binary32 sort must give the float64 sort's order statistics, and
    # its interpolation must run in float64 (not in binary32, as numpy
    # scalar arithmetic with a Python float would)
    x32 = np.array(values, dtype=np.float32)
    x64 = x32.astype(np.float64)
    for x in (x32, x64):
        assert calibration._sorted_abs(x).dtype == x.dtype
    assert _outcome(lambda: [calibrate(x32, p)]) == _outcome(
        lambda: [calibrate(x64, p)])
    grid = ([p, 100.0, 50.0], [1.0, 4.0], [4.0])
    assert _outcome(lambda: calibrate_grid(x32, *grid)) == _outcome(
        lambda: calibrate_grid(x64, *grid))
