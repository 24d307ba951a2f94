import json
import math
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softedge import (
    RegionClass,
    calibrate,
    compare_quantizers,
    derive_config,
    fake_quant,
    mse,
    region_breakdown,
    sqnr_db,
    sweep,
)
from softedge import calibration, codec, errors, metrics, ssm
from softedge.ssm import SsmParams, make_params, run_report
from softedge.synth import DistSpec, generate
from softedge.errors import (
    EmptyTensor,
    LengthMismatch,
    NonFiniteInput,
    ZeroSignal,
)


def _region_index(ax, cfg):
    """The region oracle, written out: 0 small (< L), 1 medium, 2 large (> H)
    of each magnitude; without the dtype, np.add of two bools is an or."""
    return np.add(ax >= cfg.low_threshold, ax > cfg.high_threshold,
                  dtype=np.uint8)


@pytest.mark.parametrize("stat", [
    mse, sqnr_db,
    lambda x, _: compare_quantizers(x, derive_config(1.0)),
    lambda x, _: region_breakdown(x, derive_config(1.0)),
    lambda x, _: run_report(make_params(3, 1), x, derive_config(1.0)),
], ids=["mse", "sqnr_db", "compare_quantizers", "region_breakdown",
        "run_report"])
def test_every_statistic_needs_an_element(stat):
    with pytest.raises(EmptyTensor, match="^metrics need at least one element$"):
        stat(np.zeros(0), np.zeros(0))


class TestMse:
    def test_identical_is_zero(self):
        assert mse([1, 2], [1, 2]) == 0.0

    def test_unit(self):
        assert mse([0, 0], [1, -1]) == 1.0

    def test_single(self):
        assert mse([3], [0]) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([1, 2], [1])

    @pytest.mark.parametrize("stat", [mse, sqnr_db])
    def test_shape_mismatch_of_equal_size_names_both_shapes(self, stat):
        with pytest.raises(LengthMismatch, match=r"\(3,\) vs \(1, 3\)"):
            stat(np.ones(3), np.ones((1, 3)))

    def test_empty(self):
        with pytest.raises(EmptyTensor):
            mse([], [])

    def test_nonnegative_zero_iff_identical(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=100)
        b = a + rng.normal(scale=1e-3, size=100)
        assert mse(a, b) > 0
        assert mse(a, a) == 0


def _with(n, bad):
    """n ones with the values of ``bad``, a dict, at its indices."""
    v = np.ones(n)
    v[list(bad)] = list(bad.values())
    return v


@pytest.mark.parametrize("metric, ref, approx, index", [
    (mse, [float("nan")], [0.0], 0),
    (sqnr_db, [1.0, float("inf")], [1.0, 0.0], 1),
    (mse, [1.0, 2.0, 3.0], [1.0, 2.0, -float("inf")], 2),
    # ref is checked first, though approx's leaf fails first in the pass
    (sqnr_db, _with(3 * metrics.LEAF, {2 * metrics.LEAF + 1: np.nan}),
     _with(3 * metrics.LEAF, {5: np.inf}), 2 * metrics.LEAF + 1),
    # a NaN comes before a shape mismatch
    (mse, [1.0, 2.0, 3.0], [[float("nan"), 1.0]], 0),
])
def test_nonfinite_rejected_with_index(metric, ref, approx, index):
    with pytest.raises(NonFiniteInput) as ei:
        metric(ref, approx)
    assert ei.value.index == index


@pytest.mark.skipif(np.finfo(np.longdouble).max == np.finfo(np.float64).max,
                    reason="longdouble is binary64 on this platform")
@pytest.mark.parametrize("metric", [mse, sqnr_db], ids=["mse", "sqnr_db"])
def test_extended_floats_read_as_their_binary64_values(metric):
    # an extended float takes the pass's one dtype gate, which widens it
    # whole: its statistics are those of the same values in binary64, with
    # bits below binary64's precision rounded off, against a longdouble or
    # a binary32 operand, across leaves, in either order
    rng = np.random.default_rng(12)
    ref = rng.standard_normal(2 * metrics.LEAF + 5)
    approx = (ref + rng.normal(0.0, 1e-3, ref.size)).astype(np.float32)
    wide = ref.astype(np.longdouble) * (1 + np.longdouble(2.0) ** -60)
    assert not np.array_equal(wide, ref)
    narrow = wide.astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert metric(wide, approx.astype(np.longdouble)) == metric(
            narrow, approx.astype(np.float64))
        assert metric(wide, approx) == metric(narrow, approx)
        assert metric(approx, wide) == metric(approx, narrow)
        assert metric(wide.reshape(1, -1), wide.reshape(1, -1)[:, ::-1]) == (
            metric(narrow.reshape(1, -1), narrow.reshape(1, -1)[:, ::-1]))


class TestSqnr:
    def test_lossless_is_inf(self):
        assert sqnr_db([1, 2], [1, 2]) == math.inf

    def test_20db(self):
        assert sqnr_db([10], [9]) == pytest.approx(20.0)

    def test_3db(self):
        assert sqnr_db([1, 1], [0, 1]) == pytest.approx(10 * math.log10(2))

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            sqnr_db([0, 0], [1, 0])

    def test_decreasing_in_error(self):
        rng = np.random.default_rng(6)
        ref = rng.normal(size=1000)
        prev = math.inf
        for noise in (1e-6, 1e-3, 1e-1):
            cur = sqnr_db(ref, ref + noise)
            assert cur < prev
            prev = cur


class TestRegionBreakdown:
    def test_three_region_example(self, unit_cfg):
        small, medium, large = region_breakdown([5.1, 50.3, -200.0], unit_cfg)
        assert (small.count, medium.count, large.count) == (1, 1, 1)
        assert small.max_abs_err == pytest.approx(0.1)
        assert medium.max_abs_err == pytest.approx(0.3)
        assert large.max_abs_err == pytest.approx(1.0)

    def test_all_zero(self, unit_cfg):
        small, medium, large = region_breakdown(np.zeros(10), unit_cfg)
        assert small.count == 10 and small.mse == 0.0
        assert medium.count == 0 and large.count == 0

    def test_no_large_values(self, unit_cfg):
        _, _, large = region_breakdown([1.0, 20.0, 100.0], unit_cfg)
        assert large.count == 0 and large.mse == 0.0 and large.max_abs_err == 0.0

    def test_counts_sum_to_n(self, unit_cfg):
        rng = np.random.default_rng(12)
        t = rng.uniform(-300, 300, 5000)
        stats = region_breakdown(t, unit_cfg)
        assert sum(r.count for r in stats) == 5000
        assert sum(r.fraction for r in stats) == pytest.approx(1.0)


class TestCompareQuantizers:
    def test_single_outlier(self, unit_cfg):
        r = compare_quantizers([200.0], unit_cfg)
        assert r.soft_edge.mse == pytest.approx(1.0)
        assert r.int8.mse == pytest.approx(5329.0)
        assert r.delta_mse < 0
        assert r.delta_sqnr_db > 0

    def test_gaussian_gain_band(self):
        from softedge.synth import DistSpec, generate

        t = generate(DistSpec(kind="gaussian", n=10**6, seed=42, std=4.0))
        r = compare_quantizers(t, derive_config(1.0))
        assert 10.0 <= r.delta_sqnr_db <= 13.0

    def test_mixture_favors_soft_edge(self):
        from softedge import calibrate
        from softedge.synth import DistSpec, generate

        t = generate(DistSpec(kind="outlier_mixture", n=10**5, seed=7))
        r = compare_quantizers(t, calibrate(t, 99.99))
        assert r.soft_edge.mse < r.int8.mse

    def test_medium_only_tensor_identical_reports(self, unit_cfg):
        rng = np.random.default_rng(13)
        t = rng.uniform(16, 127, 2000) * rng.choice([-1, 1], 2000)
        r = compare_quantizers(t, unit_cfg)
        assert r.soft_edge == r.int8
        assert r.delta_mse == 0.0 and r.delta_sqnr_db == 0.0

    def test_deltas_recompute_exactly(self, unit_cfg):
        rng = np.random.default_rng(14)
        t = rng.uniform(-200, 200, 1000)
        r = compare_quantizers(t, unit_cfg)
        assert r.delta_mse == r.soft_edge.mse - r.int8.mse
        assert r.delta_sqnr_db == r.soft_edge.sqnr_db - r.int8.sqnr_db

    def test_empty(self, unit_cfg):
        with pytest.raises(EmptyTensor):
            compare_quantizers([], unit_cfg)
        with pytest.raises(EmptyTensor):
            region_breakdown([], unit_cfg)


class TestSerialization:
    def test_json_inf_sentinel(self, unit_cfg):
        # exactly representable values: both quantizers lossless
        r = compare_quantizers([1.0, 50.0], unit_cfg)
        doc = json.loads(r.to_json())
        assert doc["quantizers"]["soft_edge"]["sqnr_db"] == "inf"
        assert doc["deltas"]["sqnr_db"] == 0

    def test_json_structure(self, unit_cfg):
        rng = np.random.default_rng(15)
        r = compare_quantizers(rng.uniform(-200, 200, 100), unit_cfg)
        doc = json.loads(r.to_json())
        assert set(doc) == {"config", "n", "quantizers", "regions", "deltas"}
        assert [x["region"] for x in doc["regions"]] == ["Small", "Medium", "Large"]

    def test_csv_shape(self, unit_cfg):
        rng = np.random.default_rng(16)
        r = compare_quantizers(rng.uniform(-200, 200, 100), unit_cfg)
        lines = r.to_csv().strip().split("\n")
        assert len(lines) == 1 + 2 + 3  # header, two quantizers, three regions
        assert lines[0].startswith("kind,name,count,fraction,mse,sqnr_db")


def test_fake_quant_error_drives_report(unit_cfg):
    rng = np.random.default_rng(17)
    t = rng.uniform(-50, 50, 500)
    r = compare_quantizers(t, unit_cfg)
    fq = fake_quant(t, unit_cfg).astype(np.float64)
    assert r.soft_edge.mse == pytest.approx(mse(t, fq), rel=1e-15)
    small, _, _ = region_breakdown(t, unit_cfg)
    assert small.region is RegionClass.SMALL


@pytest.fixture
def finite_checks(monkeypatch):
    """Every value that a layer passes to ``check_finite``, in call order."""
    seen, check_finite = [], errors.check_finite

    def counting(values, *args, **kwargs):
        seen.append(values)
        return check_finite(values, *args, **kwargs)

    for layer in (calibration, codec, errors, metrics, ssm):
        monkeypatch.setattr(layer, "check_finite", counting)
    return seen


@pytest.mark.parametrize("report, whole", [
    (compare_quantizers, 0),
    (region_breakdown, 0),
    (lambda x, cfg: sweep(x, [99.0, 100.0], [2.0, 4.0]), 0),
    (lambda x, cfg: calibrate(x, 99.0), 0),
    (lambda x, cfg: run_report(make_params(4, 1), x, cfg), 1),
    (lambda x, cfg: mse(x, fake_quant(x, cfg)), 0),
    (lambda x, cfg: sqnr_db(x, fake_quant(x, cfg)), 0),
    (lambda x, cfg: mse(fake_quant(x, cfg), x), 0),
], ids=["compare_quantizers", "region_breakdown", "sweep", "calibrate",
        "run_report", "mse", "sqnr_db", "mse_approx"])
def test_a_report_checks_its_input_once(finite_checks, unit_cfg, report,
                                        whole):
    # every pass checks the float64 blocks it reads as it reads them, so no
    # report or calibration checks its input whole, and a pair report checks
    # neither operand whole; run_report's one check is ssm_forward's, which
    # raises InvalidParams
    x = generate(DistSpec(kind="outlier_mixture", n=4096, seed=1))
    report(x, unit_cfg)
    assert sum(v is x for v in finite_checks) == whole


@pytest.mark.parametrize("grid", [([],), ([99.0], []), ([99.0], [4.0], [])],
                         ids=["percentiles", "fine_divisors",
                              "coarse_multipliers"])
@pytest.mark.parametrize("x", [np.ones(3), [np.nan], []],
                         ids=["finite", "nan", "empty"])
def test_sweep_of_an_empty_grid_is_empty(grid, x):
    # an empty grid has no row, and checks nothing
    assert sweep(x, *grid) == []


def test_sweep_twins_match_per_row_reports():
    """A sweep row that differs from the row before only in its coarse
    multiplier reuses that row's errors and redoes each leaf's elements above
    H. Across four leaves, only two of which hold elements above the p98
    H, its rows must equal the per-row reports: at |x| = H and at the next
    binary32 value above it, at +-0.0, and, on a second input, where the
    large row overflows binary32 (x = +-4e38, coarse multiplier 1e39), whose
    errors swamp every row's sums. The p90 rows come second, so their sets
    above their lower H are not the p98 rows' sets."""
    leaves = list(metrics._leaves(3 * metrics.LEAF + 5))
    n = leaves[-1][1]
    rng = np.random.default_rng(21)
    x = rng.standard_normal(n)
    sign = lambda k: rng.choice([-1.0, 1.0], k)
    h = 127 * 0.25  # 3% of |x| sit at h and 1% above: the p98 H is h exactly
    x[rng.choice(n, 3 * n // 100, replace=False)] = h * sign(3 * n // 100)
    big = np.concatenate([np.arange(*leaves[0]), np.arange(*leaves[2])])
    big = rng.choice(big, n // 100, replace=False)
    x[big] = rng.uniform(h, 4 * h, big.size) * sign(big.size)
    x[big[:20]] = np.nextafter(np.float32(h), np.float32(np.inf)) * sign(20)
    x[rng.choice(n, 40, replace=False)] = [0.0, -0.0] * 20
    huge = x.copy()
    huge[big[20:24]] = 4e38 * sign(4)
    grid = ([98.0, 90.0], [1.0, 4.0], [4.0, 8.0, 1e39])
    for t in (huge, x):
        rows = sweep(t, *grid)
        assert len(rows) == 12
        cfg = rows[5].config
        assert cfg.high_threshold == h and cfg.percentile == 98.0
        for row in rows:
            p, fd, cm = (getattr(row.config, f) for f in
                         ("percentile", "fine_divisor", "coarse_multiplier"))
            want = compare_quantizers(t, calibrate(t, p, fd, cm))
            assert row == (want.config, want.soft_edge, want.int8)
    large = [np.count_nonzero(abs(x[lo:hi]) > h) for lo, hi in leaves]
    assert large[0] and large[2] and not large[1] and not large[3]
    assert np.isinf(fake_quant(huge, cfg)).any()  # the large row overflows
    for base, twin in zip(rows, rows[1:]):  # reusing the base would show
        if twin.config.coarse_multiplier != 4.0:
            assert twin.soft_edge != base.soft_edge


HUGE = np.array([1e308, -1e308, 1.0])


def _strict_json(text):
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))


def test_huge_inputs_do_not_overflow(unit_cfg):
    """Squares of +-1e308, and differences of opposite signs near it, exceed
    binary64: MSE reads inf, but SQNR, max and mean errors keep their finite
    true values, with no RuntimeWarning."""
    fq = fake_quant(HUGE, unit_cfg).astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mse(HUGE, fq) == math.inf
        assert math.isfinite(sqnr_db(HUGE, fq))
        assert mse([1e308], [-1e308]) == math.inf
        # error power 4e616 against signal power 1e616 + 1
        assert sqnr_db([1e308, 1.0], [-1e308, 1.0]) == pytest.approx(
            10 * math.log10(0.25), rel=1e-12)
        large = region_breakdown(HUGE, unit_cfg)[2]
        r = compare_quantizers(HUGE, unit_cfg)
        ssm = run_report(SsmParams(a=[0.5], b=[0.5], c=[0.5]), HUGE, unit_cfg)
    assert large.count == 2 and large.mse == math.inf
    assert large.max_abs_err == large.mean_abs_err == 1e308
    assert r.regions[2] == large
    for q in (r.soft_edge, r.int8):
        assert q.mse == math.inf and q.max_abs_err == 1e308
        assert math.isfinite(q.sqnr_db)
    doc = _strict_json(r.to_json())
    assert doc["regions"][2]["mse"] == "inf"
    assert doc["regions"][2]["mean_abs_err"] == 1e308
    doc = _strict_json(ssm.to_json())
    assert doc["input_mse_soft_edge"] == doc["output_mse_int8"] == "inf"
    assert doc["input_max_abs_err_int8"] == 1e308
    assert math.isfinite(doc["output_sqnr_db_soft_edge"])


def test_tiny_inputs_do_not_underflow(unit_cfg):
    """Squares of 1e-170 and -3e-171 underflow binary64 to 0: MSE reads 0,
    but SQNR keeps its finite true value, a nonzero reference is no zero
    signal and a nonzero error is not lossless, with no RuntimeWarning."""
    x = np.array([1e-170, -3e-171])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mse(x, x / 2) == 0.0
        assert sqnr_db(x, x / 2) == pytest.approx(20 * math.log10(2),
                                                  rel=1e-12)
        assert sqnr_db([1e-170], [0.0]) == 0.0
        r = compare_quantizers(x, unit_cfg)
        (row,) = sweep(x, [100])
        ssm = run_report(SsmParams(a=[0.5], b=[0.5], c=[0.5]), x, unit_cfg)
    # every element quantizes to 0, so each error is the input itself
    for q in (r.soft_edge, r.int8):
        assert q == metrics.QuantizerStats(0.0, 0.0, 1e-170)
    assert r.regions[0].mse == 0.0 and r.regions[0].mean_abs_err > 0
    assert math.isfinite(row.soft_edge.sqnr_db)
    assert row.soft_edge == compare_quantizers(x, row.config).soft_edge
    assert ssm.output_sqnr_db_soft_edge == ssm.output_sqnr_db_int8 == 0.0
    assert ssm.input_max_abs_err_soft_edge == 1e-170
    # squares that underflow only in part, to a subnormal sum, rerun too
    x = np.array([1e-160, -3e-161])
    y = np.array([1e-158, -3e-159])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sqnr_db(x, x / 2) == pytest.approx(20 * math.log10(2),
                                                  rel=1e-12)
        assert sqnr_db(y, 0.999 * y) == pytest.approx(60.0, rel=1e-12)
        error = mse(x, x / 2)
    exact = sum((Fraction(float(v)) / 2) ** 2 for v in x) / 2
    assert 0 < error == float(exact)  # correctly rounded, though subnormal


def test_infinite_error_beside_an_overflowing_square():
    """A reconstruction beyond binary32 errs by inf; a second error whose
    square exceeds binary64 must not make the summed report warn."""
    x = np.array([2.68e154, 1e160])
    cfg = calibrate(x, 100.0)  # both quantizers reconstruct 1e160 as inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = compare_quantizers(x, cfg)
        (row,) = sweep(x, [100.0])
    for q in (r.soft_edge, r.int8, row.soft_edge, row.int8):
        assert (q.mse, q.max_abs_err, q.sqnr_db) == (math.inf, math.inf, -math.inf)
    assert r.regions[1].mean_abs_err == math.inf


def test_sqnr_of_unrepresentable_ratio():
    # signal/noise = 1e-600 underflows binary64; the dB value does not
    assert sqnr_db([1e-150], [1e150]) == pytest.approx(-6000.0)


# squares and their sums of up to 300 such values stay within binary64
_PAIRS = st.integers(1, 300).flatmap(lambda n: st.tuples(*[arrays(
    np.float64, n, elements=st.floats(-1e150, 1e150))] * 2))


@given(pair=_PAIRS, scale=st.floats(1e-3, 1e3))
def test_in_range_bits_match_straight_formulas(pair, scale):
    """Within binary64 every statistic has the bits of the plain formula."""
    ref, approx = pair
    d = ref - approx
    assert mse(ref, approx) == float(np.mean(d * d))
    cfg = derive_config(scale)
    err = np.abs(ref - fake_quant(ref, cfg))
    index = _region_index(np.abs(ref), cfg)
    for i, row in enumerate(region_breakdown(ref, cfg)):
        e = err[index == i]
        assert row.count == e.size
        if e.size:
            assert (row.mse, row.max_abs_err, row.mean_abs_err) == (
                float(np.mean(e * e)), float(np.max(e)), float(np.mean(e)))

    signal, err_power = float(np.sum(ref * ref)), float(np.sum(d * d))
    assume(signal > 0 and err_power > 0 and 0 < signal / err_power < math.inf)
    assert sqnr_db(ref, approx) == 10.0 * math.log10(signal / err_power)


LEAF = metrics.LEAF
_SSM_PARAMS = make_params(16, 7)


def test_overflow_in_a_later_leaf(unit_cfg):
    """A square that overflows only in the last of four leaves reruns the
    leaf pass scaled by 2**-k: the report keeps the bits of the whole-array
    rescale, with no RuntimeWarning."""
    n = 3 * LEAF + 5  # leaves of 24576, 24576, 24576 and 24581 elements
    x = np.random.default_rng(3).normal(0.0, 40.0, n)
    x[-2:] = 1e200, -1e200

    def rescaled(v):  # sum(v*v) of the whole array, scaled by 2**-k
        k = math.frexp(float(np.max(v)))[1]
        w = np.ldexp(v, -k)
        return float(np.sum(w * w)), 2 * k

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = compare_quantizers(x, unit_cfg)
        power = rescaled(np.abs(x))
        for q, which in ((r.soft_edge, "soft_edge"), (r.int8, "int8")):
            err = np.abs(x - fake_quant(x, unit_cfg, which))
            assert q.mse == math.inf and q.max_abs_err == float(np.max(err))
            assert q.sqnr_db == metrics._sqnr(power, rescaled(err))
            assert math.isfinite(q.sqnr_db)
    e = np.abs(x - fake_quant(x, unit_cfg))[_region_index(np.abs(x),
                                                          unit_cfg) == 2]
    large = r.regions[2]
    assert (large.count, large.mse, large.max_abs_err) == (
        e.size, math.inf, float(np.max(e)))
    assert large.mean_abs_err == float(np.mean(e))


def test_pair_overflow_in_a_later_leaf():
    """A difference that overflows binary64 only in the last of four leaves
    retakes the pair's pass on halved operands: MSE reads inf, and SQNR
    keeps the bits of the whole-array rescale, with no RuntimeWarning."""
    n = 3 * LEAF + 5
    rng = np.random.default_rng(5)
    ref = rng.normal(0.0, 40.0, n)
    approx = ref + rng.normal(0.0, 1.0, n)
    ref[-2], approx[-2] = 1e308, -1e308

    def rescaled(v):  # sum(v*v) of the whole array, scaled by 2**-k
        k = math.frexp(float(np.max(v)))[1]
        w = np.ldexp(v, -k)
        return float(np.sum(w * w)), 2 * k

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mse(ref, approx) == math.inf
        s, e = rescaled(np.abs(ref * 0.5 - approx * 0.5))
        db = sqnr_db(ref, approx)
        assert db == metrics._sqnr(rescaled(np.abs(ref)), (s, e + 2))
    assert db == pytest.approx(-6.0206, abs=1e-4)  # 1e616 against 4e616


@pytest.mark.parametrize("report", [mse, sqnr_db], ids=["mse", "sqnr_db"])
def test_pair_overflow_peak_memory(report):
    # an overflowed pair is halved leaf by leaf, not as whole arrays
    n = 1 << 20
    ref = np.random.default_rng(6).normal(0.0, 1.0, n)
    approx = ref + 0.01
    ref[n // 3], approx[n // 3] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            report(ref, approx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / n <= 2.0


# Sizes around numpy's 8-wide unrolled loop, its 128-element blocks, one and
# two leaves, and odd sizes up to about four leaves.
_TREE_SIZES = (st.integers(1, 9) | st.integers(127, 129)
               | st.sampled_from([LEAF - 1, LEAF + 1, 2 * LEAF - 8,
                                  2 * LEAF + 8])
               | st.integers(0, 2 * LEAF).map(lambda k: 2 * k + 1))


@settings(max_examples=60, deadline=None)
@given(n=_TREE_SIZES, seed=st.integers(0, 2**32 - 1),
       df=st.sampled_from([1.0, 1.5, 3.0]), cuts=st.integers(1, 40))
def test_leaf_tree_is_numpy_sum(n, seed, df, cuts):
    """The reports add leaf partials up ``metrics._tree``, which copies the
    pairwise tree np.sum follows over a contiguous float64 array. That tree
    is a numpy internal, not an API: this test is what guards it across
    numpy versions. The leaf-combine must equal np.sum bit for bit, of v
    and of v*v, for heavy-tailed v of either sign, and a column fed the
    values in arbitrary pieces (as region rows are) must give the same bits.
    On numpy 2.4.6 it held in 1,000 generated cases.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_t(df, n) * 10.0 ** rng.integers(-8, 9, n)
    for w in (v, v * v):
        leaves = iter(metrics._leaves(n))
        leaf_sum = lambda m: float(np.sum(w[slice(*next(leaves))]))
        assert metrics._tree(n, leaf_sum) == float(np.sum(w))
    a = np.abs(v)
    column = metrics._Column(n, linear=True)
    for piece in np.array_split(a, np.sort(rng.integers(0, n, cuts))):
        column.push(piece)
    assert column.sums == [(float(np.sum(a * a)), 0), (float(np.sum(a)), 0)]
    assert column.top == float(np.max(a))
    assert metrics._checked_pair(v, v)[0] == (float(np.sum(v * v)), 0)


@pytest.mark.parametrize("kind", ["student_t", "outlier_mixture", "gaussian"])
@pytest.mark.parametrize("report, dtype, bound", [
    (lambda x, fq, cfg: compare_quantizers(x, cfg), np.float64, 10.0),
    (lambda x, fq, cfg: sweep(x, [99.99]), np.float64, 9.0),
    (lambda x, fq, cfg: sweep(x, [99.9, 99.99, 99.999, 100.0], [2.0, 4.0],
                              [4.0, 8.0]), np.float64, 9.0),
    (lambda x, fq, cfg: mse(x, fq), np.float64, 2.0),
    (lambda x, fq, cfg: mse(x, fq), np.float32, 2.0),
    (lambda x, fq, cfg: sqnr_db(x, fq), np.float64, 2.0),
    (lambda x, fq, cfg: sqnr_db(x, fq), np.float32, 2.0),
    (lambda x, fq, cfg: run_report(_SSM_PARAMS, x, cfg), np.float32, 44.0),
], ids=["compare_quantizers", "sweep", "sweep_grid", "mse", "mse_f32",
        "sqnr_db", "sqnr_db_f32", "run_report_f32"])
def test_peak_memory_per_element(kind, report, dtype, bound):
    # a report keeps leaf-sized scratch, not n-element temporaries, and
    # checks each leaf of each operand as it reads it; the sweep's |x|, which
    # its selection partitions (8 B/elem), is the only input-sized allocation
    # of the metrics; a sweep's coarse twins hold one leaf of errors, not a
    # row. The SSM report adds its runs' float64 inputs and outputs.
    n = 1 << 20
    x = generate(DistSpec(kind=kind, n=n, seed=0)).astype(dtype)
    cfg = calibrate(x, 99.99)
    fq = fake_quant(x, cfg).astype(dtype)
    tracemalloc.start()
    try:
        report(x, fq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= bound
