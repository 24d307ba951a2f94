import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softedge.errors import InvalidSpec
from softedge.synth import (
    BLOCK,
    MAX_DF,
    DistSpec,
    _splitmix64_at,
    _unit,
    gaussians,
    generate,
    uniforms,
)


def _uniforms_oracle(seed, start, n, open_zero=False):
    """The module docstring's splitmix64 formula over the whole counter range
    at once."""
    k = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + k * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    if open_zero:
        return (z.astype(np.float64) + 1.0) * 2.0**-53
    return z.astype(np.float64) * 2.0**-53


def _gaussians_oracle(seed, start, n):
    """The whole-array Box-Muller formula: one pass over every counter."""
    pairs = (n + 1) // 2
    u = _uniforms_oracle(seed, start, 2 * pairs, open_zero=True)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


seeds = st.integers(0, 2**64 - 1)
starts = st.integers(0, 2**40)
# sizes within a few elements of a block boundary, odd and even, and any size
# up to three blocks
near_boundary = st.builds(lambda k, d: k * BLOCK + d, st.integers(1, 2),
                          st.integers(-3, 3))


class TestPrng:
    def test_uniform_range(self):
        u = uniforms(12345, 0, 10_000)
        assert np.all((u >= 0) & (u < 1))

    def test_open_zero_variant(self):
        u = uniforms(12345, 0, 10_000, open_zero=True)
        assert np.all((u > 0) & (u <= 1))

    def test_counter_based_consistency(self):
        # draws at a counter offset equal the tail of a longer stream
        full = uniforms(9, 0, 100)
        tail = uniforms(9, 60, 40)
        np.testing.assert_array_equal(full[60:], tail)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(uniforms(1, 0, 64), uniforms(2, 0, 64))

    def test_gaussian_pairing(self):
        # both Box-Muller outputs consumed: n and n+1 share the first n draws
        a = gaussians(3, 0, 7)
        b = gaussians(3, 0, 8)
        np.testing.assert_array_equal(a, b[:7])


class TestBlocks:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, start=starts,
           n=st.one_of(near_boundary, st.integers(0, 3 * BLOCK)))
    @example(seed=0, start=1, n=BLOCK + 1)
    @example(seed=2**64 - 1, start=3, n=2 * BLOCK - 1)
    def test_blocked_gaussians_match_whole_array(self, seed, start, n):
        got = gaussians(seed, start, n)
        assert got.tobytes() == _gaussians_oracle(seed, start, n).tobytes()

    @settings(deadline=None)
    @given(seed=seeds, start=starts, n=st.integers(1, 4096),
           open_zero=st.booleans(), data=st.data())
    def test_counter_array_draws_match_uniforms(self, seed, start, n,
                                                open_zero, data):
        want = uniforms(seed, start, n, open_zero)
        assert want.tobytes() == _uniforms_oracle(seed, start, n,
                                                  open_zero).tobytes()
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=64)),
                       dtype=np.int64)
        got = _unit(_splitmix64_at(seed, idx + start), open_zero=open_zero)
        assert got.tobytes() == want[idx].tobytes()

    @pytest.mark.parametrize("kind, bound", [
        ("outlier_mixture", 17), ("gaussian", 17), ("lognormal", 17),
        ("student_t", 24),
    ])
    def test_peak_memory_per_element(self, kind, bound):
        # the output is 8 B/elem; the rest is per-block temporaries and the
        # outlier indices, not n-element temporaries
        n = 1 << 20
        spec = DistSpec(kind=kind, n=n, seed=0)
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= bound

    @pytest.mark.parametrize("dtype, kind, bound", [
        (np.float64, "outlier_mixture", 10.0), (np.float64, "gaussian", 10.0),
        (np.float64, "lognormal", 10.0), (np.float64, "student_t", 11.0),
        (np.float32, "outlier_mixture", 6.5), (np.float32, "gaussian", 6.5),
        (np.float32, "lognormal", 6.5), (np.float32, "student_t", 7.5),
    ])
    def test_peak_memory_per_element_by_dtype(self, dtype, kind, bound):
        # the output is 8 or 4 B/elem, plus about 1.25 B/elem of per-block
        # temporaries (2.25 for student_t) and, for binary32, one float64
        # block; at 2^20 this reads 9.25 (10.25) and 5.75 (6.75)
        n = 1 << 20
        spec = DistSpec(kind=kind, n=n, seed=0)
        tracemalloc.start()
        try:
            generate(spec, dtype=dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= bound


class TestGenerate:
    def test_empty(self):
        assert generate(DistSpec(kind="gaussian", n=0, seed=1)).size == 0

    def test_bitwise_reproducible(self):
        spec = DistSpec(kind="outlier_mixture", n=4096, seed=11)
        a, b = generate(spec), generate(spec)
        assert a.tobytes() == b.tobytes()

    def test_gaussian_frozen_head(self):
        got = generate(DistSpec(kind="gaussian", n=6, seed=42))
        want = np.array([
            0.41471975043153003,
            0.652681222151943,
            -0.8918862136277573,
            1.3268335628141055,
            1.729593087937403,
            -1.8834167889028144,
        ])
        np.testing.assert_array_equal(got, want)

    def test_gaussian_moments(self):
        g = generate(DistSpec(kind="gaussian", n=10**6, seed=42))
        assert abs(g.mean()) < 0.005  # 5 sigma of the mean estimator
        assert abs(g.std() - 1.0) < 0.005

    def test_gaussian_location_scale(self):
        g = generate(DistSpec(kind="gaussian", n=10**5, seed=3, mean=5, std=2))
        assert g.mean() == pytest.approx(5.0, abs=0.05)
        assert g.std() == pytest.approx(2.0, abs=0.05)

    def test_mixture_outlier_count(self):
        m = generate(DistSpec(kind="outlier_mixture", n=10**6, seed=7))
        # body is N(0,1): anything at magnitude >= 10 is an injected outlier
        count = int(np.count_nonzero(np.abs(m) >= 10))
        assert 900 <= count <= 1100  # binomial +/-3 sigma around 1000

    def test_mixture_magnitude_window(self):
        m = generate(DistSpec(kind="outlier_mixture", n=10**5, seed=9,
                              outlier_fraction=0.01,
                              outlier_low=50, outlier_high=60))
        out = m[np.abs(m) >= 50]
        assert out.size > 0
        assert np.all(np.abs(out) <= 60)
        assert np.any(out < 0) and np.any(out > 0)

    def test_lognormal_positive(self):
        v = generate(DistSpec(kind="lognormal", n=10**4, seed=5))
        assert np.all(v > 0)

    def test_student_t_heavier_tail_than_gaussian(self):
        t = generate(DistSpec(kind="student_t", n=10**5, seed=6,
                              degrees_of_freedom=3))
        g = generate(DistSpec(kind="gaussian", n=10**5, seed=6))
        assert np.mean(np.abs(t) > 4) > np.mean(np.abs(g) > 4)

    def test_beyond_binary64_is_quiet_inf(self):
        # runs under the suite's every-warning-is-an-error filter
        g = generate(DistSpec(kind="gaussian", n=1000, seed=1, std=1e308))
        assert np.isinf(g).any() and not np.isnan(g).any()
        ln = generate(DistSpec(kind="lognormal", n=4, seed=1, mean=1000))
        assert np.all(ln == np.inf)

    def test_all_finite(self):
        for kind in ("gaussian", "outlier_mixture", "student_t", "lognormal"):
            v = generate(DistSpec(kind=kind, n=10**4, seed=13))
            assert np.all(np.isfinite(v))


# sha256 of generate(...).tobytes() at n = 3 * 2**16 + 5, which spans
# several Box-Muller blocks and ends inside a partial one.
MULTI_BLOCK_N = 3 * 2**16 + 5
MULTI_BLOCK_SHA256 = {
    ("gaussian", 0): "52fd7c77efac6a1a19a397c7fa4e63a501c7c787a8d9a0ec8ba7874ad3ad05b1",
    ("gaussian", 9001): "5970256d26a70e228adc9bc4fdd333c92ca5e6b128d7d72cad0b6afce3b1efbc",
    ("outlier_mixture", 0): "398aaca7ca6223e417863157a12d4ebe542cde34073642d2da9196470a61f933",
    ("outlier_mixture", 9001): "099453b6cafb2bc45c69862c9fd61471932f1741e1407838fe55e08b6aa3b478",
    ("student_t", 0): "a35f8a1b405962519c9bc9607f3c610ae96339b54e2fc064db63fca1cdceb638",
    ("student_t", 9001): "3a10777504b6a662197b2edb1f51492f94d69fae5bac257e112a4e1ad17dd97b",
    ("lognormal", 0): "72edd39e40d97dda0ce26bebe348cd64426edeb078ecf039bbfe0b9d1be19273",
    ("lognormal", 9001): "942ae124b4fba46ae23cb885173d3f76d95e4352fd823c7cf2799c8bd148b312",
}


@pytest.mark.parametrize("kind, seed", sorted(MULTI_BLOCK_SHA256))
def test_multi_block_digest(kind, seed):
    v = generate(DistSpec(kind=kind, n=MULTI_BLOCK_N, seed=seed))
    digest = hashlib.sha256(v.tobytes()).hexdigest()
    assert digest == MULTI_BLOCK_SHA256[kind, seed]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            DistSpec(kind="cauchy", n=1, seed=0)

    def test_negative_n(self):
        with pytest.raises(InvalidSpec):
            DistSpec(kind="gaussian", n=-1, seed=0)

    def test_bad_std(self):
        with pytest.raises(InvalidSpec):
            DistSpec(kind="gaussian", n=1, seed=0, std=0.0)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", 2.0), ("n", "3"), ("n", None), ("seed", 1.5),
        ("degrees_of_freedom", 2.5), ("n", True), ("seed", True),
        ("degrees_of_freedom", True), ("seed", "0"),
    ])
    def test_non_integer_size(self, field, value):
        fields = {"n": 3, "seed": 0, field: value}
        with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
            DistSpec(kind="student_t", **fields)

    @pytest.mark.parametrize("field, value", [
        ("mean", "1"), ("std", True), ("outlier_fraction", None),
        ("outlier_low", np.bool_(False)), ("outlier_high", 1j),
    ])
    def test_non_number_parameter(self, field, value):
        with pytest.raises(InvalidSpec, match=f"{field} must be a number"):
            DistSpec(kind="outlier_mixture", n=3, seed=0, **{field: value})

    def test_parameter_beyond_binary64(self):
        with pytest.raises(InvalidSpec, match="mean out of range"):
            DistSpec(kind="gaussian", n=3, seed=0, mean=10**400)

    @pytest.mark.parametrize("n", [2**63, 2**64, np.uint64(2**64 - 1), 2**62])
    def test_size_beyond_intp(self, n):
        # rejected before anything is allocated
        with pytest.raises(InvalidSpec, match="n must be in"):
            DistSpec(kind="gaussian", n=n, seed=0)

    def test_degrees_of_freedom_bound(self):
        # student_t draws one gaussian block per degree of freedom
        v = generate(DistSpec(kind="student_t", n=4, seed=1,
                              degrees_of_freedom=MAX_DF))
        assert v.size == 4 and np.all(np.isfinite(v))
        for df in (0, MAX_DF + 1, 10**11):
            with pytest.raises(InvalidSpec,
                               match=r"degrees_of_freedom must be in \[1, 1024\]"):
                DistSpec(kind="student_t", n=4, seed=1, degrees_of_freedom=df)

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**64 - 1])
    def test_numpy_integers_draw_as_python_ints(self, seed):
        want = generate(DistSpec(kind="student_t", n=5, seed=seed,
                                 degrees_of_freedom=3))
        got = generate(DistSpec(kind="student_t", n=np.int64(5),
                                seed=np.uint64(seed),
                                degrees_of_freedom=np.int32(3)))
        assert got.tobytes() == want.tobytes()

    def test_bad_fraction(self):
        with pytest.raises(InvalidSpec):
            DistSpec(kind="outlier_mixture", n=1, seed=0, outlier_fraction=1.0)

    def test_bad_window(self):
        with pytest.raises(InvalidSpec):
            DistSpec(kind="outlier_mixture", n=1, seed=0,
                     outlier_low=5, outlier_high=5)

    @pytest.mark.parametrize("field", ["mean", "std", "outlier_low",
                                       "outlier_high"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_nonfinite_parameter(self, field, value):
        with pytest.raises(InvalidSpec, match="finite"):
            DistSpec(kind="outlier_mixture", n=1, seed=0, **{field: value})
