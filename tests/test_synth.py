import numpy as np
import pytest

from softedge.errors import InvalidSpec
from softedge.synth import DistSpec, gaussians, generate, uniforms


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
