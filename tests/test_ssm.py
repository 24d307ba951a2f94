import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softedge import (
    SsmParams,
    calibrate,
    derive_config,
    fake_quant,
    make_params,
    run_report,
    ssm_forward,
)
from softedge.errors import InvalidParams
from softedge.ssm import _MACS, BLOCK, MAX_STATE_DIM
from softedge.synth import DistSpec, generate


class TestForward:
    def test_hand_recurrence(self):
        p = SsmParams(a=[0.5], b=[1.0], c=[1.0])
        np.testing.assert_array_equal(ssm_forward(p, [1.0, 0.0]), [1.0, 0.5])

    def test_zero_input_zero_output(self):
        p = make_params(8, seed=1)
        assert np.all(ssm_forward(p, np.zeros(32)) == 0.0)

    def test_memoryless_channel(self):
        p = SsmParams(a=[0.0], b=[1.0], c=[2.0])
        np.testing.assert_array_equal(ssm_forward(p, [3.0]), [6.0])

    def test_linearity(self):
        p = make_params(16, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 5, 256)
        y1 = ssm_forward(p, 3.5 * x)
        y2 = 3.5 * ssm_forward(p, x)
        np.testing.assert_allclose(y1, y2, rtol=1e-12, atol=1e-12)

    def test_bibo_bound(self):
        p = make_params(16, seed=4)
        rng = np.random.default_rng(5)
        x = rng.uniform(-10, 10, 2048)
        y = ssm_forward(p, x)
        amax = float(np.max(np.abs(p.a)))
        bound = float(np.sum(np.abs(p.c * p.b))) * np.max(np.abs(x)) / (1 - amax)
        assert np.all(np.abs(y) <= bound)

    def test_output_beyond_binary64_rejected(self):
        # finite input and parameters whose output overflows: an error with
        # the first overflowing step, and no RuntimeWarning
        big = np.finfo(np.float64).max  # y = big, then 1.5 * big
        for p, x, index in (
                (SsmParams(a=[0.5], b=[1.0], c=[1.0]), [big, big], 1),
                (SsmParams(a=[0.5], b=[1e200], c=[1e200]), [1.0, 1.0], 0)):
            with pytest.raises(InvalidParams, match="output") as ei:
                ssm_forward(p, x)
            assert ei.value.index == index

    def test_input_must_be_one_dimensional(self):
        with pytest.raises(InvalidParams, match="^input must be 1-D$"):
            ssm_forward(make_params(4, seed=1), np.zeros((2, 3)))

    def test_initial_state(self):
        p = SsmParams(a=[0.5], b=[0.0], c=[1.0], h0=[8.0])
        np.testing.assert_array_equal(ssm_forward(p, [0.0, 0.0]), [4.0, 2.0])


# Multiples of 2**-16 in [-16, 16]: nonzero b, c and h0 keep B far above the
# underflow threshold, so the bound below needs no absolute term.
_COEF = st.integers(-2 ** 20, 2 ** 20).map(lambda k: k / 2 ** 16)
_DECAY = st.sampled_from([0.0, -0.5, 0.999, -0.999]) | st.floats(-0.999, 0.999)
# Blocks per Toeplitz product slice: lengths past it span several slices
# and more doubling steps of the carry.
_GROUP = _MACS // BLOCK ** 2


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 16))
    vec = st.lists(_COEF, min_size=n, max_size=n)
    params = SsmParams(a=draw(st.lists(_DECAY, min_size=n, max_size=n)),
                       b=draw(vec), c=draw(vec), h0=draw(st.none() | vec))
    t = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK,
                              4 * BLOCK + 5, _GROUP * BLOCK,
                              _GROUP * BLOCK + 1, (2 * _GROUP + 1) * BLOCK + 3]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x = scale * np.random.default_rng(draw(st.integers(0, 2 ** 32))).normal(size=t)
    return params, x


def _assert_within_loop_bound(params, x, ssm_loop):
    """The bound of ``test_scan_matches_loop``, checked on one system."""
    y = ssm_forward(params, x)
    want = ssm_loop(params, x)
    assert y.shape == want.shape == x.shape
    if x.size == 0:
        return
    a = float(np.max(np.abs(params.a)))
    bound = (float(np.max(np.abs(x))) * float(np.sum(np.abs(params.c * params.b)))
             / (1 - a) + float(np.sum(np.abs(params.c * params.h0))))
    levels = (-(-x.size // BLOCK) - 1).bit_length()  # ceil(log2(blocks))
    k = BLOCK + 2 * params.state_dim + 16 + 2 * levels
    assert np.max(np.abs(y - want)) <= k * 2.0 ** -52 * bound / (1 - a)


@settings(deadline=None)
@given(system=_systems())
def test_scan_matches_loop(system, ssm_loop):
    """ssm_forward agrees with the step-by-step loop within k*eps*B/(1 - A):
    k = BLOCK + 2N + 16 + 2L, eps = 2**-52, A = max|a_i|,
    B = max|x| * sum|c_i b_i| / (1 - A) + sum|c_i h0_i|, a bound on |y|, and
    L = ceil(log2(ceil(T/BLOCK))) steps of the doubling carry.

    First-order derivation, unit roundoff u = eps/2. With
    m_i = |b_i| max|x| / (1 - |a_i|) + |h0_i| >= |h_t,i|, sum_i |c_i| m_i <= B.
    Loop: one step errs by <= 2u*m_i in channel i, decaying by |a_i| a step,
    and the N-term c @ h adds N*u*B: (N + 2)*u*B/(1 - A) in all.
    Scan: the zero-state part (powers by pow, c*b, the N-term kernel and the
    <= BLOCK-term Toeplitz product) errs by (BLOCK + N + 3)*u*B. A block's
    end sum (BLOCK terms with their powers, times b) errs by BLOCK + 2 units
    of u relative to the sum of its terms' magnitudes; carried with exact
    powers, those sums and h0 add up to at most m_i in channel i, so
    (BLOCK + 2)*u*m_i. Each doubling step rounds a power, a multiply and an
    add, 3u relative to every term of a state, whose magnitudes also add up
    to at most m_i: 3L*u*m_i. Through c_i a_i^(k+1), the state error adds
    (BLOCK + 2 + 3L)*u*B, the carried-in product's own rounding (N + 2)*u*B
    and the final sum 2u*B. The difference is at most
    (2*BLOCK + 3N + 12 + 3L)*u*B/(1 - A) < k*eps*B/(1 - A); the margin in k
    covers second-order terms. At every T drawn here, and at the bench's
    T = 65,536 (L = 10), k stays below the 256 + 2N + 16 of a 256-step
    scan with a per-block carry loop.
    """
    _assert_within_loop_bound(*system, ssm_loop)


def test_scan_matches_loop_at_bench_length(ssm_loop):
    # T = 65,536 takes 1,024 blocks and 10 doubling steps; channels at
    # |a_i| = 0.999 carry h0 and the input across hundreds of blocks
    p = make_params(16, seed=11)
    a = p.a.copy()
    a[:2] = 0.999, -0.999
    params = SsmParams(a=a, b=p.b, c=p.c, h0=4.0 * p.c)
    x = np.random.default_rng(12).normal(size=65536)
    _assert_within_loop_bound(params, x, ssm_loop)


@pytest.mark.parametrize("state_dim, seq_len", [(16, 65536), (3000, 4096)])
def test_products_stay_under_blas_threading_cutoff(monkeypatch, state_dim,
                                                   seq_len):
    """Every 2-D slice of every product ssm_forward makes has at most
    2**17 multiply-adds, half of OpenBLAS's single-thread gemm limit, unless
    one row alone is more: at N = 3,000 one block's row of the block-end or
    carried-in product is 64 x 3,000 multiply-adds, so it is its own slice."""
    products = []
    real = np.matmul

    def recording(x, w, *args, **kwargs):
        products.append((x.shape, w.shape))
        return real(x, w, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    params = make_params(state_dim, seed=13)
    ssm_forward(params, np.random.default_rng(14).normal(size=seq_len))
    # the kernel, the block-end sums, the Toeplitz and the carried-in products
    assert len(products) == 4
    assert any(w == (BLOCK, BLOCK) for _, w in products)
    for x, w in products:
        rows, k = x[-2:]
        row_macs = k * w[-1]
        assert rows * row_macs <= max(2 ** 17, row_macs), (x, w)


class TestParamsValidation:
    def test_instability_rejected(self):
        with pytest.raises(InvalidParams):
            SsmParams(a=[1.0], b=[1.0], c=[1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParams):
            SsmParams(a=[0.5], b=[float("nan")], c=[1.0])

    @pytest.mark.parametrize("name", ["a", "b", "c", "h0"])
    def test_nonfinite_entry_reports_index(self, name):
        fields = {k: [0.5, 0.5] for k in ("a", "b", "c", "h0")}
        fields[name] = [0.5, float("inf")]
        with pytest.raises(InvalidParams) as ei:
            SsmParams(**fields)
        assert ei.value.index == 1

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParams):
            SsmParams(a=[0.5, 0.5], b=[1.0], c=[1.0])

    @pytest.mark.parametrize("state_dim, seed", [
        (2.5, 1), (2.0, 1), ("4", 1), (4, 1.5), (4, None), (True, 0),
        (4, False), (4, "7"),
    ])
    def test_make_params_non_integer(self, state_dim, seed):
        with pytest.raises(InvalidParams, match="must be an integer, got "):
            make_params(state_dim, seed)

    @pytest.mark.parametrize("state_dim", [0, MAX_STATE_DIM + 1, 2**62, 2**63,
                                           2**64])
    def test_make_params_state_dim_out_of_range(self, state_dim):
        # rejected before anything is allocated
        with pytest.raises(InvalidParams, match="state_dim must be in"):
            make_params(state_dim, 0)

    def test_make_params_seeded_and_stable(self):
        p1, p2 = make_params(16, 7), make_params(16, 7)
        np.testing.assert_array_equal(p1.a, p2.a)
        assert np.all((p1.a >= 0.5) & (p1.a <= 0.99))


class TestQuantizedRuns:
    def test_medium_only_input_paths_identical(self, unit_cfg):
        rng = np.random.default_rng(6)
        x = rng.uniform(16, 127, 512) * rng.choice([-1, 1], 512)
        p = make_params(8, seed=8)
        y_se = ssm_forward(p, fake_quant(x, unit_cfg, "soft_edge"))
        y_i8 = ssm_forward(p, fake_quant(x, unit_cfg, "int8"))
        np.testing.assert_array_equal(y_se, y_i8)

    def test_single_outlier_sample(self):
        cfg = derive_config(1.0)
        p = SsmParams(a=[0.0], b=[1.0], c=[1.0])
        np.testing.assert_array_equal(
            ssm_forward(p, fake_quant([200.0], cfg, "soft_edge")), [199.0]
        )
        np.testing.assert_array_equal(
            ssm_forward(p, fake_quant([200.0], cfg, "int8")), [127.0]
        )

    def test_mixture_soft_edge_wins_end_to_end(self):
        x = generate(DistSpec(kind="outlier_mixture", n=4096, seed=7))
        cfg = calibrate(x, 99.99)
        rep = run_report(make_params(16, seed=7), x, cfg)
        assert rep.output_mse_soft_edge < rep.output_mse_int8

    def test_output_error_bibo_bounded(self, unit_cfg):
        p = make_params(16, seed=9)
        x = generate(DistSpec(kind="outlier_mixture", n=2048, seed=10, std=8.0))
        rep = run_report(p, x, unit_cfg)
        amax = float(np.max(np.abs(p.a)))
        k = float(np.sum(np.abs(p.c * p.b))) / (1 - amax)
        y_ref = ssm_forward(p, x)
        y_se = ssm_forward(p, fake_quant(x, unit_cfg, "soft_edge"))
        assert np.max(np.abs(y_ref - y_se)) <= k * rep.input_max_abs_err_soft_edge + 1e-9


class TestReport:
    def test_deterministic(self):
        x = generate(DistSpec(kind="outlier_mixture", n=1024, seed=12))
        cfg = calibrate(x, 99.9)
        p = make_params(8, seed=12)
        assert run_report(p, x, cfg) == run_report(p, x, cfg)

    def test_json_fields(self, unit_cfg):
        import json

        x = generate(DistSpec(kind="gaussian", n=256, seed=13, std=4.0))
        doc = json.loads(run_report(make_params(4, seed=13), x, unit_cfg).to_json())
        assert doc["seq_len"] == 256
        assert doc["state_dim"] == 4
        assert "output_mse_soft_edge" in doc and "input_mse_int8" in doc
