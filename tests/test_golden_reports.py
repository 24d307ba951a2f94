"""Frozen report bytes and the number of magnitude passes per report.

The digests pin the eval JSON and CSV, a 2x2x2 sweep CSV and the SSM report
JSON on a small seeded input, and the eval and sweep outputs at two
multi-leaf sizes, so a refactor of the metrics or SSM code that changes any
output bit fails here. The SSM report is produced with ``ssm._scan``
replaced by the step-by-step loop oracle, run on each row, because the
chunked scan re-associates the recurrence's sums; the report of the scan
itself must match it field by field within 1e-12 relative.
"""

import hashlib
import json

import pytest

import softedge as se
from softedge import calibration, metrics, ssm
from softedge.cli import main

GOLDEN_SHA256 = {
    "eval.json":
        "d6ffae3a8fc2a1eece289431a89c26f34eab40060f63540dd3ecbd2e4faa2be2",
    "eval.csv":
        "e11fb6ca6e04757e50554bdccd546a1e16e6960b1f0bd61d74d925eda81229fe",
    "sweep.csv":
        "284e50602de3160844ab732405e3ea0e880a90d85c3ea6a632a4f7f5e879d485",
    "ssm.json":
        "e2289c9927aeab76d55bec6d32dce60cc43023ef99ee55b2f5d18b013d405128",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory, ssm_loop):
    d = tmp_path_factory.mktemp("golden")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("synth", "--dist", "outlier_mixture", "--n", 4096, "--seed", 0,
        "--out", d / "x.qsef")
    run("calibrate", "--input", d / "x.qsef", "--percentile", 99.9,
        "--out", d / "cfg.json")
    for fmt in ("json", "csv"):
        run("eval", "--input", d / "x.qsef", "--config", d / "cfg.json",
            "--format", fmt, "--out", d / f"eval.{fmt}")
    run("sweep", "--input", d / "x.qsef", "--percentiles", "99.9,100",
        "--fine-divisors", "2,4", "--coarse-multipliers", "4,8",
        "--out", d / "sweep.csv")
    ssm_run = ("ssm", "--seq-len", 4096, "--state-dim", 8, "--seed", 0,
               "--config", d / "cfg.json", "--report")
    def loop_scan(params, rows, t):
        for row in rows:
            row[:t] = ssm_loop(params, row[:t])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ssm, "_scan", loop_scan)
        run(*ssm_run, d / "ssm.json")
    run(*ssm_run, d / "ssm_scan.json")
    return {name: (d / name).read_bytes()
            for name in (*GOLDEN_SHA256, "ssm_scan.json")}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_report_digest(reports, name):
    assert hashlib.sha256(reports[name]).hexdigest() == GOLDEN_SHA256[name]


def test_ssm_scan_report_matches_loop(reports):
    loop = json.loads(reports["ssm.json"])
    scan = json.loads(reports["ssm_scan.json"])
    assert scan == pytest.approx(loop, rel=1e-12, abs=0)


@pytest.fixture
def fake_quant_calls(monkeypatch):
    calls = []
    real = se.fake_quant

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ssm, "fake_quant", counting)
    return calls


@pytest.fixture
def magnitude_calls(monkeypatch):
    """(size, config, which) of each codec magnitude pass a report makes."""
    calls = []
    real = metrics._magnitude

    def counting(ax, cfg, which, *args):
        calls.append((ax.size, cfg, which))
        return real(ax, cfg, which, *args)

    monkeypatch.setattr(metrics, "_magnitude", counting)
    return calls


def test_one_fake_quant_per_quantizer(magnitude_calls, fake_quant_calls,
                                      unit_cfg):
    x = se.generate(se.DistSpec(kind="outlier_mixture", n=2048, seed=1))
    se.compare_quantizers(x, unit_cfg)
    assert magnitude_calls == [(2048, unit_cfg, "soft_edge"),
                               (2048, unit_cfg, "int8")]
    se.run_report(se.make_params(4, 1), x, unit_cfg)
    assert len(fake_quant_calls) == 2


def test_sweep_shares_its_work(magnitude_calls, monkeypatch):
    counts = {"sort": 0, "percentile_abs": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(calibration, "_sorted_abs",
                        counting("sort", calibration._sorted_abs))
    monkeypatch.setattr(calibration, "percentile_abs",
                        counting("percentile_abs", calibration.percentile_abs))
    x = se.generate(se.DistSpec(kind="outlier_mixture", n=2048, seed=1))
    rows = se.sweep(x, [99.0, 99.9, 99.0, 100.0], [2.0, 4.0], [4.0, 8.0])
    assert len(rows) == 16
    assert counts == {"sort": 1, "percentile_abs": 0}
    full = [(cfg, which) for size, cfg, which in magnitude_calls
            if size == x.size]
    assert [which for _, which in full].count("soft_edge") == 8
    assert [which for _, which in full].count("int8") == 3  # one per scale
    # each coarse-multiplier-8 row is the twin of the row before it: it
    # redoes only the elements above H, and makes no call when there are none
    twins = [(size, cfg) for size, cfg, _ in magnitude_calls if size < x.size]
    large = [(int((abs(x) > row.config.high_threshold).sum()), row.config)
             for row in rows if row.config.coarse_multiplier == 8.0]
    assert twins == [(size, cfg) for size, cfg in large if size]
    assert {size for size, _ in large} == {21, 3, 0}


# Multi-leaf reports: sizes that are not powers of two and span several
# 2**15-element leaves of the summation tree, at p99.99. The outlier mixture
# has elements in all three regions; the gaussian's medium region is dense
# (its small fraction is about 0.38).
MULTI_LEAF_SHA256 = {
    ("outlier_mixture", 3 * 2**15 + 5, "eval.json"):
        "906b822bdcff99be3917ef2d055aaa98a90afb8ceccb9270101eceec4c067cd0",
    ("outlier_mixture", 3 * 2**15 + 5, "eval.csv"):
        "b0c89f94dae5977d3b2d8c5144fb386174957a8961f55d63455cabe7c7e7ed1f",
    ("outlier_mixture", 3 * 2**15 + 5, "sweep.csv"):
        "8ae7557ad0070012c569cf90c6367af7174da338d2b2bc29500ab245989c55b7",
    ("outlier_mixture", 2**20 + 3, "eval.json"):
        "324f4145bff95b8aa5879854b4a60ee3495e8f78980b8ea260d148dc45db5eca",
    ("outlier_mixture", 2**20 + 3, "eval.csv"):
        "ee299f031649b647ba767e505607e1e91e0934ee0a25a255fb6b2c8752dd8d95",
    ("outlier_mixture", 2**20 + 3, "sweep.csv"):
        "f8d578beeea26902153b8fe97fd10906732f55235035da0c35d0aead2cfe6e64",
    ("gaussian", 3 * 2**15 + 5, "eval.json"):
        "de0c49d2c55573c4a0151206f56b4aed747121d7d7f393da716fc4787eab8dcb",
    ("gaussian", 3 * 2**15 + 5, "eval.csv"):
        "5bff70a14fa9df6782fc5b56866fba4b36a09f3949f16697f31b4506f29eff06",
    ("gaussian", 3 * 2**15 + 5, "sweep.csv"):
        "3f61cebc1ee9a3c2211ba2db8f70e1107cda18f8c1c56b6d7167cd9517c9dfcf",
    ("gaussian", 2**20 + 3, "eval.json"):
        "b7d50c8bcb41082e5640706a867610cb8fdc9a4e903c8365dc2dc2e05b6e7ea8",
    ("gaussian", 2**20 + 3, "eval.csv"):
        "95f1cb9b02c422b0cf42235f1a40239c408a4e886963a6b110c4ce28598641b4",
    ("gaussian", 2**20 + 3, "sweep.csv"):
        "1a02000a8aac0c74db4daab028a4f286852dcb6763818cb08dad382ca2cd974f",
}


@pytest.fixture(scope="module",
                params=sorted({case[:2] for case in MULTI_LEAF_SHA256}),
                ids=lambda case: f"{case[0]}-{case[1]}")
def multi_leaf(request, tmp_path_factory):
    dist, n = request.param
    d = tmp_path_factory.mktemp(f"{dist}{n}")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("synth", "--dist", dist, "--n", n, "--seed", 5, "--out", d / "x.qsef")
    run("calibrate", "--input", d / "x.qsef", "--percentile", 99.99,
        "--out", d / "cfg.json")
    for fmt in ("json", "csv"):
        run("eval", "--input", d / "x.qsef", "--config", d / "cfg.json",
            "--format", fmt, "--out", d / f"eval.{fmt}")
    run("sweep", "--input", d / "x.qsef", "--percentiles", "99.99,100",
        "--fine-divisors", "2,4", "--coarse-multipliers", "4,8",
        "--out", d / "sweep.csv")
    return request.param, {name: (d / name).read_bytes()
                           for name in ("eval.json", "eval.csv", "sweep.csv")}


@pytest.mark.parametrize("name", ["eval.json", "eval.csv", "sweep.csv"])
def test_multi_leaf_report_digest(multi_leaf, name):
    case, outputs = multi_leaf
    assert (hashlib.sha256(outputs[name]).hexdigest()
            == MULTI_LEAF_SHA256[(*case, name)])


def test_multi_leaf_mixture_fills_every_region(multi_leaf):
    (dist, n), outputs = multi_leaf
    counts = [r["count"] for r in json.loads(outputs["eval.json"])["regions"]]
    assert sum(counts) == n
    if dist == "outlier_mixture":
        assert min(counts) > 0 and counts[0] > 2**15
    else:  # a dense medium region spanning several leaves
        assert 0.3 < counts[0] / n < 0.45 and counts[1] > 2**15
