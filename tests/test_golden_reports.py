"""Frozen report bytes and the number of fake-quant passes per report.

The digests pin the eval JSON and CSV, a 2x2x2 sweep CSV and the SSM report
JSON on a small seeded input, so a refactor of the metrics or SSM code that
changes any output bit fails here. The SSM report is produced with
``ssm.ssm_forward`` replaced by the step-by-step loop oracle, because the
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ssm, "ssm_forward", ssm_loop)
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

    monkeypatch.setattr(metrics, "fake_quant", counting)
    monkeypatch.setattr(ssm, "fake_quant", counting)
    return calls


def test_one_fake_quant_per_quantizer(fake_quant_calls, unit_cfg):
    x = se.generate(se.DistSpec(kind="outlier_mixture", n=2048, seed=1))
    se.compare_quantizers(x, unit_cfg)
    assert len(fake_quant_calls) == 2
    fake_quant_calls.clear()
    se.run_report(se.make_params(4, 1), x, unit_cfg)
    assert len(fake_quant_calls) == 2


def test_sweep_shares_its_work(fake_quant_calls, monkeypatch):
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
    which = [args[2] for args in fake_quant_calls]
    assert which.count("soft_edge") == 16
    assert which.count("int8") == 3  # one per distinct percentile
