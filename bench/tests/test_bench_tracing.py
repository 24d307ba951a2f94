"""Every workload at a small size: tracing changes no result, the checks
catch a changed output, and the counts come out as the layers dictate."""

import dataclasses
import json

import pytest

import check
import run
import workloads

SMALL = {"pipeline_4m": 1 << 14, "sweep_1m": 1 << 12, "ssm_64k": 1 << 10}


def _small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=SMALL[name])


@pytest.fixture(scope="module")
def measured():
    """Each workload measured traced and untraced at its small size."""
    return {name: {trace: run.measure(_small(name), 5, 0.0, trace)
                   for trace in (False, True)}
            for name in SMALL}


@pytest.mark.parametrize("name", SMALL)
def test_tracing_changes_no_output(name, tmp_path):
    from softedge import cli
    import spans

    wl = _small(name)
    argvs = wl.stage_argvs(tmp_path, 3)
    assert run.run_iteration(cli, wl.setup_argvs(tmp_path, 3) + argvs)[2] is None
    untraced = check.snapshot(tmp_path, wl)
    assert check.oracle(tmp_path, wl, 3) == []
    with spans.Recorder(spans.layer_functions()).tracing(0):
        assert run.run_iteration(cli, argvs)[2] is None
    assert check.snapshot(tmp_path, wl) == untraced


@pytest.mark.parametrize("name", SMALL)
def test_runs_report_exactly_the_listed_metrics(name, measured):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = measured[name][trace]
        assert res["failed"] == 0 and res["problems"] == []
        assert res["attempted"] >= run.MIN_ITERATIONS
        assert set(res["metrics"]) == {m["name"] for m in spec[key]}


def test_counts_follow_the_layers(measured):
    pipe, sweep, ssm = (measured[n][True]["metrics"] for n in SMALL)
    assert pipe["metrics.fake_quant_per_report"] == 3
    assert sweep["metrics.fake_quant_per_report"] == 3
    assert ssm["ssm.fake_quant_per_report"] == 4
    assert ssm["ssm.ssm_forward.calls"] == 3
    assert pipe["ssm.ssm_forward.calls"] == sweep["ssm.ssm_forward.calls"] == 0
    assert sweep["calibration.percentile_abs.calls"] == 16
    assert sweep["codec.encode_tensor.calls"] == sweep["codec.decode_tensor.calls"] == 0
    assert sweep["tensor_io.bytes_written"] == 0
    assert pipe["codec.encode_tensor.calls"] == pipe["codec.decode_tensor.calls"] == 1
    for m in (pipe, sweep, ssm):
        assert all(m[f"{layer}.errors"] == 0 for layer in
                   ("synth", "calibration", "codec", "metrics", "tensor_io",
                    "ssm", "cli"))


def test_a_changed_code_fails_the_checks(tmp_path):
    from softedge import cli

    wl = _small("pipeline_4m")
    assert run.run_iteration(
        cli, wl.setup_argvs(tmp_path, 0) + wl.stage_argvs(tmp_path, 0))[2] is None
    want = check.snapshot(tmp_path, wl)
    qse = tmp_path / "x.qse"
    data = bytearray(qse.read_bytes())
    data[-1] ^= 1
    qse.write_bytes(bytes(data))
    assert check.compare(check.snapshot(tmp_path, wl), want) == ["x.qse"]
    assert any(p.startswith("x.qse:codes") for p in check.oracle(tmp_path, wl, 0))


def test_ssm_report_fields_are_compared_at_the_stated_tolerance():
    want = {"ssm.json": {"seq_len": 64, "output_mse_int8": 2.0}}
    near = {"ssm.json": {"seq_len": 64, "output_mse_int8": 2.0 * (1 + 1e-12)}}
    far = {"ssm.json": {"seq_len": 64, "output_mse_int8": 2.0 * (1 + 1e-6)}}
    assert check.compare(near, want) == []
    assert check.compare(far, want) == ["ssm.json:output_mse_int8"]
