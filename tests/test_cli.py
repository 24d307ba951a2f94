"""Differential tests: every subcommand is a thin shell over the library."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softedge as se
from softedge import cli
from softedge.calibration import CODEC_FIELDS
from softedge.cli import SWEEP_COLUMNS, main
from softedge.errors import ValidationError
from softedge.synth import DistSpec, generate


@pytest.fixture
def mixture_file(tmp_path):
    p = tmp_path / "mix.qsef"
    se.write_tensor(p, generate(DistSpec(kind="outlier_mixture", n=20_000, seed=7)))
    return p


@pytest.fixture
def unit_cfg_file(tmp_path):
    p = tmp_path / "unit.json"
    p.write_text(se.derive_config(1.0).to_json())
    return p


def run(*argv):
    return main([str(a) for a in argv])


class TestCalibrate:
    def test_matches_library(self, tmp_path, mixture_file, capsys):
        out = tmp_path / "cfg.json"
        assert run("calibrate", "--input", mixture_file,
                   "--percentile", "99.99", "--out", out) == 0
        cfg = se.QuantConfig.from_json(out.read_text())
        t = se.read_tensor(mixture_file)
        assert cfg == se.calibrate(t, 99.99)
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"scale={cfg.scale!r}")

    def test_simple_scale(self, tmp_path, capsys):
        inp = tmp_path / "t.qsef"
        se.write_tensor(inp, np.arange(1, 101, dtype=float))
        out = tmp_path / "cfg.json"
        assert run("calibrate", "--input", inp, "--percentile", "100",
                   "--out", out) == 0
        assert se.QuantConfig.from_json(out.read_text()).scale == 100.0 / 127.0

    def test_empty_tensor_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "empty.qsef"
        se.write_tensor(inp, [])
        rc = run("calibrate", "--input", inp, "--percentile", "99",
                 "--out", tmp_path / "cfg.json")
        assert rc == 2
        assert "cannot take a percentile of an empty tensor" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        rc = run("calibrate", "--input", tmp_path / "nope.qsef",
                 "--percentile", "99", "--out", tmp_path / "cfg.json")
        assert rc == 1


class TestQuantizeDequantize:
    def test_round_trip_equals_fake_quant(self, tmp_path, mixture_file,
                                          unit_cfg_file):
        packed = tmp_path / "t.qse"
        back = tmp_path / "back.qsef"
        assert run("quantize", "--input", mixture_file,
                   "--config", unit_cfg_file, "--out", packed) == 0
        assert run("dequantize", "--input", packed, "--out", back) == 0
        t = se.read_tensor(mixture_file)
        want = se.fake_quant(t, se.derive_config(1.0), "soft_edge")
        got = se.read_tensor(back)
        assert np.float32(got).tobytes() == want.tobytes()

    def test_dequantize_config_override(self, tmp_path, mixture_file,
                                        unit_cfg_file):
        packed, back = tmp_path / "t.qse", tmp_path / "back.qsef"
        other = se.derive_config(0.37, fine_divisor=2, coarse_multiplier=8)
        override = tmp_path / "other.json"
        override.write_text(other.to_json())
        assert run("quantize", "--input", mixture_file,
                   "--config", unit_cfg_file, "--out", packed) == 0
        assert run("dequantize", "--input", packed, "--config", override,
                   "--out", back) == 0
        q = se.read_packed(packed)
        q.config = other
        want = se.decode_tensor(q).astype(np.float32)
        assert np.float32(se.read_tensor(back)).tobytes() == want.tobytes()
        assert not np.array_equal(want, se.fake_quant(
            se.read_tensor(mixture_file), se.derive_config(1.0)))

    def test_bad_config_exit_2(self, tmp_path, mixture_file):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scale": 1.0}')
        rc = run("quantize", "--input", mixture_file, "--config", bad,
                 "--out", tmp_path / "o.qse")
        assert rc == 2


# Per subcommand, each documented failure exit code: 1 for a file that
# cannot be read or written, 2 for invalid input. {name} is a path the test
# provides; an optional third entry is text the error message must contain.
_MALFORMED = {
    "synth-unwritable_out":
        ("synth --dist gaussian --n 10 --seed 1 --out {nodir}", 1),
    "synth-negative_n":
        ("synth --dist gaussian --n -1 --seed 1 --out {out}", 2),
    "synth-beyond_binary32":
        ("synth --dist gaussian --n 10 --seed 1 --std 1e39 --out {out}", 2),
    "synth-beyond_binary64":
        ("synth --dist gaussian --n 1000 --seed 1 --std 1e308 --out {out}", 2),
    "synth-lognormal_beyond_binary64":
        ("synth --dist lognormal --n 4 --seed 1 --mean 1000 --out {out}", 2),
    "synth-n_beyond_intp":
        ("synth --dist gaussian --n 18446744073709551616 --seed 1 --out {out}", 2,
         "n must be in [0, "),
    "synth-n_bytes_beyond_intp":  # 2**62 elements, 2**65 bytes of float64
        ("synth --dist gaussian --n 4611686018427387904 --seed 1 --out {out}", 2,
         "n must be in [0, "),
    "synth-n_beyond_memory":  # 2**50 elements: no allocator grants 8 PiB
        ("synth --dist gaussian --n 1125899906842624 --seed 1 --out {out}", 2,
         "does not fit in memory"),
    "synth-df_beyond_bound":
        ("synth --dist student_t --df 100000000000 --n 4 --seed 1 --out {out}", 2,
         "degrees_of_freedom must be in [1, 1024]"),
    "synth-infinite_outlier_low":
        ("synth --dist outlier_mixture --n 10000 --seed 1 --outlier-low=-inf "
         "--out {out}", 2, "finite"),
    "calibrate-missing_input":
        ("calibrate --input {missing} --percentile 99 --out {out}", 1),
    "calibrate-zero_percentile":
        ("calibrate --input {mix} --percentile 0 --out {out}", 2),
    "quantize-missing_config":
        ("quantize --input {mix} --config {missing} --out {out}", 1),
    "quantize-bad_config":
        ("quantize --input {mix} --config {badcfg} --out {out}", 2),
    "quantize-zero_fine_step":
        ("quantize --input {mix} --config {tinycfg} --out {out}", 2, "steps"),
    "dequantize-missing_input":
        ("dequantize --input {missing} --out {out}", 1),
    "dequantize-corrupt_qse":
        ("dequantize --input {corrupt} --out {out}", 2),
    "dequantize-beyond_binary32":
        ("dequantize --input {huge} --out {out}", 2),
    "dequantize-zero_fine_step_block":
        ("dequantize --input {tinyqse} --out {out}", 2, "steps"),
    "dequantize-count_beyond_file":  # 2**60 elements in a 56-byte file
        ("dequantize --input {hugecountqse} --out {out}", 2,
         "header says 1152921504606846976 elements, payload holds 40 bytes"),
    "dequantize-nonzero_pad_bits":
        ("dequantize --input {padbits} --out {out}", 2, "pad bit"),
    "dequantize-negative_zero_past_first_block":  # index 2**15 + 3
        ("dequantize --input {negzero} --out {out}", 2, "at index 32771"),
    "eval-missing_config":
        ("eval --input {mix} --config {missing} --out {out}", 1),
    "eval-empty_input":
        ("eval --input {empty} --config {cfg} --out {out}", 2),
    "eval-count_beyond_file":  # 2**60 elements in a 16-byte file
        ("eval --input {hugecount} --config {cfg} --out {out}", 2,
         "header says 1152921504606846976 elements, payload holds 0"),
    "eval-trailing_bytes":
        ("eval --input {trailing} --config {cfg} --out {out}", 2,
         "header says 8 elements, payload holds 8"),
    "sweep-missing_input":
        ("sweep --input {missing} --percentiles 99 --out {out}", 1),
    "sweep-empty_input":
        ("sweep --input {empty} --percentiles 99 --out {out}", 2),
    "sweep-zero_after_valid_percentile":
        ("sweep --input {mix} --percentiles 99,0 --out {out}", 2,
         "percentile must be in (0, 100], got 0.0"),
    "sweep-all_zero_input":
        ("sweep --input {zeros} --percentiles 99 --out {out}", 2,
         "all-zero calibration data"),
    "sweep-fine_divisor_below_one":
        ("sweep --input {mix} --percentiles 99 --fine-divisors 0.5 --out {out}",
         2, "fine_divisor and coarse_multiplier must be >= 1"),
    "sweep-degenerate_before_out_of_range":
        ("sweep --input {zeros} --percentiles 50,0 --out {out}", 2,
         "all-zero calibration data"),
    "ssm-quantized_input_beyond_binary32":  # the stimulus itself is finite
        ("ssm --seq-len 100 --seed 1 --config {bigscalecfg} --report {out}", 2,
         "soft_edge"),
    "ssm-missing_config":
        ("ssm --seed 1 --config {missing} --report {out}", 1),
    "ssm-zero_seq_len":
        ("ssm --seq-len 0 --seed 1 --config {cfg} --report {out}", 2,
         "--seq-len"),
    "ssm-empty_input":
        ("ssm --seed 1 --config {cfg} --input {empty} --report {out}", 2,
         "--input"),
    "ssm-seq_len_differs_from_input":  # {mix} holds 20,000 values
        ("ssm --seq-len 5 --seed 1 --config {cfg} --input {mix} --report {out}",
         2, "--seq-len 5 differs from the 20000 values"),
    "ssm-zero_state_dim":
        ("ssm --state-dim 0 --seed 1 --config {cfg} --report {out}", 2),
    "ssm-seq_len_beyond_intp":
        ("ssm --seq-len 18446744073709551616 --seed 1 --config {cfg} "
         "--report {out}", 2, "n must be in [0, "),
    "ssm-state_dim_beyond_intp":
        ("ssm --state-dim 18446744073709551616 --seed 1 --config {cfg} "
         "--report {out}", 2, "state_dim must be in [1, "),
    "ssm-state_dim_bytes_beyond_intp":
        ("ssm --state-dim 4611686018427387904 --seed 1 --config {cfg} "
         "--report {out}", 2, "state_dim must be in [1, "),
    "ssm-state_dim_beyond_power_table":  # SIZE_MAX, 2**60 - 1
        ("ssm --state-dim 1152921504606846975 --seed 1 --config {cfg} "
         "--report {out}", 2, "state_dim must be in [1, "),
    "ssm-seq_len_beyond_memory":
        ("ssm --seq-len 1125899906842624 --seed 1 --config {cfg} "
         "--report {out}", 2, "does not fit in memory"),
    "ssm-state_dim_beyond_memory":
        ("ssm --state-dim 1125899906842624 --seed 1 --config {cfg} "
         "--report {out}", 2, "does not fit in memory"),
    "trace-missing_config":
        ("trace --value 1.0 --config {missing}", 1),
    "trace-nan_value":
        ("trace --value nan --config {cfg}", 2),
    "trace-infinite_coarse_step":
        ("trace --value 2000 --config {hugecfg}", 2, "steps"),
    "trace-non_utf8_config":
        ("trace --value 1 --config {binarycfg}", 2, "UTF-8"),
    "trace-fine_divisor_below_one":
        ("trace --value 1 --config {lowdivcfg}", 2,
         "fine_divisor and coarse_multiplier must be >= 1"),
}

# A fine step that underflows to 0 and a coarse step that overflows to inf.
_TINY_STEP = (1e-300, 1e-310, 1.27e-298, 1e300, 4.0)
_HUGE_STEP = (10.0, 40.0, 1270.0, 4.0, 1e308)


# A tensor that fits binary32 and a config whose reconstruction of it does not.
_BEYOND_BINARY32 = ([1.0, 3.4e38], se.derive_config(2e38))


class TestMalformedInput:
    @pytest.mark.parametrize("row", _MALFORMED.values(), ids=_MALFORMED)
    def test_subcommand_exit_code(self, tmp_path, mixture_file, unit_cfg_file,
                                  row, capsys):
        argv, code, *message = row
        paths = {"mix": mixture_file, "cfg": unit_cfg_file,
                 "missing": tmp_path / "missing", "out": tmp_path / "out",
                 "nodir": tmp_path / "nodir" / "out",
                 "badcfg": tmp_path / "bad.json", "empty": tmp_path / "empty.qsef",
                 "zeros": tmp_path / "zeros.qsef",
                 "corrupt": tmp_path / "corrupt.qse", "huge": tmp_path / "huge.qse",
                 "tinycfg": tmp_path / "tiny.json", "hugecfg": tmp_path / "hc.json",
                 "bigscalecfg": tmp_path / "bigscale.json",
                 "tinyqse": tmp_path / "tiny.qse", "binarycfg": tmp_path / "bin.json",
                 "lowdivcfg": tmp_path / "lowdiv.json",
                 "hugecount": tmp_path / "huge.qsef",
                 "trailing": tmp_path / "trailing.qsef",
                 "hugecountqse": tmp_path / "hugecount.qse",
                 "padbits": tmp_path / "padbits.qse",
                 "negzero": tmp_path / "negzero.qse"}
        paths["badcfg"].write_text('{"scale": 1.0}')
        for key, fields in (("tinycfg", _TINY_STEP), ("hugecfg", _HUGE_STEP),
                            ("lowdivcfg", (1.0, 1.0, 127.0, 0.5, 4.0))):
            paths[key].write_text(json.dumps(dict(zip(CODEC_FIELDS, fields))))
        paths["tinyqse"].write_bytes(se.tensor_io.HEADER.pack(b"QSE1", 1, 0)
                                     + se.tensor_io.CONFIG_FIELDS.pack(*_TINY_STEP))
        paths["binarycfg"].write_bytes(b"\xff{}")
        paths["bigscalecfg"].write_text(se.derive_config(1e36).to_json())
        se.write_tensor(paths["empty"], [])
        se.write_tensor(paths["zeros"], np.zeros(8))
        paths["hugecount"].write_bytes(se.tensor_io.HEADER.pack(b"QSEF", 1, 2**60))
        paths["trailing"].write_bytes(paths["zeros"].read_bytes() + b"\0")
        paths["hugecountqse"].write_bytes(
            se.tensor_io.HEADER.pack(b"QSE1", 1, 2**60)
            + se.tensor_io.CONFIG_FIELDS.pack(*se.derive_config(1.0).codec_fields))
        # bit 7 of a 3-element bitmap byte is a pad bit
        se.write_packed(paths["padbits"],
                        se.encode_tensor([1.0, -2.0, 300.0], se.derive_config(1.0)))
        raw = bytearray(paths["padbits"].read_bytes())
        raw[56] |= 0x80
        paths["padbits"].write_bytes(raw)
        paths["corrupt"].write_bytes(b"QSE1\x01\x00\x00\x00" + b"\xff" * 10)
        # the negative-zero code (flag 1, byte 0x80) in the second block
        flags, codes = np.ones(2**15 + 8, bool), np.zeros(2**15 + 8, np.uint8)
        codes[2**15 + 3] = 0x80
        se.write_packed(paths["negzero"], se.QuantizedTensor(
            se.derive_config(1.0), flags, codes))
        # 3.4e38 encodes to the fine code 3.5e38, beyond binary32
        se.write_packed(paths["huge"], se.encode_tensor(*_BEYOND_BINARY32))
        assert run(*argv.format(**paths).split()) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(m in err for m in message)
        assert not paths["out"].exists()

    @pytest.mark.parametrize("argv", [
        "calibrate --input {mix} --percentile 99 --out {out}",
        "quantize --input {mix} --config {cfg} --out {out}",
        "dequantize --input {qse} --out {out}",
        "eval --input {mix} --config {cfg} --out {out}",
        "sweep --input {mix} --percentiles 99 --out {out}",
        "ssm --seed 1 --config {cfg} --input {mix} --report {out}",
    ], ids=lambda argv: argv.split()[0])
    def test_input_that_shrinks_while_read_exit_2(self, tmp_path, mixture_file,
                                                  unit_cfg_file, argv, capsys,
                                                  shrinking_reads):
        qse, out = tmp_path / "t.qse", tmp_path / "out"
        se.write_packed(qse, se.encode_tensor([1.0, -2.0], se.derive_config(1.0)))
        assert run(*argv.format(mix=mixture_file, cfg=unit_cfg_file, qse=qse,
                                out=out).split()) == 2
        assert "file shrank while it was read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        se.derive_config(1.0).to_json().replace('"scale": 1.0', '"scale": "abc"'),
        se.derive_config(1.0).to_json().replace('"scale": 1.0', '"scale": null'),
        "[1, 2, 3]",
    ], ids=["string_field", "null_field", "array_document"])
    def test_malformed_config_exit_2(self, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("trace", "--value", "1.0", "--config", bad) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unexpected_exception_exit_3(self, unit_cfg_file, monkeypatch,
                                         capsys):
        def broken(x, cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(se.codec, "hardware_trace", broken)
        assert run("trace", "--value", "1.0", "--config", unit_cfg_file) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    def test_failed_write_keeps_previous_output(self, tmp_path, mixture_file,
                                                unit_cfg_file, monkeypatch):
        out = tmp_path / "r.json"
        out.write_text("previous")

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        assert run("eval", "--input", mixture_file, "--config", unit_cfg_file,
                   "--out", out) == 1
        assert out.read_text() == "previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "mix.qsef", "r.json", "unit.json"]


class TestEval:
    def test_json_matches_library(self, tmp_path, mixture_file, unit_cfg_file):
        out = tmp_path / "r.json"
        assert run("eval", "--input", mixture_file, "--config", unit_cfg_file,
                   "--format", "json", "--out", out) == 0
        t = se.read_tensor(mixture_file)
        want = se.compare_quantizers(t, se.derive_config(1.0)).to_dict()
        assert json.loads(out.read_text()) == want

    def test_reconstruction_beyond_binary32_reads_inf(self, tmp_path, capsys):
        values, cfg = _BEYOND_BINARY32
        inp, cfg_file = tmp_path / "t.qsef", tmp_path / "cfg.json"
        se.write_tensor(inp, values)
        cfg_file.write_text(cfg.to_json())
        assert run("eval", "--input", inp, "--config", cfg_file) == 0
        out, err = capsys.readouterr()
        quantizers = json.loads(out)["quantizers"]
        assert [quantizers[q]["mse"] for q in ("soft_edge", "int8")] == [
            "inf", "inf"]
        assert err == ""

    def test_csv_to_stdout(self, mixture_file, unit_cfg_file, capsys):
        assert run("eval", "--input", mixture_file, "--config", unit_cfg_file,
                   "--format", "csv") == 0
        out = capsys.readouterr().out
        assert out.startswith("kind,name,count,fraction,mse")


class TestSynth:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "g.qsef"
        assert run("synth", "--dist", "gaussian", "--n", "1000",
                   "--seed", "42", "--out", out) == 0
        want = generate(DistSpec(kind="gaussian", n=1000, seed=42))
        got = se.read_tensor(out)
        assert got.tobytes() == np.float32(want).tobytes()

    def test_invalid_spec_exit_2(self, tmp_path):
        rc = run("synth", "--dist", "gaussian", "--n", "10", "--seed", "1",
                 "--std", "0", "--out", tmp_path / "x.qsef")
        assert rc == 2


class TestSsm:
    def test_writes_report(self, tmp_path, unit_cfg_file):
        rep = tmp_path / "rep.json"
        assert run("ssm", "--seq-len", "512", "--state-dim", "8",
                   "--seed", "7", "--config", unit_cfg_file,
                   "--report", rep) == 0
        doc = json.loads(rep.read_text())
        assert doc["seq_len"] == 512 and doc["state_dim"] == 8

    def test_deterministic_reports(self, tmp_path, unit_cfg_file):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for rep in (r1, r2):
            assert run("ssm", "--seq-len", "512", "--state-dim", "8",
                       "--seed", "7", "--config", unit_cfg_file,
                       "--report", rep) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_explicit_input(self, tmp_path, mixture_file, unit_cfg_file):
        rep = tmp_path / "rep.json"
        assert run("ssm", "--state-dim", "4", "--seed", "3",
                   "--config", unit_cfg_file, "--input", mixture_file,
                   "--report", rep) == 0
        assert json.loads(rep.read_text())["seq_len"] == 20_000

    def test_input_with_its_own_seq_len(self, tmp_path, mixture_file,
                                        unit_cfg_file):
        reps = [tmp_path / "given.json", tmp_path / "left_out.json"]
        for rep, seq_len in zip(reps, (["--seq-len", "20000"], [])):
            assert run("ssm", *seq_len, "--state-dim", "4", "--seed", "3",
                       "--config", unit_cfg_file, "--input", mixture_file,
                       "--report", rep) == 0
        assert reps[0].read_bytes() == reps[1].read_bytes()


class TestSweep:
    def test_row_count_and_schema(self, tmp_path, mixture_file):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--input", mixture_file,
                   "--percentiles", "99.99,99.999",
                   "--fine-divisors", "2,4",
                   "--coarse-multipliers", "4",
                   "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("percentile,fine_divisor,coarse_multiplier,scale,"
                            "L,H,se_mse,se_sqnr_db,int8_mse,int8_sqnr_db,"
                            "delta_sqnr_db")
        assert len(lines) == 1 + 2 * 2 * 1

    def test_cells_match_library(self, tmp_path, mixture_file):
        out = tmp_path / "sweep.csv"
        run("sweep", "--input", mixture_file, "--percentiles", "99.99",
            "--out", out)
        row = out.read_text().strip().split("\n")[1].split(",")
        t = se.read_tensor(mixture_file)
        cfg = se.calibrate(t, 99.99)
        r = se.compare_quantizers(t, cfg)
        assert float(row[3]) == cfg.scale
        assert float(row[6]) == r.soft_edge.mse
        assert float(row[10]) == r.delta_sqnr_db

    @pytest.mark.parametrize("flag", ["--percentiles", "--fine-divisors",
                                      "--coarse-multipliers"])
    @pytest.mark.parametrize("text", [",", " , ", ""])
    def test_empty_list_exit_2(self, tmp_path, mixture_file, flag, text,
                               capsys):
        # an empty grid would write a CSV of the header alone
        out = tmp_path / "sweep.csv"
        argv = {"--percentiles": "99", "--out": out, flag: text}
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--input", mixture_file,
                *[a for kv in argv.items() for a in kv])
        assert exc.value.code == 2
        assert f"argument {flag}: no number in" in capsys.readouterr().err
        assert not out.exists()


def _sweep_by_rows(values, percentiles, fine_divisors, coarse_multipliers):
    """The sweep CSV built row by row from calibrate and compare_quantizers."""
    lines = [",".join(SWEEP_COLUMNS)]
    for p in percentiles:
        for fd in fine_divisors:
            for cm in coarse_multipliers:
                cfg = se.calibrate(values, p, fd, cm)
                r = se.compare_quantizers(values, cfg)
                lines.append(",".join(repr(v) for v in (
                    p, fd, cm, cfg.scale, cfg.low_threshold, cfg.high_threshold,
                    r.soft_edge.mse, r.soft_edge.sqnr_db, r.int8.mse,
                    r.int8.sqnr_db, r.delta_sqnr_db)))
    return "\n".join(lines) + "\n"


# Binary32 values with ties, zeros, subnormals and the largest finite values.
_SWEEP_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-45, -1e-40, 3.4028235e38,
                     -3.4e38]) | st.floats(width=32, allow_nan=False,
                                           allow_infinity=False),
    min_size=1, max_size=10)
_GRID_AXIS = st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
                      min_size=1, max_size=3)
_PERCENTILES = st.lists(st.sampled_from([50.0, 99.9, 100.0])
                        | st.floats(0, 100, exclude_min=True),
                        min_size=1, max_size=3)


@settings(deadline=None, max_examples=60)
@given(values=_SWEEP_VALUES, percentiles=_PERCENTILES, fine=_GRID_AXIS,
       coarse=_GRID_AXIS)
@example(values=[3.0], percentiles=[100.0, 100.0], fine=[4.0], coarse=[4.0])
@example(values=[0.0, 1e-45], percentiles=[50.0, 100.0], fine=[1.0, 2.0],
         coarse=[8.0])
@example(values=[3.4028235e38, -3.4028235e38], percentiles=[99.9, 100.0],
         fine=[1.0], coarse=[8.0, 1.0, 4.0])
def test_sweep_equals_per_row_composition(values, percentiles, fine, coarse):
    with tempfile.TemporaryDirectory() as d:
        inp, out = Path(d) / "t.qsef", Path(d) / "sweep.csv"
        se.write_tensor(inp, values)
        values = se.read_tensor(inp)
        try:
            want = _sweep_by_rows(values, percentiles, fine, coarse)
        except ValidationError as e:
            want = e
        argv = ["sweep", "--input", inp, "--out", out]
        for flag, axis in (("--percentiles", percentiles),
                           ("--fine-divisors", fine),
                           ("--coarse-multipliers", coarse)):
            argv += [flag, ",".join(repr(v) for v in axis)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(*argv)
        if isinstance(want, ValidationError):
            assert (code, err.getvalue()) == (2, f"{want}\n")
            assert not out.exists()
        else:
            assert code == 0
            assert out.read_bytes() == want.encode()


# Each pipeline stage at 2**20 elements: {x} is written by synth, {cfg} by
# calibrate and {qse} by quantize.
_STAGES = {
    "synth": "synth --dist outlier_mixture --n {n} --seed 0 --out {x}",
    "calibrate": "calibrate --input {x} --percentile 99.99 --out {cfg}",
    "quantize": "quantize --input {x} --config {cfg} --out {qse}",
    "dequantize": "dequantize --input {qse} --out {out}",
    "eval": "eval --input {x} --config {cfg} --out {out}",
    "sweep": "sweep --input {x} --percentiles 99.9,99.99,100 "
             "--fine-divisors 2,4 --out {out}",
}


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("stages")
    paths = {k: d / k for k in ("x", "cfg", "qse", "out")}
    for stage in ("synth", "calibrate", "quantize"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*_STAGES[stage].format(n=1 << 20, **paths).split()) == 0
    return paths


@pytest.mark.parametrize("stage", _STAGES)
def test_stage_peak_memory_per_element(stage_files, stage):
    # binary32 end to end: a stage holds its binary32 payload (4 B/elem) and
    # at most as much again (the key, flags and codes of quantize, the
    # binary32 sort of |x| in calibrate and sweep); float64 lives only in
    # block-sized scratch
    n = 1 << 20
    argv = _STAGES[stage].format(n=n, **stage_files).split()
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert run(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / n <= 8.5


class TestTrace:
    def test_outlier_line(self, tmp_path, unit_cfg_file, capsys):
        assert run("trace", "--value", "200.0", "--config", unit_cfg_file) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "region=Large step=4 flag=1 byte=0x52 recon=199 err=1"
        )

    def test_matches_library(self, unit_cfg_file, capsys):
        assert run("trace", "--value", "-0.3", "--config", unit_cfg_file) == 0
        out = capsys.readouterr().out
        t = se.hardware_trace(-0.3, se.derive_config(1.0))
        assert f"byte=0x{t.byte:02X}" in out
        assert f"region={t.region.value}" in out


# Runs in which an option is set and then left out, with an argparse error
# (exit 2 through SystemExit) after each: one process parses every run with
# the one parser, and must write what a fresh process writes for each.
_PARSER_RUNS = [
    "synth --dist gaussian --n 1000 --seed 3 --std 2 --out {dir}/a.qsef",
    "synth --dist nope --n 1000 --seed 3 --out {dir}/x.qsef",
    "synth --dist gaussian --n 1000 --seed 3 --out {dir}/b.qsef",
    "calibrate --input {dir}/a.qsef --percentile 99 --fine-divisor 2 "
    "--out {dir}/c.json",
    "calibrate --input {dir}/a.qsef --percentile many --out {dir}/x.json",
    "calibrate --input {dir}/a.qsef --percentile 99 --out {dir}/d.json",
]


def test_one_parser_writes_what_fresh_processes_write(tmp_path, capsys):
    one, fresh = tmp_path / "one", tmp_path / "fresh"
    one.mkdir()
    fresh.mkdir()
    cli._parser.cache_clear()
    codes = []
    for argv in _PARSER_RUNS:
        try:
            codes.append(run(*argv.format(dir=one).split()))
        except SystemExit as e:
            codes.append(e.code)
    assert cli._parser.cache_info().misses == 1
    stdout = capsys.readouterr().out
    src = str(Path(se.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh_codes, fresh_stdout = [], ""
    for argv in _PARSER_RUNS:
        done = subprocess.run(
            [sys.executable, "-m", "softedge.cli",
             *argv.format(dir=fresh).split()],
            env=env, capture_output=True, text=True, timeout=120)
        fresh_codes.append(done.returncode)
        fresh_stdout += done.stdout
    assert codes == fresh_codes == [0, 2, 0, 0, 2, 0]
    assert stdout == fresh_stdout
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir()) == [
        "a.qsef", "b.qsef", "c.json", "d.json"]
    for name in names:
        assert (one / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (one / "a.qsef").read_bytes() != (one / "b.qsef").read_bytes()
    assert (one / "c.json").read_bytes() != (one / "d.json").read_bytes()


# Every subcommand form that reads a QSEF tensor ({t}), a QSE1 tensor ({q})
# or a config ({c}), with the inputs it reads.
_FUZZ_FORMS = {
    "calibrate": ("calibrate --input {t} --percentile 99 --out {out}", "t"),
    "quantize": ("quantize --input {t} --config {c} --out {out}", "tc"),
    "dequantize": ("dequantize --input {q} --out {out}", "q"),
    "dequantize_config": ("dequantize --input {q} --config {c} --out {out}",
                          "qc"),
    "eval_json": ("eval --input {t} --config {c} --out {out}", "tc"),
    "eval_csv": ("eval --input {t} --config {c} --format csv --out {out}",
                 "tc"),
    "sweep": ("sweep --input {t} --percentiles 90,100 --out {out}", "t"),
    "ssm": ("ssm --input {t} --config {c} --seed 1 --state-dim 4 "
            "--report {out}", "tc"),
    "trace": ("trace --value 3.0 --config {c}", "c"),
}
# Byte edits of a valid file: (op, position, byte); positions wrap.
_BYTE_EDITS = st.lists(st.tuples(
    st.sampled_from(["set", "insert", "delete", "truncate"]),
    st.integers(0, 1 << 10), st.integers(0, 255)), max_size=3)
# A config field set to a value of the wrong sign, size or type.
_FIELD_EDITS = st.none() | st.tuples(
    st.sampled_from([*CODEC_FIELDS, "percentile", "calib_count"]),
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 0.5, 127.0, 1e39, 1e300,
                     math.inf, math.nan, "1", None, True, [1.0]]))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The bytes of a valid QSEF tensor, its QSE1 encoding and its config."""
    d = tmp_path_factory.mktemp("fuzz")
    x = generate(DistSpec(kind="outlier_mixture", n=100, seed=3))
    cfg = se.calibrate(x, 99)
    se.write_tensor(d / "t", x)
    se.write_packed(d / "q", se.encode_tensor(x, cfg))
    (d / "c").write_text(cfg.to_json())
    return {k: (d / k).read_bytes() for k in "tqc"}


def _mutate(raw: bytes, edits, field) -> bytes:
    if field is not None:
        doc = json.loads(raw)
        doc[field[0]] = field[1]
        raw = json.dumps(doc).encode()
    b = bytearray(raw)
    for op, pos, byte in edits:
        pos %= len(b) + 1
        if op == "set":
            b[pos:pos + 1] = bytes([byte])
        elif op == "insert":
            b[pos:pos] = bytes([byte])
        else:
            del b[pos:pos + 1 if op == "delete" else len(b)]
    return bytes(b)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(form=st.sampled_from(sorted(_FUZZ_FORMS)), data=st.data())
def test_mutated_inputs_exit_0_1_or_2(fuzz_inputs, form, data):
    """A QSEF, QSE1 or config file with bytes set, inserted, deleted or cut
    off, or a config field set to a bad value, exits 0, 1 or 2, never 3; a
    failed stage leaves no file at its --out and no temporary file. A
    warning is an error under the warnings-as-errors gate, so it exits 3."""
    argv, reads = _FUZZ_FORMS[form]
    target = data.draw(st.sampled_from(reads))
    edits = data.draw(_BYTE_EDITS)
    field = data.draw(_FIELD_EDITS) if target == "c" else None
    with tempfile.TemporaryDirectory() as d:
        paths = {"out": Path(d, "out")}
        for key, raw in fuzz_inputs.items():
            paths[key] = Path(d, key)
            paths[key].write_bytes(
                _mutate(raw, edits, field) if key == target else raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv.format(**paths).split())
        assert code in (0, 1, 2), err.getvalue()
        assert code == 0 or not paths["out"].exists()
        assert not list(Path(d).glob("*.tmp"))
