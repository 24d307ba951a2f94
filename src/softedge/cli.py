"""Command-line front end.

Every subcommand is a thin shell over the library; all randomness flows from
explicit --seed flags. Exit codes: 0 success, 1 I/O failure, 2 invalid
input, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import traceback

from . import calibration, codec, metrics, ssm, synth, tensor_io
from .errors import EmptyTensor, InvalidConfig, InvalidParams, IoFailure, ValidationError

SEQ_LEN = 4096  # the ssm stimulus length when --seq-len is not given
SWEEP_COLUMNS = [
    "percentile", "fine_divisor", "coarse_multiplier", "scale", "L", "H",
    "se_mse", "se_sqnr_db", "int8_mse", "int8_sqnr_db", "delta_sqnr_db",
]


def _fmt(v: float) -> str:
    """Compact float formatting: integral values lose the trailing .0."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _given(args, *names) -> dict:
    """The options among ``names`` that the command line set; its parser
    suppresses the rest, so the library applies its own defaults."""
    return {k: v for k, v in vars(args).items() if k in names}


def _load_config(path) -> calibration.QuantConfig:
    try:
        text = tensor_io._read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise InvalidConfig(f"{path}: config is not UTF-8 text: {e}") from e
    return calibration.QuantConfig.from_json(text)


def _write_text(path, text: str):
    tensor_io._write_bytes(path, text.encode("utf-8"))


def cmd_calibrate(args) -> int:
    values = tensor_io.read_tensor(args.input)
    cfg = calibration.calibrate(values, args.percentile, **_given(
        args, "fine_divisor", "coarse_multiplier"))
    _write_text(args.out, cfg.to_json() + "\n")
    print(f"scale={_fmt(cfg.scale)} L={_fmt(cfg.low_threshold)} "
          f"H={_fmt(cfg.high_threshold)}")
    return 0


def cmd_quantize(args) -> int:
    values = tensor_io.read_tensor(args.input)
    cfg = _load_config(args.config)
    q = codec.encode_tensor(values, cfg)
    nbytes = tensor_io.write_packed(args.out, q)
    print(f"n={len(q)} bytes={nbytes}")
    return 0


def cmd_dequantize(args) -> int:
    q = tensor_io.read_packed(args.input)
    if args.config is not None:
        q.config = _load_config(args.config)
    values = codec.decode_tensor(q, dtype="<f4")
    nbytes = tensor_io.write_tensor(args.out, values)
    print(f"n={len(q)} bytes={nbytes}")
    return 0


def cmd_eval(args) -> int:
    values = tensor_io.read_tensor(args.input)
    cfg = _load_config(args.config)
    report = metrics.compare_quantizers(values, cfg)
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    spec = synth.DistSpec(kind=args.dist, n=args.n, seed=args.seed, **_given(
        args, "mean", "std", "outlier_fraction", "outlier_low", "outlier_high",
        "degrees_of_freedom"))
    values = synth.generate(spec, dtype="<f4")
    nbytes = tensor_io.write_tensor(args.out, values)
    print(f"n={spec.n} bytes={nbytes}")
    return 0


def cmd_ssm(args) -> int:
    if args.seq_len is not None and args.seq_len < 1:
        raise InvalidParams(f"--seq-len must be >= 1, got {args.seq_len}")
    cfg = _load_config(args.config)
    params = ssm.make_params(args.state_dim, args.seed)
    if args.input:
        x = tensor_io.read_tensor(args.input)
        if x.size == 0:
            raise EmptyTensor(f"--input {args.input} holds no values")
        if args.seq_len not in (None, x.size):
            raise InvalidParams(f"--seq-len {args.seq_len} differs from the "
                                f"{x.size} values of --input {args.input}")
    else:
        # default stimulus: the outlier mixture, scaled into config units
        n = SEQ_LEN if args.seq_len is None else args.seq_len
        x = synth.generate(synth.DistSpec(
            kind="outlier_mixture", n=n, seed=args.seed, std=cfg.scale * 32.0))
    report = ssm.run_report(params, x, cfg)
    _write_text(args.report, report.to_json() + "\n")
    print(f"se_mse={report.output_mse_soft_edge!r} "
          f"int8_mse={report.output_mse_int8!r}")
    return 0


def cmd_sweep(args) -> int:
    values = tensor_io.read_tensor(args.input)
    rows = metrics.sweep(values, args.percentiles, **_given(
        args, "fine_divisors", "coarse_multipliers"))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for r in rows:
        cfg = r.config
        w.writerow([repr(v) for v in (
            cfg.percentile, cfg.fine_divisor, cfg.coarse_multiplier, cfg.scale,
            cfg.low_threshold, cfg.high_threshold, r.soft_edge.mse,
            r.soft_edge.sqnr_db, r.int8.mse, r.int8.sqnr_db, r.delta_sqnr_db)])
    _write_text(args.out, buf.getvalue())
    print(f"rows={len(rows)}")
    return 0


def cmd_trace(args) -> int:
    cfg = _load_config(args.config)
    t = codec.hardware_trace(args.value, cfg)
    print(
        f"region={t.region.value} step={_fmt(t.selected_step)} "
        f"flag={t.se_flag} byte=0x{t.byte:02X} "
        f"recon={_fmt(t.reconstructed)} err={_fmt(t.abs_error)} "
        f"sign={t.sign_bit} rbit={t.region_bit} mag={t.magnitude}"
    )
    return 0


def _float_list(text: str):
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="softedge",
        description="Three-scale soft-edge activation quantizer toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="percentile-calibrate a scale",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True, help="QSEF calibration tensor")
    p.add_argument("--percentile", type=float, required=True)
    p.add_argument("--fine-divisor", type=float)
    p.add_argument("--coarse-multiplier", type=float)
    p.add_argument("--out", required=True, help="output config JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("quantize", help="encode a QSEF tensor to QSE1")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dequantize", help="decode a QSE1 tensor to QSEF")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None,
                   help="override the embedded config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("eval", help="soft-edge vs INT8 comparison report")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="default: stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic QSEF tensor",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--dist", required=True, choices=synth.KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mean", type=float)
    p.add_argument("--std", type=float)
    p.add_argument("--outlier-fraction", type=float)
    p.add_argument("--outlier-low", type=float)
    p.add_argument("--outlier-high", type=float)
    p.add_argument("--df", type=int, dest="degrees_of_freedom", metavar="DF")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ssm", help="end-to-end SSM error propagation run")
    p.add_argument("--seq-len", type=int, default=None,
                   help=f"stimulus length (default {SEQ_LEN}); with --input, "
                        "if given, it must equal the tensor's length")
    p.add_argument("--state-dim", type=int, default=16)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--input", default=None,
                   help="QSEF stimulus; default: seeded outlier mixture")
    p.add_argument("--report", required=True, help="output report JSON")
    p.set_defaults(func=cmd_ssm)

    p = sub.add_parser("sweep", help="grid sweep over calibration settings",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--percentiles", type=_float_list, required=True,
                   help="comma-separated")
    p.add_argument("--fine-divisors", type=_float_list, help="comma-separated")
    p.add_argument("--coarse-multipliers", type=_float_list,
                   help="comma-separated")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="single-value datapath trace")
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_trace)

    return ap


# Built once per process: each add_argument builds a HelpFormatter, and
# parsing leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except IoFailure as e:
        print(str(e), file=sys.stderr)
        return 1
    except ValidationError as e:
        print(str(e), file=sys.stderr)
        return 2
    except MemoryError as e:  # a size within bounds can still be too large
        print(f"input does not fit in memory: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a defect in this program
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
