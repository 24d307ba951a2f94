#!/usr/bin/env python3
"""softedge benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload pipeline_4m --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 1

Each iteration calls softedge.cli.main(argv) in-process, once per stage, so
interpreter start-up stays out of the timings; no threads are added. Set-up
(writing the inputs and one warm-up iteration) is repeated SETUP_REPEATS
times; then iterations run until --seconds is used up. Every iteration's
outputs are checked (see check.py); a failed check fails the iteration.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics from the traced ones (see spans.py). Both print a metric table,
then a run-record line, and as the last line the result object:
{"correct", "attempted", "failed", "metrics"}. The run record, the metrics
and (traced) every span are also written to .bench_out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3


def run_iteration(cli, argvs) -> tuple[float, float, str | None]:
    """Run the stages once; returns (wall s, process CPU s, error or None).

    `cli.main` is looked up on every call so a traced pass sees the wrapper.
    """
    sink = io.StringIO()
    err = None
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            for argv in argvs:
                rc = cli.main(argv)
                if rc != 0:
                    err = f"{argv[0]} exited {rc}\n"
                    break
        except (Exception, SystemExit):
            err = traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, err and err + sink.getvalue()[-2000:]


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, check the warm-up outputs, then loop for `seconds`."""
    import check
    import spans
    from softedge import cli

    OUT.mkdir(exist_ok=True)
    want = check.frozen(wl, seed)
    reference = "frozen" if want else "oracle"
    problems, setup_s, work = [], [], None
    try:
        for _ in range(SETUP_REPEATS):
            if work:
                shutil.rmtree(work)
            t0 = time.perf_counter()
            work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
            # the workload's inputs, then one warm-up iteration
            _, _, err = run_iteration(
                cli, wl.setup_argvs(work, seed) + wl.stage_argvs(work, seed))
            if err:
                raise RuntimeError(f"set-up failed: {err}")
            setup_s.append(time.perf_counter() - t0)
            snap = check.snapshot(work, wl)
            want = want or snap
            problems += check.compare(snap, want)
        problems += check.oracle(work, wl, seed)

        stages = wl.stage_argvs(work, seed)
        recorder = spans.Recorder(spans.layer_functions()) if trace else None
        walls, cpus, traced_walls = [], [], []
        attempted = failed = 0
        t_start = time.perf_counter()
        while (attempted < MIN_ITERATIONS or time.perf_counter() - t_start
               + statistics.median(walls + traced_walls) <= seconds):
            traced = trace and attempted % 2 == 1
            with recorder.tracing(attempted) if traced else contextlib.nullcontext():
                wall, cpu, err = run_iteration(cli, stages)
            (traced_walls if traced else walls).append(wall)
            cpus.append(cpu)
            attempted += 1
            try:
                bad = [err] if err else check.compare(check.snapshot(work, wl), want)
            except (OSError, ValueError) as e:
                bad = [repr(e)]
            if bad or problems:  # matching a bad reference is no better
                failed += 1
                print(f"iteration {attempted} failed: {bad or problems}",
                      file=sys.stderr)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            metrics = spans.layer_metrics(recorder.spans, traced_walls)
            metrics["codec.small_frac"], metrics["codec.large_frac"] = \
                wl.occupancy(work, seed)
            metrics["trace_overhead_frac"] = (
                statistics.median(traced_walls) / statistics.median(walls) - 1)
            samples = {"traced_iterations": len(traced_walls),
                       "untraced_iterations": len(walls)}
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "iter_s": statistics.median(walls),
                "melem_per_s": wl.passes * wl.n * len(walls) / sum(walls) / 1e6,
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": peak_rss_mb,
            }
            samples = {"setup_s": len(setup_s), "iter_s": len(walls),
                       "melem_per_s": len(walls), "cpu_s": len(cpus),
                       "peak_rss_mb": 1}
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "reference": reference,
        "spans": [asdict(s) for s in recorder.spans] if trace else None,
    }


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(wl, args, res: dict) -> dict:
    """What a number needs beside it to be compared with another."""
    import numpy

    return {
        "workload": wl.name,
        "n": wl.n,
        "elements_per_iteration": wl.passes * wl.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "samples": res["samples"],
        "fail_ratio": res["failed"] / res["attempted"],
        "reference": res["reference"],
        "problems": res["problems"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
    }


def run_all(names, args) -> int:
    """Every workload in a fresh process, one after another."""
    results, worst = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode == 0:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(names, args)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import softedge.cli  # noqa: F401
        import workloads
    except ImportError as e:
        print(f"cannot import softedge from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(softedge.cli.__file__).resolve().is_relative_to(SRC):
        print(f"softedge resolves outside {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    wl = workloads.WORKLOADS[args.workload]
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        res["metrics"]["setup_s"] += import_s
    record = run_record(wl, args, res)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": not res["problems"] and res["failed"] == 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}

    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"record": record, "result": result, "spans": res["spans"]}, f)
    for name, m in metrics.items():
        n = record["samples"].get(name, record["samples"].get("traced_iterations"))
        print(f"{wl.name:12s} {name:44s} {m['value']:>16.6g} {m['unit']:8s} n={n}")
    print(f"{wl.name:12s} {'fail_ratio':44s} {record['fail_ratio']:>16.6g} "
          f"{'ratio':8s} n={res['attempted']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
