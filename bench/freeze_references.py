#!/usr/bin/env python3
"""Capture the frozen output references of every workload.

    python3 bench/freeze_references.py

Writes bench/references.json: for each workload at its default size and
each shipped seed, the sha256 of every output file and the SSM report's
fields. Each capture must first pass the spec oracle in check.py. Rerun
this only on purpose: every later run is held to what it records.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from softedge import cli  # noqa: E402

# The default seed, and one held out: not for tuning a change against.
SEEDS = (0, 9001)


def main() -> int:
    refs = {}
    for wl in workloads.WORKLOADS.values():
        seeds = {}
        for seed in SEEDS:
            run.OUT.mkdir(exist_ok=True)
            work = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                _, _, err = run.run_iteration(
                    cli, wl.setup_argvs(work, seed) + wl.stage_argvs(work, seed))
                bad = [err] if err else check.oracle(work, wl, seed)
                if bad:
                    print(f"{wl.name} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = check.snapshot(work, wl)
            finally:
                shutil.rmtree(work)
        refs[wl.name] = {"n": wl.n, "seeds": seeds}
    check.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
