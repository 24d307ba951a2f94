#!/usr/bin/env python3
"""Run tier-1 under a line tracer and fail on each src/ line no test runs.

    PYTHONPATH=src python3 tests/line_trace.py [pytest args]

A ``sys.settrace`` recorder, scoped to the frames of ``src/softedge``,
records every line that runs while pytest runs the suite in this process.
A line counts as runnable if it starts an instruction of some code object
compiled from its file. Each runnable line that never ran is printed as
``path:line: source`` and fails the run, unless ``ALLOWED`` names its file
and source text; an ``ALLOWED`` entry that matches no unrun line is stale
and fails the run too. Lines that only a subprocess runs count as unrun.
Standard library and pytest only; pytest does not collect this file.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "softedge"

# (file name, stripped source text): why no tier-1 test runs that line.
ALLOWED = {
    ("ssm.py", "raise"): (
        "run_report's re-raise after its named checks: it runs only if a "
        "pass fails and every named check passes, which no input gives"),
    ("cli.py", "sys.exit(main())"): (
        "the __main__ call: tests run cli.main in-process"),
}


def runnable(path: Path) -> set:
    """The lines that start an instruction of a code object of the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args) -> int:
    prefix, ran, scoped = str(PACKAGE) + "/", set(), {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in scoped:
            scoped[code] = code.co_filename.startswith(prefix)
        if not scoped[code]:
            return None
        ran.add((code.co_filename, frame.f_lineno))
        return local

    import pytest  # before the tracer, which is for the suite alone

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(runnable(path) - {l for f, l in ran
                                              if f == str(path)}):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                unrun.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    stale = [f"stale allowlist entry: {k}" for k in ALLOWED if k not in used]
    for message in unrun + stale:
        print(message, file=sys.stderr)
    print(f"line trace: {len(unrun)} unrun src/ lines, "
          f"{len(used)} allowlisted, {len(stale)} stale allowlist entries")
    return 1 if unrun or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
