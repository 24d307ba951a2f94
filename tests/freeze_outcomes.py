#!/usr/bin/env python3
"""Capture the frozen outcomes of the report entry points.

    PYTHONPATH=src python3 tests/freeze_outcomes.py

Writes tests/outcomes.json: for each recipe and form of
``tests/test_outcomes.py``, the digest of its result or its error's class,
message and index. Rerun this only on purpose, on a platform whose
longdouble is wider than binary64: every later run is held to what it
records, and the change that reruns it names each row that moved.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_outcomes  # noqa: E402


def main() -> int:
    if not test_outcomes._LD_WIDE:
        print("longdouble is binary64 here: its rows would not be frozen",
              file=sys.stderr)
        return 1
    doc = test_outcomes.table()
    test_outcomes.TABLE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
