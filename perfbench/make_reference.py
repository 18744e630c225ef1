"""Write reference.json: the seed-independent outputs of every operation.

Run from the repository root with ``PYTHONPATH=src python3
perfbench/make_reference.py``.  Regenerate only when a change is meant to
alter an output, and review the diff: an operation that raises is recorded
under ``known_failures``, so a defect present when this runs would become
part of the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from gate import REFERENCE_PATH, jsonable
from workloads import WORKLOADS

RTOL = 1e-7
ATOL = 1e-9


def main() -> int:
    values, known_failures = {}, {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in WORKLOADS.values():
            for op in workload.ops:
                try:
                    op_values, problems = op.run(0, Path(tmp) / "out")
                except Exception as error:
                    known_failures[op.name] = {
                        "exception": type(error).__name__,
                        "message": str(error),
                    }
                    continue
                if problems:
                    print(f"{op.name}: {problems}", file=sys.stderr)
                    return 1
                values[op.name] = jsonable(op_values)
    reference = {"rtol": RTOL, "atol": ATOL, "known_failures": known_failures, "values": values}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
